"""Command line entry points.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 judge
backend exhaustion.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ConfigError, RunConfig
from .corpus import CorpusError, parse_json, read_lines
from .judges import TransportError
from .pipeline import (
    _dump_json,
    agreement,
    evaluate,
    generate,
    gt_statistics,
    load_agreement_table,
    write_out_file,
    write_report_files,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpeval",
        description="Score multimodal role-playing predictions against "
                    "an annotated dialogue corpus.",
        epilog="examples:\n"
               "  rpeval evaluate --config run.json --corpus corpus.jsonl "
               "--predictions preds.jsonl --out results/\n"
               "  rpeval gt-stats --config run.json --corpus corpus.jsonl "
               "--out results/\n"
               "  rpeval agreement --kind ordinal --table ratings.csv\n"
               "  rpeval report --report results/report.json --format md "
               "--out results/\n",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="run the full scoring pipeline")
    p_eval.add_argument("--config", required=True, help="run config JSON")
    p_eval.add_argument("--corpus", required=True, help="corpus JSONL")
    p_eval.add_argument("--predictions", required=True,
                        help="predictions JSONL")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(run=_cmd_evaluate)

    p_gt = sub.add_parser("gt-stats",
                          help="ground-truth transition statistics")
    p_gt.add_argument("--config", required=True)
    p_gt.add_argument("--corpus", required=True)
    p_gt.add_argument("--out", help="output directory (default: stdout)")
    p_gt.set_defaults(run=_cmd_gt_stats)

    p_agree = sub.add_parser("agreement",
                             help="inter-rater agreement for a table")
    p_agree.add_argument("--kind", required=True,
                         choices=["nominal", "ordinal"])
    p_agree.add_argument("--table", required=True,
                         help="raters-by-units table (.csv or .json)")
    p_agree.set_defaults(run=_cmd_agreement)

    p_gen = sub.add_parser("generate",
                           help="produce predictions by role-playing the corpus")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--corpus", required=True)
    p_gen.add_argument("--backend", required=True,
                       help="generator backend name from the config")
    p_gen.add_argument("--out", required=True, help="predictions JSONL path")
    p_gen.set_defaults(run=_cmd_generate)

    p_rep = sub.add_parser("report", help="render a report in another format")
    p_rep.add_argument("--report", required=True,
                       help="report.json from a finished run")
    p_rep.add_argument("--format", required=True,
                       choices=["json", "csv", "md"])
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(run=_cmd_report)
    return parser


def _cmd_evaluate(args) -> int:
    config = RunConfig.from_file(args.config)
    run = evaluate(config, args.corpus, args.predictions, out_dir=args.out)
    for path in run.written:
        print(path)
    summary = run.report["summary"]
    for key, value in summary.items():
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"{key}\t{shown}")
    return EXIT_OK


def _cmd_gt_stats(args) -> int:
    config = RunConfig.from_file(args.config)
    stats = gt_statistics(config, args.corpus)
    text = _dump_json(stats)
    if args.out:
        print(write_out_file(args.out, "gt_stats.json", text))
    else:
        print(text, end="")
    return EXIT_OK


def _cmd_agreement(args) -> int:
    rows = load_agreement_table(args.table)
    alpha = agreement(args.kind, rows)
    print(f"alpha\t{alpha:.9f}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    config = RunConfig.from_file(args.config)
    records = generate(config, args.backend, args.corpus, args.out)
    print(f"wrote {len(records)} predictions to {args.out}")
    return EXIT_OK


def _cmd_report(args) -> int:
    report = parse_json("".join(read_lines(args.report)), args.report)
    if not isinstance(report, dict):
        raise CorpusError("report is not a JSON object")
    path = write_report_files(report, args.out, args.format)
    print(path)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TransportError as exc:
        print(f"backend exhausted: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
