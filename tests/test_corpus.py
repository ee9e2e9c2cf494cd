"""Data model: taxonomy, segmentation, serialization, file loading."""

import contextlib
import json
import random

import pytest

from conftest import echo_prediction, make_sample, write_corpus, write_predictions

import rpeval.corpus
import rpeval.pipeline
from rpeval.cli import main
from rpeval.corpus import (
    AMBIGUOUS,
    DEFAULT_DELIMITERS,
    DEFAULT_EMOTION_LABELS,
    DEFAULT_TENDENCY_MAP,
    CorpusError,
    DialogueSample,
    EmotionTaxonomy,
    MultimodalResponse,
    PredictionRecord,
    UserTurn,
    default_taxonomy,
    load_corpus,
    load_predictions,
    parse_json,
    replacing,
    save_jsonl,
    segment_utterances,
)
from rpeval.pipeline import ConfigError, _rc_materials, write_out_file


def test_default_taxonomy_has_thirteen_labels():
    tax = default_taxonomy()
    assert tax.size == 13
    assert len(set(tax.labels)) == 13
    assert AMBIGUOUS not in tax


def test_default_labels_are_the_tendency_maps_keys_in_the_cped_order():
    assert DEFAULT_EMOTION_LABELS == (
        "happy", "grateful", "relaxed", "positive-other", "neutral", "anger",
        "sadness", "fear", "depress", "disgust", "astonished", "worried",
        "negative-other")
    assert tuple(DEFAULT_TENDENCY_MAP) == DEFAULT_EMOTION_LABELS
    assert default_taxonomy().fingerprint == "2c6665bdc160d38a"


def test_tendency_partition_is_total():
    tax = default_taxonomy()
    groups = {"positive": 0, "neutral": 0, "negative": 0}
    for label in tax.labels:
        groups[tax.tendency_of(label)] += 1
    assert groups == {"positive": 4, "neutral": 1, "negative": 8}


def test_tendency_of_passes_ambiguous_through():
    tax = default_taxonomy()
    assert tax.tendency_of(AMBIGUOUS) == AMBIGUOUS


def test_taxonomy_rejects_unknown_label():
    tax = default_taxonomy()
    with pytest.raises(CorpusError):
        tax.tendency_of("joyful")
    with pytest.raises(CorpusError):
        tax.index("joyful")


def test_taxonomy_rejects_duplicates_and_reserved_label():
    with pytest.raises(CorpusError):
        EmotionTaxonomy(labels=("happy", "happy"),
                        tendency_map={"happy": "positive"})
    with pytest.raises(CorpusError):
        EmotionTaxonomy(labels=("happy", AMBIGUOUS),
                        tendency_map={"happy": "positive", AMBIGUOUS: "neutral"})


def test_taxonomy_requires_full_tendency_map():
    with pytest.raises(CorpusError):
        EmotionTaxonomy(labels=("happy", "sadness"),
                        tendency_map={"happy": "positive"})
    with pytest.raises(CorpusError):
        EmotionTaxonomy(labels=("happy", "sadness"),
                        tendency_map={"happy": "positive", "sadness": "gloomy"})


def test_small_custom_taxonomy_is_allowed():
    tax = EmotionTaxonomy(
        labels=("up", "flat", "down"),
        tendency_map={"up": "positive", "flat": "neutral", "down": "negative"},
    )
    assert tax.size == 3
    assert tax.tendencies() == ("positive", "neutral", "negative")


def test_fingerprint_tracks_label_order():
    a = EmotionTaxonomy(labels=("up", "down"),
                        tendency_map={"up": "positive", "down": "negative"})
    b = EmotionTaxonomy(labels=("down", "up"),
                        tendency_map={"up": "positive", "down": "negative"})
    assert a.fingerprint != b.fingerprint
    assert a.fingerprint == EmotionTaxonomy(
        labels=("up", "down"),
        tendency_map={"up": "positive", "down": "negative"},
    ).fingerprint


def test_segmentation_mixed_punctuation():
    assert segment_utterances("你好。今天呢？ fine, thanks!") == [
        "你好", "今天呢", "fine", "thanks"]


def test_segmentation_discards_empty_fragments():
    assert segment_utterances("。。a。。 b 。") == ["a", "b"]


def test_segmentation_without_delimiters_is_one_utterance():
    assert segment_utterances("just one thought with no stops") == [
        "just one thought with no stops"]


def test_segmentation_all_delimiters_collapses_to_original():
    assert segment_utterances(" 。！。 ") == ["。！。"]


def test_segmentation_rejects_empty_content():
    with pytest.raises(CorpusError):
        segment_utterances("")
    with pytest.raises(CorpusError):
        segment_utterances("   ")


def test_segmentation_custom_delimiters():
    assert segment_utterances("a|b|c", delimiters="|") == ["a", "b", "c"]


def _segment_by_characters(content, delimiters):
    """The splitter as a loop over characters, kept as the reference."""
    parts, buf = [], []
    for ch in content:
        if ch in delimiters:
            frag = "".join(buf).strip()
            if frag:
                parts.append(frag)
            buf = []
        else:
            buf.append(ch)
    frag = "".join(buf).strip()
    if frag:
        parts.append(frag)
    return parts or [content.strip()]


def test_segmentation_matches_a_loop_over_characters():
    # Regular-expression syntax among the delimiters must split as
    # literal characters, and no delimiters at all must not split.
    alphabet = "ab ^]\\-[.*+?()|{}$\t\n。，！你…"
    rng = random.Random("segment")
    fixed = ["", "^", "]", "\\", "-", "^-]\\", "a-c", "[]", DEFAULT_DELIMITERS,
             "^" + DEFAULT_DELIMITERS[::-1]]
    for trial in range(6000):
        delimiters = (fixed[trial // 2 % len(fixed)] if trial % 2 else
                      "".join(rng.sample(alphabet, rng.randint(0, 6))))
        content = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 16)))
        if not content.strip():
            with pytest.raises(CorpusError):
                segment_utterances(content, delimiters)
            continue
        assert (segment_utterances(content, delimiters)
                == _segment_by_characters(content, delimiters)), (content, delimiters)


def test_response_roundtrip_and_canonical_json():
    resp = MultimodalResponse(
        facial_expression="soft smile",
        body_movement="leans back",
        speech_prompt="warm and slow",
        content="你好。",
    )
    obj = json.loads(resp.to_json())
    assert list(obj) == [
        "facial_expression", "body_movement", "speech_prompt", "content",
    ]
    assert MultimodalResponse.from_dict(obj) == resp
    assert MultimodalResponse.from_short_dict(resp.to_short_dict()) == resp


def test_response_requires_all_fields_and_content():
    with pytest.raises(CorpusError):
        MultimodalResponse.from_dict({"content": "hi"})
    with pytest.raises(CorpusError):
        MultimodalResponse.from_dict({
            "facial_expression": "x", "body_movement": "y",
            "speech_prompt": "z", "content": "   ",
        })
    with pytest.raises(CorpusError):
        MultimodalResponse.from_dict({
            "facial_expression": 3, "body_movement": "y",
            "speech_prompt": "z", "content": "hi",
        })


def test_sample_record_roundtrip_is_identity():
    sample = make_sample("s1", history=2, dialogue_id="d9")
    assert DialogueSample.from_record(sample.to_record()) == sample
    plain = make_sample("s2")
    assert DialogueSample.from_record(plain.to_record()) == plain


def test_load_corpus_happy_path(tmp_path):
    samples = [make_sample("a"), make_sample("b", role_id="witch", gt=("anger",))]
    path = write_corpus(tmp_path / "c.jsonl", samples)
    loaded = load_corpus(path)
    assert loaded == samples


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "c.jsonl"
    good = json.dumps(make_sample("a").to_record())
    path.write_text(good + "\n{not json}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus(path)
    assert ":2:" in str(err.value)


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = write_corpus(tmp_path / "c.jsonl", [make_sample("a"), make_sample("a")])
    with pytest.raises(CorpusError, match="duplicate sample_id"):
        load_corpus(path)


def test_load_corpus_rejects_label_count_mismatch(tmp_path):
    record = make_sample("a").to_record()
    record["gt_emotions"] = ["happy"]  # content has two utterances
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="gold labels"):
        load_corpus(path)


def test_load_corpus_rejects_unknown_gold_label(tmp_path):
    record = make_sample("a", gt=("happy", "grateful")).to_record()
    record["gt_emotions"] = ["happy", "euphoric"]
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="euphoric"):
        load_corpus(path)


def test_load_corpus_rejects_conflicting_role_cards(tmp_path):
    a = make_sample("a", profile="kind")
    b = make_sample("b", profile="cruel")
    path = write_corpus(tmp_path / "c.jsonl", [a, b])
    with pytest.raises(CorpusError, match="conflicting role cards"):
        load_corpus(path)


def test_load_corpus_rejects_empty_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty"):
        load_corpus(path)


def test_load_corpus_skips_blank_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    record = json.dumps(make_sample("a").to_record())
    path.write_text(record + "\n\n   \n", encoding="utf-8")
    assert len(load_corpus(path)) == 1


def test_load_predictions(tmp_path):
    records = [PredictionRecord("a", "{}"), PredictionRecord("b", "raw text")]
    path = write_predictions(tmp_path / "p.jsonl", records)
    assert load_predictions(path) == records


def test_load_predictions_rejects_duplicates_and_bad_fields(tmp_path):
    path = write_predictions(
        tmp_path / "p.jsonl",
        [PredictionRecord("a", "x"), PredictionRecord("a", "y")],
    )
    with pytest.raises(CorpusError, match="duplicate sample_id"):
        load_predictions(path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"sample_id": "a"}) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="raw_output"):
        load_predictions(bad)


def test_a_predictions_file_of_blank_lines_is_empty(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text("\n   \n\r\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"p\.jsonl: predictions file is empty$"):
        load_predictions(path)


def test_user_turn_media_refs_round_trip():
    sample = make_sample("a", history=1)
    sample.user_input = UserTurn("hi", audio_ref="a/1.wav", video_ref="v/1.mp4")
    sample.history[0] = (UserTurn("yo", video_ref="v/0.mp4"), sample.history[0][1])
    record = sample.to_record()
    assert record["user_input"] == {"content": "hi", "audio_ref": "a/1.wav",
                                    "video_ref": "v/1.mp4"}
    assert record["history"][0]["user"] == {"content": "yo", "video_ref": "v/0.mp4"}
    assert DialogueSample.from_record(json.loads(json.dumps(record))) == sample


@pytest.mark.parametrize("path, error", [
    (("role", "role_id"), "role_id must be non-empty"),
    (("sample_id",), "sample_id must be non-empty"),
])
def test_an_empty_id_is_a_data_error(tmp_path, capsys, path, error):
    record = make_sample("a").to_record()
    _parent(record, path)[path[-1]] = ""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"corpus.jsonl:1: {error}"):
        load_corpus(corpus)
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    assert main(["gt-stats", "--config", str(config), "--corpus", str(corpus)]) == 3
    assert error in capsys.readouterr().err


# A required field left out is named with its owner; ``raw_output`` is
# refused by its type check.
_ABSENT_FIELDS = [
    ("corpus", ("sample_id",), "sample is missing field 'sample_id'"),
    ("corpus", ("gt_emotions",), "sample is missing field 'gt_emotions'"),
    ("corpus", ("role", "role_id"), "role card is missing field 'role_id'"),
    ("corpus", ("user_input", "content"), "user turn is missing field 'content'"),
    ("corpus", ("history", 0, "user", "content"),
     "user turn is missing field 'content'"),
    ("predictions", ("sample_id",), "prediction is missing field 'sample_id'"),
    ("predictions", ("raw_output",), "raw_output must be a string"),
]


@pytest.mark.parametrize("where, path, error", _ABSENT_FIELDS,
                         ids=[".".join(map(str, row[1])) + "@" + row[0]
                              for row in _ABSENT_FIELDS])
def test_an_absent_required_field_is_named(tmp_path, where, path, error):
    sample = make_sample("a", history=1)
    record = (sample.to_record() if where == "corpus"
              else echo_prediction(sample).to_record())
    del _parent(record, path)[path[-1]]
    file = tmp_path / f"{where}.jsonl"
    file.write_text(json.dumps(record) + "\n", encoding="utf-8")
    load = load_corpus if where == "corpus" else load_predictions
    with pytest.raises(CorpusError, match=f"{where}.jsonl:1: {error}$"):
        load(file)


# A JSON null in an optional field reads as the field left out; in a
# required one it is a corpus error naming the field.
_NULL_FIELDS = [
    ("corpus", ("role", "profile"), None),
    ("corpus", ("role", "image_ref"), None),
    ("corpus", ("role", "user_name"), None),
    ("corpus", ("previous_info",), None),
    ("corpus", ("user_input", "audio_ref"), None),
    ("corpus", ("history", 0, "user", "video_ref"), None),
    ("corpus", ("sample_id",), "sample field 'sample_id' must not be null"),
    ("corpus", ("role", "role_id"), "role card field 'role_id' must not be null"),
    ("corpus", ("user_input", "content"),
     "user turn field 'content' must not be null"),
    ("corpus", ("history", 0, "user", "content"),
     "user turn field 'content' must not be null"),
    ("predictions", ("sample_id",),
     "prediction field 'sample_id' must not be null"),
]


def _parent(record, path):
    for key in path[:-1]:
        record = record[key]
    return record


@pytest.mark.parametrize("where, path, error", _NULL_FIELDS,
                         ids=[".".join(map(str, row[1])) + "@" + row[0]
                              for row in _NULL_FIELDS])
def test_null_fields_read_as_absent_or_are_named(tmp_path, capsys, where, path,
                                                 error):
    sample = make_sample("a", history=1)
    records = {"corpus": sample.to_record(),
               "predictions": PredictionRecord("a", sample.ground_truth.to_json())
               .to_record()}
    absent = json.loads(json.dumps(records[where]))
    _parent(records[where], path)[path[-1]] = None
    files = {}
    for name, record in records.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(json.dumps(record) + "\n", encoding="utf-8")
    load = load_corpus if where == "corpus" else load_predictions
    if error is None:
        _parent(absent, path).pop(path[-1], None)
        files["absent"] = tmp_path / "absent.jsonl"
        files["absent"].write_text(json.dumps(absent) + "\n", encoding="utf-8")
        assert load(files[where]) == load(files["absent"])
        (loaded,) = load(files[where])
        assert "None" not in _rc_materials(loaded, ["profile", "previous_info"])
        return
    with pytest.raises(CorpusError, match=f"{where}.jsonl:1: {error}"):
        load(files[where])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experts": [{"name": "e", "kind": "mock"}],
                                  "rc_evaluators": [{"name": "r", "kind": "mock"}]}),
                      encoding="utf-8")
    assert main(["evaluate", "--config", str(config),
                 "--corpus", str(files["corpus"]),
                 "--predictions", str(files["predictions"]),
                 "--out", str(tmp_path / "out")]) == 3
    assert error in capsys.readouterr().err


# A text field holds a string or a number (numeric ids load as text); an
# object, a list or a boolean is a corpus error naming its owner and field.
_NOT_TEXT = [
    ("corpus", ("role", "profile"), {"likes": "tea"}, "role card field 'profile'"),
    ("corpus", ("role", "role_id"), ["r", 1], "role card field 'role_id'"),
    ("corpus", ("role", "user_name"), True, "role card field 'user_name'"),
    ("corpus", ("role", "image_ref"), False, "role card field 'image_ref'"),
    ("corpus", ("previous_info",), ["earlier"], "sample field 'previous_info'"),
    ("corpus", ("sample_id",), {"id": 1}, "sample field 'sample_id'"),
    ("corpus", ("dialogue_id",), ["d", 1], "sample field 'dialogue_id'"),
    ("corpus", ("user_input", "content"), {"text": "hi"},
     "user turn field 'content'"),
    ("corpus", ("history", 0, "user", "audio_ref"), True,
     "user turn field 'audio_ref'"),
    ("predictions", ("sample_id",), ["a"], "prediction field 'sample_id'"),
]


def _not_text_files(tmp_path, where, path, value):
    sample = make_sample("a", history=1)
    records = {"corpus": sample.to_record(),
               "predictions": PredictionRecord("a", sample.ground_truth.to_json())
               .to_record()}
    _parent(records[where], path)[path[-1]] = value
    files = {}
    for name, record in records.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(json.dumps(record) + "\n", encoding="utf-8")
    return files


@pytest.mark.parametrize("where, path, value, owner", _NOT_TEXT,
                         ids=[".".join(map(str, row[1])) + "@" + row[0]
                              for row in _NOT_TEXT])
def test_text_fields_refuse_objects_lists_and_booleans(tmp_path, where, path,
                                                        value, owner):
    files = _not_text_files(tmp_path, where, path, value)
    load = load_corpus if where == "corpus" else load_predictions
    with pytest.raises(CorpusError, match=f"{where}.jsonl:1: {owner} "
                                          "must be a string or a number"):
        load(files[where])


def test_numeric_text_fields_load_as_text(tmp_path):
    record = make_sample("a").to_record()
    record.update(sample_id=7, dialogue_id=12, previous_info=1.5)
    record["role"].update(role_id=3, user_name=0)
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    (sample,) = load_corpus(path)
    assert (sample.sample_id, sample.dialogue_id, sample.previous_info) == (
        "7", "12", "1.5")
    assert (sample.role.role_id, sample.role.user_name) == ("3", "0")
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"sample_id": 7, "raw_output": "x"}) + "\n",
                     encoding="utf-8")
    assert load_predictions(preds) == [PredictionRecord("7", "x")]


def test_cli_exits_3_on_a_role_card_field_that_is_an_object(tmp_path, capsys):
    files = _not_text_files(tmp_path, "corpus", ("role", "profile"),
                            {"likes": "tea"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experts": [{"name": "e", "kind": "mock"}],
                                  "rc_evaluators": [{"name": "r", "kind": "mock"}]}),
                      encoding="utf-8")
    assert main(["evaluate", "--config", str(config),
                 "--corpus", str(files["corpus"]),
                 "--predictions", str(files["predictions"]),
                 "--out", str(tmp_path / "out")]) == 3
    assert ("role card field 'profile' must be a string or a number"
            in capsys.readouterr().err)


def test_custom_taxonomy_validates_corpus(tmp_path):
    tax = EmotionTaxonomy(
        labels=("up", "down"),
        tendency_map={"up": "positive", "down": "negative"},
    )
    sample = make_sample("a", gt=("happy",))
    sample.gt_emotions = ["up"]
    sample.ground_truth.content = "up。"
    path = write_corpus(tmp_path / "c.jsonl", [sample])
    loaded = load_corpus(path, taxonomy=tax)
    assert loaded[0].gt_emotions == ["up"]
    with pytest.raises(CorpusError):
        load_corpus(path)  # default taxonomy does not know "up"


def test_parse_json_refuses_unpaired_surrogate_escapes():
    assert parse_json('"\\ud83d\\ude00"', "x") == "\U0001F600"  # a pair
    assert parse_json('"\\\\ud800"', "x") == "\\ud800"  # an escaped backslash
    for text in ('"\\ud800"', '"a\\uDC00"', '{"\\udbff": 1}', '[["\\ud83d"]]'):
        with pytest.raises(CorpusError, match="^where: invalid JSON"):
            parse_json(text, "where")


class _FailingWriter:
    """Passes writes to ``fh`` until ``limit`` characters, then fails."""

    def __init__(self, fh, limit):
        self.fh, self.limit = fh, limit

    def write(self, text):
        if self.limit < len(text):
            self.fh.write(text[:self.limit])
            raise OSError(28, "No space left on device")
        self.limit -= len(text)
        return self.fh.write(text)


def test_a_failed_write_leaves_the_previous_file_and_no_temporary(tmp_path,
                                                                 monkeypatch):
    real = rpeval.corpus.replacing

    @contextlib.contextmanager
    def failing(path):
        with real(path) as fh:
            yield _FailingWriter(fh, limit=20)

    for write, error in (
            (lambda: write_out_file(tmp_path, "report.json", "x" * 100),
             ConfigError),
            (lambda: save_jsonl(tmp_path / "report.json",
                                [{"n": i} for i in range(10)]), OSError)):
        (tmp_path / "report.json").write_bytes(b"old bytes\n")
        with monkeypatch.context() as patch:
            patch.setattr(rpeval.corpus, "replacing", failing)
            patch.setattr(rpeval.pipeline, "replacing", failing)
            with pytest.raises(error, match="No space left"):
                write()
        assert (tmp_path / "report.json").read_bytes() == b"old bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    # a whole write replaces the file
    with replacing(tmp_path / "report.json") as fh:
        fh.write("new\n")
    assert (tmp_path / "report.json").read_bytes() == b"new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
