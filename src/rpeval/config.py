"""The run config: what a run is, the checks on it, and its defaults.

A run is set by its expert panel and passes, the vote threshold, the
role-consistency evaluators and the role materials each of their
questions is grounded in, besides the taxonomy, retry and sampling
settings.  Every config dataclass checks its fields against their
annotations (``check_fields``); ``build_config`` builds one from a JSON
object.  From ``rpeval`` this module imports only ``corpus``, so reading
a config loads no numpy, judge backend or pipeline.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Literal, Mapping, Optional, Sequence, Union, get_args,
                    get_origin, get_type_hints)

from .corpus import (
    DEFAULT_DELIMITERS,
    DEFAULT_EMOTION_LABELS,
    DEFAULT_TENDENCY_MAP,
    CorpusError,
    EmotionTaxonomy,
    parse_json,
    read_lines,
)


class ConfigError(ValueError):
    """Bad configuration (values, backend set-up, credentials, cache); never retried."""


DEFAULT_TAU = 0.7
DEFAULT_PASSES = 2

# Smoothing added per cell before comparing flattened transition
# distributions, so a category unseen on one side cannot zero out the
# Bhattacharyya overlap entirely.
DEFAULT_SMOOTHING = 1e-9

RcMetric = Literal["exp", "cha", "rel"]
RC_METRICS = get_args(RcMetric)

# Role material fields each role-consistency question is grounded in.
RcField = Literal["profile", "previous_info"]
DEFAULT_RC_ROUTING = {
    "exp": ["previous_info"],
    "cha": ["profile"],
    "rel": ["profile", "previous_info"],
}


# Config annotations are strings until resolved; resolve each class once.
_type_hints = functools.cache(get_type_hints)


def _checked(tp, value, where: str):
    """``value`` checked against annotation ``tp``; JSON objects become dataclasses."""
    if get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if dataclasses.is_dataclass(tp):
        return value if isinstance(value, tp) else build_config(tp, value, where)
    origin = get_origin(tp) or tp
    if origin is Literal:  # of strings
        if not isinstance(value, str) or value not in get_args(tp):
            raise ConfigError(f"{where} must be one of {', '.join(get_args(tp))}, "
                              f"got {value!r}")
        return value
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        return origin(_checked(get_args(tp)[0], v, f"{where}[{i}]")
                      for i, v in enumerate(value))
    if origin is dict:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where} must be an object")
        key_tp, value_tp = get_args(tp)
        return {_checked(key_tp, k, f"{where} key"): _checked(value_tp, v, f"{where}.{k}")
                for k, v in value.items()}
    # JSON 1 is a valid float; bool is an int subclass but no number here.
    allowed = (int, float) if tp is float else tp
    if not isinstance(value, allowed) or (isinstance(value, bool) and tp is not bool):
        raise ConfigError(f"{where} must be {tp.__name__}, got {type(value).__name__}")
    if tp is float and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value}")
    if tp is str and not value.isascii():  # half a surrogate pair has no digest
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"{where} must be valid Unicode text") from None
    return value


def check_fields(obj) -> None:
    """Check (and convert) each field of config dataclass ``obj`` by its annotation."""
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = _checked(hints[f.name], getattr(obj, f.name), f.name)
        object.__setattr__(obj, f.name, value)  # frozen dataclasses too


def build_config(cls, obj, where: str):
    """Build ``cls`` from JSON object ``obj``; errors name the path from ``where``."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"{where} must be an object")
    names = tuple(f.name for f in dataclasses.fields(cls))
    unknown = set(obj) - set(names)
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    try:
        return cls(**obj)
    except (TypeError, ValueError) as exc:
        sep = "." if str(exc).startswith(names) else ": "  # a field continues the path
        raise ConfigError(f"{where}{sep}{exc}") from None


@dataclass(frozen=True)
class Sampling:
    """Decoding parameters sent with every judge request.

    Judges default to greedy decoding so runs are reproducible; the
    higher-temperature settings used to *generate* role-play responses
    live in the run config, not here.
    """

    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        check_fields(self)
        if self.temperature < 0:
            raise ConfigError("temperature must not be negative")
        if not 0 <= self.top_p <= 1:
            raise ConfigError("top_p must be in [0, 1]")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be at least 1")


# Sampling values go into cache keys and request bodies in field order.
_SAMPLING_FIELDS = tuple(f.name for f in dataclasses.fields(Sampling))


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be at least 1")
        for name in ("base_delay", "max_delay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (attempt counts from 1):
        ``base_delay`` doubled per retry, capped at ``max_delay``."""
        try:
            return min(self.max_delay, math.ldexp(self.base_delay, attempt - 1))
        except OverflowError:  # far past the cap
            return self.max_delay


def _require_unique_names(names: Sequence[str]) -> None:
    """Refuse judges that share a name: the manifest keys their counters by it."""
    dupes = sorted({name for name in names if names.count(name) > 1})
    if dupes:
        raise ConfigError(f"judge names must be unique within a run: {dupes}")


@dataclass
class BackendSpec:
    """Declarative judge backend description from the run config."""

    name: str
    kind: Literal["http", "mock"]
    endpoint: str = ""
    model: str = ""
    credential_env: str = ""
    rate_limit: float = 0.0
    timeout: float = 60.0
    fixture_dir: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.name:
            raise ConfigError("name must not be empty")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if self.rate_limit < 0:  # a negative rate limit would mean no limit
            raise ConfigError("rate_limit must not be negative")


@dataclass
class RunConfig:
    """Everything a run needs besides the corpus and predictions paths."""

    labels: tuple[str, ...] = DEFAULT_EMOTION_LABELS
    tendency_map: dict[str, str] = field(
        default_factory=lambda: dict(DEFAULT_TENDENCY_MAP))
    delimiters: str = DEFAULT_DELIMITERS
    tau: float = DEFAULT_TAU
    passes: int = DEFAULT_PASSES
    max_repair_attempts: int = 2
    concurrency: int = 4
    seed: int = 0
    sample_limit: Optional[int] = None
    cache_dir: str = ""
    smoothing: float = DEFAULT_SMOOTHING
    divergence_mode: Literal["flatten", "rows"] = "flatten"
    rc_floor_unrepairable: bool = False
    rc_routing: dict[RcMetric, list[RcField]] = field(default_factory=lambda: {
        k: list(v) for k, v in DEFAULT_RC_ROUTING.items()
    })
    judge_sampling: Sampling = Sampling()
    generation_sampling: Sampling = Sampling(temperature=0.7, top_p=0.95)
    retry: RetryPolicy = RetryPolicy()
    experts: list[BackendSpec] = field(default_factory=list)
    rc_evaluators: list[BackendSpec] = field(default_factory=list)
    repair: Optional[BackendSpec] = None
    generators: list[BackendSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_fields(self)
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("tau must be in (0, 1]")
        for name in ("passes", "max_repair_attempts", "concurrency", "sample_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.smoothing < 0:
            raise ConfigError("smoothing must be non-negative")
        _require_unique_names([s.name for s in self.experts + self.rc_evaluators
                               + [self.repair] if s is not None])
        _require_unique_names([s.name for s in self.generators])  # never beside judges
        self.taxonomy()  # fail fast on a bad label scheme

    def taxonomy(self) -> EmotionTaxonomy:
        try:
            return EmotionTaxonomy(labels=self.labels,
                                   tendency_map=dict(self.tendency_map))
        except CorpusError as exc:
            raise ConfigError(f"bad taxonomy: {exc}") from None

    @classmethod
    def from_dict(cls, obj: Mapping) -> "RunConfig":
        return build_config(cls, obj, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        text = "".join(read_lines(path, ConfigError))
        return cls.from_dict(parse_json(text, f"config {path}", ConfigError))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
