"""JSON run configuration: one file, one section per pipeline stage.

A run is fully described by its config file; environment variables are
never consulted. Each stage's settings dataclass holds its defaults once:
the template is generated from them and `settings` builds them back.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any

from .clustering import EmbeddingParams
from .errors import ConfigError
from .evaluation import SyntheticConfig
from .learners import TrainingConfig
from .meta import MetaConfig
from .splits import SplitSpec

# Held-out attack classes used when ingesting CIC-style flow metadata.
# With a synthetic source the generator's unknown classes are held out
# instead (they are recorded next to the generated sample set).
DEFAULT_HELDOUT_CLASSES = [
    "DoS Hulk",
    "DoS slowloris",
    "DoS Slowhttptest",
    "Web Attack–Sql Injection",  # the label string really contains U+2013
    "Bot",
]

DEFAULT_COLUMN_MAP = {
    "src_ip": "Src IP",
    "src_port": "Src Port",
    "dst_ip": "Dst IP",
    "dst_port": "Dst Port",
    "protocol": "Protocol",
    "start_time": "Timestamp",
    "duration": "Flow Duration",
    "label": "Label",
}


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name != "seed"}


def default_config() -> dict:
    """The template: the settings dataclasses' own defaults, plus the keys
    that no dataclass holds. The top-level seed replaces each class's seed."""
    return {
        "seed": 7,
        "workdir": "runs/demo",
        "pipeline": {"source": "synth"},
        "synth": _defaults(SyntheticConfig),
        "ingest": {
            "pcap": "capture.pcap",
            "flows": "flows.csv",
            "benign_label": "BENIGN",
            "undersample_ratio": 1.0,
            "column_map": dict(DEFAULT_COLUMN_MAP),
        },
        "split": {
            "benign_ratios": list(SplitSpec.benign_ratios),
            "heldout_classes": list(DEFAULT_HELDOUT_CLASSES),
        },
        "cluster": {**_defaults(EmbeddingParams), "k_min": 2, "k_max": 15, "restarts": 10},
        "learners": {"kind": "logistic", **_defaults(TrainingConfig)},
        "meta": _defaults(MetaConfig),
        "eval": {"baseline_quantile": 0.99},
    }


def load_config(path) -> dict:
    p = Path(path)
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))  # not the locale's encoding
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, absurd nesting
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} must be a JSON object")
    return cfg


def require(cfg: dict, dotted_key: str) -> Any:
    """Walk a dotted path; a missing level names the full key in the error."""
    node: Any = cfg
    for part in dotted_key.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing required config key: {dotted_key}")
        node = node[part]
    return node


def _cast(key: str, value, kind: type):
    try:
        if not isinstance(value, bool) and kind(value) == value:
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"config key {key}: expected {kind.__name__}, got {value!r}")


def setting(cfg: dict, key: str, kind: type):
    """Required `key` as `kind`. A bool, or a value the cast would change
    (2.9 or "5" for an int, NaN, 5 for a str), is refused; 300.0 for an int loads."""
    return _cast(key, require(cfg, key), kind)


def setting_list(cfg: dict, key: str, kind: type, length=None) -> list:
    """Required `key`: a list (of `length` items, when given) whose every
    item `setting` would accept as a `kind`."""
    value = require(cfg, key)
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = f"{length} " if length else ""
        raise ConfigError(f"config key {key}: expected a list of {size}{kind.__name__}, got {value!r}")
    return [_cast(key, item, kind) for item in value]


def settings(cfg: dict, section: str, cls, **given):
    """`cls` built from config section `section`. Every field not in `given`
    is required there and cast to the type of its default."""
    required = [f for f in fields(cls) if f.name not in given]
    return cls(**{f.name: setting(cfg, f"{section}.{f.name}", type(f.default)) for f in required}, **given)
