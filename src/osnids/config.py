"""JSON run configuration: one file, one section per pipeline stage.

Every tunable default lives in the generated template so a run is fully
described by its config file; environment variables are never consulted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .errors import ConfigError

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


def default_config() -> dict:
    return {
        "seed": 7,
        "workdir": "runs/demo",
        "pipeline": {"source": "synth"},
        "synth": {
            "n_benign_clusters": 7,
            "n_known_attack_classes": 9,
            "n_unknown_attack_classes": 5,
            "samples_per_class": 200,
            "noise_sigma": 8.0,
            "min_hamming_separation": 1200,
        },
        "ingest": {
            "pcap": "capture.pcap",
            "flows": "flows.csv",
            "benign_label": "BENIGN",
            "undersample_ratio": 1.0,
            "column_map": dict(DEFAULT_COLUMN_MAP),
        },
        "split": {
            "benign_ratios": [0.50, 0.30, 0.20],
            "heldout_classes": list(DEFAULT_HELDOUT_CLASSES),
        },
        "cluster": {
            "perplexity": 30.0,
            "iterations": 1000,
            "early_exaggeration": 12.0,
            "learning_rate": 200.0,
            "k_min": 2,
            "k_max": 15,
            "restarts": 10,
        },
        "learners": {
            "kind": "logistic",
            "epochs": 30,
            "batch_size": 64,
            "learning_rate": 0.01,
            "l2": 1e-4,
        },
        "meta": {
            "holdout_fraction": 0.2,
            "forest_trees": 100,
            "forest_depth": 8,
            "boost_rounds": 100,
            "boost_learning_rate": 0.1,
            "boost_depth": 3,
            "boost_leaves": 15,
        },
        "eval": {
            "run_baseline": True,
            "baseline_quantile": 0.99,
        },
    }


def load_config(path) -> dict:
    p = Path(path)
    try:
        with open(p) as fh:
            cfg = json.load(fh)
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
