"""The labeled corpus shared by every pipeline stage: one record array.

Each record is exactly one `.sset` record: 1500 payload bytes, a u16 class
label and an i16 benign cluster id (-1 = no cluster). Stages select, stack
and score whole columns; nothing is re-stacked per packet.

The payload is the paper's 20x25 RGB image read row-major: byte
3 * (25 * r + c) + k is channel k of pixel (r, c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValueOutOfRange, WrongLength

IMAGE_SHAPE = (20, 25, 3)  # rows, columns, channels
FEATURE_LEN = IMAGE_SHAPE[0] * IMAGE_SHAPE[1] * IMAGE_SHAPE[2]
BENIGN_CLASS_ID = 0
BENIGN_CLASS_NAME = "benign"
NO_CLUSTER = -1

RECORD_DTYPE = np.dtype([("features", "u1", (FEATURE_LEN,)), ("label", "<u2"), ("cluster", "<i2")])


def make_records(features, labels, cluster=NO_CLUSTER) -> np.recarray:
    """Record array from an (n, 1500) byte matrix, n labels and cluster ids
    (one id for all rows, or one per row)."""
    feats = np.asarray(features)
    if feats.ndim != 2 or feats.shape[1] != FEATURE_LEN:
        raise WrongLength(f"feature matrix must be (n, {FEATURE_LEN}), got {feats.shape}")
    if feats.dtype != np.uint8:
        if not np.issubdtype(feats.dtype, np.integer):
            raise ValueOutOfRange("feature values must be integers")
        if feats.size and (feats.min() < 0 or feats.max() > 255):
            raise ValueOutOfRange("feature values must lie in [0, 255]")
    out = np.recarray(feats.shape[0], dtype=RECORD_DTYPE)
    out.features = feats
    out.label = labels
    out.cluster = cluster
    return out


@dataclass(eq=False)
class SampleSet:
    """A labeled corpus: class-name table plus a `RECORD_DTYPE` record array.

    Class id 0 is always the benign class. Construction validates every
    row: no all-zero payloads, labels inside the class table, and cluster
    ids on benign rows only.
    """

    class_names: list[str]
    samples: np.recarray = field(default_factory=lambda: np.recarray(0, dtype=RECORD_DTYPE))

    def __post_init__(self):
        if not self.class_names:
            raise WrongLength("class-name table must not be empty")
        samples = np.asarray(self.samples)
        if samples.dtype != RECORD_DTYPE or samples.ndim != 1:
            raise WrongLength(f"samples must be a 1-D array of {RECORD_DTYPE}, got {samples.dtype}")
        samples = samples.view(np.recarray)
        if not samples.features.any(axis=1).all():
            raise ValueOutOfRange("all-zero feature vectors are filtered out upstream")
        if np.any(samples.label >= len(self.class_names)):
            bad = int(samples.label.max())
            raise ValueOutOfRange(f"class id {bad} outside class table of size {len(self.class_names)}")
        if np.any((samples.cluster >= 0) & (samples.label != BENIGN_CLASS_ID)):
            raise ValueOutOfRange("cluster ids are only assigned to benign samples")
        self.samples = samples

    def __len__(self) -> int:
        return len(self.samples)

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.class_names == other.class_names and self.samples.tobytes() == other.samples.tobytes()

    def name_of(self, label: int) -> str:
        return self.class_names[label]
