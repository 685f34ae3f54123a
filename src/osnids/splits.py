"""Partition the labeled corpus into D1 (benign), D2 (benign + known
attacks) and D3 (benign + held-out attacks)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyBenign,
    InvalidRange,
    NoKnownAttacks,
    UnknownHeldoutClass,
)
from .samples import BENIGN_CLASS_ID, SampleSet


@dataclass(frozen=True)
class SplitSpec:
    heldout_classes: frozenset[str]
    benign_ratios: tuple[float, float, float] = (0.50, 0.30, 0.20)
    seed: int = 0

    def __post_init__(self):
        if len(self.benign_ratios) != 3 or any(r <= 0 for r in self.benign_ratios):
            raise InvalidRange(f"benign ratios must be three positive values, got {self.benign_ratios}")
        if abs(sum(self.benign_ratios) - 1.0) > 1e-9:
            raise InvalidRange(f"benign ratios must sum to 1, got {sum(self.benign_ratios)}")
        if not self.heldout_classes:
            raise InvalidRange("held-out class set must be non-empty")
        object.__setattr__(self, "heldout_classes", frozenset(self.heldout_classes))


@dataclass
class SplitResult:
    d1: np.recarray
    d2: np.recarray
    d3: np.recarray
    class_names: list[str]
    manifest: list[tuple[str, str, int]] = field(default_factory=list)  # (split, class, count)


def build_splits(sample_set: SampleSet, spec: SplitSpec) -> SplitResult:
    """Cut benign samples at the configured ratio boundaries (seeded
    shuffle, floor cut points, remainder to D3); send known attacks to D2
    and held-out classes to D3."""
    names = sample_set.class_names
    unknown_names = [c for c in spec.heldout_classes if c not in names]
    if unknown_names:
        raise UnknownHeldoutClass(f"held-out classes absent from data: {', '.join(sorted(unknown_names))}")
    if names[BENIGN_CLASS_ID] in spec.heldout_classes:
        raise InvalidRange("the benign class cannot be held out")
    heldout_ids = [names.index(c) for c in spec.heldout_classes]

    samples = sample_set.samples
    is_benign = samples.label == BENIGN_CLASS_ID
    is_heldout = np.isin(samples.label, heldout_ids)
    benign = samples[is_benign]
    known = samples[~is_benign & ~is_heldout]
    heldout = samples[is_heldout]
    if len(benign) == 0:
        raise EmptyBenign("no benign samples to split")
    if len(known) == 0:
        raise NoKnownAttacks("no non-held-out attack samples for the meta-learner split")

    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(len(benign))
    n = len(benign)
    # epsilon keeps e.g. (0.5 + 0.3) * n from flooring to 0.8n - 1
    cut1 = int(spec.benign_ratios[0] * n + 1e-9)
    cut2 = int((spec.benign_ratios[0] + spec.benign_ratios[1]) * n + 1e-9)
    result = SplitResult(
        d1=benign[order[:cut1]],
        d2=np.concatenate([benign[order[cut1:cut2]], known]).view(np.recarray),
        d3=np.concatenate([benign[order[cut2:]], heldout]).view(np.recarray),
        class_names=list(names),
    )
    result.manifest = split_manifest(result)
    return result


def split_manifest(result: SplitResult) -> list[tuple[str, str, int]]:
    """Sparse (split, class, count) table; classes absent from a split get no row."""
    rows: list[tuple[str, str, int]] = []
    for split_name, split in (("d1", result.d1), ("d2", result.d2), ("d3", result.d3)):
        labels, counts = np.unique(split.label, return_counts=True)
        rows += [(split_name, result.class_names[label], int(c)) for label, c in zip(labels, counts)]
    return rows
