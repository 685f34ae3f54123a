"""Every file the program writes, and the binary formats it reads back.

Each write goes through `write_atomic`: `<name>.tmp` beside the target, then
a rename over it, so a killed run leaves no half-written file. All integers
are little-endian with fixed widths. Sample sets round-trip losslessly;
model bundles carry a JSON manifest plus one CRC32-guarded binary parameter
file per base scorer and per meta-classifier, and a reloaded bundle
reproduces bit-identical predictions.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BadEncoding,
    BadMagic,
    ChecksumMismatch,
    CountMismatch,
    IoFailure,
    ManifestInvalid,
    VersionUnsupported,
)
from .learners import BaseEnsemble, BinaryScorer, CONVNET, CONVNET_N_PARAMS, LOGISTIC, LOGISTIC_N_PARAMS
from .meta import BENIGN, META_FAMILIES, UNKNOWN_ATTACK, VOTE_ARITY, LogisticMetaClassifier, MetaEnsemble, Verdicts
from .samples import IMAGE_SHAPE, RECORD_DTYPE, SampleSet
from .trees import GradientBoostedTrees, RandomForest, TreeFamily, TreeNodes

SAMPLESET_MAGIC = b"OSNIDS1"
SAMPLESET_VERSION = 1
BUNDLE_FORMAT_VERSION = 1
_CSV_CHUNK_ROWS = 4096


# --- the one writer and the text formats on top of it ---


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to `<path>.tmp`, then rename it over `path`. Any
    `OSError` becomes `IoFailure`; on any failure the temporary file goes."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_json(path, obj) -> None:
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")])


def write_csv(path, rows: Iterable[Sequence]) -> None:
    """`csv.writer` rows (`\\r\\n` line ends) as UTF-8, encoded a block of rows
    at a time, so a long table is never held whole."""

    def chunks():
        rows_left = iter(rows)
        while block := list(itertools.islice(rows_left, _CSV_CHUNK_ROWS)):
            buf = io.StringIO()
            csv.writer(buf).writerows(block)
            yield buf.getvalue().encode("utf-8")

    write_atomic(path, chunks())


def remove(path) -> None:
    """Unlink `path` if it exists; `OSError` becomes `IoFailure`."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot remove {path}: {exc}") from exc


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_json(path) -> dict:
    """A workdir JSON object: `IoFailure` when it cannot be read,
    `ManifestInvalid` when it is not valid JSON or not an object."""
    try:
        obj = json.loads(_read_bytes(path))
    except (ValueError, RecursionError) as exc:  # bad JSON, non-UTF-8 bytes, absurd nesting
        raise ManifestInvalid(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ManifestInvalid(f"{path}: must hold a JSON object")
    return obj


def write_verdict_csv(path, mf: np.ndarray, verdicts: Verdicts) -> None:
    """Audit CSV: sample index, p_1..p_N, O_1..O_4, v, decision: `write_csv`'s bytes (no field
    needs quoting), formatted a column at a time per block of rows."""
    header = ["index", *(f"p_{i + 1}" for i in range(mf.shape[1]))]
    header += [f"O_{i + 1}" for i in range(VOTE_ARITY)] + ["v", "decision"]

    def chunks():
        yield (",".join(header) + "\r\n").encode("utf-8")
        for start in range(0, len(mf), _CSV_CHUNK_ROWS):
            b = slice(start, start + _CSV_CHUNK_ROWS)
            values = [range(len(mf))[b], *mf[b].T.tolist(), *verdicts.bits[b].T.tolist(), verdicts.v[b].tolist()]
            decisions = map((BENIGN, UNKNOWN_ATTACK).__getitem__, verdicts.attack[b].tolist())
            rows = map(",".join, zip(*(map(repr, col) for col in values), decisions))  # repr(int) is str(int)
            yield ("\r\n".join(rows) + "\r\n").encode("utf-8")

    write_atomic(path, chunks())


# --- the one reader of the binary formats ---


class _Reader:
    """A cursor over a file's bytes, never copied. Every read is checked
    against the end here: a read past it, or trailing bytes at `end()`, raise
    `error`, the format's error class, so a hostile file fails only with it."""

    def __init__(self, blob, error: type, where, pos: int = 0):
        self.blob, self.error, self.where, self.pos = memoryview(blob), error, where, pos

    def _advance(self, size: int) -> int:
        """Step over `size` bytes; returns where they start."""
        start = self.pos
        if start + size > len(self.blob):
            raise self.error(f"{self.where}: {size} bytes needed at offset {start}, {len(self.blob) - start} left")
        self.pos = start + size
        return start

    def take(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._advance(struct.calcsize(fmt)))

    def raw(self, n: int) -> memoryview:
        start = self._advance(n)
        return self.blob[start : self.pos]

    def arrays(self, dtypes, count: int) -> list[np.ndarray]:
        """`count` values of each dtype, the arrays one after another, as
        read-only views over the bytes."""
        start = self._advance(count * sum(dtype.itemsize for dtype in dtypes))
        views = []
        for dtype in dtypes:
            views.append(np.frombuffer(self.blob, dtype, count, start))
            start += count * dtype.itemsize
        return views

    def end(self) -> None:
        if self.pos != len(self.blob):
            raise self.error(f"{self.where}: {len(self.blob) - self.pos} trailing bytes")


# --- sample sets ---


def save_sample_set(sample_set: SampleSet, path) -> None:
    header = SAMPLESET_MAGIC + struct.pack("<HH", SAMPLESET_VERSION, len(sample_set.class_names))
    for name in sample_set.class_names:
        raw = name.encode("utf-8")
        header += struct.pack("<H", len(raw)) + raw
    header += struct.pack("<Q", len(sample_set.samples))
    write_atomic(path, [header, sample_set.samples.tobytes()])


def load_sample_set(path) -> SampleSet:
    """Parse the header, then view the records as one read-only record
    array over the file bytes."""
    blob = _read_bytes(path)
    if blob[: len(SAMPLESET_MAGIC)] != SAMPLESET_MAGIC:
        raise BadMagic(f"{path}: not a sample-set file")
    r = _Reader(blob, CountMismatch, path, len(SAMPLESET_MAGIC))
    (version,) = r.take("<H")
    if version != SAMPLESET_VERSION:
        raise VersionUnsupported(f"{path}: sample-set version {version} unsupported")
    (n_classes,) = r.take("<H")
    class_names = []
    for i in range(n_classes):
        (name_len,) = r.take("<H")
        try:
            class_names.append(str(r.raw(name_len), "utf-8"))
        except UnicodeDecodeError as exc:
            raise BadEncoding(f"{path}: class name {i} is not valid UTF-8") from exc
    (count,) = r.take("<Q")
    (samples,) = r.arrays([RECORD_DTYPE], count)
    r.end()
    return SampleSet(class_names=class_names, samples=samples)


# --- CRC-framed parameter files ---


def _write_payload(path: Path, payload: bytes) -> None:
    write_atomic(path, [struct.pack("<I", len(payload)), payload, struct.pack("<I", zlib.crc32(payload))])


def _read_payload(path: Path) -> _Reader:
    """A reader over the file's CRC-checked payload. The CRC guards against
    corruption, not against a hostile file with a recomputed checksum."""
    if not path.exists():
        raise ManifestInvalid(f"bundle missing parameter file {path.name}")
    frame = _Reader(_read_bytes(path), ManifestInvalid, path)
    payload = frame.raw(frame.take("<I")[0])
    (crc,) = frame.take("<I")
    frame.end()
    if zlib.crc32(payload) != crc:
        raise ChecksumMismatch(f"{path}: CRC32 mismatch")
    return _Reader(payload, ManifestInvalid, path)


_KIND_TAGS = {LOGISTIC: 1, CONVNET: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_N_PARAMS = {LOGISTIC: LOGISTIC_N_PARAMS, CONVNET: CONVNET_N_PARAMS}
_META_TAGS = {"logistic": 10, "random_forest": 11, "boost_depthwise": 12, "boost_leafwise": 13}
# feature, threshold, left, right, value: one array after another
_NODE_DTYPES = tuple(np.dtype(t) for t in ("<i4", "<f8", "<i4", "<i4", "<f8"))


def _encode_array(arr: np.ndarray) -> bytes:
    return struct.pack("<I", arr.size) + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ManifestInvalid("parameter file holds a non-finite value")
    return values


def _decode_array(r: _Reader, expected: int) -> np.ndarray:
    (size,) = r.take("<I")
    if size != expected:
        raise ManifestInvalid(f"parameter array holds {size} values, expected {expected}")
    return _finite(r.arrays([np.dtype("<f8")], size)[0])


def _encode_scorer(scorer: BinaryScorer) -> bytes:
    return struct.pack("<B", _KIND_TAGS[scorer.kind]) + _encode_array(scorer.params)


def _decode_scorer(r: _Reader, meta: dict) -> BinaryScorer:
    (tag,) = r.take("<B")
    if tag not in _TAG_KINDS:
        raise ManifestInvalid(f"unknown scorer kind tag {tag}")
    kind = _TAG_KINDS[tag]
    params = _decode_array(r, _N_PARAMS[kind])
    r.end()
    return BinaryScorer(kind=kind, params=params, training_meta=dict(meta))


def _encode_tree(tree: TreeNodes) -> bytes:
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    return struct.pack("<I", len(tree)) + b"".join(
        np.ascontiguousarray(arr, dtype=dtype).tobytes() for arr, dtype in zip(arrays, _NODE_DTYPES)
    )


def _decode_tree(r: _Reader) -> TreeNodes:
    return TreeNodes(*r.arrays(_NODE_DTYPES, r.take("<I")[0]))


def _check_trees(family: TreeFamily, n_features: int) -> None:
    """Every tree has a node, and every node is a leaf (feature -1) or splits
    on a feature in [0, n_features) with both children after it in its own
    tree, so every route ends at a leaf; every threshold and value is finite.
    One vectorized pass over the family's stored node table."""
    table, bounds = family.table, family.bounds
    i, end = np.arange(len(table)), np.repeat(bounds[1:], np.diff(bounds))  # end: one past i's tree
    f, left, right = table.feature, table.left, table.right
    split_ok = (f >= 0) & (f < n_features) & (left > i) & (left < end) & (right > i) & (right < end)
    if not (((f == -1) | split_ok).all() and np.diff(bounds).all()):
        raise ManifestInvalid("tree node arrays do not form trees")
    _finite(table.threshold)
    _finite(table.value)


def _encode_meta_classifier(family: str, clf) -> bytes:
    tag = _META_TAGS[family]
    if family == "logistic":
        return struct.pack("<B", tag) + _encode_array(clf.coef)
    trees = clf.trees
    if family == "random_forest":
        head = struct.pack("<BI", tag, len(trees))
    else:  # boosted families share a layout; the tag gives the growth order
        head = struct.pack("<BddI", tag, clf.base_score, clf.learning_rate, len(trees))
    return head + b"".join(map(_encode_tree, trees))


def _decode_meta_classifier(family: str, r: _Reader, n_features: int):
    (tag,) = r.take("<B")
    if tag != _META_TAGS[family]:
        raise ManifestInvalid(f"meta family {family} has wrong tag {tag}")
    if family == "logistic":
        clf = LogisticMetaClassifier()
        clf.coef = _decode_array(r, n_features + 1)
    else:
        if family == "random_forest":
            (n_trees,) = r.take("<I")
            if n_trees == 0:
                raise ManifestInvalid("random forest has no trees")
            clf = RandomForest(n_trees=n_trees)
        else:  # boosting grows exactly `rounds` trees
            base_score, learning_rate, n_trees = r.take("<ddI")
            _finite(np.array([base_score, learning_rate]))
            growth = "depthwise" if family == "boost_depthwise" else "leafwise"
            clf = GradientBoostedTrees(growth, n_trees, learning_rate, base_score=base_score)
        clf.store([_decode_tree(r) for _ in range(n_trees)])
        _check_trees(clf, n_features)
    r.end()
    return clf


# --- model bundles ---


def _parameter_files(n_scorers: int, families: Sequence[str]) -> list[str]:
    """A bundle's parameter file names, scorer i's then each meta family's:
    what the saver writes and keeps, and all the loader opens."""
    return [f"base_{i:03d}.bin" for i in range(n_scorers)] + [f"meta_{family}.bin" for family in families]


def save_bundle(base: BaseEnsemble, meta: Optional[MetaEnsemble], path, config_digest: Optional[str] = None) -> None:
    """Write manifest + parameter files; `meta` may be None for a
    base-only bundle produced mid-pipeline."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create bundle directory {root}: {exc}") from exc

    families, classifiers = (list(META_FAMILIES), meta.classifiers) if meta is not None else ([], [])
    names = _parameter_files(len(base.scorers), families)
    payloads = [*map(_encode_scorer, base.scorers), *map(_encode_meta_classifier, families, classifiers)]
    for name, payload in zip(names, payloads):
        _write_payload(root / name, payload)

    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "n_clusters": base.n_clusters,
        "image_geometry": list(IMAGE_SHAPE),
        "scorer_kinds": [s.kind for s in base.scorers],
        "scorer_files": names[: len(base.scorers)],
        "scorer_meta": [{k: v for k, v in s.training_meta.items() if k != "loss_curve"} for s in base.scorers],
        "meta_families": families,
        "meta_files": names[len(base.scorers) :],
        "meta_holdout_accuracy": dict(meta.holdout_accuracy) if meta is not None else {},
        "seeds": {
            "base": [s.training_meta.get("seed") for s in base.scorers],
            "meta": meta.seed if meta is not None else None,
        },
        "training_config_digest": config_digest,
    }
    write_json(root / "manifest.json", manifest)
    try:
        # parameter files of an earlier save that this manifest no longer lists
        for stale in [*root.glob("base_*.bin"), *root.glob("meta_*.bin")]:
            if stale.name not in names:
                stale.unlink()
    except OSError as exc:
        raise IoFailure(f"cannot remove stale parameter files: {exc}") from exc


def json_field(obj: dict, key: str, kind: type, default, item: Optional[type] = None):
    """obj[key] of a workdir JSON object (or `default` when absent), which
    must be a `kind` whose elements, if `item` is given, are each an `item`;
    else `ManifestInvalid`."""
    value = obj.get(key, default)
    if (
        not isinstance(value, kind)
        or isinstance(value, bool)
        or (item is not None and not all(isinstance(v, item) for v in value))
    ):
        raise ManifestInvalid(f"{key} must be a {kind.__name__}{f' of {item.__name__}' if item else ''}")
    return value


def load_bundle(path) -> tuple[BaseEnsemble, Optional[MetaEnsemble]]:
    root = Path(path)
    manifest = read_json(root / "manifest.json")
    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionUnsupported(f"bundle format version {version} unsupported")
    if manifest.get("image_geometry") != list(IMAGE_SHAPE):
        raise ManifestInvalid(f"bundle image geometry {manifest.get('image_geometry')} is not {list(IMAGE_SHAPE)}")

    n_clusters = json_field(manifest, "n_clusters", int, None)
    scorer_files = json_field(manifest, "scorer_files", list, [], str)
    if n_clusters != len(scorer_files):
        raise ManifestInvalid(f"manifest N={n_clusters} but {len(scorer_files)} scorer files")
    scorer_meta = json_field(manifest, "scorer_meta", list, [], dict) or [{} for _ in scorer_files]
    if len(scorer_meta) != len(scorer_files):
        raise ManifestInvalid(f"{len(scorer_meta)} scorer_meta entries for {len(scorer_files)} scorers")
    families = json_field(manifest, "meta_families", list, [])
    meta_files = json_field(manifest, "meta_files", list, [], str)
    holdout = json_field(manifest, "meta_holdout_accuracy", dict, {})
    seeds = json_field(manifest, "seeds", dict, {})
    if families and tuple(families) != META_FAMILIES:
        raise ManifestInvalid(f"unexpected meta families {families}")
    names = _parameter_files(n_clusters, families)
    if scorer_files + meta_files != names:
        raise ManifestInvalid(f"manifest lists parameter files {scorer_files + meta_files}, not {names}")

    scorers = [_decode_scorer(_read_payload(root / name), m) for name, m in zip(names, scorer_meta)]
    if "scorer_kinds" in manifest and manifest["scorer_kinds"] != [s.kind for s in scorers]:
        raise ManifestInvalid("manifest scorer_kinds do not match the scorer files' kind tags")
    base = BaseEnsemble(scorers=scorers)
    if not families:
        return base, None
    classifiers = [
        _decode_meta_classifier(family, _read_payload(root / name), n_clusters)
        for family, name in zip(families, names[n_clusters:])
    ]
    return base, MetaEnsemble(classifiers=classifiers, holdout_accuracy=holdout, seed=seeds.get("meta") or 0)
