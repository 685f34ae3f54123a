"""On-disk formats: the binary sample-set file and the model bundle.

All integers are little-endian with fixed widths. Sample sets round-trip
losslessly; model bundles carry a JSON manifest plus one CRC32-guarded
binary parameter file per base scorer and per meta-classifier, and a
reloaded bundle reproduces bit-identical predictions.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Optional

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
from .features import IMAGE_SHAPE
from .learners import BaseEnsemble, BinaryScorer, CONVNET, CONVNET_N_PARAMS, LOGISTIC, LOGISTIC_N_PARAMS
from .meta import META_FAMILIES, LogisticMetaClassifier, MetaEnsemble
from .samples import RECORD_DTYPE, SampleSet
from .trees import GradientBoostedTrees, RandomForest, TreeNodes

SAMPLESET_MAGIC = b"OSNIDS1"
SAMPLESET_VERSION = 1
BUNDLE_FORMAT_VERSION = 1


# --- sample sets ---


def save_sample_set(sample_set: SampleSet, path) -> None:
    header = SAMPLESET_MAGIC + struct.pack("<HH", SAMPLESET_VERSION, len(sample_set.class_names))
    for name in sample_set.class_names:
        raw = name.encode("utf-8")
        header += struct.pack("<H", len(raw)) + raw
    header += struct.pack("<Q", len(sample_set.samples))
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(sample_set.samples.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write sample set {path}: {exc}") from exc


def load_sample_set(path) -> SampleSet:
    """Parse the header, then view the records as one read-only record
    array over the file bytes."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read sample set {path}: {exc}") from exc

    if blob[: len(SAMPLESET_MAGIC)] != SAMPLESET_MAGIC:
        raise BadMagic(f"{path}: not a sample-set file")
    pos = len(SAMPLESET_MAGIC)

    def take(fmt: str):
        nonlocal pos
        size = struct.calcsize(fmt)
        if pos + size > len(blob):
            raise CountMismatch(f"{path}: file truncated at offset {pos}")
        vals = struct.unpack_from(fmt, blob, pos)
        pos += size
        return vals

    (version,) = take("<H")
    if version != SAMPLESET_VERSION:
        raise VersionUnsupported(f"{path}: sample-set version {version} unsupported")
    (n_classes,) = take("<H")
    class_names = []
    for i in range(n_classes):
        (name_len,) = take("<H")
        if pos + name_len > len(blob):
            raise CountMismatch(f"{path}: class table truncated")
        try:
            class_names.append(blob[pos : pos + name_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadEncoding(f"{path}: class name {i} is not valid UTF-8") from exc
        pos += name_len
    (count,) = take("<Q")

    expected = pos + count * RECORD_DTYPE.itemsize
    if len(blob) != expected:
        raise CountMismatch(
            f"{path}: declared {count} records ({expected} bytes), file has {len(blob)} bytes"
        )
    samples = np.frombuffer(blob, dtype=RECORD_DTYPE, count=count, offset=pos)
    return SampleSet(class_names=class_names, samples=samples)


# --- CRC-framed parameter files ---


def _write_payload(path: Path, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<I", len(payload)))
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
    except OSError as exc:
        raise IoFailure(f"cannot write parameter file {path}: {exc}") from exc


def _read_payload(path: Path) -> bytes:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read parameter file {path}: {exc}") from exc
    if len(blob) < 8:
        raise ManifestInvalid(f"{path}: parameter file too short")
    (length,) = struct.unpack_from("<I", blob, 0)
    if len(blob) != 8 + length:
        raise ManifestInvalid(f"{path}: declared payload {length} bytes, file has {len(blob) - 8}")
    payload = blob[4 : 4 + length]
    (crc,) = struct.unpack_from("<I", blob, 4 + length)
    if zlib.crc32(payload) != crc:
        raise ChecksumMismatch(f"{path}: CRC32 mismatch")
    return payload


_KIND_TAGS = {LOGISTIC: 1, CONVNET: 2}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
_N_PARAMS = {LOGISTIC: LOGISTIC_N_PARAMS, CONVNET: CONVNET_N_PARAMS}
_META_TAGS = {"logistic": 10, "random_forest": 11, "boost_depthwise": 12, "boost_leafwise": 13}
# feature, threshold, left, right, value: one array after another
_NODE_DTYPES = tuple(np.dtype(t) for t in ("<i4", "<f8", "<i4", "<i4", "<f8"))
_NODE_BYTES = sum(t.itemsize for t in _NODE_DTYPES)

# Every read below is bounded by the payload length: the CRC guards against
# corruption, not against a hostile file with a recomputed checksum.


def _take(payload: bytes, pos: int, fmt: str) -> tuple[tuple, int]:
    end = pos + struct.calcsize(fmt)
    if end > len(payload):
        raise ManifestInvalid(f"parameter payload truncated at offset {pos}")
    return struct.unpack_from(fmt, payload, pos), end


def _done(payload: bytes, pos: int, decoded):
    if pos != len(payload):
        raise ManifestInvalid(f"parameter payload has {len(payload) - pos} trailing bytes")
    return decoded


def _encode_array(arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return struct.pack("<I", arr.size) + data


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ManifestInvalid("parameter file holds a non-finite value")
    return values


def _decode_array(payload: bytes, pos: int, expected: int) -> tuple[np.ndarray, int]:
    (size,), pos = _take(payload, pos, "<I")
    if size != expected:
        raise ManifestInvalid(f"parameter array holds {size} values, expected {expected}")
    if pos + 8 * size > len(payload):
        raise ManifestInvalid("parameter array runs past the payload's end")
    return _finite(np.frombuffer(payload, dtype="<f8", count=size, offset=pos).copy()), pos + 8 * size


def _encode_scorer(scorer: BinaryScorer) -> bytes:
    return struct.pack("<B", _KIND_TAGS[scorer.kind]) + _encode_array(scorer.params)


def _decode_scorer(payload: bytes, meta: dict) -> BinaryScorer:
    (tag,), pos = _take(payload, 0, "<B")
    if tag not in _TAG_KINDS:
        raise ManifestInvalid(f"unknown scorer kind tag {tag}")
    kind = _TAG_KINDS[tag]
    params, pos = _decode_array(payload, pos, _N_PARAMS[kind])
    return _done(payload, pos, BinaryScorer(kind=kind, params=params, training_meta=dict(meta)))


def _encode_tree(tree: TreeNodes) -> bytes:
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    return struct.pack("<I", len(tree)) + b"".join(
        np.ascontiguousarray(arr, dtype=dtype).tobytes() for arr, dtype in zip(arrays, _NODE_DTYPES)
    )


def _decode_tree(payload: bytes, pos: int) -> tuple[TreeNodes, int]:
    (n,), pos = _take(payload, pos, "<I")
    end = pos + n * _NODE_BYTES
    if n == 0 or end > len(payload):
        room = (len(payload) - pos) // _NODE_BYTES
        raise ManifestInvalid(f"tree declares {n} nodes; the payload has room for {room}")
    arrays = []
    for dtype in _NODE_DTYPES:
        arrays.append(np.frombuffer(payload, dtype=dtype, count=n, offset=pos).copy())
        pos += n * dtype.itemsize
    return TreeNodes(*arrays), end


def _check_trees(trees: list[TreeNodes], n_features: int) -> None:
    """Every node is a leaf (feature -1) or splits on a feature in
    [0, n_features) with both children after it in its tree, so every
    route ends at a leaf, and every threshold and value is finite. One
    vectorized pass over all the trees."""
    sizes = [len(t) for t in trees]
    n = np.repeat(sizes, sizes)
    i = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    feature, left, right, threshold, value = (
        np.concatenate([getattr(t, name) for t in trees])
        for name in ("feature", "left", "right", "threshold", "value")
    )
    split_ok = (feature >= 0) & (feature < n_features) & (left > i) & (left < n) & (right > i) & (right < n)
    if not ((feature == -1) | split_ok).all():
        raise ManifestInvalid("tree node arrays do not form trees")
    _finite(threshold)
    _finite(value)


def _encode_meta_classifier(family: str, clf) -> bytes:
    tag = _META_TAGS[family]
    if family == "logistic":
        return struct.pack("<B", tag) + _encode_array(clf.coef)
    if family == "random_forest":
        body = struct.pack("<BI", tag, len(clf.trees))
    else:  # boosted families share a layout; the tag gives the growth order
        body = struct.pack("<BddI", tag, clf.base_score, clf.learning_rate, len(clf.trees))
    for tree in clf.trees:
        body += _encode_tree(tree)
    return body


def _decode_meta_classifier(family: str, payload: bytes, n_features: int):
    (tag,), pos = _take(payload, 0, "<B")
    if tag != _META_TAGS[family]:
        raise ManifestInvalid(f"meta family {family} has wrong tag {tag}")
    if family == "logistic":
        clf = LogisticMetaClassifier()
        clf.coef, pos = _decode_array(payload, pos, n_features + 1)
        return _done(payload, pos, clf)
    if family == "random_forest":
        clf = RandomForest()
        (n_trees,), pos = _take(payload, pos, "<I")
        if n_trees == 0:
            raise ManifestInvalid("random forest has no trees")
    else:
        clf = GradientBoostedTrees(growth="depthwise" if family == "boost_depthwise" else "leafwise")
        (clf.base_score, clf.learning_rate, n_trees), pos = _take(payload, pos, "<ddI")
        _finite(np.array([clf.base_score, clf.learning_rate]))
    clf.trees = []
    for _ in range(n_trees):
        tree, pos = _decode_tree(payload, pos)
        clf.trees.append(tree)
    if clf.trees:
        _check_trees(clf.trees, n_features)
    return _done(payload, pos, clf)


# --- model bundles ---


def _scorer_manifest_meta(scorer: BinaryScorer) -> dict:
    meta = {k: v for k, v in scorer.training_meta.items() if k != "loss_curve"}
    return meta


def save_bundle(
    base: BaseEnsemble,
    meta: Optional[MetaEnsemble],
    path,
    config_digest: Optional[str] = None,
) -> None:
    """Write manifest + parameter files; `meta` may be None for a
    base-only bundle produced mid-pipeline."""
    root = Path(path)
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create bundle directory {root}: {exc}") from exc

    scorer_files = []
    for i, scorer in enumerate(base.scorers):
        name = f"base_{i:03d}.bin"
        _write_payload(root / name, _encode_scorer(scorer))
        scorer_files.append(name)

    meta_files = []
    families = []
    holdout = {}
    if meta is not None:
        families = list(meta.families)
        holdout = dict(meta.holdout_accuracy)
        for family, clf in zip(meta.families, meta.classifiers):
            name = f"meta_{family}.bin"
            _write_payload(root / name, _encode_meta_classifier(family, clf))
            meta_files.append(name)

    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "n_clusters": base.n_clusters,
        "image_geometry": list(IMAGE_SHAPE),
        "scorer_kinds": [s.kind for s in base.scorers],
        "scorer_files": scorer_files,
        "scorer_meta": [_scorer_manifest_meta(s) for s in base.scorers],
        "meta_families": families,
        "meta_files": meta_files,
        "meta_holdout_accuracy": holdout,
        "seeds": {
            "base": [s.training_meta.get("seed") for s in base.scorers],
            "meta": meta.seed if meta is not None else None,
        },
        "training_config_digest": config_digest,
    }
    try:
        with open(root / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write bundle manifest: {exc}") from exc


def _field(manifest: dict, key: str, kind: type, default, item: Optional[type] = None):
    """manifest[key] (or `default` when absent), which must be a `kind`
    whose elements, if `item` is given, are each an `item`."""
    value = manifest.get(key, default)
    if (
        not isinstance(value, kind)
        or isinstance(value, bool)
        or (item is not None and not all(isinstance(v, item) for v in value))
    ):
        raise ManifestInvalid(f"manifest {key} has the wrong type ({type(value).__name__})")
    return value


def load_bundle(path) -> tuple[BaseEnsemble, Optional[MetaEnsemble]]:
    root = Path(path)
    manifest_path = root / "manifest.json"
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read bundle manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestInvalid(f"{manifest_path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestInvalid(f"{manifest_path}: manifest must be a JSON object")

    version = manifest.get("format_version")
    if version != BUNDLE_FORMAT_VERSION:
        raise VersionUnsupported(f"bundle format version {version} unsupported")

    n_clusters = _field(manifest, "n_clusters", int, None)
    scorer_files = _field(manifest, "scorer_files", list, [], str)
    if n_clusters != len(scorer_files):
        raise ManifestInvalid(f"manifest N={n_clusters} but {len(scorer_files)} scorer files")
    scorer_meta = _field(manifest, "scorer_meta", list, [], dict) or [{} for _ in scorer_files]
    if len(scorer_meta) != len(scorer_files):
        raise ManifestInvalid(f"{len(scorer_meta)} scorer_meta entries for {len(scorer_files)} scorers")
    scorers = []
    for name, m in zip(scorer_files, scorer_meta):
        file_path = root / name
        if not file_path.exists():
            raise ManifestInvalid(f"bundle missing scorer file {name}")
        scorers.append(_decode_scorer(_read_payload(file_path), m))
    if "scorer_kinds" in manifest and manifest["scorer_kinds"] != [s.kind for s in scorers]:
        raise ManifestInvalid("manifest scorer_kinds do not match the scorer files' kind tags")
    base = BaseEnsemble(scorers=scorers, n_clusters=n_clusters)

    families = _field(manifest, "meta_families", list, [])
    meta_files = _field(manifest, "meta_files", list, [], str)
    holdout = _field(manifest, "meta_holdout_accuracy", dict, {})
    seeds = _field(manifest, "seeds", dict, {})
    if not families:
        return base, None
    if tuple(families) != META_FAMILIES or len(meta_files) != len(families):
        raise ManifestInvalid(f"unexpected meta families {families}")
    classifiers = []
    for family, name in zip(families, meta_files):
        file_path = root / name
        if not file_path.exists():
            raise ManifestInvalid(f"bundle missing meta file {name}")
        classifiers.append(_decode_meta_classifier(family, _read_payload(file_path), n_clusters))
    return base, MetaEnsemble(classifiers=classifiers, holdout_accuracy=holdout, seed=seeds.get("meta") or 0)
