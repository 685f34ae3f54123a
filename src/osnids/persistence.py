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
from .learners import BaseEnsemble, BinaryScorer, CONVNET, LOGISTIC
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


def _encode_array(arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return struct.pack("<I", arr.size) + data


def _decode_array(payload: bytes, pos: int) -> tuple[np.ndarray, int]:
    (size,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    arr = np.frombuffer(payload, dtype="<f8", count=size, offset=pos).copy()
    return arr, pos + size * 8


def _encode_scorer(scorer: BinaryScorer) -> bytes:
    return struct.pack("<B", _KIND_TAGS[scorer.kind]) + _encode_array(scorer.params)


def _decode_scorer(payload: bytes, meta: dict) -> BinaryScorer:
    (tag,) = struct.unpack_from("<B", payload, 0)
    if tag not in _TAG_KINDS:
        raise ManifestInvalid(f"unknown scorer kind tag {tag}")
    params, _ = _decode_array(payload, 1)
    return BinaryScorer(kind=_TAG_KINDS[tag], params=params, training_meta=dict(meta))


def _encode_tree(tree: TreeNodes) -> bytes:
    n = len(tree)
    return (
        struct.pack("<I", n)
        + np.ascontiguousarray(tree.feature, dtype="<i4").tobytes()
        + np.ascontiguousarray(tree.threshold, dtype="<f8").tobytes()
        + np.ascontiguousarray(tree.left, dtype="<i4").tobytes()
        + np.ascontiguousarray(tree.right, dtype="<i4").tobytes()
        + np.ascontiguousarray(tree.value, dtype="<f8").tobytes()
    )


def _decode_tree(payload: bytes, pos: int) -> tuple[TreeNodes, int]:
    (n,) = struct.unpack_from("<I", payload, pos)
    pos += 4

    def arr(dtype, width):
        nonlocal pos
        out = np.frombuffer(payload, dtype=dtype, count=n, offset=pos).copy()
        pos += n * width
        return out

    feature = arr("<i4", 4)
    threshold = arr("<f8", 8)
    left = arr("<i4", 4)
    right = arr("<i4", 4)
    value = arr("<f8", 8)
    return TreeNodes(feature, threshold, left, right, value), pos


def _encode_meta_classifier(family: str, clf) -> bytes:
    if family == "logistic":
        return struct.pack("<B", 10) + _encode_array(clf.coef)
    if family == "random_forest":
        body = struct.pack("<BI", 11, len(clf.trees))
        for tree in clf.trees:
            body += _encode_tree(tree)
        return body
    # boosted families share a layout; tag distinguishes growth order
    tag = 12 if family == "boost_depthwise" else 13
    body = struct.pack("<BddI", tag, clf.base_score, clf.learning_rate, len(clf.trees))
    for tree in clf.trees:
        body += _encode_tree(tree)
    return body


def _decode_meta_classifier(family: str, payload: bytes):
    (tag,) = struct.unpack_from("<B", payload, 0)
    if family == "logistic":
        if tag != 10:
            raise ManifestInvalid(f"meta family logistic has wrong tag {tag}")
        clf = LogisticMetaClassifier()
        clf.coef, _ = _decode_array(payload, 1)
        return clf
    if family == "random_forest":
        if tag != 11:
            raise ManifestInvalid(f"meta family random_forest has wrong tag {tag}")
        (n_trees,) = struct.unpack_from("<I", payload, 1)
        pos = 5
        clf = RandomForest()
        clf.trees = []
        for _ in range(n_trees):
            tree, pos = _decode_tree(payload, pos)
            clf.trees.append(tree)
        return clf
    expected_tag = 12 if family == "boost_depthwise" else 13
    if tag != expected_tag:
        raise ManifestInvalid(f"meta family {family} has wrong tag {tag}")
    base_score, learning_rate, n_trees = struct.unpack_from("<ddI", payload, 1)
    pos = 1 + struct.calcsize("<ddI")
    clf = GradientBoostedTrees(growth="depthwise" if tag == 12 else "leafwise")
    clf.base_score = base_score
    clf.learning_rate = learning_rate
    clf.trees = []
    for _ in range(n_trees):
        tree, pos = _decode_tree(payload, pos)
        clf.trees.append(tree)
    return clf


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

    scorer_files = manifest.get("scorer_files", [])
    n_clusters = manifest.get("n_clusters")
    if n_clusters != len(scorer_files):
        raise ManifestInvalid(f"manifest N={n_clusters} but {len(scorer_files)} scorer files")
    scorer_meta = manifest.get("scorer_meta") or [{} for _ in scorer_files]
    scorers = []
    for name, m in zip(scorer_files, scorer_meta):
        file_path = root / name
        if not file_path.exists():
            raise ManifestInvalid(f"bundle missing scorer file {name}")
        scorers.append(_decode_scorer(_read_payload(file_path), m))
    base = BaseEnsemble(scorers=scorers, n_clusters=n_clusters)

    families = manifest.get("meta_families", [])
    meta_files = manifest.get("meta_files", [])
    if not families:
        return base, None
    if tuple(families) != META_FAMILIES or len(meta_files) != len(families):
        raise ManifestInvalid(f"unexpected meta families {families}")
    classifiers = []
    for family, name in zip(families, meta_files):
        file_path = root / name
        if not file_path.exists():
            raise ManifestInvalid(f"bundle missing meta file {name}")
        classifiers.append(_decode_meta_classifier(family, _read_payload(file_path)))
    seeds = manifest.get("seeds", {})
    if not isinstance(seeds, dict):
        raise ManifestInvalid(f"manifest seeds must be an object, got {seeds!r}")
    meta = MetaEnsemble(
        classifiers=classifiers,
        holdout_accuracy=manifest.get("meta_holdout_accuracy", {}),
        seed=seeds.get("meta") or 0,
    )
    return base, meta
