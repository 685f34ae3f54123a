import ast
import json
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osnids import persistence, trees
from osnids.errors import (
    BadEncoding,
    BadMagic,
    ChecksumMismatch,
    CountMismatch,
    ManifestInvalid,
    PipelineError,
    ValueOutOfRange,
    VersionUnsupported,
)
from osnids.learners import TrainingConfig, meta_feature_matrix, train_base_ensemble
from osnids.meta import MetaConfig, predict_batch, train_meta_classifiers
from osnids.persistence import (
    load_bundle,
    load_sample_set,
    save_bundle,
    save_sample_set,
    write_csv,
)
from osnids.samples import SampleSet, make_records

from helpers import HOSTILE_PARAMETER_FILES, rewrite_parameter_file, sset_oracle


def _rows(rng, n):
    feats = rng.integers(0, 256, (n, 1500)).astype(np.uint8)
    feats[:, 0] = np.maximum(feats[:, 0], 1)
    return feats


def _random_set(rng, n, class_names=("benign", "a", "b")):
    """n random records; about half the benign ones carry a cluster id."""
    labels = rng.integers(0, len(class_names), n)
    clusters = np.where((labels == 0) & (rng.random(n) < 0.5), rng.integers(0, 4, n), -1)
    return SampleSet(class_names=list(class_names), samples=make_records(_rows(rng, n), labels, clusters))


class TestSampleSetRoundTrip:
    def test_empty_set(self, tmp_path):
        path = tmp_path / "empty.sset"
        original = SampleSet(class_names=["benign"])
        save_sample_set(original, path)
        assert load_sample_set(path) == original

    def test_random_round_trip(self, tmp_path):
        original = _random_set(np.random.default_rng(0), 1000)
        path = tmp_path / "corpus.sset"
        save_sample_set(original, path)
        loaded = load_sample_set(path)
        assert loaded == original

    def test_save_load_save_byte_identical(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(10 + seed)
            original = _random_set(rng, int(rng.integers(0, 50)), ("benign", "é-attack", "x" * 300))
            first, second = tmp_path / f"a{seed}.sset", tmp_path / f"b{seed}.sset"
            save_sample_set(original, first)
            save_sample_set(load_sample_set(first), second)
            assert second.read_bytes() == first.read_bytes()

    def test_loader_matches_struct_oracle(self, tmp_path):
        for seed in range(5):
            rng = np.random.default_rng(20 + seed)
            path = tmp_path / f"o{seed}.sset"
            save_sample_set(_random_set(rng, int(rng.integers(0, 80)), ("benign", "ü", "c")), path)
            names, features, labels, clusters = sset_oracle(path.read_bytes())
            loaded = load_sample_set(path)
            assert loaded.class_names == names
            assert len(loaded.samples) == len(labels)
            for row, feats, label, cluster in zip(loaded.samples, features, labels, clusters):
                assert np.array_equal(row.features, feats)
                assert (int(row.label), int(row.cluster)) == (label, cluster)

    def test_golden_encoding(self, tmp_path):
        feats = np.zeros(1500, dtype=np.uint8)
        feats[0] = 7
        feats[1499] = 255
        original = SampleSet(class_names=["benign", "x"], samples=make_records(feats[None, :], [1]))
        path = tmp_path / "golden.sset"
        save_sample_set(original, path)
        blob = path.read_bytes()
        expected = b"OSNIDS1"
        expected += struct.pack("<H", 1)  # version
        expected += struct.pack("<H", 2)  # class count
        expected += struct.pack("<H", 6) + b"benign"
        expected += struct.pack("<H", 1) + b"x"
        expected += struct.pack("<Q", 1)  # record count
        expected += feats.tobytes() + struct.pack("<Hh", 1, -1)
        assert blob == expected

    def test_truncated_records(self, tmp_path):
        rng = np.random.default_rng(1)
        original = SampleSet(class_names=["benign"], samples=make_records(_rows(rng, 10), 0))
        path = tmp_path / "t.sset"
        save_sample_set(original, path)
        blob = path.read_bytes()
        # keep header + 3 records only
        head_len = len(blob) - 10 * (1500 + 4)
        path.write_bytes(blob[: head_len + 3 * (1500 + 4)])
        with pytest.raises(CountMismatch):
            load_sample_set(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sset"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            load_sample_set(path)

    def test_version_unsupported(self, tmp_path):
        rng = np.random.default_rng(2)
        original = SampleSet(class_names=["benign"], samples=make_records(_rows(rng, 1), 0))
        path = tmp_path / "v.sset"
        save_sample_set(original, path)
        blob = bytearray(path.read_bytes())
        blob[7:9] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupported):
            load_sample_set(path)


@pytest.fixture(scope="module")
def small_sset(tmp_path_factory):
    """A three-record set (benign with cluster 2, attack, benign) and its bytes."""
    root = tmp_path_factory.mktemp("sset")
    samples = make_records(_rows(np.random.default_rng(30), 3), [0, 1, 0], [2, -1, -1])
    save_sample_set(SampleSet(class_names=["benign", "atk"], samples=samples), root / "small.sset")
    return root, (root / "small.sset").read_bytes()


def _record_offset(blob: bytes, i: int) -> int:
    return len(blob) - (3 - i) * 1504


class TestSampleSetValidation:
    @pytest.mark.parametrize(
        "row, offset, value",
        [
            (1, 0, bytes(1500)),  # all-zero payload
            (1, 1500, struct.pack("<H", 2)),  # label outside the 2-class table
            (1, 1502, struct.pack("<h", 0)),  # cluster id on an attack row
        ],
    )
    def test_bad_record_is_data_error(self, small_sset, row, offset, value):
        root, original = small_sset
        blob = bytearray(original)
        start = _record_offset(original, row) + offset
        blob[start : start + len(value)] = value
        (root / "bad.sset").write_bytes(bytes(blob))
        with pytest.raises(ValueOutOfRange) as info:
            load_sample_set(root / "bad.sset")
        assert info.value.exit_code == 3

    def test_non_utf8_class_name(self, small_sset):
        root, original = small_sset
        blob = bytearray(original)
        blob[13] = 0xFF  # first byte of the first class name
        (root / "enc.sset").write_bytes(bytes(blob))
        with pytest.raises(BadEncoding) as info:
            load_sample_set(root / "enc.sset")
        assert info.value.exit_code == 2

    def test_every_proper_prefix_is_refused(self, small_sset, monkeypatch):
        _, original = small_sset
        prefix = []
        monkeypatch.setattr(persistence, "_read_bytes", lambda path: prefix[0])  # served from memory
        for n in range(len(original)):
            prefix[:] = [original[:n]]
            with pytest.raises((BadMagic, CountMismatch)):
                load_sample_set("prefix.sset")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutation_or_truncation_is_set_or_pipeline_error(self, small_sset, data):
        root, original = small_sset
        blob = bytearray(original)
        header_end = _record_offset(original, 0)
        # half the draws land in the short header, which the records would dwarf
        anywhere = st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1))
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(anywhere, label="length")]
        else:
            pos = data.draw(anywhere, label="offset")
            blob[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
        path = root / "mutated.sset"
        path.write_bytes(bytes(blob))
        try:
            loaded = load_sample_set(path)
        except PipelineError:
            return
        assert isinstance(loaded, SampleSet)


@pytest.fixture(scope="module")
def trained_pair():
    rng = np.random.default_rng(3)
    templates = rng.integers(0, 256, (4, 1500))

    def noisy(c):
        vec = np.clip(np.rint(templates[c] + rng.normal(0, 5, 1500)), 0, 255).astype(np.uint8)
        vec[0] = max(int(vec[0]), 1)
        return vec

    benign = np.stack([noisy(c) for c in range(2) for _ in range(25)])
    clusters = np.repeat([0, 1], 25)
    base = train_base_ensemble(make_records(benign, 0, clusters), 2, config=TrainingConfig(epochs=5, seed=0))

    attacks = np.stack([noisy(c) for c in (2, 3) for _ in range(25)])
    d2 = make_records(np.concatenate([benign, attacks]), [0] * 50 + [1] * 50)
    mf = meta_feature_matrix(base, d2)
    labels = (d2.label != 0).astype(np.float64)
    meta = train_meta_classifiers(
        mf, labels, config=MetaConfig(forest_trees=10, boost_rounds=10), seed=0
    )
    probe = make_records(np.concatenate([_rows(np.random.default_rng(100 + i), 1) for i in range(100)]), 0)
    return base, meta, probe


class TestBundleRoundTrip:
    def test_identical_predictions_after_reload(self, tmp_path, trained_pair):
        base, meta, probe = trained_pair
        save_bundle(base, meta, tmp_path / "bundle")
        base2, meta2 = load_bundle(tmp_path / "bundle")

        v1, mf1 = predict_batch(base, meta, probe)
        v2, mf2 = predict_batch(base2, meta2, probe)
        assert mf1.tobytes() == mf2.tobytes()
        assert [(v.decision, v.v, v.outputs) for v in v1] == [
            (v.decision, v.v, v.outputs) for v in v2
        ]

    def test_resave_writes_the_same_bytes(self, tmp_path, trained_pair):
        """The loaded families' `trees` views re-encode exactly the trees the
        growers produced, so a loaded bundle saves to the same files."""
        base, meta, _ = trained_pair
        assert all(max(len(t) for t in clf.trees) > 1 for clf in meta.classifiers[1:])  # the trees did split
        save_bundle(base, meta, tmp_path / "first")
        save_bundle(*load_bundle(tmp_path / "first"), tmp_path / "second")
        files = sorted(p.name for p in (tmp_path / "first").iterdir())
        assert len([f for f in files if f.startswith("meta_")]) == 4
        assert files == sorted(p.name for p in (tmp_path / "second").iterdir())
        for name in files:
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "second" / name).read_bytes(), name

    def test_loaded_families_report_their_size(self, tmp_path, trained_pair):
        """A loaded family's tree count and boosting fields are the saved
        family's, not the dataclass defaults."""
        base, meta, _ = trained_pair
        save_bundle(base, meta, tmp_path / "b")
        _, loaded = load_bundle(tmp_path / "b")
        forest, *boosted = loaded.classifiers[1:]
        assert forest.n_trees == len(forest.trees) == meta.classifiers[1].n_trees == 10
        for fitted, clf in zip(meta.classifiers[2:], boosted):
            assert clf.rounds == len(clf.trees) == fitted.rounds == 10
            assert (clf.growth, clf.learning_rate, clf.base_score) == (
                fitted.growth, fitted.learning_rate, fitted.base_score)

    def test_families_predict_from_their_stored_form(self, tmp_path, trained_pair, monkeypatch):
        """After a fit and after a load, predicting builds no node table."""
        base, meta, probe = trained_pair
        save_bundle(base, meta, tmp_path / "b")
        _, loaded = load_bundle(tmp_path / "b")
        rows = np.concatenate([meta_feature_matrix(base, probe), np.random.default_rng(7).random((300, 2))])
        families = [*meta.classifiers[1:], *loaded.classifiers[1:]]
        expected = [(clf.predict_proba(rows[:1]), clf.predict_proba(rows)) for clf in families]

        def no_table(grown):
            raise AssertionError("node_table called after the family was stored")

        monkeypatch.setattr(trees, "node_table", no_table)
        for clf, (one, batch) in zip(families, expected):
            assert clf.predict_proba(rows[:1]).tobytes() == one.tobytes()
            assert clf.predict_proba(rows).tobytes() == batch.tobytes()

    def test_base_only_bundle(self, tmp_path, trained_pair):
        base, _, probe = trained_pair
        save_bundle(base, None, tmp_path / "b2")
        base2, meta2 = load_bundle(tmp_path / "b2")
        assert meta2 is None
        assert meta_feature_matrix(base, probe).tobytes() == meta_feature_matrix(base2, probe).tobytes()

    def test_manifest_scorer_count_mismatch(self, tmp_path, trained_pair):
        base, meta, _ = trained_pair
        save_bundle(base, meta, tmp_path / "b3")
        (tmp_path / "b3" / "base_001.bin").unlink()
        with pytest.raises(ManifestInvalid):
            load_bundle(tmp_path / "b3")

    def test_flipped_byte_checksum(self, tmp_path, trained_pair):
        base, meta, _ = trained_pair
        save_bundle(base, meta, tmp_path / "b4")
        target = tmp_path / "b4" / "base_000.bin"
        blob = bytearray(target.read_bytes())
        blob[100] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_bundle(tmp_path / "b4")

    def test_version_gate(self, tmp_path, trained_pair):
        base, meta, _ = trained_pair
        save_bundle(base, meta, tmp_path / "b5")
        manifest = tmp_path / "b5" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["format_version"] = 9
        manifest.write_text(json.dumps(data))
        with pytest.raises(VersionUnsupported):
            load_bundle(tmp_path / "b5")

    @pytest.mark.parametrize("seeds", [None, [1, 2], "meta", 7])
    def test_seeds_not_an_object(self, tmp_path, trained_pair, seeds):
        base, meta, _ = trained_pair
        save_bundle(base, meta, tmp_path / "b6")
        manifest = tmp_path / "b6" / "manifest.json"
        data = json.loads(manifest.read_text())
        data["seeds"] = seeds
        manifest.write_text(json.dumps(data))
        with pytest.raises(ManifestInvalid):
            load_bundle(tmp_path / "b6")


def _set_int32(offset: int, value: int):
    return lambda p: p[:offset] + struct.pack("<i", value) + p[offset + 4 :]


def _set_float64(offset_of, value: float):
    return lambda p: p[: offset_of(p)] + struct.pack("<d", value) + p[offset_of(p) + 8 :]


def _first_tree_nodes(payload: bytes) -> int:
    return struct.unpack_from("<I", payload, 5)[0]  # after a forest's tag and tree count


# more CRC-valid parameter files the decoder must refuse; N = 2 here
_MALFORMED_PARAMETER_FILES = {
    **HOSTILE_PARAMETER_FILES,
    "empty_payload": ("base_001.bin", lambda p: b""),
    "scorer_short_by_one_value": ("base_000.bin", lambda p: _set_int32(1, 1500)(p)[:-8]),
    "logistic_scorer_tagged_convnet": ("base_000.bin", lambda p: b"\x02" + p[1:]),
    "meta_logistic_n_coefficients": ("meta_logistic.bin", lambda p: _set_int32(1, 2)(p)[:-8]),
    "forest_without_trees": ("meta_random_forest.bin", lambda p: p[:1] + struct.pack("<I", 0)),
    "tree_feature_n": ("meta_random_forest.bin", _set_int32(9, 2)),  # first tree's feature[0]
    "tree_without_nodes": ("meta_boost_leafwise.bin", _set_int32(21, 0)),
    "trailing_byte": ("meta_boost_leafwise.bin", lambda p: p + b"\x00"),
    "boosted_nan_base_score": ("meta_boost_depthwise.bin", _set_float64(lambda p: 1, float("nan"))),
    "boosted_inf_learning_rate": ("meta_boost_leafwise.bin", _set_float64(lambda p: 9, float("-inf"))),
    # value[0] of the first tree: after its node count and n features, thresholds, lefts and rights
    "forest_nan_node_value": ("meta_random_forest.bin", _set_float64(lambda p: 9 + 20 * _first_tree_nodes(p), float("nan"))),
}


@pytest.fixture(scope="module")
def saved_bundle(tmp_path_factory, trained_pair):
    """A saved bundle directory and the original bytes of its files."""
    root = tmp_path_factory.mktemp("saved") / "bundle"
    base, meta, _ = trained_pair
    save_bundle(base, meta, root)
    return root, {p.name: p.read_bytes() for p in root.iterdir()}


def _restore(root, originals):
    for name, blob in originals.items():
        (root / name).write_bytes(blob)


class TestHostileBundles:
    @pytest.mark.parametrize("case", sorted(_MALFORMED_PARAMETER_FILES))
    def test_malformed_parameter_file(self, saved_bundle, case):
        root, originals = saved_bundle
        name, mutate = _MALFORMED_PARAMETER_FILES[case]
        rewrite_parameter_file(root / name, mutate)
        try:
            with pytest.raises(ManifestInvalid) as info:
                load_bundle(root)
        finally:
            _restore(root, originals)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_clusters", "2"),
            ("n_clusters", 2.0),
            ("scorer_files", "base_000.bin"),
            ("scorer_files", [0, 1]),
            ("scorer_meta", 5),
            ("scorer_meta", [1, 2]),
            ("scorer_meta", [{}]),
            ("meta_families", "logistic"),
            ("meta_files", {"logistic": "meta_logistic.bin"}),
            ("meta_files", [1, 2, 3, 4]),
            ("meta_holdout_accuracy", [0.9]),
        ],
    )
    def test_manifest_field_of_wrong_type(self, saved_bundle, key, value):
        root, originals = saved_bundle
        data = json.loads(originals["manifest.json"])
        data[key] = value
        (root / "manifest.json").write_text(json.dumps(data))
        try:
            with pytest.raises(ManifestInvalid):
                load_bundle(root)
        finally:
            _restore(root, originals)

    @pytest.mark.parametrize(
        "kinds", [None, "logistic", ["logistic"], ["logistic", "logistic", "logistic"], ["convnet", "convnet"], ["logistic", 1]]
    )
    def test_scorer_kinds_must_match_scorer_files(self, saved_bundle, kinds):
        root, originals = saved_bundle
        data = json.loads(originals["manifest.json"])
        assert data["scorer_kinds"] == ["logistic", "logistic"]
        data["scorer_kinds"] = kinds
        (root / "manifest.json").write_text(json.dumps(data))
        try:
            with pytest.raises(ManifestInvalid):
                load_bundle(root)
        finally:
            _restore(root, originals)

    def test_geometry_mismatch(self, saved_bundle):
        root, originals = saved_bundle
        data = json.loads(originals["manifest.json"])
        assert data["image_geometry"] == [20, 25, 3]
        absent = {k: v for k, v in data.items() if k != "image_geometry"}
        edits = [{**data, "image_geometry": g} for g in ([25, 20, 3], [20, 25], [20, 25, 3, 1], "20x25x3", None)]
        for manifest in [*edits, absent]:
            (root / "manifest.json").write_text(json.dumps(manifest))
            try:
                with pytest.raises(ManifestInvalid):
                    load_bundle(root)
            finally:
                _restore(root, originals)

    def test_manifest_without_scorer_kinds_loads(self, saved_bundle):
        root, originals = saved_bundle
        data = json.loads(originals["manifest.json"])
        del data["scorer_kinds"]
        (root / "manifest.json").write_text(json.dumps(data))
        try:
            base, _ = load_bundle(root)
        finally:
            _restore(root, originals)
        assert [s.kind for s in base.scorers] == ["logistic", "logistic"]

    def test_every_proper_prefix_of_a_payload_is_refused(self, saved_bundle, monkeypatch):
        """Each prefix framed with its length and CRC, so only the decoder
        can object; served from memory, the other files as saved."""
        root, originals = saved_bundle
        served = {}
        monkeypatch.setattr(persistence, "_read_bytes", lambda path: served.get(path.name) or originals[path.name])
        for name in sorted(n for n in originals if n.endswith(".bin")):
            payload = originals[name][4:-4]
            for n in range(len(payload)):
                served[name] = struct.pack("<I", n) + payload[:n] + struct.pack("<I", zlib.crc32(payload[:n]))
                with pytest.raises(ManifestInvalid):
                    load_bundle(root)
            del served[name]
        assert load_bundle(root)[1] is not None

    @pytest.mark.parametrize("listed", ["absolute", "parent_dir"])
    def test_loader_opens_only_the_names_it_derives(self, saved_bundle, monkeypatch, listed):
        """A manifest listing a valid scorer file outside the bundle is refused
        before that file is read."""
        root, originals = saved_bundle
        outside = root.parent / "outside.bin"
        outside.write_bytes(originals["base_001.bin"])
        data = json.loads(originals["manifest.json"])
        data["scorer_files"][1] = str(outside) if listed == "absolute" else "../outside.bin"
        (root / "manifest.json").write_text(json.dumps(data))
        opened, read = [], persistence._read_bytes
        monkeypatch.setattr(persistence, "_read_bytes", lambda path: opened.append(Path(path)) or read(path))
        try:
            with pytest.raises(ManifestInvalid):
                load_bundle(root)
        finally:
            _restore(root, originals)
            outside.unlink()
        assert opened and all(p.parent == root for p in opened)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mutated_parameter_file_is_bundle_or_pipeline_error(self, saved_bundle, trained_pair, data):
        root, originals = saved_bundle
        name = data.draw(st.sampled_from(sorted(n for n in originals if n.endswith(".bin"))), label="file")
        payload = bytearray(originals[name][4:-4])
        # half the draws land in the first 64 bytes: tags, counts and the first tree's header
        head = st.integers(0, min(64, len(payload)) - 1)
        pos = data.draw(st.one_of(head, st.integers(0, len(payload) - 1)), label="offset")
        payload[pos] = data.draw(st.integers(0, 255).filter(lambda b: b != payload[pos]), label="byte")
        rewrite_parameter_file(root / name, lambda _: bytes(payload))
        try:
            base, meta = load_bundle(root)
        except PipelineError:
            return
        finally:
            _restore(root, originals)
        with np.errstate(over="ignore", invalid="ignore"):  # mutated weights may overflow
            verdicts, mf = predict_batch(base, meta, trained_pair[2][:2])
        assert len(verdicts) == 2 and mf.shape == (2, 2)


class TestAtomicWriter:
    def test_rows_that_raise_partway_leave_the_old_file(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, [("k", "v"), (1, "a")])
        before = path.read_bytes()

        def rows():
            for i in range(10_000):
                yield (i, "x" * 50)
            # the first blocks of rows are already in the temporary file
            assert (tmp_path / "table.csv.tmp").stat().st_size > 0
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            write_csv(path, rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]


_MODE = re.compile(r"[rwxabt+]+")


def _file_writes(tree: ast.AST) -> list[int]:
    """Lines that call `write_text`/`write_bytes`, or `open` (builtin,
    `io.open`, `Path.open`) with a literal mode that writes, appends or
    creates."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            literals = [a.value for a in [*node.args, *(kw.value for kw in node.keywords)] if isinstance(a, ast.Constant)]
            modes = [m for m in literals if isinstance(m, str) and _MODE.fullmatch(m)]
            if name in ("write_text", "write_bytes") or (name == "open" and any(set("wax") & set(m) for m in modes)):
                lines.append(node.lineno)
    return lines


def test_only_persistence_writes_files():
    import osnids

    src = Path(osnids.__file__).resolve().parent
    offenders = {
        path.name: _file_writes(ast.parse(path.read_text(), filename=str(path)))
        for path in sorted(src.glob("*.py"))
        if path.name != "persistence.py"
    }
    assert {name: lines for name, lines in offenders.items() if lines} == {}


_DECODING_CALLS = {"unpack", "unpack_from", "frombuffer"}


def _decoding_calls(tree: ast.AST) -> list[int]:
    """Lines that call `struct.unpack`, `struct.unpack_from` or
    `np.frombuffer`, as attributes or as bare names."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in _DECODING_CALLS
    ]


def test_only_the_reader_decodes_bytes():
    path = Path(persistence.__file__)
    tree = ast.parse(path.read_text(), filename=str(path))
    reader = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Reader")
    inside = _decoding_calls(reader)
    assert len(inside) >= 2  # the reader itself unpacks and views
    assert sorted(_decoding_calls(tree)) == sorted(inside)
