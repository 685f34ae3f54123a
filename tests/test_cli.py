import json
import os
from dataclasses import fields

import numpy as np
import pytest

from osnids.cli import main
from osnids.clustering import EmbeddingParams
from osnids.config import default_config, settings
from osnids.errors import ConfigError
from osnids.evaluation import SyntheticConfig
from osnids.learners import TrainingConfig
from osnids.meta import META_FAMILIES, MetaConfig

from helpers import HOSTILE_PARAMETER_FILES, rewrite_parameter_file


def _small_config(workdir) -> dict:
    cfg = default_config()
    cfg["workdir"] = str(workdir)
    cfg["seed"] = 3
    cfg["synth"] = {
        "n_benign_clusters": 3,
        "n_known_attack_classes": 2,
        "n_unknown_attack_classes": 2,
        "samples_per_class": 40,
        "noise_sigma": 6.0,
        "min_hamming_separation": 1200,
    }
    cfg["cluster"].update({"perplexity": 10.0, "iterations": 500, "k_min": 2, "k_max": 8})
    cfg["learners"].update({"epochs": 10})
    cfg["meta"].update({"forest_trees": 20, "boost_rounds": 20})
    return cfg


def _write_config(tmp_path, cfg) -> str:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_run")
    workdir = tmp_path / "wd"
    cfg = _small_config(workdir)
    config_path = _write_config(tmp_path, cfg)
    assert main(["run", "--config", config_path]) == 0
    return tmp_path, workdir, cfg, config_path


class TestConfigInit:
    def test_writes_template_with_defaults(self, tmp_path):
        out = tmp_path / "template.json"
        assert main(["config", "init", "--out", str(out)]) == 0
        cfg = json.loads(out.read_text())
        assert cfg["split"]["benign_ratios"] == [0.5, 0.3, 0.2]
        assert cfg["cluster"]["perplexity"] == 30.0
        assert cfg["cluster"]["k_max"] == 15
        assert cfg["learners"]["batch_size"] == 64
        assert cfg["meta"]["boost_rounds"] == 100
        assert len(cfg["split"]["heldout_classes"]) == 5
        assert cfg["synth"]["n_benign_clusters"] == 7
        assert cfg["eval"] == {"baseline_quantile": 0.99}


# the per-field casts the stages made before `config.settings` built each settings class
_FIELD_CASTS = {
    "synth": {"n_benign_clusters": int, "n_known_attack_classes": int, "n_unknown_attack_classes": int,
              "samples_per_class": int, "noise_sigma": float, "min_hamming_separation": int},
    "cluster": {"perplexity": float, "iterations": int, "early_exaggeration": float},
    "learners": {"epochs": int, "batch_size": int, "learning_rate": float, "l2": float},
    "meta": {"forest_trees": int, "forest_depth": int, "boost_rounds": int, "boost_learning_rate": float,
             "boost_depth": int, "boost_leaves": int, "holdout_fraction": float},
}
_SETTINGS = {"synth": SyntheticConfig, "cluster": EmbeddingParams, "learners": TrainingConfig, "meta": MetaConfig}
_SECTION_STAGE = {"synth": "synth", "cluster": "cluster", "learners": "train-base", "meta": "train-meta"}


class TestConfigSections:
    @pytest.mark.parametrize("section", sorted(_SETTINGS))
    def test_values_cast_like_per_field_casts(self, section):
        cls, casts = _SETTINGS[section], _FIELD_CASTS[section]
        given = {"seed": 3} if section != "meta" else {}
        assert set(casts) | set(given) == {f.name for f in fields(cls)}
        section_cfg = {key: 300.0 if cast is int else 8 for key, cast in casts.items()}
        if "holdout_fraction" in section_cfg:
            section_cfg["holdout_fraction"] = 0  # still an int for a float field, and in [0, 1)
        built = settings({section: section_cfg}, section, cls, **given)
        expected = cls(**{key: cast(section_cfg[key]) for key, cast in casts.items()}, **given)
        assert built == expected
        assert {key: type(getattr(built, key)) for key in casts} == casts

    @pytest.mark.parametrize(
        "section, key", [(section, key) for section in sorted(_SECTION_STAGE) for key in default_config()[section]]
    )
    def test_missing_key_fails_its_stage(self, finished_run, tmp_path, capsys, section, key):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        del cfg[section][key]
        assert main([_SECTION_STAGE[section], "--config", _write_config(tmp_path, cfg)]) == 1
        assert f"missing required config key: {section}.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("learners", "epochs", 2.9),  # int() would truncate it to 2
            ("learners", "batch_size", True),  # int() would read it as 1
            ("meta", "forest_trees", "100"),
            ("cluster", "early_exaggeration", False),  # a bool for a float field
            ("cluster", "perplexity", float("nan")),
            ("synth", "samples_per_class", float("inf")),
            ("meta", "holdout_fraction", None),
            ("cluster", "iterations", [1000]),
        ],
    )
    def test_value_the_cast_would_change_is_refused(self, section, key, value):
        cls = _SETTINGS[section]
        section_cfg = {**default_config()[section], key: value}
        given = {"seed": 3} if section != "meta" else {}
        with pytest.raises(ConfigError, match=rf"config key {section}\.{key}: expected (int|float), got "):
            settings({section: section_cfg}, section, cls, **given)

    @pytest.mark.parametrize("key, value", [("epochs", 2.9), ("batch_size", True)])
    def test_changed_value_fails_its_stage(self, finished_run, tmp_path, capsys, key, value):
        cfg = json.loads(json.dumps({**finished_run[2], "workdir": str(tmp_path / "wd")}))
        cfg["learners"][key] = value
        assert main(["train-base", "--config", _write_config(tmp_path, cfg)]) == 1
        assert f"config key learners.{key}: expected int, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, key, value",
        [
            ("cluster", "cluster.k_max", "abc"),
            ("cluster", "cluster.k_max", 15.5),  # int() would truncate it to 15
            ("cluster", "cluster.k_min", True),
            ("cluster", "cluster.restarts", None),
            ("split", "seed", "x"),
            ("ingest", "ingest.undersample_ratio", "2"),
            ("evaluate", "eval.baseline_quantile", "high"),
            ("split", "split.benign_ratios", ["a", 0.3, 0.2]),
            ("split", "split.benign_ratios", 5),
            ("split", "split.benign_ratios", [0.5, 0.5]),
            ("split", "split.benign_ratios", [float("nan"), 0.3, 0.2]),
            ("split", "split.heldout_classes", [1]),
            ("split", "split.heldout_classes", [["Bot"]]),
            ("split", "split.heldout_classes", "Bot"),
        ],
    )
    def test_stage_refuses_ill_typed_value(self, finished_run, tmp_path, capsys, stage, key, value):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["pipeline"]["source"] = "existing"  # so split reads split.heldout_classes
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
        assert main([stage, "--config", _write_config(tmp_path, cfg)]) == 1
        assert f"config key {key}: expected " in capsys.readouterr().err

    def test_leftover_run_baseline_is_ignored(self, finished_run, tmp_path):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        (wd / "baseline_report.json").unlink()
        cfg = {**cfg, "workdir": str(wd), "eval": {**cfg["eval"], "run_baseline": False}}
        assert main(["evaluate", "--config", _write_config(tmp_path, cfg)]) == 0
        assert (wd / "baseline_report.json").read_bytes() == (workdir / "baseline_report.json").read_bytes()

    def test_leftover_learning_rate_is_ignored(self, finished_run, tmp_path):
        """The t-SNE step size is n / early_exaggeration; a `cluster.learning_rate`
        left in an older config changes nothing the stage writes."""
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        wd.mkdir()
        shutil.copy(workdir / "d1.sset", wd)
        cfg = {**cfg, "workdir": str(wd), "cluster": {**cfg["cluster"], "learning_rate": 1.0}}
        assert main(["cluster", "--config", _write_config(tmp_path, cfg)]) == 0
        for name in ("d1_clustered.sset", "clustering.json"):
            assert (wd / name).read_bytes() == (workdir / name).read_bytes()

    def test_leftover_learning_rate_leaves_config_digest(self, finished_run):
        """The bundle's `training_config_digest` covers the settings as the
        stages decode them: a key no stage reads, or 500.0 for an int 500,
        leaves it; a setting that is read moves it."""
        from osnids.pipeline import _config_digest

        cfg = finished_run[2]
        same = json.loads(json.dumps(cfg))
        same["cluster"].update(learning_rate=200.0, iterations=500.0)
        moved = json.loads(json.dumps(cfg))
        moved["cluster"]["perplexity"] = 11.0
        assert _config_digest(same) == _config_digest(cfg) != _config_digest(moved)

    def test_train_base_refuses_bad_meta_before_training(self, finished_run, tmp_path, capsys, monkeypatch):
        """The digest decodes the `meta` section too, so `train-base` refuses an
        out-of-range `meta.holdout_fraction` before it trains a scorer."""
        import shutil

        from osnids import learners

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        wd.mkdir()
        shutil.copy(workdir / "d1_clustered.sset", wd)
        cfg = {**cfg, "workdir": str(wd), "meta": {**cfg["meta"], "holdout_fraction": 1.5}}

        def must_not_train(*args, **kwargs):
            raise AssertionError("train-base trained before refusing its config")

        monkeypatch.setattr(learners, "train_base_ensemble", must_not_train)
        assert main(["train-base", "--config", _write_config(tmp_path, cfg)]) == 3
        assert "holdout_fraction must be in [0, 1), got 1.5" in capsys.readouterr().err
        assert sorted(p.name for p in wd.iterdir()) == ["d1_clustered.sset"]

    def test_utf8_config_loads_under_c_locale(self, finished_run, tmp_path):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = {**cfg, "workdir": str(wd)}
        assert "Web Attack\u2013Sql Injection" in cfg["split"]["heldout_classes"]
        path = tmp_path / "run.json"
        path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
        assert b"\xe2\x80\x93" in path.read_bytes()
        proc = _run_cli_child(["split", "--config", str(path)], PYTHONUTF8="0", LC_ALL="C")
        assert proc.returncode == 0, proc.stderr
        assert (wd / "d3.sset").read_bytes() == (workdir / "d3.sset").read_bytes()


class TestTrainMetaProbe:
    @pytest.mark.parametrize("training_rows", ["one", "all_but_one"])
    def test_single_class_training_side_is_reported(self, finished_run, tmp_path, caplog, training_rows):
        """A holdout_fraction of (n - 1) / n leaves one training row, so one class
        and no probe: train-meta still trains and says so, naming the fraction.
        With 1 / n the probe runs and nothing is said."""
        import logging
        import shutil

        from osnids.persistence import load_sample_set

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        n = len(load_sample_set(wd / "d2.sset"))
        fraction = (n - 1) / n if training_rows == "one" else 1 / n
        cfg = {**cfg, "workdir": str(wd), "meta": {**cfg["meta"], "holdout_fraction": fraction}}
        with caplog.at_level(logging.WARNING, logger="osnids"):
            assert main(["train-meta", "--config", _write_config(tmp_path, cfg)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if training_rows == "one":
            assert warnings == [f"train-meta: holdout_fraction {fraction} leaves one class on the training side; "
                                "no probe ran"]
        else:
            assert warnings == []


class TestRun:
    def test_end_to_end_artifacts(self, finished_run):
        _, workdir, _, _ = finished_run
        for artifact in (
            "samples.sset",
            "d1.sset",
            "d2.sset",
            "d3.sset",
            "d1_clustered.sset",
            "split_manifest.csv",
            "clustering.csv",
            "clustering.json",
            "bundle/manifest.json",
            "eval_report.json",
            "baseline_report.json",
            "verdicts.csv",
            "training_curves.csv",
        ):
            assert (workdir / artifact).exists(), artifact

    def test_selected_n_matches_generator(self, finished_run):
        _, workdir, cfg, _ = finished_run
        report = json.loads((workdir / "clustering.json").read_text())
        assert report["selected_n"] == cfg["synth"]["n_benign_clusters"]

    def test_manifest_carries_digest_and_seeds(self, finished_run):
        _, workdir, cfg, _ = finished_run
        manifest = json.loads((workdir / "bundle" / "manifest.json").read_text())
        assert manifest["training_config_digest"]
        assert manifest["seeds"]["meta"] == cfg["seed"]
        assert len(manifest["seeds"]["base"]) == manifest["n_clusters"]

    def test_metrics_recomputable_from_verdict_csv(self, finished_run):
        import csv

        from osnids.persistence import load_sample_set

        _, workdir, _, _ = finished_run
        d3 = load_sample_set(workdir / "d3.sset")
        with open(workdir / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(d3.samples)
        tp = tn = fp = fn = 0
        for sample, row in zip(d3.samples, rows):
            predicted_attack = row["decision"] == "unknown_attack"
            if sample.label != 0:
                tp, fn = tp + predicted_attack, fn + (not predicted_attack)
            else:
                fp, tn = fp + predicted_attack, tn + (not predicted_attack)
        report = json.loads((workdir / "eval_report.json").read_text())
        assert (report["tp"], report["tn"], report["fp"], report["fn"]) == (tp, tn, fp, fn)
        assert report["sensitivity"] == (tp / (tp + fn) if tp + fn else None)
        assert report["specificity"] == (tn / (tn + fp) if tn + fp else None)

    def test_eval_report_csv_written(self, finished_run):
        _, workdir, _, _ = finished_run
        text = (workdir / "eval_report.csv").read_text()
        assert text.startswith("metric,value")
        assert "sensitivity" in text and "specificity" in text

    def test_rerun_reproduces_eval_report(self, finished_run, tmp_path):
        tmp_root, workdir, cfg, config_path = finished_run
        first = (workdir / "eval_report.json").read_bytes()
        workdir2 = tmp_path / "wd2"
        cfg2 = dict(cfg)
        cfg2["workdir"] = str(workdir2)
        config2 = tmp_path / "run2.json"
        config2.write_text(json.dumps(cfg2))
        assert main(["run", "--config", str(config2)]) == 0
        assert (workdir2 / "eval_report.json").read_bytes() == first

    def test_predict_subcommand(self, finished_run, tmp_path):
        _, workdir, _, _ = finished_run
        out = tmp_path / "verdicts.csv"
        code = main(
            [
                "predict",
                "--bundle",
                str(workdir / "bundle"),
                "--samples",
                str(workdir / "d3.sset"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        d3_count = json.loads((workdir / "eval_report.json").read_text())
        total = d3_count["tp"] + d3_count["tn"] + d3_count["fp"] + d3_count["fn"]
        assert len(lines) == total + 1


def _perfbench_library():
    """perfbench/library.py, imported from its file as the benchmark does."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "library.py"
    spec = importlib.util.spec_from_file_location("perfbench_library", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkContract:
    """The library calls the benchmark makes still exist and still agree."""

    def test_layer_calls_resolve(self):
        library = _perfbench_library()
        for module, attr, _name, _note in library.LAYER_CALLS:
            assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"

    def test_single_verdicts_match_batch_csv(self, finished_run):
        import csv

        _, workdir, _, _ = finished_run
        with open(workdir / "verdicts.csv") as fh:
            rows = list(csv.DictReader(fh))
        indices = [0, 1, len(rows) // 2, len(rows) - 1]
        _, singles = _perfbench_library().single_verdicts(workdir / "bundle", workdir / "d3.sset", indices)
        for i, (bits, v, decision, p) in zip(indices, singles):
            row = rows[i]
            assert tuple(bits) == tuple(int(row[f"O_{k + 1}"]) for k in range(4))
            assert (repr(v), decision) == (row["v"], row["decision"])
            # a one-row product may round differently from a batched one
            batch_p = [float(row[f"p_{k + 1}"]) for k in range(len(p))]
            assert np.allclose(p, batch_p, rtol=0, atol=1e-9)

    def test_traced_training_records_the_forked_loops(self, finished_run, tmp_path):
        """Each forked loop runs a share in this process, so a traced run still
        sees the calls the benchmark reports on (perfbench's `layer_metrics`
        fails a traced run that recorded none)."""
        import shutil

        _, workdir, cfg, _ = finished_run
        shutil.copytree(workdir, tmp_path / "wd")
        config_path = _write_config(tmp_path, {**cfg, "workdir": str(tmp_path / "wd")})
        library = _perfbench_library()
        tracer = library.Tracer()
        library.install_layer_spans(tracer)
        try:
            for stage in ("cluster", "train-base", "train-meta"):
                assert library.cli_main([stage, "--config", config_path]) == 0
        finally:
            tracer.unwrap()
        names = tracer.names()
        assert {"clustering.tsne", "clustering.kmeans_sweep", "learners.train_base", "learners.train_scorer",
                "learners.meta_features", "meta.train"} <= names
        for name in ("bundle/manifest.json", "training_curves.csv", "clustering.csv"):
            assert (tmp_path / "wd" / name).read_bytes() == (workdir / name).read_bytes()

    def test_fit_meta_families_runs(self, finished_run):
        _, workdir, cfg, _ = finished_run
        library = _perfbench_library()
        tracer = library.Tracer()
        nodes = library.fit_meta_families(tracer, workdir / "bundle", workdir / "d2.sset", cfg)
        assert set(nodes) == {"random_forest", "boost_depthwise", "boost_leafwise"}
        assert all(count >= 1 for count in nodes.values())
        assert tracer.names() == {f"meta.fit.{family}" for family in META_FAMILIES}


def _ingest_config(tmp_path):
    """A small pcap and flow CSV (2 benign, 2 known and 1 unknown payload
    template) and a config that ingests them into `tmp_path / "wd"`;
    returns the config and the frame count."""
    from helpers import build_pcap, ipv4_packet

    rng = np.random.default_rng(21)
    templates = rng.integers(0, 256, (5, 600))  # 2 benign, 2 known, 1 unknown

    def payload(t):
        body = np.clip(templates[t] + rng.integers(-4, 5, 600), 0, 255).astype(np.uint8)
        body[0] = max(int(body[0]), 1)
        return body.tobytes()

    frames, stamps = [], []
    hosts = {0: "10.0.0.1", 1: "10.0.0.2", 2: "10.0.1.1", 3: "10.0.1.2", 4: "10.0.2.1"}
    for t in range(5):
        count = 80 if t < 2 else 40
        for _ in range(count):
            frames.append(ipv4_packet(hosts[t], "10.9.9.9", 1000 + t, 80, "TCP", payload(t)))
            stamps.append(float(rng.uniform(0, 50)))
    pcap_path = tmp_path / "traffic.pcap"
    pcap_path.write_bytes(build_pcap(frames, timestamps=stamps))

    labels = ["BENIGN", "BENIGN", "atk_known_a", "atk_known_b", "atk_unknown"]
    flow_lines = ["src,sport,dst,dport,proto,t0,dur,label"]
    for t in range(5):
        flow_lines.append(f"{hosts[t]},{1000 + t},10.9.9.9,80,TCP,0,60,{labels[t]}")
    flows_path = tmp_path / "flows.csv"
    flows_path.write_text("\n".join(flow_lines) + "\n")

    cfg = _small_config(tmp_path / "wd")
    cfg["pipeline"]["source"] = "ingest"
    cfg["ingest"] = {
        "pcap": str(pcap_path),
        "flows": str(flows_path),
        "benign_label": "BENIGN",
        "undersample_ratio": 2.0,
        "column_map": {
            "src_ip": "src",
            "src_port": "sport",
            "dst_ip": "dst",
            "dst_port": "dport",
            "protocol": "proto",
            "start_time": "t0",
            "duration": "dur",
            "label": "label",
        },
    }
    cfg["split"]["heldout_classes"] = ["atk_unknown"]
    cfg["cluster"].update({"perplexity": 8.0, "k_min": 2, "k_max": 6})
    return cfg, len(frames)


class TestIngestSource:
    def test_pcap_to_verdicts(self, tmp_path):
        cfg, n_frames = _ingest_config(tmp_path)
        config_path = _write_config(tmp_path, cfg)

        assert main(["run", "--config", config_path]) == 0
        report = json.loads((tmp_path / "wd" / "eval_report.json").read_text())
        assert report["tp"] + report["fn"] == 40  # all unknown-attack packets land in d3
        ingest = json.loads((tmp_path / "wd" / "ingest_report.json").read_text())
        assert ingest["matched"] == n_frames
        cluster = json.loads((tmp_path / "wd" / "clustering.json").read_text())
        assert cluster["selected_n"] == 2


class TestStandardOutput:
    """The benchmark harness reads the last line of its standard output as
    its result, and it calls the serving functions in its own process with
    standard output open, so no stage or library call may write there."""

    def test_stages_and_serving_calls_write_nothing(self, tmp_path, capfd):
        from osnids import meta, persistence, pipeline

        cfg, _ = _ingest_config(tmp_path)
        capfd.readouterr()
        for stage in ("ingest", "split", "cluster", "train_base", "train_meta", "evaluate"):
            getattr(pipeline, f"stage_{stage}")(cfg)
        workdir = tmp_path / "wd"
        base, meta_ens = persistence.load_bundle(workdir / "bundle")
        samples = persistence.load_sample_set(workdir / "d3.sset").samples
        verdicts, _ = meta.predict_batch(base, meta_ens, samples[:1])
        assert len(verdicts) == 1
        assert capfd.readouterr().out == ""


def _write_untrainable_d1(path) -> None:
    """A benign D1 of two 40-row payload groups and one of 8 rows."""
    from osnids.persistence import save_sample_set
    from osnids.samples import SampleSet, make_records

    rng = np.random.default_rng(31)
    templates = rng.integers(0, 256, (3, 1500))
    groups = [np.clip(t + rng.integers(-4, 5, (m, 1500)), 1, 255) for t, m in zip(templates, (40, 40, 8))]
    save_sample_set(SampleSet(class_names=["benign"], samples=make_records(np.vstack(groups), 0)), path)


def _run_cli_child(argv, **env):
    """`osnids <argv>` in a child process with a 60 s timeout; `env` adds
    environment variables."""
    import subprocess
    import sys
    from pathlib import Path

    import osnids

    src = str(Path(osnids.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "import sys; from osnids.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env={**os.environ, **env, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )


# case -> (flow CSV data row, exit code of `osnids ingest`)
_HOSTILE_FLOW_ROWS = {
    "non_integer_port": (b"10.0.0.1,80x,10.0.0.2,80,TCP,0,1,BENIGN\n", 3),
    "non_utf8_label": (b"10.0.0.1,80,10.0.0.2,80,TCP,0,1,BEN\xffIGN\n", 2),
    "field_above_csv_limit": (b"10.0.0.1,80,10.0.0.2,80,TCP,0,1," + b"B" * 200_000 + b"\n", 3),
}

# case -> (manifest -> (key, hostile value)); each must make `osnids predict` exit 2
_HOSTILE_MANIFEST_EDITS = {
    "scorer_meta_not_a_list": lambda m: ("scorer_meta", 5),
    "scorer_kinds_convnet_for_logistic": lambda m: ("scorer_kinds", ["convnet"] * m["n_clusters"]),
    "image_geometry_transposed": lambda m: ("image_geometry", [25, 20, 3]),
}


class TestExitCodes:
    def test_missing_required_key_names_it(self, tmp_path, capsys):
        cfg = _small_config(tmp_path / "wd")
        del cfg["split"]["benign_ratios"]
        config_path = _write_config(tmp_path, cfg)
        main(["synth", "--config", config_path])
        assert main(["split", "--config", config_path]) == 1
        err = capsys.readouterr().err
        assert "split.benign_ratios" in err

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize("blob", [b'{"seed": "\xff"}', b"[" * 100_000], ids=["non_utf8", "deeply_nested"])
    def test_undecodable_config(self, tmp_path, blob):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        assert main(["run", "--config", str(path)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_usage_error_exit_one(self):
        assert main(["no-such-command"]) == 1

    def test_threads_flag_is_gone(self, finished_run, capsys):
        _, _, _, config_path = finished_run
        assert main(["train-base", "--config", config_path, "--threads", "2"]) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(_HOSTILE_FLOW_ROWS))
    def test_ingest_hostile_flow_csv(self, tmp_path, case):
        from helpers import build_pcap, ipv4_packet

        row, code = _HOSTILE_FLOW_ROWS[case]
        (tmp_path / "cap.pcap").write_bytes(build_pcap([ipv4_packet("10.0.0.1", "10.0.0.2", 80, 80, "TCP", b"x")]))
        (tmp_path / "flows.csv").write_bytes(b"src,sport,dst,dport,proto,t0,dur,label\n" + row)
        cfg = _small_config(tmp_path / "wd")
        cfg["ingest"].update(pcap=str(tmp_path / "cap.pcap"), flows=str(tmp_path / "flows.csv"), column_map={
            "src_ip": "src", "src_port": "sport", "dst_ip": "dst", "dst_port": "dport",
            "protocol": "proto", "start_time": "t0", "duration": "dur", "label": "label",
        })
        proc = _run_cli_child(["ingest", "--config", _write_config(tmp_path, cfg)])
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_train_base_removes_stale_parameter_files(self, finished_run, tmp_path):
        import shutil

        _, workdir, cfg, _ = finished_run
        workdir2 = tmp_path / "wd"
        shutil.copytree(workdir, workdir2)
        bundle = workdir2 / "bundle"
        assert sorted(p.name for p in bundle.glob("meta_*.bin")) == sorted(f"meta_{f}.bin" for f in META_FAMILIES)
        (bundle / "base_099.bin").write_bytes((bundle / "base_000.bin").read_bytes())
        (bundle / "notes.txt").write_text("kept")
        config_path = _write_config(tmp_path, {**cfg, "workdir": str(workdir2)})
        assert main(["train-base", "--config", config_path]) == 0
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["meta_files"] == []
        assert list(bundle.glob("meta_*.bin")) == []
        assert sorted(p.name for p in bundle.glob("*.bin")) == sorted(manifest["scorer_files"])
        assert (bundle / "notes.txt").read_text() == "kept"
        assert main(["train-meta", "--config", config_path]) == 0
        assert len(list(bundle.glob("meta_*.bin"))) == len(META_FAMILIES)

    def test_forest_without_trees_is_range_error(self, finished_run, tmp_path, capsys):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["meta"]["forest_trees"] = 0
        assert main(["train-meta", "--config", _write_config(tmp_path, cfg)]) == 3
        assert "forest_trees must be >= 1, got 0" in capsys.readouterr().err
        assert (wd / "bundle" / "meta_random_forest.bin").read_bytes() == (
            workdir / "bundle" / "meta_random_forest.bin"
        ).read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("boost_learning_rate", float("inf"), "boost_learning_rate must be finite and > 0, got inf"),
            ("boost_learning_rate", 0.0, "boost_learning_rate must be finite and > 0, got 0.0"),
            ("boost_learning_rate", -0.1, "boost_learning_rate must be finite and > 0, got -0.1"),
            ("holdout_fraction", -1.0, "holdout_fraction must be in [0, 1), got -1.0"),
            ("holdout_fraction", 1.0, "holdout_fraction must be in [0, 1), got 1.0"),
            # in range, but D2's rows round to an empty side
            ("holdout_fraction", 1e-9, "holdout_fraction 1e-09 leaves no holdout row of"),
            ("holdout_fraction", 0.9999999, "holdout_fraction 0.9999999 leaves no training row of"),
            # each of these grows a family that votes one class on every row
            ("boost_rounds", 0, "boost_rounds must be >= 1, got 0"),
            ("forest_depth", 0, "forest_depth must be >= 1, got 0"),
            ("boost_depth", -1, "boost_depth must be >= 1, got -1"),
            ("boost_leaves", 0, "boost_leaves must be >= 2, got 0"),
            ("boost_leaves", 1, "boost_leaves must be >= 2, got 1"),
        ],
    )
    def test_meta_value_out_of_range_is_range_error(self, finished_run, tmp_path, capsys, key, value, message):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["meta"][key] = value  # inf is written as JSON `Infinity`, which the config reader accepts
        assert main(["train-meta", "--config", _write_config(tmp_path, cfg)]) == 3
        assert message in capsys.readouterr().err
        for family in META_FAMILIES:
            name = f"meta_{family}.bin"
            assert (wd / "bundle" / name).read_bytes() == (workdir / "bundle" / name).read_bytes()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("batch_size", 0, "batch_size must be >= 1, got 0"),  # once range()'s bare ValueError
            ("batch_size", -5, "batch_size must be >= 1, got -5"),  # once untrained scorers
            ("epochs", 0, "epochs must be >= 1, got 0"),
            ("learning_rate", -0.01, "learning_rate must be finite and > 0, got -0.01"),  # once gradient ascent
            ("learning_rate", 0.0, "learning_rate must be finite and > 0, got 0.0"),
            ("learning_rate", float("inf"), "learning_rate must be finite and > 0, got inf"),
            ("l2", -1e-4, "l2 must be finite and >= 0, got -0.0001"),
            ("l2", float("inf"), "l2 must be finite and >= 0, got inf"),
        ],
    )
    def test_learners_value_out_of_range_is_range_error(self, finished_run, tmp_path, capsys, key, value, message):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["learners"][key] = value
        assert main(["train-base", "--config", _write_config(tmp_path, cfg)]) == 3
        assert message in capsys.readouterr().err
        for path in (workdir / "bundle").iterdir():
            assert (wd / "bundle" / path.name).read_bytes() == path.read_bytes(), path.name
        assert (wd / "training_curves.csv").read_bytes() == (workdir / "training_curves.csv").read_bytes()

    @pytest.mark.parametrize("stage", ["train-base", "train-meta"])
    @pytest.mark.parametrize("kind", [["logistic"], "svm"], ids=["list", "unknown"])
    def test_unknown_scorer_kind_is_config_error(self, finished_run, tmp_path, capsys, stage, kind):
        """`learners.kind` is decoded with the config digest, so both train
        stages refuse a kind that is not a scorer kind before they train."""
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["learners"]["kind"] = kind
        assert main([stage, "--config", _write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err
        assert "config key learners.kind: expected " in err and "Traceback" not in err
        for path in (workdir / "bundle").iterdir():
            assert (wd / "bundle" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_missing_sample_set_is_io_error(self, tmp_path):
        cfg = _small_config(tmp_path / "wd")
        config_path = _write_config(tmp_path, cfg)
        assert main(["split", "--config", config_path]) == 2

    def test_validation_error_exit_three(self, tmp_path):
        cfg = _small_config(tmp_path / "wd")
        cfg["pipeline"]["source"] = "existing"
        cfg["split"]["heldout_classes"] = ["not_a_class"]
        config_path = _write_config(tmp_path, cfg)
        main(["synth", "--config", config_path])
        assert main(["split", "--config", config_path]) == 3

    def test_predict_empty_sample_set(self, finished_run, tmp_path):
        from osnids.persistence import save_sample_set
        from osnids.samples import SampleSet

        _, workdir, _, _ = finished_run
        save_sample_set(SampleSet(class_names=["benign"]), tmp_path / "empty.sset")
        out = tmp_path / "v.csv"
        code = main(
            ["predict", "--bundle", str(workdir / "bundle"), "--samples", str(tmp_path / "empty.sset"),
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines() == [(workdir / "verdicts.csv").read_text().splitlines()[0]]

    def test_predict_non_utf8_class_name_is_format_error(self, finished_run, tmp_path, capsys):
        _, workdir, _, _ = finished_run
        blob = bytearray((workdir / "d3.sset").read_bytes())
        blob[13] = 0xFF  # first byte of the first class name
        (tmp_path / "bad.sset").write_bytes(bytes(blob))
        code = main(
            ["predict", "--bundle", str(workdir / "bundle"), "--samples", str(tmp_path / "bad.sset"),
             "--out", str(tmp_path / "v.csv")]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(HOSTILE_PARAMETER_FILES) + sorted(_HOSTILE_MANIFEST_EDITS))
    def test_predict_hostile_bundle_is_format_error(self, finished_run, tmp_path, case):
        """In a child process, so a decoder that loops forever fails the test."""
        import shutil

        _, workdir, _, _ = finished_run
        bundle = tmp_path / "bundle"
        shutil.copytree(workdir / "bundle", bundle)
        if case in HOSTILE_PARAMETER_FILES:
            name, mutate = HOSTILE_PARAMETER_FILES[case]
            rewrite_parameter_file(bundle / name, mutate)
        else:
            manifest = json.loads((bundle / "manifest.json").read_text())
            key, value = _HOSTILE_MANIFEST_EDITS[case](manifest)
            manifest[key] = value
            (bundle / "manifest.json").write_text(json.dumps(manifest))
        proc = _run_cli_child(["predict", "--bundle", str(bundle), "--samples", str(workdir / "d3.sset"),
                               "--out", str(tmp_path / "v.csv")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["predict_out_dir_missing", "config_init_out_dir_missing",
                                      "eval_report_is_a_directory", "heldout_json_truncated",
                                      "workdir_under_a_file"])
    def test_unwritable_or_unreadable_workdir_file_is_io_error(self, finished_run, tmp_path, case):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        config_path = _write_config(tmp_path, {**cfg, "workdir": str(wd)})
        if case == "predict_out_dir_missing":
            argv = ["predict", "--bundle", str(wd / "bundle"), "--samples", str(wd / "d3.sset"),
                    "--out", str(tmp_path / "missing" / "v.csv")]
        elif case == "config_init_out_dir_missing":
            argv = ["config", "init", "--out", str(tmp_path / "missing" / "run.json")]
        elif case == "eval_report_is_a_directory":
            (wd / "eval_report.json").unlink()
            (wd / "eval_report.json").mkdir()
            argv = ["evaluate", "--config", config_path]
        elif case == "heldout_json_truncated":
            (wd / "heldout.json").write_bytes((wd / "heldout.json").read_bytes()[:10])
            argv = ["split", "--config", config_path]
        else:
            argv = ["synth", "--config", _write_config(tmp_path, {**cfg, "workdir": str(wd / "d1.sset" / "wd")})]
        proc = _run_cli_child(argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("classes", [[1], ["Bot", 2], [None], [["Bot"]], "Bot"])
    def test_heldout_json_of_non_strings_is_format_error(self, finished_run, tmp_path, capsys, classes):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        wd.mkdir()
        shutil.copy(workdir / "samples.sset", wd)
        (wd / "heldout.json").write_text(json.dumps({"heldout_classes": classes}))
        assert main(["split", "--config", _write_config(tmp_path, {**cfg, "workdir": str(wd)})]) == 2
        assert "heldout_classes must be a list of str" in capsys.readouterr().err
        assert sorted(p.name for p in wd.iterdir()) == ["heldout.json", "samples.sset"]

    @pytest.mark.parametrize(
        "key, value",
        [("early_exaggeration", 0.0), ("early_exaggeration", -12.0)],
    )
    def test_cluster_refuses_non_positive_step_size(self, finished_run, tmp_path, capsys, key, value):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        wd.mkdir()
        shutil.copy(workdir / "d1.sset", wd)
        cfg = json.loads(json.dumps({**cfg, "workdir": str(wd)}))
        cfg["cluster"][key] = value
        assert main(["cluster", "--config", _write_config(tmp_path, cfg)]) == 3
        assert f"{key} must be > 0" in capsys.readouterr().err
        assert not (wd / "clustering.json").exists() and not (wd / "d1_clustered.sset").exists()
        assert sorted(p.name for p in wd.iterdir()) == ["d1.sset"]

    def test_cluster_refuses_partition_train_base_cannot_train(self, tmp_path, capsys):
        """Two 40-row payload groups and one of 8 rows: the sweep selects N = 3,
        whose 8-row cluster is below the scorers' 10-row minimum, so `cluster`
        exits 3 naming it, before it writes any artifact."""
        wd = tmp_path / "wd"
        wd.mkdir()
        _write_untrainable_d1(wd / "d1.sset")
        assert main(["cluster", "--config", _write_config(tmp_path, _small_config(wd))]) == 3
        assert "cluster 2: 8 of 88 rows; need >= 10 on each side" in capsys.readouterr().err
        assert sorted(p.name for p in wd.iterdir()) == ["d1.sset"]

    def test_refused_cluster_leaves_no_partition_for_train_base(self, finished_run, tmp_path, capsys):
        """`cluster` removes its earlier outputs before it reads D1, so after it
        refuses a new D1, `train-base` finds no partition instead of training
        on the finished run's."""
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        _write_untrainable_d1(wd / "d1.sset")
        config_path = _write_config(tmp_path, {**cfg, "workdir": str(wd)})
        assert main(["cluster", "--config", config_path]) == 3
        capsys.readouterr()
        assert not {"d1_clustered.sset", "clustering.csv", "clustering.json"} & {p.name for p in wd.iterdir()}
        assert main(["train-base", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "d1_clustered.sset" in err

    def test_refused_cluster_leaves_no_partition_for_evaluate(self, finished_run, tmp_path, capsys):
        """`evaluate` reads only the clustered D1, and reads it first: after
        `cluster` refuses a new D1, it rewrites no report from the old bundle."""
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        _write_untrainable_d1(wd / "d1.sset")
        config_path = _write_config(tmp_path, {**cfg, "workdir": str(wd)})
        assert main(["cluster", "--config", config_path]) == 3
        outputs = ("eval_report.json", "eval_report.csv", "verdicts.csv", "baseline_report.json")
        for name in outputs:
            (wd / name).unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", config_path]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "d1_clustered.sset" in err
        assert not set(outputs) & {p.name for p in wd.iterdir()}

    def test_bundle_without_meta_classifiers_is_one_refusal(self, finished_run, tmp_path, capsys):
        """`evaluate` and `predict` refuse a `train-base` bundle with the same
        error (exit 3), and neither writes an output."""
        import shutil

        from osnids.persistence import load_bundle, save_bundle

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        base, _ = load_bundle(wd / "bundle")
        save_bundle(base, None, wd / "bundle")
        outputs = ("eval_report.json", "eval_report.csv", "verdicts.csv", "baseline_report.json")
        for name in outputs:
            (wd / name).unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", _write_config(tmp_path, {**cfg, "workdir": str(wd)})]) == 3
        evaluate_err = capsys.readouterr().err
        out = tmp_path / "v.csv"
        argv = ["predict", "--bundle", str(wd / "bundle"), "--samples", str(wd / "d3.sset"), "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == evaluate_err and evaluate_err.startswith("error:")
        assert not set(outputs) & {p.name for p in wd.iterdir()} and not out.exists()

    def test_train_base_does_not_read_clustering_json(self, finished_run, tmp_path):
        import shutil

        _, workdir, cfg, _ = finished_run
        wd = tmp_path / "wd"
        shutil.copytree(workdir, wd)
        (wd / "clustering.json").unlink()
        proc = _run_cli_child(["train-base", "--config", _write_config(tmp_path, {**cfg, "workdir": str(wd)})])
        assert proc.returncode == 0, proc.stderr
        assert (wd / "bundle" / "base_000.bin").read_bytes() == (workdir / "bundle" / "base_000.bin").read_bytes()
        assert (wd / "training_curves.csv").read_bytes() == (workdir / "training_curves.csv").read_bytes()

    def test_seed_override_changes_run(self, finished_run, tmp_path):
        _, workdir, cfg, _ = finished_run
        workdir3 = tmp_path / "wd3"
        cfg3 = dict(cfg)
        cfg3["workdir"] = str(workdir3)
        config3 = tmp_path / "run3.json"
        config3.write_text(json.dumps(cfg3))
        assert main(["synth", "--config", str(config3), "--seed", "99"]) == 0
        a = (workdir3 / "samples.sset").read_bytes()
        b = (workdir / "samples.sset").read_bytes()
        assert a != b
