import json
import os

import numpy as np
import pytest

from osnids.cli import main
from osnids.config import default_config
from osnids.meta import META_FAMILIES

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

    def test_fit_meta_families_runs(self, finished_run):
        _, workdir, cfg, _ = finished_run
        library = _perfbench_library()
        tracer = library.Tracer()
        nodes = library.fit_meta_families(tracer, workdir / "bundle", workdir / "d2.sset", cfg)
        assert set(nodes) == {"random_forest", "boost_depthwise", "boost_leafwise"}
        assert all(count >= 1 for count in nodes.values())
        assert tracer.names() == {f"meta.fit.{family}" for family in META_FAMILIES}


class TestIngestSource:
    def test_pcap_to_verdicts(self, tmp_path):
        import numpy as np

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
        config_path = _write_config(tmp_path, cfg)

        assert main(["run", "--config", config_path]) == 0
        report = json.loads((tmp_path / "wd" / "eval_report.json").read_text())
        assert report["tp"] + report["fn"] == 40  # all unknown-attack packets land in d3
        ingest = json.loads((tmp_path / "wd" / "ingest_report.json").read_text())
        assert ingest["matched"] == len(frames)
        cluster = json.loads((tmp_path / "wd" / "clustering.json").read_text())
        assert cluster["selected_n"] == 2


# case -> (manifest -> (key, hostile value)); each must make `osnids predict` exit 2
_HOSTILE_MANIFEST_EDITS = {
    "scorer_meta_not_a_list": lambda m: ("scorer_meta", 5),
    "scorer_kinds_convnet_for_logistic": lambda m: ("scorer_kinds", ["convnet"] * m["n_clusters"]),
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

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 1

    def test_usage_error_exit_one(self):
        assert main(["no-such-command"]) == 1

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
        import subprocess
        import sys
        from pathlib import Path

        import osnids

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
        argv = ["predict", "--bundle", str(bundle), "--samples", str(workdir / "d3.sset"),
                "--out", str(tmp_path / "v.csv")]
        src = str(Path(osnids.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from osnids.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

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
