"""`parallel.fork_map` and the artifacts of the loops that use it: the
results, the artifacts and the errors are those of the plain loop, whatever
the number of CPUs, and no worker outlives a call."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import osnids
from osnids import learners, parallel, pipeline
from osnids.cli import main
from osnids.config import default_config
from osnids.errors import NonFiniteLoss

from test_cli import _small_config, _write_config

SRC = str(Path(osnids.__file__).resolve().parents[1])
FIRST_CPU = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
# a child process's environment: buffered output, as with a pipe in production, and one BLAS thread
CHILD_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _unit(bad=None, pause: float = 0.0):
    """A unit that returns (item, pid) after `pause` seconds and raises bad[item] for the listed items."""

    def unit(item):
        time.sleep(pause)
        if item in (bad or {}):
            raise bad[item]
        return item, os.getpid()

    return unit


class TestForkMap:
    def test_results_in_item_order_from_every_worker(self):
        got = parallel.fork_map(_unit(pause=0.1), range(6))
        assert [item for item, _ in got] == list(range(6))
        assert got[0][1] == os.getpid()  # this process takes the first run itself
        assert len({pid for _, pid in got}) == min(parallel.cpu_count(), 6)
        _assert_no_child_left()

    def test_one_cpu_is_the_plain_loop(self, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        assert parallel.fork_map(_unit(), range(5)) == [(i, os.getpid()) for i in range(5)]

    def test_no_items(self):
        assert parallel.fork_map(_unit(), []) == []

    def test_more_workers_than_cpus_take_each_run_once(self, monkeypatch):
        """Eight workers on this host, 1,000 items in runs of 4: a run taken twice or never
        would show as a result too many or missing."""
        monkeypatch.setattr(parallel, "cpu_count", lambda: 8)
        start = time.monotonic()
        assert parallel.fork_map(lambda i: i * i, range(1000)) == [i * i for i in range(1000)]
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    @pytest.mark.parametrize("n, bad", [
        (8, {1: KeyError("one"), 3: ValueError("three")}),  # a child's item first, then this process's
        (8, {0: KeyError("zero"), 1: ValueError("one")}),  # this process's item first
        (8, {2: KeyError("two"), 5: ValueError("five"), 6: ValueError("six")}),
        (1000, {701: KeyError("701"), 702: ValueError("702"), 999: ValueError("999")}),  # inside one run of 4
    ])
    def test_raises_the_first_failing_item_in_item_order(self, n, bad, monkeypatch):
        first = bad[min(bad)]
        for cpus in (1, 2, 8):
            monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
            with pytest.raises(type(first)) as caught:
                parallel.fork_map(_unit(bad), range(n))
            assert caught.value.args == first.args
            _assert_no_child_left()

    def test_a_worker_that_dies_is_an_error_not_a_hang(self):
        parent = os.getpid()

        def unit(item):
            time.sleep(0.1)
            if os.getpid() != parent:
                os._exit(3)
            return item

        if parallel.cpu_count() < 2:
            pytest.skip("needs two CPUs")
        with pytest.raises(ChildProcessError, match="ended without its results"):
            parallel.fork_map(unit, range(8))
        _assert_no_child_left()

    def test_buffered_standard_output_is_written_once(self):
        """Text this process buffered before the fork is written once; what the
        workers print is not lost."""
        code = ("import time; from osnids.parallel import fork_map; print('before'); "
                "fork_map(lambda s: time.sleep(0.1) or print(s), ['a', 'b', 'c', 'd']); print('after')")
        out = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                             capture_output=True, text=True, timeout=60).stdout.split()
        assert out[0] == "before" and out[-1] == "after" and len(out) == 6
        assert sorted(out[1:-1]) == ["a", "b", "c", "d"]


def _osnids(argv, cwd, pinned: bool):
    """`osnids <argv>` in a child process, on the first CPU alone if `pinned`."""
    return subprocess.run(
        [sys.executable, "-c", "import sys; from osnids.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300, env=CHILD_ENV,
        preexec_fn=(lambda: os.sched_setaffinity(0, {FIRST_CPU})) if pinned else None,
    )


def _digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.skipif(FIRST_CPU is None, reason="needs os.sched_setaffinity")
class TestWorkerCount:
    def test_every_artifact_is_the_same_on_one_cpu_and_on_all(self, tmp_path):
        runs = {}
        for pinned in (True, False):
            root = tmp_path / ("one_cpu" if pinned else "all_cpus")
            root.mkdir()
            cfg = default_config()
            cfg["workdir"] = str(root / "work")
            (root / "run.json").write_text(json.dumps(cfg))
            done = _osnids(["run", "--config", str(root / "run.json")], root, pinned)
            assert done.returncode == 0, done.stderr
            runs[pinned] = (done.stdout, _digests(root / "work"))
        assert len(runs[True][1]) >= 20
        assert runs[True] == runs[False]

    def test_failing_scorer_in_a_worker_exits_as_the_loop_does(self, tmp_path, monkeypatch):
        cfg = _small_config(tmp_path / "wd")
        cfg["learners"].update(epochs=1, learning_rate=3.89e153)  # only cluster 1's scorer overflows
        config_path = _write_config(tmp_path, cfg)
        for stage in ("synth", "split", "cluster"):
            assert main([stage, "--config", config_path]) == 0

        calls, real = [], learners.train_scorer

        def recording(*args, **kwargs):
            try:
                scorer = real(*args, **kwargs)
            except NonFiniteLoss:
                calls.append(False)
                raise
            calls.append(True)
            return scorer

        monkeypatch.setattr(learners, "train_scorer", recording)
        monkeypatch.setattr(parallel, "cpu_count", lambda: 1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
            pipeline.stage_train_base(cfg)
        assert calls == [True, False]  # item 1, which a child takes on two CPUs or more

        pinned, unpinned = (_osnids(["train-base", "--config", config_path], tmp_path, p) for p in (True, False))
        assert pinned.returncode == unpinned.returncode == NonFiniteLoss.exit_code
        assert pinned.stderr == unpinned.stderr and "loss diverged" in pinned.stderr
        _assert_no_child_left()

    def test_each_line_is_written_once(self, tmp_path):
        config_path = _write_config(tmp_path, _small_config(tmp_path / "wd"))
        done = _osnids(["run", "--config", config_path, "-v"], tmp_path, pinned=False)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("\n") == 1 and done.stdout.startswith("sensitivity=")
        for stage in ("cluster", "train-base", "train-meta", "evaluate"):
            assert done.stderr.count(f"osnids INFO {stage}: ") == 1, done.stderr
        done = _osnids(["train-base", "--config", config_path, "-v"], tmp_path, pinned=False)
        assert done.returncode == 0 and done.stdout == ""
        assert done.stderr.count("osnids INFO train-base: ") == 1, done.stderr
