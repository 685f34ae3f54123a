"""The `src/` line count that scripts/bench_pairs.py records for each side."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # loading the script leaves no cache beside it
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_src_lines_counts_python_files_under_src_only(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("import os\n\nx = 1\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("y = 2\nz = 3\n")
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("assert True\n")
    assert bench_pairs.src_lines(tmp_path) == 5


def test_src_lines_matches_wc_on_a_file_without_final_newline(bench_pairs, tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2")  # wc -l counts one line
    assert bench_pairs.src_lines(tmp_path) == 1
