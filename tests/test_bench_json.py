"""tools/bench_json.py: a failed or incorrect benchmark run, or a tree
with uncommitted changes, writes no file."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_json(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(module, "ROOT", tmp_path)
    return module


def fake_runs(monkeypatch, module, result, returncode=0, status=("", "")):
    """Every perfbench run prints ``result`` and exits with ``returncode``;
    ``git status`` prints ``status[0]`` before the first run and
    ``status[1]`` after it.  Returns the perfbench commands run."""
    commands = []

    def run(cmd, **kwargs):
        if cmd[:2] == ["git", "status"]:
            return subprocess.CompletedProcess(cmd, 0, status[bool(commands)], "")
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "abc123\n", "")
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, returncode, "log line\n" + json.dumps(result),
                                           "Traceback: boom\n")
    monkeypatch.setattr(module.subprocess, "run", run)
    return commands


GOOD = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}


def test_writes_file_when_every_run_passes(bench_json, monkeypatch, tmp_path):
    fake_runs(monkeypatch, bench_json, GOOD)
    assert bench_json.main(["x"]) == 0
    doc = json.loads((tmp_path / "BENCH_x.json").read_text())
    assert len(doc["runs"]) == 6 and doc["revision"] == "abc123" and doc["clean"]


@pytest.mark.parametrize("status", [(" M src/socalloc/baseline.py\n", ""),
                                    ("", " M src/socalloc/baseline.py\n")])
def test_dirty_tree_writes_no_file(bench_json, monkeypatch, tmp_path, capsys, status):
    commands = fake_runs(monkeypatch, bench_json, GOOD, status=status)
    assert bench_json.main(["x"]) == 1
    assert not (tmp_path / "BENCH_x.json").exists()
    assert len(commands) == (0 if status[0] else 6)  # a dirty start runs nothing
    err = capsys.readouterr().err
    assert "uncommitted changes" in err and "src/socalloc/baseline.py" in err


@pytest.mark.parametrize("result", [dict(GOOD, correct=False), dict(GOOD, failed=1)])
def test_incorrect_run_writes_no_file(bench_json, monkeypatch, tmp_path, capsys, result):
    fake_runs(monkeypatch, bench_json, result)
    assert bench_json.main(["x"]) == 1
    assert not (tmp_path / "BENCH_x.json").exists()
    assert "no file written" in capsys.readouterr().err


def test_nonzero_exit_prints_stderr(bench_json, monkeypatch, tmp_path, capsys):
    fake_runs(monkeypatch, bench_json, GOOD, returncode=3)
    assert bench_json.main(["x"]) == 1
    assert not (tmp_path / "BENCH_x.json").exists()
    assert "Traceback: boom" in capsys.readouterr().err
