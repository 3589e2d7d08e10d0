"""``tools/bench_record.py``: argument checks, made before any benchmark
runs, and the source state a point names."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("extra", [[], ["--trace-seed", "901"]])
def test_an_empty_seed_range_is_a_usage_error(extra, monkeypatch, capsys):
    tool = _tool()

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(tool, "_bench", no_run)
    with pytest.raises(SystemExit) as info:
        tool.main(["--workload", "audit_all", "--seeds", "970-961", *extra])
    assert info.value.code == 2
    assert "'970-961' names no seed" in capsys.readouterr().err


def test_seed_ranges_and_lists_parse():
    tool = _tool()
    assert tool._seeds("961-963") == [961, 962, 963]
    assert tool._seeds("965") == [965]
    assert tool._seeds("961,965,970") == [961, 965, 970]


def _checkout(root: Path) -> Path:
    """A one-commit git checkout holding a src/ file and a BENCHMARK.json."""
    (root / "src").mkdir(parents=True)
    (root / "src" / "program.py").write_text("VALUE = 1\n")
    (root / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + args, cwd=root, check=True, capture_output=True)
    return root


def _fake_bench(tool, edit_on_call=None):
    """A stand-in for one bench/run.py call; on call ``edit_on_call`` it
    edits the checkout's source, as an edit made mid-recording would."""
    calls = []

    def bench(checkout, workload, seed, trace):
        calls.append(seed)
        if len(calls) == edit_on_call:
            (checkout / "src" / "program.py").write_text("VALUE = 2\n")
        metrics = {name: {"value": 1.0, "unit": "s"} for name in tool.END_TO_END}
        metrics["trace.wall_s"] = {"value": 1.0, "unit": "s"}
        return {}, {"metrics": metrics, "correct": True, "attempted": 1, "failed": 0}

    return bench


def test_a_point_names_the_source_held_before_the_first_run(tmp_path, monkeypatch):
    tool = _tool()
    checkout = _checkout(tmp_path / "checkout")
    before = tool._source_state(checkout)
    monkeypatch.setattr(tool, "REPO", tmp_path)
    monkeypatch.setattr(tool, "_bench", _fake_bench(tool))
    tool.main(["--workload", "audit_all", "--seeds", "1-3", "--checkout", str(checkout)])
    (point,) = json.loads((tmp_path / "BENCH_audit_all.json").read_text())["points"]
    assert {key: point[key] for key in before} == before
    assert before["dirty"] is False


@pytest.mark.parametrize("edit_on_call", [1, 3, 4])  # first run, last seed, traced run
def test_a_source_edit_during_recording_appends_nothing(tmp_path, monkeypatch, edit_on_call):
    tool = _tool()
    checkout = _checkout(tmp_path / "checkout")
    monkeypatch.setattr(tool, "REPO", tmp_path)
    monkeypatch.setattr(tool, "_bench", _fake_bench(tool, edit_on_call))
    with pytest.raises(SystemExit, match="changed while audit_all was recorded"):
        tool.main(["--workload", "audit_all", "--seeds", "1-3", "--checkout", str(checkout)])
    assert not (tmp_path / "BENCH_audit_all.json").exists()
