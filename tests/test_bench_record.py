"""``tools/bench_record.py`` argument checks, made before any benchmark runs."""

import importlib.util
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
