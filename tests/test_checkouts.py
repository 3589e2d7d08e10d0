"""``tools/checkouts.py``: the runner that compares checkouts, driven with a
stub worker script so that no real tool runs."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RUNNER_PATH = REPO / "tools" / "checkouts.py"

# prints the checkout's line.txt, or fails when it reads "fail"
STUB = """\
import sys
from pathlib import Path

assert sys.argv[1:] == ["--worker"]
line = Path("line.txt").read_text()
if line == "fail":
    sys.exit("stub worker failed")
print(line)
"""


def _runner():
    spec = importlib.util.spec_from_file_location("checkouts", RUNNER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare(tmp_path, *lines):
    """Run the stub over one checkout per line, keyed by the first field."""
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    argv = []
    for i, line in enumerate(lines):
        checkout = tmp_path / f"checkout{i}"
        checkout.mkdir()
        (checkout / "line.txt").write_text(line)
        argv += ["--checkout", str(checkout)]
    return _runner().compare(argv, str(stub), "stub", work=None, key=lambda line: line.split()[0])


def test_equal_keys_exit_0_and_every_line_names_its_checkout(tmp_path, capsys):
    assert _compare(tmp_path, "h1 wall=1", "h1 wall=2") == 0
    assert capsys.readouterr().out == (
        f"h1 wall=1  {tmp_path / 'checkout0'}\nh1 wall=2  {tmp_path / 'checkout1'}\n"
    )


def test_different_keys_exit_1(tmp_path, capsys):
    assert _compare(tmp_path, "h1 wall=1", "h2 wall=1") == 1
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_a_failing_worker_names_its_checkout(tmp_path):
    bad = tmp_path / "checkout1"
    with pytest.raises(SystemExit, match=re.escape(f"{bad}: worker failed\nstub worker failed")):
        _compare(tmp_path, "h1", "fail")


def test_the_worker_refuses_a_gkms_from_outside_the_checkout(tmp_path, monkeypatch, capsys):
    runner = _runner()
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit, match="not the checkout's"):
        runner.compare(["--worker"], "unused", "stub", lambda: "line", key=str)
    monkeypatch.chdir(REPO)
    assert runner.compare(["--worker"], "unused", "stub", lambda: "line", key=str) == 0
    assert capsys.readouterr().out == "line\n"
