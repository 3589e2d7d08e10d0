"""``tools/output_hash.py``: the same outputs give the same hash in any
process, and a change to an output changes it."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gkms import analyzer
from gkms import tree as kt

REPO = Path(__file__).resolve().parent.parent
TOOL_PATH = REPO / "tools" / "output_hash.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_hash", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_hash_does_not_depend_on_the_hash_seed():
    code = (
        "import importlib.util, sys;"
        f"spec = importlib.util.spec_from_file_location('output_hash', {str(TOOL_PATH)!r});"
        "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool);"
        "print(tool.output_hash(seeds=2, analyzer_seeds=2, audit_trials=4))"
    )
    hashes = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(REPO / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        hashes.append(done.stdout.strip())
    assert hashes[0] == hashes[1]
    assert len(hashes[0]) == 64


def test_a_swapped_attach_changes_the_hash(monkeypatch):
    tool = _tool()
    before = tool.output_hash(seeds=3, analyzer_seeds=0, audit_trials=1)
    assert tool.output_hash(seeds=3, analyzer_seeds=0, audit_trials=1) == before
    attach = kt.attach_subtree

    def swapped(current, member_ids, root_code):
        new_root_id, top_id = attach(current, member_ids, root_code)
        current.nodes[new_root_id].children.reverse()
        return new_root_id, top_id

    monkeypatch.setattr(kt, "attach_subtree", swapped)
    assert tool.output_hash(seeds=3, analyzer_seeds=0, audit_trials=1) != before


def test_a_change_to_the_closure_changes_the_hash(monkeypatch):
    tool = _tool()
    before = tool.output_hash(seeds=0, analyzer_seeds=3, audit_trials=2)
    # seeds no longer start a refresh or code derivation: the codes-public
    # breach of the second audit trace, which code-derives a middle key from
    # a held group key, goes away
    monkeypatch.setattr(analyzer, "_CHAINABLE", analyzer._CHAINABLE - {None})
    assert tool.output_hash(seeds=0, analyzer_seeds=3, audit_trials=2) != before


@pytest.mark.parametrize("rule", ["unwrap-from-transcript", "hash-forward"])
def test_a_closure_that_stops_chaining_a_rule_changes_the_hash(monkeypatch, rule):
    # a single adversary's closure rarely chains past its seeds; colluding
    # leaver pairs do: on analyzer seed 8 a ckcs pair refreshes a key it
    # unwrapped, on seed 21 it also refreshes a refreshed key
    tool = _tool()
    before = tool.output_hash(seeds=0, analyzer_seeds=22, audit_trials=0)
    monkeypatch.setattr(analyzer, "_CHAINABLE", analyzer._CHAINABLE - {rule})
    assert tool.output_hash(seeds=0, analyzer_seeds=22, audit_trials=0) != before
