"""``tools/trace_memory.py``: the churn it runs and the line it prints."""

import importlib.util
from pathlib import Path

from gkms import harness

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_memory.py"


def _tool():
    spec = importlib.util.spec_from_file_location("trace_memory", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_churn_alternates_and_rotates_leave_layouts():
    scenario = _tool().churn("lkh", events=7)
    assert (scenario.protocol, scenario.n, scenario.seed) == ("lkh", 256, 5)
    assert [step.op for step in scenario.steps] == ["join", "leave"] * 3 + ["join"]
    layouts = [step.layout for step in scenario.steps if step.op == "leave"]
    assert layouts == ["random", "best-half", "worst-spread"]
    assert {step.count for step in scenario.steps} <= {1, 2, 4, 8}


def test_report_names_the_trace_and_its_knowledge():
    tool = _tool()
    fields = dict(part.split("=") for part in tool.measure("okd", 6).split()[1:])
    trace = harness.run(tool.churn("okd", 6))
    assert fields["events"] == "6"
    assert fields["digest"] == trace.digest
    assert fields["knowledge"] == tool.knowledge_hash(trace)
    assert float(fields["peak_rss_mb"]) > 0
