"""``tools/trace_memory.py``: the line it prints."""

import importlib.util
from pathlib import Path

from gkms import harness

TOOL_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_memory.py"


def _tool():
    spec = importlib.util.spec_from_file_location("trace_memory", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_names_the_trace_and_its_knowledge():
    tool = _tool()
    fields = dict(part.split("=") for part in tool.measure("okd", 6).split()[1:])
    trace = harness.run(harness.generate_churn_scenario("okd", tool.N, 6, tool.SEED, tool.BATCH_SIZES))
    assert fields["events"] == "6"
    assert fields["digest"] == trace.digest
    assert fields["knowledge"] == tool.knowledge_hash(trace)
    assert float(fields["peak_rss_mb"]) > 0
