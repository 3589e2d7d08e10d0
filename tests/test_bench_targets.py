"""The benchmark's layer tracer finds every function it names, and its
churn is the harness's.

``bench/tracer.py`` wraps gkms functions and methods by name from outside the
program.  A rename in the program would leave that layer silently untimed,
so every name it lists must resolve, and every layer must name at least one
function or method the tracer really wraps.  ``bench/workloads.py`` keeps its
own copy of the churn generator until the benchmark itself changes; it must
build the very scenarios ``harness.generate_churn_scenario`` builds.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from gkms.harness import PROTOCOLS, generate_churn_scenario

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER_PATH = BENCH / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    wrapped_layers = set()
    for module_name, attr, layer in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            # a method may be inherited: the tracer wraps it where it is defined
            assert callable(getattr(owner, method, None)), (module_name, attr, layer)
            if method in vars(owner):
                wrapped_layers.add(layer)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr, layer)
            wrapped_layers.add(layer)
    # a layer all of whose methods are inherited from classes it does not
    # name would be timed nowhere
    untimed = {layer for _, _, layer in targets} - wrapped_layers
    assert not untimed, untimed


def test_bench_churn_is_the_harness_churn(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports bench/oracle.py
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    sizes = [
        (workloads.TRACKED_N, workloads.TRACKED_EVENTS),
        (workloads.UNTRACKED_N, workloads.UNTRACKED_EVENTS),
    ]
    for protocol in sorted(PROTOCOLS):
        for n, events in sizes:
            for seed in (1, 101, 777):
                assert workloads.churn_scenario(protocol, n, events, seed) == generate_churn_scenario(
                    protocol, n, events, seed, (workloads.BATCH,)
                )
