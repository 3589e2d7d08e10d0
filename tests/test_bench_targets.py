"""The benchmark's layer tracer finds every function it names.

``bench/tracer.py`` wraps gkms functions and methods by name from outside the
program.  A rename in the program would leave that layer silently untimed,
so every name it lists must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for module_name, attr, layer in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            # a method may be inherited: the tracer wraps it where it is defined
            assert callable(getattr(owner, method, None)), (module_name, attr, layer)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr, layer)
