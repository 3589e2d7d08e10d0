"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions and methods of each gkms
module with wrappers that record one span per call (layer, protocol, start,
end, parent span) in memory.  Names other modules imported with
``from gkms.crypto import ...`` are replaced too, so every call site is seen.
A layer's self time is its spans' duration minus the part their child spans
cover.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter_ns

PROTOCOLS = ("ckcs", "lkh", "oft", "okd")

# (module, attribute, layer); "Class.method" names a method, wrapped only
# where the class body defines it.  Layers follow the modules: crypto, tree,
# server, member, harness and analyzer.  Tree accessors (ancestors, walk,
# leaf_of, ...) are not wrapped: their time stays with the caller, so
# leaver_layout and _log_tree own the tree walks they do.
TARGETS = [
    ("gkms.crypto", "derive", "crypto.hash"),
    ("gkms.crypto", "blind", "crypto.hash"),
    ("gkms.crypto", "mix", "crypto.hash"),
    ("gkms.crypto", "derive_with_code", "crypto.hash"),
    ("gkms.crypto", "wrap", "crypto.wrap"),
    ("gkms.crypto", "unwrap", "crypto.unwrap"),
    ("gkms.crypto", "random_key", "crypto.random_key"),
    ("gkms.tree", "build_balanced", "tree"),
    ("gkms.tree", "assign_codes", "tree"),
    ("gkms.tree", "assign_codes_below", "tree"),
    ("gkms.tree", "attach_subtree", "tree"),
    ("gkms.tree", "insert_leaf", "tree"),
    ("gkms.tree", "detach_leaf", "tree"),
    ("gkms.tree", "remove_leaves", "tree"),
    ("gkms.tree", "compute_cover", "tree"),
    ("gkms.harness", "run", "harness.other"),
    ("gkms.harness", "sweep", "harness.other"),
    ("gkms.harness", "leaver_layout", "harness.leaver_layout"),
    ("gkms.harness", "_deliver", "harness.deliver"),
    ("gkms.harness", "_run_probe", "harness.probe"),
    ("gkms.harness", "_log_tree", "harness.log_tree"),
    ("gkms.harness", "_trace_digest", "harness.digest"),
    ("gkms.analyzer", "audit", "harness.other"),
    ("gkms.analyzer", "closure", "analyzer.closure"),
    ("gkms.analyzer", "adversary_knowledge", "analyzer.adversary_knowledge"),
    ("gkms.analyzer", "verify_witness", "analyzer.verify_witness"),
]
for _module, _cls in (
    ("gkms.ckcs", "CkcsServer"),
    ("gkms.baselines.lkh", "LkhServer"),
    ("gkms.baselines.oft", "OftServer"),
    ("gkms.baselines.okd", "OkdServer"),
):
    TARGETS += [
        (_module, f"{_cls}.__init__", "server.init"),
        (_module, f"{_cls}.handle_event", "server.handle_event"),
        (_module, f"{_cls}.initial_bootstraps", "server.bootstrap"),
        (_module, f"{_cls}.build_member", "member.build"),
    ]
for _module, _cls in (
    ("gkms.core", "MemberView"),
    ("gkms.ckcs", "CkcsMember"),
    ("gkms.baselines.lkh", "LkhMember"),
    ("gkms.baselines.oft", "OftMember"),
    ("gkms.baselines.okd", "OkdMember"),
):
    TARGETS += [
        (_module, f"{_cls}.apply_message", "member.apply"),
        (_module, f"{_cls}.apply_notice", "member.apply"),
        (_module, f"{_cls}._check_addressed", "member.check_addressed"),
    ]

LAYERS = sorted({layer for _, _, layer in TARGETS})

# layers whose self time is also reported per protocol
PER_PROTOCOL = (
    "member.apply", "member.check_addressed", "member.build", "harness.deliver",
    "harness.probe", "crypto.hash", "crypto.unwrap", "crypto.wrap",
    "harness.leaver_layout", "harness.log_tree", "harness.digest", "server.init",
    "server.handle_event", "tree", "analyzer.closure", "harness.other",
)

CALL_COUNTS = (
    "member.apply", "crypto.unwrap", "crypto.hash", "crypto.wrap", "crypto.random_key",
    "server.handle_event", "tree", "analyzer.closure", "analyzer.verify_witness",
)


def per_layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"{layer}.calls", "count", "lower") for layer in CALL_COUNTS]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("crypto.unwrap.fails", "count", "lower"),
        ("analyzer.closure.facts", "count", "lower"),
        ("analyzer.closure.unwrap_hit_ratio", "ratio", "higher"),
    ]
    out += [(f"{layer}.self_s.{p}", "s", "lower") for layer in PER_PROTOCOL for p in PROTOCOLS]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.self_share", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Span recorder; ``protocol`` tags the spans opened while it is set
    (the benchmark sets it before each call, one protocol per call)."""

    def __init__(self) -> None:
        self.layer_index = {layer: i for i, layer in enumerate(LAYERS)}
        self.protocol = ""
        self._protocol_ids = {"": 0, **{p: i + 1 for i, p in enumerate(PROTOCOLS)}}
        self.span_layer = array("H")
        self.span_protocol = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[list] = []  # [span index, layer id, start, child ns]
        self.self_ns: dict[tuple[int, int], int] = {}
        self.calls = [0] * len(LAYERS)
        self.unwrap_fails = 0
        self.closure_unwraps = 0
        self.closure_unwrap_hits = 0
        self.closure_facts = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _enter(self, layer_id: int) -> list:
        index = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_layer.append(layer_id)
        self.span_protocol.append(self._protocol_ids.get(self.protocol, 0))
        self.span_parent.append(parent)
        self.span_end.append(0)
        frame = [index, layer_id, 0, 0]
        self._stack.append(frame)
        self.calls[layer_id] += 1
        start = perf_counter_ns()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        index, layer_id, start, child_ns = frame
        self.span_end[index] = end
        duration = end - start
        key = (layer_id, self.span_protocol[index])
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration

    def _wrap(self, fn, layer: str):
        layer_id = self.layer_index[layer]
        enter, exit_ = self._enter, self._exit
        tracer = self
        if layer == "crypto.unwrap":
            closure_id = self.layer_index["analyzer.closure"]

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                in_closure = bool(tracer._stack) and tracer._stack[-1][1] == closure_id
                frame = enter(layer_id)
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    tracer.unwrap_fails += 1
                    tracer.closure_unwraps += in_closure
                    raise
                finally:
                    exit_(frame)
                tracer.closure_unwraps += in_closure
                tracer.closure_unwrap_hits += in_closure
                return out

        elif layer == "analyzer.closure":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer_id)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                tracer.closure_facts += len(out.facts)
                return out

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(layer_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target, then rebind each imported copy of a wrapped
        function in every loaded gkms module."""
        replaced: dict[int, object] = {}
        for module_name, attr, layer in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                if method not in owner.__dict__:
                    continue  # inherited; wrapped where it is defined
                original = owner.__dict__[method]
            else:
                owner, method = module, attr
                original = getattr(module, attr)
            wrapper = self._wrap(original, layer)
            self._patch(owner, method, wrapper)
            if owner is module:
                replaced[id(original)] = wrapper
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gkms" or name.startswith("gkms.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (no trace.* entries) from everything recorded."""
        totals = [0] * len(LAYERS)
        for (layer_id, _), ns in self.self_ns.items():
            totals[layer_id] += ns
        out: dict[str, float] = {}
        for layer in CALL_COUNTS:
            out[f"{layer}.calls"] = self.calls[self.layer_index[layer]]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = totals[self.layer_index[layer]] / 1e9
        out["crypto.unwrap.fails"] = self.unwrap_fails
        out["analyzer.closure.facts"] = self.closure_facts
        out["analyzer.closure.unwrap_hit_ratio"] = (
            self.closure_unwrap_hits / self.closure_unwraps if self.closure_unwraps else 0.0
        )
        for layer in PER_PROTOCOL:
            layer_id = self.layer_index[layer]
            for p in PROTOCOLS:
                ns = self.self_ns.get((layer_id, self._protocol_ids[p]), 0)
                out[f"{layer}.self_s.{p}"] = ns / 1e9
        return out

    def self_total_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def write_spans(self, path: str, extra: dict) -> None:
        """Spans as columns (layer and protocol ids, start/end in ns since the
        first span, parent span index or -1), gzip-compressed JSON."""
        base = self.span_start[0] if self.span_start else 0
        doc = {
            **extra,
            "layers": LAYERS,
            "protocols": ["", *PROTOCOLS],
            "spans": {
                "layer": self.span_layer.tolist(),
                "protocol": self.span_protocol.tolist(),
                "start_ns": [t - base for t in self.span_start],
                "end_ns": [t - base for t in self.span_end],
                "parent": self.span_parent.tolist(),
            },
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
