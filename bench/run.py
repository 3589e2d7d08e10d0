"""gkms benchmark: one workload, timed end to end, or traced per layer.

    python3 bench/run.py --workload run_tracked --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  Results (and, when traced, the spans) are also written under
``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# Time of one calibration loop at the reference machine speed (2 vCPUs,
# Python 3.11.7, cryptography 48.0.0, where these figures were first taken).
# Times are reported at that speed: each call's raw seconds are scaled by
# CALIBRATION_REF_S / the mean of the calibration loops timed just before and
# just after it, because the host's speed drifts by up to half within seconds
# to minutes, and that drift, not the program, otherwise sets the spread
# between runs.
CALIBRATION_REF_S = 0.025


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, self-check and build the inputs, then exit (one setup_s sample)",
    )
    return parser.parse_args(argv)


def import_program():
    """Import gkms from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "gkms", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}/gkms; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import gkms

    if os.path.dirname(os.path.dirname(os.path.abspath(gkms.__file__))) != SRC:
        sys.exit(f"bench: imported gkms from {gkms.__file__}, not from {SRC}")


def _setup(workload: str, seed: int):
    """Everything before the first timed call: imports, the golden-vector
    self-check and input generation."""
    from gkms.crypto import verify_golden_vectors

    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {workload!r}; one of {sorted(workloads.WORKLOADS)}")
    bad = [v for v in verify_golden_vectors() if not v.ok]
    if bad:
        sys.exit(f"bench: {len(bad)} golden crypto vectors do not match")
    return workloads.WORKLOADS[workload](seed)


def _setup_seconds(args) -> list[float]:
    """Wall time of whole set-ups in fresh interpreters, process start to
    ready, so imports are paid every time; each scaled by the calibration
    loop timed just before it."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    before = _time_calibration()
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = _time_calibration()
        samples.append(_scaled(elapsed, before, after))
        before = after
    return samples


def _environment() -> dict:
    import cryptography

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "platform": platform.platform(),
    }


def _calibration_loop() -> None:
    """Fixed work with the program's mix (object churn, SHA-256 of key-sized
    inputs, AES-SIV encryption) that runs no program code."""
    from cryptography.hazmat.primitives.ciphers.aead import AESSIV

    value = b"k" * 32
    objects = {}
    for i in range(20_000):
        value = hashlib.sha256(value).digest()
        objects[i] = (value[:4], [i, i + 1])
    cipher = AESSIV(value)
    for _ in range(3_000):
        cipher.encrypt(value, None)


def _time_calibration() -> float:
    gc.collect()
    start = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - start


def _scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, from the calibration loops timed
    around it."""
    return seconds * CALIBRATION_REF_S / ((before + after) / 2)


class Runner:
    """Runs rounds of a workload's calls and keeps the tallies."""

    def __init__(self, workload) -> None:
        self.calls = workload.calls
        self.workload = workload
        self.reference: list[object] = []
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.scaled: list[dict[str, float]] = []  # per untraced round, see _scaled
        self.calibration: list[list[float]] = []  # per untraced round, raw loop times

    def _invoke(self, call):
        """Time one call from a collected heap; returns (seconds, output)."""
        gc.collect()
        self.attempted += call.ops
        start = time.perf_counter()
        try:
            output = call.run()
        except Exception as exc:  # counted as failed operations, reported below
            elapsed = time.perf_counter() - start
            self.failed += call.ops
            self.errors.append(f"{call.protocol}: {type(exc).__name__}: {exc}")
            return elapsed, None
        return time.perf_counter() - start, output

    def reference_round(self) -> None:
        """One untimed round whose outputs go through the oracle checks; their
        signatures are what every later round must reproduce."""
        import oracle

        for call in self.calls:
            _, output = self._invoke(call)
            if output is None:
                self.reference.append(None)
                continue
            try:
                call.check(output)
            except oracle.OracleError as exc:
                self.correct = False
                self.errors.append(f"{call.protocol}: check failed: {exc}")
            self.reference.append(call.sign(output))
            del output
        try:
            self.workload.follow_up()
        except oracle.OracleError as exc:
            self.correct = False
            self.errors.append(f"follow-up check failed: {exc}")

    def timed_round(self, tracer=None) -> dict[str, float]:
        """Raw seconds per protocol.  An untraced round also times the
        calibration loop before the first call and after every call, and
        keeps each call's time scaled by the loops around it."""
        times = {}
        calibration = [] if tracer is not None else [_time_calibration()]
        for call, reference in zip(self.calls, self.reference):
            if tracer is not None:
                tracer.protocol = call.protocol
            elapsed, output = self._invoke(call)
            times[call.protocol] = elapsed
            if tracer is None:
                calibration.append(_time_calibration())
            if output is None:
                continue
            if call.sign(output) != reference:
                self.correct = False
                self.errors.append(f"{call.protocol}: output differs from the reference round")
            del output
        if tracer is None:
            self.calibration.append(calibration)
            self.scaled.append(
                {p: _scaled(t, calibration[i], calibration[i + 1]) for i, (p, t) in enumerate(times.items())}
            )
        return times


def _wall(times: dict[str, float]) -> float:
    return sum(times.values())


def _end_to_end(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, list]:
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(runner.timed_round())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(_wall(r) for r in runner.scaled), "s"),
    }
    for call in runner.calls:
        metrics[f"{call.protocol}_s"] = (statistics.median(r[call.protocol] for r in runner.scaled), "s")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")
    return metrics, rounds


def _per_layer(runner: Runner, seconds: float, spans_path: str) -> tuple[dict, list]:
    """Untraced rounds for half the time, then one traced round."""
    import tracer as tracing

    rounds = []
    deadline = time.perf_counter() + seconds / 2
    while not rounds or time.perf_counter() < deadline:
        rounds.append(runner.timed_round())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.timed_round(tracer)
    finally:
        tracer.uninstall()
    traced_wall = _wall(traced)
    values = tracer.metrics()
    values["trace.wall_s"] = traced_wall
    values["trace.self_share"] = tracer.self_total_s() / traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(_wall(r) for r in rounds)
    share = values["trace.self_share"]
    if not 0.95 <= share <= 1.05:
        runner.correct = False
        runner.errors.append(f"layer self times cover {share:.3f} of the traced wall time")
    units = {name: unit for name, unit, _ in tracing.per_layer_metric_names()}
    metrics = {name: (values[name], units[name]) for name, _, _ in tracing.per_layer_metric_names()}
    tracer.write_spans(spans_path, {"per_layer": values, "traced_round_s": traced})
    return metrics, rounds + [traced]


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_program()
    if args.setup_only:
        _setup(args.workload, args.seed)
        return 0
    setup = [] if args.trace else _setup_seconds(args)
    workload = _setup(args.workload, args.seed)

    runner = Runner(workload)
    runner.reference_round()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        metrics, rounds = _per_layer(runner, args.seconds, stem + "-spans.json.gz")
    else:
        metrics, rounds = _end_to_end(runner, args.seconds, setup)

    for error in runner.errors:
        print(f"bench: {error}", file=sys.stderr)
    env = _environment()
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump(
            {**result, "environment": env, "setup_samples_s": setup, "rounds_s": rounds,
             "calibration_s": runner.calibration, "errors": runner.errors},
            fh, indent=1,
        )
    print("environment: " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
