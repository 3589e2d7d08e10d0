"""Record benchmark points: one point per checkout in BENCH_<workload>.json.

Runs ``python3 bench/run.py`` of each checkout over the given seeds for each
workload named, then one traced run, and appends to ``BENCH_<workload>.json``
at the root of this repository one point per checkout: the commit, the
environment line, the median and quartiles of every end-to-end metric, and
the traced per-layer self times (in seconds and as shares of the traced
round's wall time) and call counts.  With several
``--checkout`` directories every seed runs on each of them in turn, and the
one that goes first rotates from seed to seed (A B, B A, ...), so that
machine drift hits every checkout alike and the per-seed values pair up; the
points are appended in the order the checkouts are given.  A point's
``commit``, ``dirty`` and ``src_sha256`` are read before the first run; if
they no longer hold after the last, the script exits with an error and
appends nothing.

    python3 tools/bench_record.py --workload audit_all --seeds 961-970
    python3 tools/bench_record.py --workload audit_all --seeds 961-970 \\
        --checkout ../parent --checkout .
    python3 tools/bench_record.py --workload run_tracked --workload sweep_grid \\
        --seeds 961-965 --checkout ../parent --checkout .

``--workload`` may be given more than once; the workloads run one after the
other, each over every seed, and each appends to its own file.

Each checkout's own ``bench/`` and ``src/`` are run, at the run length
``bench/run.py`` uses by default; a point records it as ``seconds``, read
from ``run_seconds`` in the checkout's ``BENCHMARK.json``.  The script needs
nothing but the standard library and ``git``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "wall_s", "ckcs_s", "lkh_s", "oft_s", "okd_s", "peak_rss_mb")
PROTOCOLS = ("ckcs", "lkh", "oft", "okd")


def _seeds(text: str) -> list[int]:
    """``961-970`` or ``961,965,970``; a range that names no seed is an error."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        if last < first:
            raise argparse.ArgumentTypeError(f"{text!r} names no seed")
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _bench(checkout: Path, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One bench/run.py call: (environment, result), from its last two lines."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    env_line, result_line = done.stdout.strip().splitlines()[-2:]
    return json.loads(env_line.removeprefix("environment: ")), json.loads(result_line)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def _source_digest(checkout: Path) -> str:
    """SHA-256 over the paths and bytes of every file under src/, so a point
    taken on uncommitted code still names exactly what ran."""
    digest = hashlib.sha256()
    src = checkout / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _source_state(checkout: Path) -> dict:
    """What a point says ran: the commit, whether ``src/`` or ``bench/``
    differ from it, and the digest of ``src/``."""
    return {
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "bench")),
        "src_sha256": _source_digest(checkout),
    }


def _point(source: dict, checkout: Path, runs: list[tuple[int, dict, dict]],
           traced: tuple[int, dict, dict], label: str | None) -> dict:
    env = runs[0][1]
    samples = {
        name: [result["metrics"][name]["value"] for _, _, result in runs] for name in END_TO_END
    }
    trace_seed, _, trace_result = traced
    per_layer = {
        name: metric["value"]
        for name, metric in trace_result["metrics"].items()
        # whole-layer figures only; the per-protocol splits stay in .bench_out/
        if name.rsplit(".", 1)[-1] not in PROTOCOLS
        and name.rsplit(".", 1)[-1] in ("self_s", "calls", "facts", "fails", "unwrap_hit_ratio")
    }
    # raw seconds drift with the host between traced runs; a layer's share
    # of its own traced round compares across checkouts
    traced_wall = trace_result["metrics"]["trace.wall_s"]["value"]
    shares = {
        name: value / traced_wall for name, value in per_layer.items() if name.endswith(".self_s")
    }
    return {
        **source,
        "label": label,
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "environment": env,
        "seconds": json.loads((checkout / "BENCHMARK.json").read_text())["run_seconds"],
        "seeds": [seed for seed, _, _ in runs],
        "correct": all(result["correct"] for _, _, result in [*runs, traced]),
        "attempted": sum(result["attempted"] for _, _, result in runs),
        "failed": sum(result["failed"] for _, _, result in runs),
        "end_to_end": {
            name: {
                **_summary(values),
                "unit": runs[0][2]["metrics"][name]["unit"],
                "samples": values,
            }
            for name, values in samples.items()
        },
        "per_layer": {"seed": trace_seed, "trace.wall_s": traced_wall, **per_layer},
        "per_layer_share": shares,
    }


def _record(workload: str, seeds: list[int], trace_seed: int, checkouts: list[Path],
            labels: list[str | None]) -> None:
    """Run one workload over every seed on every checkout; append its points.

    Each point names the source its checkout held before the first run.  If
    any checkout's source differs after the last run, the runs did not all
    measure what a point would name, so nothing is appended.
    """
    sources = {c: _source_state(c) for c in checkouts}
    runs: dict[Path, list] = {c: [] for c in checkouts}
    for turn, seed in enumerate(seeds):
        # each seed starts with the next checkout in turn: A B, B A, ...
        shift = turn % len(checkouts)
        for checkout in checkouts[shift:] + checkouts[:shift]:
            env, result = _bench(checkout, workload, seed, trace=0)
            runs[checkout].append((seed, env, result))
            wall = result["metrics"]["wall_s"]["value"]
            print(f"{workload} {checkout.name} seed {seed}: wall_s {wall:.4f}", file=sys.stderr)
    points = []
    for checkout, label in zip(checkouts, labels):
        env, result = _bench(checkout, workload, trace_seed, trace=1)
        traced = (trace_seed, env, result)
        points.append(_point(sources[checkout], checkout, runs[checkout], traced, label))
    for checkout, source in sources.items():
        if _source_state(checkout) != source:
            raise SystemExit(
                f"{checkout}: src/, bench/ or the commit changed while {workload} was "
                f"recorded; no point appended"
            )

    path = REPO / f"BENCH_{workload}.json"
    doc = {"workload": workload, "points": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["points"].extend(points)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for point in points:
        wall = point["end_to_end"]["wall_s"]
        print(
            f"{workload} {point['commit'][:10]}{'+' if point['dirty'] else ''} "
            f"{point['label'] or ''}: "
            f"wall_s median {wall['median']:.4f} (q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}), "
            f"correct {point['correct']}, failed {point['failed']}"
        )
    print(f"appended {len(points)} point(s) to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", required=True,
        help="a bench/run.py workload (repeatable; each gets its own BENCH file)",
    )
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 961-970 or 961,962")
    parser.add_argument(
        "--trace-seed", type=int, help="seed of the traced run (default: the first seed)"
    )
    parser.add_argument(
        "--checkout", action="append", type=Path,
        help="a checkout to run (repeatable; default: this repository)",
    )
    parser.add_argument("--label", action="append", help="one note per checkout, in order")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [REPO])]
    labels = args.label or [None] * len(checkouts)
    if len(labels) != len(checkouts):
        parser.error("give one --label per --checkout")
    trace_seed = args.trace_seed if args.trace_seed is not None else args.seeds[0]
    for workload in dict.fromkeys(args.workload):
        _record(workload, args.seeds, trace_seed, checkouts, labels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
