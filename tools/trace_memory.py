"""Run one long tracked churn and print its time, peak memory and hashes.

    python3 tools/trace_memory.py
    python3 tools/trace_memory.py --checkout ../parent --checkout .

The churn starts from n=256 members with seed 5 and runs 2,000 events that
alternate join and leave.  Batch sizes are drawn by ``Random(5).choice``
from (1, 1, 2, 4, 8), one draw per event, and leave layouts rotate random,
best-half, worst-spread.  The protocol is lkh.  Members are tracked, so
every key each member ever held stays in the trace.

Each checkout's own ``src/`` runs in a fresh interpreter, which prints one
line: the protocol, the event count, the wall time of ``harness.run``, the
peak RSS of the process read right after it (before any hashing), the trace
digest and a knowledge hash.  The knowledge hash is SHA-256 over every member's and
departed member's id, sorted key values and sorted codes, in id order, so
two checkouts that print the same hashes built the same trace and the same
member knowledge.  With more than one checkout the exit status is 1 when
the hashes differ.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from random import Random

REPO = Path(__file__).resolve().parent.parent
N = 256
SEED = 5
EVENTS = 2000
BATCH_SIZES = (1, 1, 2, 4, 8)
LAYOUTS = ("random", "best-half", "worst-spread")


def churn(protocol: str, events: int = EVENTS):
    """The churn scenario for ``protocol``, cut to ``events`` events."""
    from gkms.harness import Scenario, Step

    draw = Random(SEED)
    steps = []
    for i in range(events):
        count = draw.choice(BATCH_SIZES)
        if i % 2 == 0:
            steps.append(Step(op="join", count=count))
        else:
            steps.append(Step(op="leave", count=count, layout=LAYOUTS[(i // 2) % len(LAYOUTS)]))
    return Scenario(protocol=protocol, n=N, seed=SEED, steps=tuple(steps))


def knowledge_hash(trace) -> str:
    """SHA-256 over every tracked principal's sorted keys and codes."""
    digest = hashlib.sha256()
    for kind, views in (("member", trace.members), ("departed", trace.departed)):
        for member_id in sorted(views):
            knowledge = views[member_id].knowledge
            digest.update(repr((kind, member_id)).encode())
            for key in sorted(knowledge.key_bytes):
                digest.update(key)
            digest.update(repr(sorted(knowledge.codes)).encode())
    return digest.hexdigest()


def measure(protocol: str, events: int) -> str:
    """Run the churn once in this process; the report line."""
    from gkms import harness

    scenario = churn(protocol, events)
    start = time.perf_counter()
    trace = harness.run(scenario)
    wall_s = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"{protocol} events={events} wall_s={wall_s:.2f} peak_rss_mb={peak_mb:.1f} "
        f"digest={trace.digest} knowledge={knowledge_hash(trace)}"
    )


def _run_checkout(checkout: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: run failed\n{done.stderr}")
    return done.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checkout", action="append", type=Path,
        help="a checkout to run (repeatable; default: this repository)",
    )
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        import gkms

        src = (Path.cwd() / "src").resolve()
        if not Path(gkms.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"imported {gkms.__file__}, not the checkout's {src}")
        print(measure("lkh", EVENTS))
        return 0
    hashes = set()
    for checkout in (c.resolve() for c in (args.checkout or [REPO])):
        line = _run_checkout(checkout)
        print(f"{line}  {checkout}", flush=True)
        hashes.add(tuple(line.split()[-2:]))
    return 0 if len(hashes) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
