"""Run one long tracked churn and print its peak memory and hashes.

    python3 tools/trace_memory.py
    python3 tools/trace_memory.py --checkout ../parent --checkout .

The churn is ``harness.generate_churn_scenario`` from n=256 members with
seed 5: 2,000 events that alternate join and leave, batch sizes drawn from
(1, 1, 2, 4, 8), leave layouts in rotation.  The protocol is lkh.  Members
are tracked, so every key each member ever held stays in the trace.

Each checkout's own ``src/`` runs in a fresh interpreter, which prints one
line: the protocol, the event count, the peak RSS of the process read right
after ``harness.run`` (before any hashing), the trace digest and a knowledge
hash.  It prints no wall time: a single run cannot resolve a change under
about 40 %, so time comes from the benchmark's repeated pairs (``bench/``).
The knowledge hash is SHA-256 over every member's and departed member's id,
sorted key values and sorted codes, in id order, so two checkouts that print
the same hashes built the same trace and the same member knowledge.  With
more than one checkout the exit status is 1 when the hashes differ.
"""

from __future__ import annotations

import hashlib
import resource
import sys

N = 256
SEED = 5
EVENTS = 2000
BATCH_SIZES = (1, 1, 2, 4, 8)


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

    scenario = harness.generate_churn_scenario(protocol, N, events, SEED, BATCH_SIZES)
    trace = harness.run(scenario)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (
        f"{protocol} events={events} peak_rss_mb={peak_mb:.1f} "
        f"digest={trace.digest} knowledge={knowledge_hash(trace)}"
    )


def main(argv=None) -> int:
    from checkouts import compare

    # the trace digest and knowledge hash; memory may differ
    return compare(
        argv, __file__, __doc__.splitlines()[0], lambda: measure("lkh", EVENTS),
        key=lambda line: tuple(line.split()[-2:]),
    )


if __name__ == "__main__":
    sys.exit(main())
