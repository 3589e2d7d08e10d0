"""Print one SHA-256 per checkout over the simulator's outputs.

    python3 tools/output_hash.py --checkout ../parent --checkout .

Each checkout's own ``src/`` runs in a subprocess, so two checkouts that
print the same hash produced the same outputs.  The hash covers:

- for ``generate_random_scenario`` seeds 0-299 and each of
  the four protocols (max_n 64, max_events 30), run tracked and untracked:
  the trace digest, every event's ``stats`` and its seven cost counts, or
  the ``CodeSpaceError`` text where a trace stops;
- for the tracked traces also: the ordered ``node_key_log`` (id sets
  sorted), the sorted ``sibling_pairs``, the ordered ``wrap_log``, every
  member's and departed member's sorted keys and codes and
  ``unwrap_misses``, the final tree in ``walk()`` order (id, parent,
  children, code, member, key) and, for ckcs, ``all_codes()``;
- one ``harness.sweep`` (4 protocols x n 1,8,64,256 x m 1,4,8,16,64 x join,
  leave, seed 3) as CSV without ``wall_ms``, and its notes;
- the secrecy analyzer: for ``generate_random_scenario`` seeds 0-39 and each
  protocol (max_n 32, max_events 8), run tracked, the closure of every
  adversary ``_audit_adversaries(trace, "all")`` names, and of the first
  ``PAIRS_PER_TRACE`` colluding pairs of leavers from different leave
  events (earlier event first, in event and batch order).  A closure is
  hashed as its codes in order with the value each was decoded from and its
  facts in order as (value, rule, inputs, code, wrapped ciphertext).  Only
  seeds, unwrapped keys and facts whose value lies in the trace's universe
  are hashed: the logged node keys, the keys the wrap log names and, for
  oft, the blind of every logged node key.  Values outside it are on no
  chain that ends at a protocol key, so whether a closure lists them
  changes no verdict.  A single adversary's closure rarely chains past its
  seeds; a pair's does, because one leaver's codes or keys open what the
  other could not, so the pairs are what exercise the chaining rules;
- the text of ``audit(trials=60, seed=7, max_n=32, codes_public=True)``:
  the summary without the elapsed time, and every breach's seed and text.

Every set is sorted before it is hashed, so the result does not depend on
``PYTHONHASHSEED``.  With more than one checkout the exit status is 1 when
the hashes differ.  About 40 s per checkout on one core.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

PROTOCOLS = ("ckcs", "lkh", "oft", "okd")
COSTS = (
    "keygen", "encrypt", "unicast", "multicast", "payload_keys", "member_derivations", "notices",
)
PAIRS_PER_TRACE = 8


def output_hash(seeds: int = 300, analyzer_seeds: int = 40, audit_trials: int = 60) -> str:
    """The hash of the outputs of whichever ``gkms`` is importable."""
    from gkms import harness
    from gkms.core import rows_to_csv
    from gkms.tree import CodeSpaceError

    digest = hashlib.sha256()

    def put(*parts) -> None:
        digest.update(repr(parts).encode() + b"\n")

    for seed in range(seeds):
        for protocol in PROTOCOLS:
            scenario = harness.generate_random_scenario(seed, protocol, max_n=64, max_events=30)
            for tracked in (True, False):
                put("trace", seed, protocol, tracked)
                try:
                    trace = harness.run(scenario, track_members=tracked)
                except CodeSpaceError as exc:
                    put("stop", str(exc))
                    continue
                put(trace.digest)
                for record in trace.events:
                    cost = record.cost
                    put(sorted(record.output.stats.items()), [getattr(cost, k) for k in COSTS])
                if tracked:
                    _put_tracked(put, trace)

    rows, notes = harness.sweep(
        list(PROTOCOLS), [1, 8, 64, 256], [1, 4, 8, 16, 64], ["join", "leave"], seed=3
    )
    put("sweep", rows_to_csv(rows, ["keygen_dedup"]), notes)
    _put_analyzer(put, analyzer_seeds, audit_trials)
    return digest.hexdigest()


def _put_analyzer(put, seeds: int, audit_trials: int) -> None:
    """Every single-adversary closure and some colluding-pair closures of
    small tracked traces, and the codes-public audit's text."""
    from gkms import analyzer, harness
    from gkms.crypto import SymKey, blind
    from gkms.tree import CodeSpaceError

    for seed in range(seeds):
        for protocol in PROTOCOLS:
            scenario = harness.generate_random_scenario(seed, protocol, max_n=32, max_events=8)
            put("closures", seed, protocol)
            try:
                trace = harness.run(scenario)
            except CodeSpaceError as exc:
                put("stop", str(exc))
                continue
            universe = set(trace.node_key_log) | set(trace.wrap_log.values())
            if protocol == "oft":
                universe.update(blind(SymKey(key)).data for key in trace.node_key_log)
            adversaries = [
                (kind, (member,)) for kind, member in analyzer._audit_adversaries(trace, "all")
            ]
            adversaries += [("pair", pair) for pair in _leaver_pairs(trace)]
            for kind, members in adversaries:
                closed = analyzer.closure(analyzer.adversary_knowledge(trace, members))
                put(kind, members, list(closed.codes.items()))
                for fact in closed.facts.values():
                    if fact.rule not in (None, "unwrap-from-transcript") and (
                        fact.value not in universe
                    ):
                        continue
                    ciphertext = fact.wrapped.ciphertext if fact.wrapped is not None else None
                    put(fact.value, fact.rule, fact.inputs, fact.code, ciphertext)

    report = analyzer.audit(trials=audit_trials, seed=7, max_n=32, codes_public=True)
    put("audit", report.summary().rsplit(", ", 1)[0])
    for seed, verdict in report.breaches:
        put(seed, str(verdict))


def _leaver_pairs(trace) -> list[tuple[str, str]]:
    """The first ``PAIRS_PER_TRACE`` pairs of leavers from different leave
    events, earlier leaver first."""
    leaves = [record.member_ids for record in trace.events if record.op == "leave"]
    pairs = (
        pair
        for earlier, later in itertools.combinations(leaves, 2)
        for pair in itertools.product(earlier, later)
    )
    return list(itertools.islice(pairs, PAIRS_PER_TRACE))


def _put_tracked(put, trace) -> None:
    """The analysis-side records, member knowledge and final tree of a
    tracked trace."""
    put([(key, sorted(ids)) for key, ids in trace.node_key_log.items()])
    put(sorted(trace.sibling_pairs))
    put(list(trace.wrap_log.items()))
    for kind, views in (("member", trace.members), ("departed", trace.departed)):
        for member_id in sorted(views):
            view = views[member_id]
            knowledge = view.knowledge
            put(kind, member_id, sorted(knowledge.key_bytes), sorted(knowledge.codes),
                view.unwrap_misses)
    server = trace.server
    for node in server.tree.walk():
        put(node.node_id, node.parent, node.children, node.code, node.member,
            node.key.data if node.key is not None else None)
    if hasattr(server, "all_codes"):
        put(sorted(server.all_codes()))


def main(argv=None) -> int:
    from checkouts import compare

    return compare(argv, __file__, __doc__.splitlines()[0], output_hash, key=lambda line: line)


if __name__ == "__main__":
    sys.exit(main())
