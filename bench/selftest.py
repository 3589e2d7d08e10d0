"""Self-test of the benchmark's oracle checks.

    python3 bench/selftest.py

Every check must pass on the program's real outputs and fail on a
deliberately corrupted copy: a flipped group-key byte, a dropped member, an
altered cost row, a forged breach and so on.  Exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import dataclasses
import sys
from random import Random

import run as bench

bench.import_program()

import oracle  # noqa: E402
import workloads  # noqa: E402
from gkms import analyzer, harness  # noqa: E402
from gkms.crypto import SymKey  # noqa: E402

N, EVENTS = 24, 6
SWEEP = ((16, 64), (4, 16), ("join", "leave"))


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def _check_run(protocol: str, corrupt=None, tracked: bool = True) -> None:
    scenario = workloads.churn_scenario(protocol, N, EVENTS, seed=3)
    trace = harness.run(scenario, track_members=tracked)
    if corrupt is not None:
        corrupt(trace)
    oracle.check_run(trace, scenario, tracked, Random(0))


def _drop_joiner(trace) -> None:
    record = trace.events[0]
    record.member_ids = record.member_ids[1:]


def _drop_member_view(trace) -> None:
    trace.members.pop(sorted(trace.members)[0])


def _flip_group_key(trace) -> None:
    trace.group_key_history[-1] = SymKey(_flip(trace.group_key_history[-1].data))


def _repeat_group_key(trace) -> None:
    trace.group_key_history[3] = trace.group_key_history[1]


def _flip_member_key(trace) -> None:
    view = trace.members[sorted(trace.members)[0]]
    view.group_key = SymKey(_flip(view.group_key.data))


def _departed_keeps_key(trace) -> None:
    view = next(iter(trace.departed.values()))
    view.group_key = trace.server.group_key


def _extra_multicast(trace) -> None:
    record = trace.events[1]
    record.cost = dataclasses.replace(record.cost, multicast=record.cost.multicast + 1)


def _fewer_payloads(trace) -> None:
    record = trace.events[2]
    record.cost = dataclasses.replace(record.cost, payload_keys=record.cost.payload_keys - 1)


def _flip_oft_leaf(trace) -> None:
    tree = trace.server.tree
    leaf = tree.nodes[tree.leaf_ids()[0]]
    leaf.key = SymKey(_flip(leaf.key.data))


def _sweep(protocol: str, corrupt=None) -> None:
    n_values, m_values, ops = SWEEP
    result = harness.sweep([protocol], list(n_values), list(m_values), list(ops), seed=5)
    if corrupt is not None:
        corrupt(result[0])
    workloads.check_sweep(protocol, 5, result, n_values, m_values, ops)


def _bump(field: str, op: str, amount: int = 1):
    def corrupt(rows) -> None:
        row = next(r for r in rows if r["op"] == op)
        row[field] += amount

    return corrupt


def _scale_keygen(rows) -> None:
    rows[0]["keygen"] *= 10


def _audit(corrupt=None) -> None:
    corpus = workloads.audit_corpus(seed=2)
    picks = corpus["okd"][:4]
    reports = workloads._audit_group([s for s, _ in picks])
    if corrupt is not None:
        corrupt(reports)
    oracle.check_audit_reports(reports, [sc for _, sc in picks])


def _forge_breach(reports) -> None:
    reports[0].breaches.append((0, None))


def _lose_check(reports) -> None:
    reports[-1].checks -= 1


def _survivor(flip: bool) -> None:
    scenario = workloads.churn_scenario("ckcs", 12, 4, seed=4)
    trace = harness.run(scenario)
    member = sorted(trace.members)[0]
    closed = analyzer.closure(analyzer.adversary_knowledge(trace, (member,)))
    key = trace.group_key_history[-1].data
    oracle.check_reaches(closed, _flip(key) if flip else key)


def _witness(flip: bool) -> None:
    report = analyzer.audit(
        trials=workloads.CODES_PUBLIC_TRIALS, max_n=workloads.AUDIT_MAX_N,
        seed=workloads.CODES_PUBLIC_SEED, max_events=workloads.AUDIT_MAX_EVENTS,
        codes_public=True,
    )
    scenario_seed, verdict = report.breaches[0]
    scenario = harness.generate_random_scenario(
        scenario_seed, protocol="ckcs", max_n=workloads.AUDIT_MAX_N,
        max_events=workloads.AUDIT_MAX_EVENTS,
    )
    trace = harness.run(scenario)
    closed = analyzer.closure(
        analyzer.adversary_knowledge(trace, verdict.adversary, codes_public=True)
    )
    target = trace.group_key_history[verdict.breached_epoch].data
    if flip:
        step = closed.witness_facts(target)[0]
        closed.facts[step.value] = dataclasses.replace(step, value=_flip(step.value))
    oracle.check_witness_chain(closed, target)


# (name, callable, whether the oracle must reject it)
CASES = [
    *[(f"run {p} genuine", lambda p=p: _check_run(p), False) for p in workloads.PROTOCOLS],
    ("run lkh untracked genuine", lambda: _check_run("lkh", tracked=False), False),
    ("run: dropped joiner in an event record", lambda: _check_run("lkh", _drop_joiner), True),
    ("run: dropped member view", lambda: _check_run("okd", _drop_member_view), True),
    ("run: flipped final group-key byte", lambda: _check_run("ckcs", _flip_group_key), True),
    ("run: repeated group key", lambda: _check_run("lkh", _repeat_group_key, tracked=False), True),
    ("run: member holds a wrong group key", lambda: _check_run("ckcs", _flip_member_key), True),
    ("run: departed member keeps the key", lambda: _check_run("lkh", _departed_keeps_key), True),
    ("run: metered multicast off by one", lambda: _check_run("oft", _extra_multicast), True),
    ("run: metered payloads off by one", lambda: _check_run("okd", _fewer_payloads, tracked=False), True),
    ("run: flipped OFT leaf key", lambda: _check_run("oft", _flip_oft_leaf, tracked=False), True),
    *[(f"sweep {p} genuine", lambda p=p: _sweep(p), False) for p in workloads.PROTOCOLS],
    ("sweep: dropped row", lambda: _sweep("lkh", lambda rows: rows.pop()), True),
    ("sweep: ckcs join keygen altered", lambda: _sweep("ckcs", _bump("keygen", "join")), True),
    ("sweep: ckcs join unicast altered", lambda: _sweep("ckcs", _bump("unicast", "join")), True),
    ("sweep: ckcs leave encrypt altered", lambda: _sweep("ckcs", _bump("encrypt", "leave")), True),
    ("sweep: ckcs leave multicast altered", lambda: _sweep("ckcs", _bump("multicast", "leave")), True),
    ("sweep: baseline keygen out of fit", lambda: _sweep("oft", _scale_keygen), True),
    ("audit genuine", lambda: _audit(), False),
    ("audit: forged breach", lambda: _audit(_forge_breach), True),
    ("audit: missing closure check", lambda: _audit(_lose_check), True),
    ("audit: survivor reaches the final key", lambda: _survivor(False), False),
    ("audit: survivor misses a flipped key", lambda: _survivor(True), True),
    ("audit: codes-public witness re-executes", lambda: _witness(False), False),
    ("audit: altered witness step", lambda: _witness(True), True),
]


def main() -> int:
    wrong = 0
    for name, case, must_fail in CASES:
        try:
            case()
            failed, detail = False, ""
        except oracle.OracleError as exc:
            failed, detail = True, str(exc)
        ok = failed == must_fail
        wrong += not ok
        verdict = "rejected" if failed else "accepted"
        print(f"{'ok ' if ok else 'BAD'} {name}: {verdict}{' (' + detail + ')' if detail else ''}")
    print(f"{len(CASES) - wrong}/{len(CASES)} cases as expected")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
