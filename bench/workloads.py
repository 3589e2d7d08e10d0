"""The four benchmark workloads: inputs made from a seed, the timed calls,
and the oracle checks each one's outputs must pass.

Every workload is a list of :class:`Call`, one per protocol.  A call goes
through the library entry points behind the CLI (``harness.run``,
``harness.sweep``, ``analyzer.audit``) and returns the program's output; the
benchmark times it, compares its signature with the reference round's and
drops it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Callable

import oracle
from gkms import analyzer, harness
from gkms.harness import Scenario, Step

PROTOCOLS = ("ckcs", "lkh", "oft", "okd")
LAYOUT_ROTATION = ("random", "best-half", "worst-spread")

TRACKED_N = 200
TRACKED_EVENTS = 8
UNTRACKED_N = 2048
UNTRACKED_EVENTS = 40
BATCH = 16

SWEEP_N = (256, 1024, 4096)
SWEEP_M = (16, 64, 256)
SWEEP_OPS = ("join", "leave")

AUDIT_MAX_N = 64
AUDIT_MAX_EVENTS = 2
AUDIT_TRACES_PER_PROTOCOL = 100
AUDIT_OP_CYCLE = (
    ("join",), ("leave",), ("join", "join"), ("join", "leave"), ("leave", "join"), ("leave", "leave"),
)
# fixed corpus for the codes-public follow-up: it must contain breaches
CODES_PUBLIC_SEED = 7
CODES_PUBLIC_TRIALS = 6


@dataclass
class Call:
    protocol: str
    ops: int  # operations one call attempts: events, grid cells or closure checks
    run: Callable[[], object]
    sign: Callable[[object], object]  # compact output signature
    check: Callable[[object], None]  # oracle checks; raises oracle.OracleError


@dataclass
class Workload:
    calls: list[Call]
    follow_up: Callable[[], None] = lambda: None  # untimed extra checks


def churn_scenario(protocol: str, n: int, events: int, seed: int) -> Scenario:
    """Alternating join/leave batches of BATCH; leave layouts rotate."""
    steps = []
    for i in range(events):
        if i % 2 == 0:
            steps.append(Step(op="join", count=BATCH))
        else:
            layout = LAYOUT_ROTATION[(i // 2) % len(LAYOUT_ROTATION)]
            steps.append(Step(op="leave", count=BATCH, layout=layout))
    return Scenario(protocol=protocol, n=n, seed=seed, steps=tuple(steps))


def _run_calls(n: int, events: int, tracked: bool, seed: int) -> list[Call]:
    calls = []
    for protocol in PROTOCOLS:
        scenario = churn_scenario(protocol, n, events, seed)
        calls.append(
            Call(
                protocol=protocol,
                ops=events,
                run=lambda s=scenario: harness.run(s, track_members=tracked),
                sign=lambda trace: trace.digest,
                check=lambda trace, s=scenario: oracle.check_run(
                    trace, s, tracked, Random(f"probe/{seed}")
                ),
            )
        )
    return calls


def run_tracked(seed: int) -> Workload:
    return Workload(_run_calls(TRACKED_N, TRACKED_EVENTS, True, seed))


def replay_untracked(seed: int) -> Workload:
    return Workload(_run_calls(UNTRACKED_N, UNTRACKED_EVENTS, False, seed))


def _sweep_signature(result) -> str:
    rows, notes = result
    stable = [sorted((k, v) for k, v in row.items() if k != "wall_ms") for row in rows]
    return hashlib.sha256(repr((stable, notes)).encode()).hexdigest()


def _ckcs_covers(seed: int, n_values, m_values) -> dict[tuple[int, int], int]:
    """Cover size of every ckcs leave cell, recomputed on the cell's tree."""
    covers = {}
    for op, n, m, batch in oracle.expected_sweep_cells(n_values, m_values, ("leave",)):
        rng = Random(f"sweep/ckcs/{op}/{n}/{m}/{seed}")
        server = harness.make_server("ckcs", [f"u{i}" for i in range(1, n + 1)], rng)
        leavers = set(harness.leaver_layout(server.tree, batch, "random", rng))
        covers[(n, m)] = oracle.cover_size(server.tree, leavers)
    return covers


def check_sweep(protocol: str, seed: int, result, n_values=SWEEP_N, m_values=SWEEP_M, ops=SWEEP_OPS) -> None:
    rows, _ = result
    oracle.check_sweep_rows(rows, protocol, n_values, m_values, ops)
    if protocol == "ckcs":
        oracle.check_ckcs_closed_form(rows, _ckcs_covers(seed, n_values, m_values))
    else:
        oracle.check_baseline_keygen(rows)


def sweep_grid(seed: int) -> Workload:
    cells = len(oracle.expected_sweep_cells(SWEEP_N, SWEEP_M, SWEEP_OPS))
    return Workload(
        [
            Call(
                protocol=protocol,
                ops=cells,
                run=lambda p=protocol: harness.sweep(
                    [p], list(SWEEP_N), list(SWEEP_M), list(SWEEP_OPS), seed=seed
                ),
                sign=_sweep_signature,
                check=lambda result, p=protocol: check_sweep(p, seed, result),
            )
            for protocol in PROTOCOLS
        ]
    )


def _corpus_scenario(audit_seed: int) -> Scenario:
    """The one scenario ``analyzer.audit(trials=1, seed=audit_seed)`` audits."""
    return harness.generate_random_scenario(
        audit_seed * 1_000_000, max_n=AUDIT_MAX_N, max_events=AUDIT_MAX_EVENTS
    )


def audit_corpus(seed: int) -> dict[str, list[tuple[int, Scenario]]]:
    """Per protocol, AUDIT_TRACES_PER_PROTOCOL audit seeds taken in order from
    a stream that starts at ``seed``, stratified by the trace's sequence of
    join/leave steps (slot i takes the next trace whose ops are
    AUDIT_OP_CYCLE[i % len]), so that seeds change the traces but not the mix
    of protocols and trace shapes."""
    corpus: dict[str, list[tuple[int, Scenario]]] = {p: [] for p in PROTOCOLS}
    pending: dict[tuple[str, tuple[str, ...]], list[tuple[int, Scenario]]] = {}
    audit_seed = first = seed * 10_000_000
    while any(len(v) < AUDIT_TRACES_PER_PROTOCOL for v in corpus.values()):
        audit_seed += 1
        if audit_seed - first > 200_000:  # about a thousand draws suffice
            raise RuntimeError("the scenario generator no longer yields every stratum")
        scenario = _corpus_scenario(audit_seed)
        ops = tuple(step.op for step in scenario.steps)
        pending.setdefault((scenario.protocol, ops), []).append((audit_seed, scenario))
        picks = corpus[scenario.protocol]
        while len(picks) < AUDIT_TRACES_PER_PROTOCOL:
            want = AUDIT_OP_CYCLE[len(picks) % len(AUDIT_OP_CYCLE)]
            queue = pending.get((scenario.protocol, want))
            if not queue:
                break
            picks.append(queue.pop(0))
    return corpus


def _audit_group(audit_seeds: list[int]) -> list:
    return [
        analyzer.audit(
            trials=1, max_n=AUDIT_MAX_N, seed=s, max_events=AUDIT_MAX_EVENTS, sample="all"
        )
        for s in audit_seeds
    ]


def _audit_follow_up(corpus) -> None:
    """A surviving member's closure reaches the final group key, and a small
    codes-public corpus yields breaches whose witness chains re-execute."""
    _, scenario = corpus["ckcs"][-1]
    trace = harness.run(scenario)
    survivor = sorted(trace.members)[0]
    closed = analyzer.closure(analyzer.adversary_knowledge(trace, (survivor,)))
    oracle.check_reaches(closed, trace.group_key_history[-1].data)

    report = analyzer.audit(
        trials=CODES_PUBLIC_TRIALS, max_n=AUDIT_MAX_N, seed=CODES_PUBLIC_SEED,
        max_events=AUDIT_MAX_EVENTS, codes_public=True,
    )
    if not report.breaches:
        raise oracle.OracleError("the codes-public corpus yields no breach")
    for scenario_seed, verdict in report.breaches:
        scenario = harness.generate_random_scenario(
            scenario_seed, protocol="ckcs", max_n=AUDIT_MAX_N, max_events=AUDIT_MAX_EVENTS
        )
        trace = harness.run(scenario)
        closed = analyzer.closure(
            analyzer.adversary_knowledge(trace, verdict.adversary, codes_public=True)
        )
        target = trace.group_key_history[verdict.breached_epoch].data
        oracle.check_witness_chain(closed, target)


def audit_all(seed: int) -> Workload:
    corpus = audit_corpus(seed)
    calls = []
    for protocol in PROTOCOLS:
        picks = corpus[protocol]
        scenarios = [scenario for _, scenario in picks]
        calls.append(
            Call(
                protocol=protocol,
                ops=oracle.expected_audit_checks(scenarios),
                run=lambda seeds=[s for s, _ in picks]: _audit_group(seeds),
                sign=lambda reports: tuple((r.checks, len(r.breaches)) for r in reports),
                check=lambda reports, sc=scenarios: oracle.check_audit_reports(reports, sc),
            )
        )
    return Workload(calls, follow_up=lambda: _audit_follow_up(corpus))


WORKLOADS = {
    "run_tracked": run_tracked,
    "replay_untracked": replay_untracked,
    "sweep_grid": sweep_grid,
    "audit_all": audit_all,
}
