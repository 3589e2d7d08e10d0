"""Acceptance gate: every shipped claim checked end to end, one verdict line each.

Each test prints ``C<k>: PASS|FAIL`` with the measured numbers so a plain
pytest run shows the whole scorecard.  Expected values come from the
independent oracles in the sibling test modules (cover_oracle in
tree_reference, fold_oracle in churn) or from closed-form counts checked there;
nothing here re-derives expected values from the code under test.
"""

import math
import re
import statistics
import sys
import time
from pathlib import Path
from random import Random

import pytest

import conftest
from gkms import tree as kt
from gkms.analyzer import adversary_knowledge, audit, closure, verify_witness
from gkms.baselines.oft import OftServer
from gkms.ckcs import CkcsServer
from gkms.core import CostMeter, MembershipEvent
from gkms.harness import generate_random_scenario, parse_scenario, run, sweep

from churn import deliver, fold_oracle
from tree_reference import cover_oracle, reference_subtree_members

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
N_VALUES = [256, 1024, 4096, 8192]
M_VALUES = [16, 64, 256, 1024]

# Digests of the shipped walkthrough scenarios, frozen from an independent
# process run; any byte-level drift in costs, ciphertexts, wrapping-key ids,
# recipient lists, or the final group key changes them.
GOLDEN_DIGESTS = {
    "ckcs_batch_join.txt": "6ee07ec64f88368e8939c3f81c2412a1e4cc4064de4fd3657396befc2d5da8d4",
    "ckcs_half_leave.txt": "9cd11df6d31f2d7e0b123a710045f9eeba303d09fd962b71fe33be712a844363",
    "ckcs_spread_leave.txt": "2ceea29da85d53a53fe0388d45711ef83102b8f86a1ce3b9d7069643621502a8",
    "mixed_churn.txt": "240476684ad90a10e21c25053e029b9ca2a6cf4fcd1a417a2dfe07044c09d4c4",
}


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"{tag}: {detail}"


def _run_scenario(name: str):
    return run(parse_scenario((SCENARIO_DIR / name).read_text()))


# -- shared measurement fixtures ---------------------------------------------------


@pytest.fixture(scope="module")
def coded_grid():
    """Full coded-protocol sweep over the published grid, timed."""
    start = time.perf_counter()
    rows, notes = sweep(["ckcs"], N_VALUES, M_VALUES, ["join", "leave"], seed=1)
    return rows, notes, time.perf_counter() - start


@pytest.fixture(scope="module")
def baseline_grid():
    rows, _ = sweep(["lkh", "oft", "okd"], N_VALUES, M_VALUES, ["join", "leave"], seed=1)
    return rows


@pytest.fixture(scope="module")
def corpus_stats():
    """1000 seeded random traces; run() probe-checks every member (current
    members must decrypt, departed must fail) after every event and raises
    on any miss.  Same seeds as the criterion-7 audit corpus."""
    start = time.perf_counter()
    traces = events = probed_members = 0
    for i in range(1000):
        trace = run(generate_random_scenario(7_000_000 + i))
        traces += 1
        events += len(trace.events)
        probed_members += len(trace.members) + len(trace.departed)
    return traces, events, probed_members, time.perf_counter() - start


# -- criterion 1: group-key generation counts on the coded protocol ----------------


def test_c1_keygen_grid_exact(coded_grid):
    rows, _, elapsed = coded_grid
    index = {(r["op"], r["n"], r["m"]): r for r in rows}
    problems = []
    cells = 0
    for n in N_VALUES:
        for m in M_VALUES:
            if m > n:
                continue
            join, leave = index[("join", n, m)], index[("leave", n, m)]
            if join["keygen"] != m + 1:
                problems.append(f"join n={n} m={m}: keygen {join['keygen']} != {m + 1}")
            if leave["keygen"] != 1:
                problems.append(f"leave n={n} m={m}: keygen {leave['keygen']} != 1")
            cells += 2
    ok = not problems and elapsed < 10.0
    _verdict(
        "C1",
        ok,
        f"coded-protocol keygen exact on {cells} cells (join m+1, leave 1), "
        f"grid in {elapsed:.2f}s (< 10s)" + (f"; {problems[:3]}" if problems else ""),
    )


# -- criterion 2: join message costs on the coded protocol -------------------------


def test_c2_join_message_costs_exact(coded_grid):
    rows, _, _ = coded_grid
    joins = [r for r in rows if r["op"] == "join"]
    assert len(joins) == len(N_VALUES) * len(M_VALUES)
    bad = [
        f"n={r['n']} m={r['m']}: enc={r['encrypt']} uni={r['unicast']} "
        f"multi={r['multicast']} size={r['msg_size_keys']}"
        for r in joins
        if not (
            r["encrypt"] == r["m"]
            and r["unicast"] == 0
            and r["multicast"] == 1
            and r["msg_size_keys"] == r["m"]
        )
    ]
    _verdict(
        "C2",
        not bad,
        f"join costs exact on all {len(joins)} cells "
        "(encrypt=m, unicast=0, multicast=1, payload=m keys)"
        + (f"; first offenders {bad[:3]}" if bad else ""),
    )


# -- criterion 3: simultaneous-leave cover sizes ------------------------------------


def test_c3_leave_cover_layouts(coded_grid):
    _, notes, _ = coded_grid
    problems = []

    half = _run_scenario("ckcs_half_leave.txt")
    event = half.events[0]
    survivors = sorted(half.server.tree.members)
    [msg] = [d for d in event.output.deliveries if getattr(d, "channel", None) == "multicast"]
    if event.cost.encrypt != 1 or len(msg.payloads) != 1:
        problems.append(f"best-half leave: encrypt {event.cost.encrypt} != 1")
    elif sorted(reference_subtree_members(half.server.tree, msg.payloads[0].kek_id)) != survivors:
        problems.append("best-half cover subtree does not hold exactly the survivors")

    spread = _run_scenario("ckcs_spread_leave.txt")
    event = spread.events[0]
    [msg] = [d for d in event.output.deliveries if getattr(d, "channel", None) == "multicast"]
    cover_sets = [sorted(reference_subtree_members(spread.server.tree, p.kek_id)) for p in msg.payloads]
    if event.cost.encrypt != 4:
        problems.append(f"spread leave: encrypt {event.cost.encrypt} != 4")
    if cover_sets != [["u2"], ["u3"], ["u5", "u6"], ["u7"]]:
        problems.append(f"spread cover {cover_sets}")

    # leave costs are a property of leaver placement, so the sweep reports the
    # measured cover size per cell instead of forcing one formula
    if not any("ckcs leave" in note and "cover size" in note for note in notes):
        problems.append("sweep notes do not report measured cover sizes")

    _verdict(
        "C3",
        not problems,
        "half-subtree leave covered by 1 encryption; spread leave (u1,u4,u8 of 8) "
        "by 4 covering {u2},{u3},{u5,u6},{u7}; per-cell cover sizes reported as measured"
        + (f"; {problems}" if problems else ""),
    )


# -- criterion 4: baseline scaling and per-cell ordering ----------------------------


def test_c4_baseline_scaling_and_ordering(coded_grid, baseline_grid):
    ckcs_rows, _, _ = coded_grid
    rows = list(baseline_grid)
    problems = []

    # least squares through the origin: raw keygen ~= c * m * log2(n)
    fits = {}
    for proto in ("lkh", "oft", "okd"):
        for op in ("join", "leave"):
            pts = [r for r in rows if r["protocol"] == proto and r["op"] == op]
            # leave batches at m == n are trimmed to n - 1 to keep one member
            x = [
                (min(r["m"], r["n"] - 1) if op == "leave" else r["m"]) * math.log2(r["n"])
                for r in pts
            ]
            y = [r["keygen"] for r in pts]
            c = sum(a * b for a, b in zip(x, y)) / sum(a * a for a in x)
            fits[(proto, op)] = c
            if not 0.5 <= c <= 3.0:
                problems.append(f"{proto} {op}: c={c:.3f} outside [0.5, 3]")

    index = {(r["protocol"], r["op"], r["n"], r["m"]): r for r in rows + ckcs_rows}
    cost = lambda proto, op, n, m: (
        index[(proto, op, n, m)]["keygen"] + index[(proto, op, n, m)]["encrypt"]
    )
    join_cells = [(n, m) for n in N_VALUES for m in M_VALUES]
    for n, m in join_cells:
        c_ckcs, c_okd = cost("ckcs", "join", n, m), cost("okd", "join", n, m)
        c_oft, c_lkh = cost("oft", "join", n, m), cost("lkh", "join", n, m)
        if not (c_ckcs < c_okd <= c_oft < c_lkh):
            problems.append(f"join n={n} m={m}: {c_ckcs}, {c_okd}, {c_oft}, {c_lkh}")
    leave_cells = [(n, m) for n in N_VALUES for m in M_VALUES if m <= n]
    for n, m in leave_cells:
        c_ckcs = cost("ckcs", "leave", n, m)
        others = [cost(p, "leave", n, m) for p in ("okd", "oft", "lkh")]
        if not all(c_ckcs < other for other in others):
            problems.append(f"leave n={n} m={m}: ckcs {c_ckcs} vs {others}")

    fit_text = ", ".join(f"{p}-{o} c={fits[(p, o)]:.2f}" for p, o in sorted(fits))
    _verdict(
        "C4",
        not problems,
        f"keygen fits c*m*log2(n) with {fit_text}; ordering coded < okd <= oft < lkh "
        f"at every join cell and coded lowest at every leave cell"
        + (f"; {problems[:4]}" if problems else ""),
    )


# -- criterion 5: golden walkthrough traces -----------------------------------------


def test_c5_golden_traces_byte_stable():
    problems = []
    for name, want in GOLDEN_DIGESTS.items():
        first, second = _run_scenario(name), _run_scenario(name)
        if first.digest != second.digest:
            problems.append(f"{name}: digest varies between runs")
        if first.digest != want:
            problems.append(f"{name}: digest {first.digest[:16]}... != frozen {want[:16]}...")

    batch = _run_scenario("ckcs_batch_join.txt")
    tree = batch.server.tree
    old_top, new_top = (tree.node(c) for c in tree.root.children)
    if tree.root.code != "27" or old_top.code != "278":
        problems.append(f"root code {tree.root.code!r} / old subtree {old_top.code!r}")
    if not re.fullmatch(r"27\d", new_top.code or "") or new_top.code == "278":
        problems.append(f"incoming subtree code {new_top.code!r}")
    inner = [tree.node(c) for c in new_top.children if not tree.node(c).is_leaf]
    if not inner or any(
        len(n.code or "") != 4 or not n.code.startswith(new_top.code) for n in inner
    ):
        problems.append("incoming subtree children do not extend its code by one digit")

    spread = _run_scenario("ckcs_spread_leave.txt")
    depths = {
        m: len(spread.server.tree.ancestors(spread.server.tree.leaf_of(m).node_id))
        for m in ("u2", "u3", "u5", "u6", "u7")
    }
    if depths != {"u2": 2, "u3": 2, "u5": 3, "u6": 3, "u7": 2}:
        problems.append(f"post-leave depths {depths}")

    _verdict(
        "C5",
        not problems,
        "4 shipped scenarios reproduce their frozen digests; root code 278->27, "
        "incoming subtree coded 27x/27xy, and u2/u3/u7 promoted one level"
        + (f"; {problems}" if problems else ""),
    )


# -- criterion 6: probe correctness over the random corpus --------------------------


def test_c6_probe_corpus(corpus_stats):
    traces, events, probed, elapsed = corpus_stats
    ok = traces == 1000 and elapsed < 60.0
    _verdict(
        "C6",
        ok,
        f"{traces}/1000 traces, {events} events: every current member decrypted "
        f"the probe and every departed member failed it ({probed} member endpoints), "
        f"{elapsed:.1f}s (< 60s)",
    )


# -- criterion 7: mechanical secrecy verdicts ---------------------------------------


def test_c7_secrecy_audit_and_breach_witness():
    problems = []
    report = audit(trials=1000, max_n=64, max_events=8, seed=7)
    if not report.ok:
        problems.append(f"{len(report.breaches)} unexpected breaches in code-secret mode")

    public = audit(trials=40, max_n=16, max_events=6, seed=7, codes_public=True)
    forward = [(s, v) for s, v in public.breaches if v.check == "forward-secrecy"]
    if not forward:
        problems.append("codes-public mode produced no forward-secrecy breach")
    else:
        seed, verdict = forward[0]
        trace = run(generate_random_scenario(seed, protocol="ckcs", max_n=16, max_events=6))
        knowledge = closure(
            adversary_knowledge(trace, verdict.adversary, codes_public=True)
        )
        if not verify_witness(knowledge, trace.group_key_history[verdict.breached_epoch]):
            problems.append("breach witness did not re-execute")

    _verdict(
        "C7",
        not problems,
        f"code-secret: {report.checks} closure checks on 1000 traces, all secure "
        f"({report.elapsed_s:.1f}s); codes-public: {len(public.breaches)} breaches in "
        f"{public.trials} coded traces, witness chain re-executed with real crypto"
        + (f"; {problems}" if problems else ""),
    )


# -- criterion 8: oracle equivalences ------------------------------------------------


def _churn_tree(seed: int) -> kt.KeyTree:
    """An irregular tree: balanced start, then random inserts and detaches."""
    rng = Random(f"c8-tree/{seed}")
    n = rng.randint(4, 7)
    tree = kt.build_balanced([f"u{i}" for i in range(1, n + 1)], arity=2)
    next_id = n + 1
    for _ in range(rng.randint(2, 5)):
        if rng.random() < 0.6 or tree.member_count < 3:
            kt.insert_leaf(tree, f"u{next_id}")
            next_id += 1
        else:
            kt.detach_leaf(tree, rng.choice(tree.members))
    return tree


def _all_subsets_match(tree: kt.KeyTree) -> int:
    names = tree.members
    n = len(names)
    checked = 0
    for mask in range(1, 2**n - 1):
        leavers = [names[i] for i in range(n) if mask >> i & 1]
        assert kt.compute_cover(tree, leavers) == cover_oracle(tree, leavers), leavers
        checked += 1
    return checked


def test_c8_oracle_equivalences():
    problems = []

    # (a) cover computation vs the direct-definition oracle, exhaustively
    cover_checks = 0
    for n in range(2, 17):
        tree = kt.build_balanced([f"u{i}" for i in range(1, n + 1)], arity=2)
        cover_checks += _all_subsets_match(tree)
    for seed in range(8):
        cover_checks += _all_subsets_match(_churn_tree(seed))

    # (b) folded root recomputed from leaf keys only, after every event
    fold_checks = 0
    for seed in range(40):
        rng = Random(f"c8-fold/{seed}")
        n = rng.randint(2, 64)
        server = OftServer([f"u{i}" for i in range(1, n + 1)], rng)
        next_id = n + 1
        for seq in range(1, rng.randint(2, 6) + 1):
            if rng.random() < 0.5 or server.member_count < 3:
                m = rng.randint(1, 4)
                ids = tuple(f"u{i}" for i in range(next_id, next_id + m))
                next_id += m
                op = "join"
            else:
                m = rng.randint(1, min(4, server.member_count - 1))
                ids = tuple(rng.sample(server.member_ids, m))
                op = "leave"
            server.handle_event(MembershipEvent(seq, op, ids), rng, CostMeter())
            if fold_oracle(server.tree) != server.group_key:
                problems.append(f"fold mismatch seed {seed} event {seq}")
            fold_checks += 1

    # (c) member-derived subgroup keys byte-equal the server's, after every event
    middle_checks = 0
    for seed in range(40):
        rng = Random(f"c8-coded/{seed}")
        n = rng.randint(2, 24)
        server = CkcsServer([f"u{i}" for i in range(1, n + 1)], rng)
        views = {b.member_id: server.build_member(b) for b in server.initial_bootstraps()}
        next_id = n + 1
        for seq in range(1, rng.randint(2, 6) + 1):
            if rng.random() < 0.5 or server.member_count < 3:
                m = rng.randint(1, 4)
                ids = tuple(f"u{i}" for i in range(next_id, next_id + m))
                next_id += m
                op = "join"
            else:
                m = rng.randint(1, min(4, server.member_count - 1))
                ids = tuple(rng.sample(server.member_ids, m))
                op = "leave"
            output = server.handle_event(MembershipEvent(seq, op, ids), rng, CostMeter())
            for bootstrap in output.bootstraps:
                views[bootstrap.member_id] = server.build_member(bootstrap)
            deliver(views, output)
            if op == "leave":
                for member in ids:
                    views.pop(member)
            for member, view in views.items():
                if view.group_key != server.group_key:
                    problems.append(f"group key mismatch {member} seed {seed}")
                for node_id, key in view.middle_keys.items():
                    if key != server.node_key(node_id):
                        problems.append(f"middle key mismatch {member}/{node_id} seed {seed}")
                    middle_checks += 1

    _verdict(
        "C8",
        not problems,
        f"cover == oracle on {cover_checks} (tree, leaver-set) pairs; folded root == "
        f"group key after {fold_checks} events; {middle_checks} member middle keys "
        f"byte-equal the server's" + (f"; {problems[:4]}" if problems else ""),
    )


# -- criterion 9: wall-time ordering at n=8192 ---------------------------------------


def test_c9_walltime_ordering():
    protocols = ["ckcs", "lkh", "oft", "okd"]
    reps = []
    for seed in (11, 12, 13):
        rows, _ = sweep(protocols, [8192], M_VALUES, ["join"], seed=seed)
        reps.append({(r["protocol"], r["m"]): r["wall_ms"] for r in rows})
    median = {key: statistics.median(rep[key] for rep in reps) for key in reps[0]}

    problems = []
    for proto in protocols:
        series = [median[(proto, m)] for m in M_VALUES]
        if not all(a < b for a, b in zip(series, series[1:])):
            problems.append(f"{proto} join times not increasing: {series}")

    def slope(proto: str) -> float:
        return (median[(proto, 1024)] - median[(proto, 16)]) / (1024 - 16)

    ratio = slope("lkh") / slope("ckcs")
    if ratio <= 2.0:
        problems.append(f"lkh/coded slope ratio {ratio:.2f} <= 2")

    _verdict(
        "C9",
        not problems,
        f"median join time strictly increasing in m for all 4 protocols at n=8192; "
        f"lkh/coded slope ratio {ratio:.1f}x (> 2x required)"
        + (f"; {problems}" if problems else ""),
    )
