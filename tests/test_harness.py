"""Scenario format, leaver layouts, deterministic trace running, membership
probes, and the measurement sweep grid."""

import hashlib
import json
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from churn import fold_oracle
from gkms import core, harness
from gkms.analyzer import check_forward_secrecy
from gkms.core import CSV_COLUMNS, CostMeter, EventError, MembershipEvent, Notice
from gkms.crypto import SymKey
from gkms.harness import (
    LAYOUTS,
    MAX_GROUP_SIZE,
    PROTOCOLS,
    SWEEP_EXTRA_COLUMNS,
    ProbeError,
    Scenario,
    ScenarioError,
    Step,
    _run_probe,
    format_scenario,
    generate_churn_scenario,
    generate_random_scenario,
    leaver_layout,
    make_server,
    parse_scenario,
    run,
    sweep,
)
from gkms.tree import CodeSpaceError, build_balanced
from harness_reference import (
    reference_best_half,
    reference_log_tree,
    reference_trace_digest,
    reference_worst_spread,
)
from tree_reference import reference_subtree_members


SAMPLE = """\
# churn plan
init n=8 protocol=ckcs seed=5 root_code=278

join 3          # trailing comments are fine
leave 2 layout=best-half
leave ids=u3,u11
"""


# -- scenario text ------------------------------------------------------------------


def test_parse_scenario_full_form():
    scenario = parse_scenario(SAMPLE)
    assert scenario == Scenario(
        protocol="ckcs",
        n=8,
        seed=5,
        root_code="278",
        steps=(
            Step("join", count=3),
            Step("leave", count=2, layout="best-half"),
            Step("leave", ids=("u3", "u11")),
        ),
    )


def test_format_parse_round_trip():
    scenario = parse_scenario(SAMPLE)
    text = format_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert text == (
        "init n=8 protocol=ckcs seed=5 root_code=278\n"
        "join 3\n"
        "leave 2 layout=best-half\n"
        "leave ids=u3,u11\n"
    )


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "no init line"),
        ("join 2\n", "init must come first"),
        ("init n=4 protocol=lkh seed=1\ninit n=4 protocol=lkh seed=1\n", "duplicate init"),
        ("init n=4 protocol=lkh\n", "init needs seed="),
        ("init n=4 seed=1\n", "init needs protocol="),
        ("init protocol=lkh seed=1\n", "init needs n="),
        ("init n=4 protocol=lkh seed=1\nrekey 2\n", "unknown directive"),
        ("init n=4 protocol lkh seed=1\n", "expected key=value"),
        ("init n=4 protocol=lkh seed=1\njoin 2 extra\n", "unexpected token"),
        ("init n=4 protocol=lkh seed=1\nleave 2 ids=u1,u2\n", "not both"),
        ("init n=4 protocol=lkh seed=1\nleave\n", "count or explicit ids"),
        ("init n=4 protocol=lkh seed=1\njoin 0\n", "at least 1"),
        ("init n=4 protocol=lkh seed=1\njoin ids=u9\n", "only supported for leave"),
        ("init n=4 protocol=lkh seed=1\njoin 2 layout=random\n", "leave steps only"),
        ("init n=4 protocol=lkh seed=1\nleave 2 layout=bogus\n", "unknown layout"),
        ("init n=4 protocol=foo seed=1\n", "unknown protocol"),
        ("init n=0 protocol=lkh seed=1\n", "at least 1"),
        ("init n=abc protocol=lkh seed=1\n", "n must be a decimal integer"),
        ("init n=4 protocol=lkh seed=x\n", "seed must be a decimal integer"),
        ("init n=\u00b2 protocol=lkh seed=1\n", "n must be a decimal integer"),
        ("init n=4 protocol=lkh seed=1 bogus=1\n", "unknown init key"),
        ("init n=4 n=5 protocol=lkh seed=1\n", "duplicate n="),
        ("init n=4 protocol=lkh seed=1\njoin 2 3\n", "count twice"),
        ("init n=4 protocol=lkh seed=1\njoin \u00b2\n", "unexpected token"),
        ("init n=4 protocol=lkh seed=1\nleave 1 layout=random layout=best-half\n", "layout twice"),
        ("init n=4 protocol=lkh seed=1\nleave ids=u1 ids=u2\n", "ids twice"),
        ("init n=4 protocol=lkh seed=1\nleave ids=,\n", "at least one member"),
        ("init n=4 protocol=lkh seed=1\nleave ids=u1 layout=random\n", "counted leave steps only"),
        (f"init n={MAX_GROUP_SIZE + 1} protocol=lkh seed=1\n", "group size cap"),
        ("init n=100000000000000000000 protocol=lkh seed=1\n", "group size cap"),
        (f"init n={MAX_GROUP_SIZE - 4} protocol=lkh seed=1\njoin 4\nleave 9\njoin 1\n", "group size cap"),
        ("init n=" + "9" * 5000 + " protocol=lkh seed=1\n", "line 1: number of 5000 digits"),
        ("init n=4 protocol=lkh seed=1\njoin " + "9" * 5000 + "\n", "line 2: number of 5000 digits"),
        ("init n=1 protocol=ckcs seed=1 root_code=abc\n", "root_code must be 1 to 32 ASCII digits"),
        ("init n=4 protocol=ckcs seed=1 root_code=\n", "root_code must be 1 to 32 ASCII digits"),
        ("init n=4 protocol=ckcs seed=1 root_code=" + "1" * 33 + "\n", "1 to 32 ASCII digits"),
        ("init n=4 protocol=ckcs seed=1 root_code=\u0661\u0662\n", "1 to 32 ASCII digits"),
        ("init n=4 protocol=lkh seed=1 root_code=12\n", "'lkh' does not use position codes"),
        ("init n=1 protocol=okd seed=1 root_code=\n", "'okd' does not use position codes"),
    ],
)
def test_parse_scenario_rejects(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


def test_group_size_cap_admits_exactly_the_cap():
    scenario = parse_scenario(f"init n={MAX_GROUP_SIZE - 4} protocol=lkh seed=1\njoin 4\nleave 9\n")
    assert scenario.n + 4 == MAX_GROUP_SIZE
    with pytest.raises(ScenarioError, match="group size cap"):
        sweep(["lkh"], [MAX_GROUP_SIZE], [1], ["leave"])


SCRIPT_TOKENS = st.sampled_from(
    ["init", "join", "leave", "n=4", "n=x", "protocol=lkh", "protocol=ckcs", "seed=1",
     "seed=-2", "root_code=27", "bogus=1", "2", "0", "ids=u1,u2", "ids=", "layout=random",
     "layout=best-half", "#", "=", "\n", "\n"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(SCRIPT_TOKENS, st.text(max_size=6)), max_size=24))
def test_parse_scenario_accepts_or_raises_scenario_error(tokens):
    try:
        scenario = parse_scenario(" ".join(tokens))
    except ScenarioError:
        return
    assert parse_scenario(format_scenario(scenario)) == scenario


MEMBER_IDS = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp"), blacklist_characters="#,"),
    min_size=1,
    max_size=5,
)
STEPS = st.one_of(
    st.builds(Step, op=st.just("join"), count=st.integers(1, 99)),
    st.builds(Step, op=st.just("leave"), count=st.integers(1, 99), layout=st.sampled_from([None, *LAYOUTS])),
    st.builds(Step, op=st.just("leave"), ids=st.lists(MEMBER_IDS, min_size=1, max_size=4).map(tuple)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(PROTOCOLS)),
    st.integers(1, 10**6),
    st.integers(-(10**9), 10**9),
    st.lists(STEPS, max_size=6),
    st.one_of(st.none(), st.text(alphabet="0123456789", min_size=1, max_size=8)),
)
def test_format_scenario_round_trips(protocol, n, seed, steps, root_code):
    if protocol != "ckcs":
        root_code = None  # only ckcs takes a root code
    scenario = Scenario(protocol=protocol, n=n, seed=seed, steps=tuple(steps), root_code=root_code)
    assert parse_scenario(format_scenario(scenario)) == scenario


def test_generated_and_shipped_scenarios_reparse_unchanged():
    for seed in range(300):
        scenario = generate_random_scenario(seed)
        assert parse_scenario(format_scenario(scenario)) == scenario
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(scenario_dir.glob("*.txt")):
        scenario = parse_scenario(path.read_text())
        assert parse_scenario(format_scenario(scenario)) == scenario


def test_make_server_guards():
    rng = Random(0)
    with pytest.raises(ScenarioError, match="does not use position codes"):
        make_server("lkh", ["u1", "u2"], rng, root_code="278")
    with pytest.raises(ScenarioError, match="unknown protocol"):
        make_server("tgdh", ["u1"], rng)
    server = make_server("ckcs", ["u1", "u2"], rng, root_code="278")
    assert server.tree.root.code == "278"


# -- leaver layouts -----------------------------------------------------------------


def balanced_tree(n):
    members = [f"u{i}" for i in range(1, n + 1)]
    return build_balanced(members, arity=2)


def test_layout_guards():
    tree = balanced_tree(8)
    with pytest.raises(ScenarioError, match="empty leaver set"):
        leaver_layout(tree, 0, "random", Random(0))
    with pytest.raises(ScenarioError, match="may not empty"):
        leaver_layout(tree, 8, "random", Random(0))
    with pytest.raises(ScenarioError, match="unknown layout"):
        leaver_layout(tree, 2, "sideways", Random(0))


def test_best_half_takes_one_subtree():
    tree = balanced_tree(8)
    picks = leaver_layout(tree, 4, "best-half", Random(0))
    halves = [set(reference_subtree_members(tree, c)) for c in tree.root.children]
    assert any(set(picks) == half for half in halves)


def test_best_half_infeasible_when_no_subtree_is_big_enough():
    tree = balanced_tree(8)  # root subtrees hold 4 members each
    with pytest.raises(ScenarioError, match="best-half infeasible"):
        leaver_layout(tree, 5, "best-half", Random(0))


@settings(max_examples=80, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PROTOCOLS)),
    seed=st.integers(0, 10**6),
    fraction=st.floats(0, 1),
)
def test_best_half_matches_reference_after_churn(protocol, seed, fraction):
    scenario = generate_random_scenario(seed, protocol=protocol, max_n=48)
    tree = run(scenario, track_members=False).server.tree
    n = tree.member_count
    assume(n >= 2)
    m = 1 + round(fraction * (n - 2))  # anywhere in 1..n-1
    expected = reference_best_half(tree, m)
    if expected is None:
        with pytest.raises(ScenarioError, match="best-half infeasible"):
            leaver_layout(tree, m, "best-half", Random(0))
    else:
        assert leaver_layout(tree, m, "best-half", Random(0)) == expected


def test_best_half_skips_memberless_leaves():
    tree = _tree_with_memberless_leaves()
    for m in range(1, 5):
        assert leaver_layout(tree, m, "best-half", Random(0)) == reference_best_half(tree, m)


def test_worst_spread_maximizes_cover():
    tree = balanced_tree(8)
    picks = leaver_layout(tree, 3, "worst-spread", Random(0))
    from gkms.tree import compute_cover

    assert len(compute_cover(tree, picks)) == 4  # the worst case at n=8, m=3
    # spread picks never share a parent
    parents = [tree.node(tree.leaf_of(m).parent) for m in picks]
    assert len({p.node_id for p in parents}) == 3


@settings(max_examples=80, deadline=None)
@given(
    protocol=st.sampled_from(sorted(PROTOCOLS)),
    seed=st.integers(0, 10**6),
    fraction=st.floats(0, 1),
)
def test_worst_spread_matches_reference_greedy_after_churn(protocol, seed, fraction):
    scenario = generate_random_scenario(seed, protocol=protocol, max_n=48)
    tree = run(scenario, track_members=False).server.tree
    n = tree.member_count
    assume(n >= 2)
    m = 1 + round(fraction * (n - 2))  # anywhere in 1..n-1
    assert leaver_layout(tree, m, "worst-spread", Random(0)) == reference_worst_spread(tree, m)


def _deep_ckcs_tree():
    """30 single joins from n=8: every join mounts beside the root."""
    steps = tuple(Step(op="join", count=1) for _ in range(30))
    return run(Scenario(protocol="ckcs", n=8, seed=3, steps=steps), track_members=False).server.tree


def _tree_with_memberless_leaves():
    """A balanced tree plus a deeper chain of memberless nodes under the root."""
    tree = balanced_tree(8)
    parent = tree.root
    for _ in range(5):
        empty = tree._new_node(parent=parent.node_id)
        parent.children.append(empty.node_id)
        parent = empty
    return tree


@pytest.mark.parametrize(
    "make_tree",
    [
        pytest.param(_deep_ckcs_tree, id="deep-ckcs"),
        pytest.param(lambda: build_balanced([f"u{i}" for i in range(64)], 2), id="balanced-2x64"),
        pytest.param(lambda: build_balanced([f"u{i}" for i in range(81)], 3), id="balanced-3x81"),
        pytest.param(lambda: build_balanced([f"u{i}" for i in range(64)], 4), id="balanced-4x64"),
        pytest.param(_tree_with_memberless_leaves, id="memberless-leaves"),
    ],
)
def test_worst_spread_matches_reference_greedy_for_every_m(make_tree):
    tree = make_tree()
    for m in range(1, tree.member_count):
        picks = leaver_layout(tree, m, "worst-spread", Random(0))
        assert picks == reference_worst_spread(tree, m), m
        assert all(tree.has_member(member) for member in picks)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_worst_spread_matches_reference_greedy_up_to_n_minus_1(protocol):
    for seed in range(25):
        scenario = generate_random_scenario(11_000 + seed, protocol=protocol, max_n=48)
        tree = run(scenario, track_members=False).server.tree
        n = tree.member_count
        if n < 2:
            continue
        for m in sorted({1, n // 2, n - 1}):
            assert leaver_layout(tree, m, "worst-spread", Random(0)) == reference_worst_spread(tree, m)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_worst_spread_matches_reference_greedy_at_benchmark_scale(protocol):
    # the trees a 2048-member untracked replay leaves after 20 alternating
    # batches of 16, deep and uneven after a worst-spread and a best-half leave
    scenario = generate_churn_scenario(protocol, 2048, 20, 2801, (16,))
    tree = run(scenario, track_members=False).server.tree
    assert tree.member_count == 2048
    assert leaver_layout(tree, 16, "worst-spread", Random(0)) == reference_worst_spread(tree, 16)


def test_worst_spread_breaks_equal_gains_by_registration_index():
    # the late members get the first subtree and the lower node ids; then
    # the early ones are registered first, so registration order disagrees
    # with both tree order and node-id order on every tie
    tree = build_balanced(["late1", "late2", "early1", "early2"], 2)
    leaf_ids = tree._member_leaf
    tree._member_leaf = {member: leaf_ids[member] for member in ("early1", "early2", "late1", "late2")}
    assert tree.members == ("early1", "early2", "late1", "late2")
    # after early1 and late1, early2 and late2 are two frontier leaves of
    # gain 1 each; registration, not tree order, picks early2
    expected = ["early1", "late1", "early2"]
    assert leaver_layout(tree, 3, "worst-spread", Random(0)) == expected
    assert reference_worst_spread(tree, 3) == expected


def test_random_layout_is_seed_stable():
    tree = balanced_tree(8)
    assert leaver_layout(tree, 3, "random", Random(5)) == leaver_layout(
        tree, 3, "random", Random(5)
    )


# -- trace running ------------------------------------------------------------------


def test_run_is_deterministic_per_seed():
    scenario = parse_scenario("init n=8 protocol=ckcs seed=5\njoin 2\nleave 3\n")
    first = run(scenario)
    second = run(scenario)
    assert first.digest == second.digest
    assert first.group_key_history == second.group_key_history
    reseeded = run(parse_scenario("init n=8 protocol=ckcs seed=6\njoin 2\nleave 3\n"))
    assert reseeded.digest != first.digest


def test_join_members_are_auto_named():
    trace = run(parse_scenario("init n=3 protocol=lkh seed=1\njoin 2\njoin 1\n"))
    assert set(trace.members) == {"u1", "u2", "u3", "u4", "u5", "u6"}
    assert trace.join_epoch == {"u1": 0, "u2": 0, "u3": 0, "u4": 1, "u5": 1, "u6": 2}


def test_explicit_leave_ids_are_honored():
    trace = run(parse_scenario("init n=6 protocol=oft seed=2\nleave ids=u2,u5\n"))
    assert trace.events[0].member_ids == ("u2", "u5")
    assert set(trace.departed) == {"u2", "u5"}
    assert trace.leave_epoch == {"u2": 1, "u5": 1}
    assert set(trace.members) == {"u1", "u3", "u4", "u6"}


def test_trace_records_event_sizes_and_rows():
    trace = run(parse_scenario("init n=8 protocol=lkh seed=3\nleave 2\njoin 1\n"))
    assert [e.n_at_event for e in trace.events] == [8, 6]
    assert [row["n"] for row in trace.rows] == [8, 6]
    assert [row["op"] for row in trace.rows] == ["leave", "join"]
    assert all(row["protocol"] == "lkh" for row in trace.rows)
    assert len(trace.group_key_history) == 3  # initial plus one per event


def test_wire_transcript_and_wrap_log_cover_every_ciphertext():
    trace = run(parse_scenario("init n=8 protocol=ckcs seed=4\njoin 2\nleave 3\n"))
    seen = 0
    for delivery in trace.deliveries:
        if isinstance(delivery, Notice):
            continue
        for payload in delivery.payloads:
            assert payload.ciphertext in trace.wrap_log
            seen += 1
    assert seen >= 4
    assert len(trace.wrap_log) >= seen  # the log may also hold probe-free duplicates


def test_tree_structure_logs():
    trace = run(parse_scenario("init n=8 protocol=lkh seed=3\nleave 2\n"))
    tree = trace.server.tree
    assert tree.root_id in trace.node_key_log[trace.server.group_key.data]
    for node in tree.walk():
        if not node.is_leaf and len(node.children) == 2:
            left, right = node.children
            assert (left, right, node.node_id) in trace.sibling_pairs


def _shipped_scenarios():
    scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
    return [parse_scenario(path.read_text()) for path in sorted(scenario_dir.glob("*.txt"))]


def test_tree_log_and_digest_match_references(monkeypatch):
    fast_log_tree = harness._log_tree
    reference = {}

    def log_both(trace):
        fast_log_tree(trace)
        reference_log_tree(trace.server, reference["log"], reference["pairs"])

    monkeypatch.setattr(harness, "_log_tree", log_both)
    scenarios = [generate_random_scenario(9_000 + i) for i in range(60)]
    scenarios += [Scenario(protocol=p, n=5, seed=2, steps=()) for p in sorted(PROTOCOLS)]
    scenarios += _shipped_scenarios()
    assert len(scenarios) == 68
    for scenario in scenarios:
        reference["log"], reference["pairs"] = {}, set()
        trace = run(scenario)
        assert trace.digest == reference_trace_digest(trace), scenario
        assert [(key, list(ids)) for key, ids in trace.node_key_log.items()] == [
            (key, list(ids)) for key, ids in reference["log"].items()
        ], scenario
        assert list(trace.sibling_pairs) == list(reference["pairs"]), scenario


def _churn_scenarios():
    """Long churn per protocol at n=256: 40 alternating join/leave batches of
    16, leave layouts rotating; a longer one with batch sizes drawn from
    (1, 1, 2, 4, 8), 150 events for ckcs, which runs out of codes at event
    159, and 300 for the others; then one trace of mixed batch sizes that
    also shrinks the group to a single member and grows it back."""
    mixed = [
        Step(op="leave", ids=("u5", "u17", "u200")),
        Step(op="join", count=1),
        Step(op="leave", count=1),
        Step(op="join", count=3),
        Step(op="leave", count=2, layout="worst-spread"),
        Step(op="join", count=34),
        Step(op="leave", count=21, layout="best-half"),
        Step(op="join", count=13),
        Step(op="leave", count=279),
        Step(op="join", count=2),
        Step(op="leave", count=1),
        Step(op="join", count=5),
        Step(op="leave", count=3, layout="worst-spread"),
    ]
    out = []
    for protocol in sorted(PROTOCOLS):
        out.append(generate_churn_scenario(protocol, 256, 40, 31, (16,)))
        events = 150 if protocol == "ckcs" else 300
        out.append(generate_churn_scenario(protocol, 256, events, 5, (1, 1, 2, 4, 8)))
        out.append(Scenario(protocol=protocol, n=256, seed=32, steps=tuple(mixed)))
    return out


def test_untracked_churn_digest_matches_reference():
    # long untracked churn: recipient lists in the hundreds and the okd and
    # ckcs join notices, hashed against the one-blob reference digest
    for scenario in _churn_scenarios():
        trace = run(scenario, track_members=False)
        assert trace.digest == reference_trace_digest(trace), scenario.protocol
        assert max(len(d.recipients) for d in trace.deliveries) >= 256
        if scenario.protocol in ("ckcs", "okd"):
            assert any(isinstance(d, Notice) for d in trace.deliveries)


@st.composite
def _roster_cuts(draw):
    """Distinct ``u<k>`` ids of mixed lengths, how many of them are present,
    and the positions of the leavers in leave order."""
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=40, unique=True))
    present = draw(st.integers(0, len(ids)))
    order = draw(st.permutations(range(present)))
    return tuple(f"u{k}" for k in ids), present, order[: draw(st.integers(0, present))]


@settings(max_examples=200, deadline=None)
@given(roster=_roster_cuts())
@example(roster=(("u1", "u22", "u333", "u4", "u55", "u6"), 6, [0, 5, 2, 3]))  # ends, adjacent
@example(roster=(("u7", "u8", "u9"), 3, [1, 0, 2]))  # every member gone
@example(roster=(("u10", "u2", "u3"), 2, []))  # no cut, members past present
def test_roster_spans_hash_as_the_joined_view(roster):
    members, present, positions = roster
    cuts = sorted((position, index) for index, position in enumerate(positions))
    encoded, offsets = harness._encoded_roster(members)
    for gone in range(len(cuts) + 1):
        view = core.RosterView(members, present, cuts, gone)
        pieces = harness._span_bytes(encoded, offsets, view.spans())
        assert all(len(piece) for piece in pieces)
        joined = '","'.join(view).encode()
        assert b'","'.join(pieces) == joined
        spanned = hashlib.sha256()
        for index, piece in enumerate(pieces):
            spanned.update(b'","' if index else b"")
            spanned.update(piece)
        assert spanned.digest() == hashlib.sha256(joined).digest()


class _CountedRoster(tuple):
    """A roster tuple that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        type(self).passes += 1
        return super().__iter__()


def test_digest_encodes_each_batch_roster_once(monkeypatch):
    scenario = generate_churn_scenario("lkh", 256, 20, 31, (16,))
    trace = run(scenario, track_members=False)
    batches = {}
    for delivery in trace.deliveries:
        if isinstance(delivery.recipients, core.RosterView):
            batches.setdefault(id(delivery.recipients.members), []).append(delivery.recipients)
    assert len(batches) == len(scenario.steps)
    monkeypatch.setattr(_CountedRoster, "passes", 0)
    for views in batches.values():
        assert len(views) >= 16
        counted = _CountedRoster(views[0].members)
        for view in views:
            view.members = counted

    def refuse(view):
        raise AssertionError("the digest reads a roster view run by run")

    monkeypatch.setattr(core.RosterView, "runs", refuse)
    monkeypatch.setattr(core.RosterView, "__iter__", refuse)
    assert harness._trace_digest(trace) == trace.digest
    # one join and one length pass per batch roster, not one per delivery
    assert _CountedRoster.passes == 2 * len(batches)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_untracked_run_keeps_no_analysis_records(protocol):
    # no member views means no adversary to seed, so nothing reads them
    text = f"init n=8 protocol={protocol} seed=5\nleave 2\njoin 3\nleave 1\n"
    untracked = run(parse_scenario(text), track_members=False)
    assert untracked.node_key_log == {}
    assert untracked.sibling_pairs == set()
    assert untracked.wrap_log == {}
    leaver = untracked.events[0].member_ids[0]
    with pytest.raises(ValueError, match="never leaves"):
        check_forward_secrecy(untracked, leaver)
    tracked = run(parse_scenario(text))
    assert tracked.digest == untracked.digest
    assert tracked.node_key_log and tracked.sibling_pairs and tracked.wrap_log
    assert check_forward_secrecy(tracked, leaver).secure


def test_probe_detects_membership_drift():
    trace = run(parse_scenario("init n=4 protocol=lkh seed=1\n"))
    trace.members["ghost"] = next(iter(trace.members.values()))
    with pytest.raises(ProbeError, match="!= server membership"):
        _run_probe(trace, Random(0), seq=99)


def test_probe_detects_wrong_member_key():
    trace = run(parse_scenario("init n=4 protocol=lkh seed=1\n"))
    trace.members["u2"].group_key = SymKey(bytes(32))
    with pytest.raises(ProbeError, match="member u2 holds group key"):
        _run_probe(trace, Random(0), seq=99)


def test_probe_detects_departed_member_with_live_key():
    trace = run(parse_scenario("init n=4 protocol=lkh seed=1\nleave 1\n"))
    stayer = sorted(trace.members)[0]
    trace.departed["mole"] = trace.members[stayer]
    with pytest.raises(ProbeError, match="departed member mole still unwraps"):
        _run_probe(trace, Random(0), seq=99)


def test_probe_detects_real_leaver_with_live_key():
    trace = run(parse_scenario("init n=4 protocol=lkh seed=1\nleave 1\n"))
    (leaver,) = trace.departed
    assert trace.leave_epoch[leaver] == 1
    trace.departed[leaver].group_key = trace.server.group_key
    # found by its key value, at its own leave event and at a later one
    for seq in (1, 99):
        with pytest.raises(ProbeError, match=f"departed member {leaver} still unwraps"):
            _run_probe(trace, Random(0), seq=seq)


def test_recording_meter_logs_wrapping_keys():
    from gkms.crypto import unwrap

    for protocol in sorted(PROTOCOLS):
        trace = run(parse_scenario(f"init n=8 protocol={protocol} seed=2\njoin 2\nleave 3\n"))
        for message in trace.deliveries:
            for payload in getattr(message, "payloads", ()):
                unwrap(SymKey(trace.wrap_log[payload.ciphertext]), payload)


def test_random_scenario_corpus_probes_green():
    protocols = set()
    for i in range(40):
        scenario = generate_random_scenario(3_000 + i)
        trace = run(scenario)  # every probe must pass after every event
        protocols.add(scenario.protocol)
        assert trace.digest == run(scenario).digest
    assert protocols == set(PROTOCOLS)


def _held_path_keys(protocol, view):
    """The node keys a member holds for its own path, by node id."""
    if protocol == "ckcs":
        return {**view.middle_keys, view.leaf_id: view.individual_key}
    if protocol == "oft":
        return {**dict(zip(view.chain[1:], view.path, strict=True)), view.leaf_id: view.individual_key}
    return view.keys


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_members_hold_the_server_path_keys_after_random_churn(protocol):
    for seed in range(40):
        trace = run(generate_random_scenario(5_000 + seed, protocol=protocol))
        server, tree = trace.server, trace.server.tree
        for member, view in trace.members.items():
            leaf = tree.leaf_of(member)
            assert view.leaf_id == leaf.node_id
            above = tree.ancestors(leaf.node_id)
            if protocol == "ckcs":
                above = above[:-1]  # the root key is the group key, held apart
            expected = {node_id: server.node_key(node_id) for node_id in above}
            expected[leaf.node_id] = leaf.key
            assert _held_path_keys(protocol, view) == expected, (seed, member)
            assert view.group_key == server.group_key
        if protocol == "oft":
            assert fold_oracle(tree) == server.group_key, seed


def _churn_scenario(protocol):
    """12 alternating batches of 8 from n=64, leave layouts in rotation."""
    return generate_churn_scenario(protocol, 64, 12, 11, (8,))


def _member_outputs(trace):
    """Everything a run makes on the member side, as one JSON-able record."""

    def views(group):
        return {
            member: {
                "keys": sorted(key.hex() for key in view.knowledge.key_bytes),
                "codes": sorted(view.knowledge.codes),
                "unwrap_misses": view.unwrap_misses,
            }
            for member, view in group.items()
        }

    return {
        "digest": trace.digest,
        "rows": trace.rows,
        "members": views(trace.members),
        "departed": views(trace.departed),
    }


# Frozen from the simulator before members reused any work across messages
# (folds, cipher objects): the member-side outputs must not depend on it.
FROZEN_MEMBER_OUTPUTS = {
    "ckcs": "e10164d1c835886c6943cec128b7dbfd1e7f8e436d085ec2faab2feca6be40dc",
    "lkh": "6bcc2ef18d44c0436852bed27fdb4a56c18b2b362194df5b4fa107abbcc3c661",
    "oft": "9ba2f76dbdf644a6b8115612c729f8135827177bc8b91ae69c6a1222a62516c4",
    "okd": "65737bd8e646ffc010c3a74d72e056a1cde20d88f7cf43709aa8f1e5360cbb8f",
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_member_outputs_match_frozen_hash(protocol):
    scenarios = [_churn_scenario(protocol)]
    scenarios += [generate_random_scenario(7_000 + i, protocol=protocol) for i in range(12)]
    blob = json.dumps([_member_outputs(run(s)) for s in scenarios], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FROZEN_MEMBER_OUTPUTS[protocol]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_members_learn_each_value_once(protocol):
    # Knowledge.learn_key appends without a lookup: the list holds one slot
    # per distinct value only because every member learns a value once
    scenarios = [_churn_scenario(protocol)]
    scenarios += [generate_random_scenario(7_100 + i, protocol=protocol) for i in range(24)]
    for scenario in scenarios:
        trace = run(scenario)
        for member, view in [*trace.members.items(), *trace.departed.items()]:
            keys = view.knowledge.keys
            assert len(keys) == len(set(keys)), (scenario.seed, member)


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_finished_trace_keeps_no_recipient_sets(protocol, monkeypatch):
    # members are looked up by the recipients themselves, so no delivery of
    # a tracked run ever builds its recipient set
    built = []

    def recipient_set(delivery):
        built.append(delivery)
        return frozenset(delivery.recipients)

    monkeypatch.setattr(core._Addressed, "recipient_set", property(recipient_set))
    trace = run(_churn_scenario(protocol))
    assert trace.deliveries
    assert built == []


def _server_state(server, rng):
    """Every node's place, key and code, the group key and the generator."""
    nodes = [
        (n.node_id, n.parent, tuple(n.children), n.key, n.code, n.member)
        for n in server.tree.nodes.values()
    ]
    return nodes, server.tree.root_id, server.member_ids, server.group_key, rng.getstate()


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_membership_rules_reject_through_handle_event_and_change_nothing(protocol):
    rng = Random(9)
    server = make_server(protocol, [f"u{i}" for i in range(1, 7)], rng)
    server.handle_event(MembershipEvent(1, "join", ("u7", "u8")), rng, CostMeter())
    server.handle_event(MembershipEvent(2, "leave", ("u2",)), rng, CostMeter())
    bad = [
        ("join", ("u9", "u3"), r"members already present: \['u3'\]"),
        ("leave", ("u3", "ghost"), r"cannot remove unknown members: \['ghost'\]"),
        ("leave", tuple(server.member_ids), "cannot remove every member"),
        ("join", ("u9", "u9"), "duplicate member ids in one event"),
        ("leave", ("u3", "u3"), "duplicate member ids in one event"),
        ("join", (), "event must name at least one member"),
        ("rekey", ("u9",), "unknown op 'rekey'"),
    ]
    for op, ids, message in bad:
        before = _server_state(server, rng)
        meter = CostMeter(wrap_log={})
        with pytest.raises(EventError, match=message):
            server.handle_event(MembershipEvent(3, op, ids), rng, meter)
        assert _server_state(server, rng) == before, (op, ids)
        assert meter == CostMeter()
        assert meter.wrap_log == {}


# Frozen before the trace's wrap log was written by each event's meter
# directly: the analyzer's fact order rests on the log's insertion order.
FROZEN_WRAP_LOGS = {
    "ckcs": "99ec80d73bf8ee549e48925c612fb473880f98b314c1c2f7aa44fe0d808937ef",
    "lkh": "f458879c8ddb1cf7aeee6531bcadc2ae2e42842da65306e03d95a482a6d6b235",
    "oft": "8f03516eb976c874dc71297032511bb33b4411962d32115a2f8c0d180131c6f5",
    "okd": "64f28affba074687cf03fd470fb377b5084f95e46b9fa4a9c9bd3c911abc6f11",
}


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_wrap_log_order_matches_frozen_hash(protocol):
    scenarios = [_churn_scenario(protocol)]
    scenarios += [generate_random_scenario(7_000 + i, protocol=protocol) for i in range(12)]
    digest = hashlib.sha256()
    for scenario in scenarios:
        digest.update(repr(list(run(scenario).wrap_log.items())).encode())
    assert digest.hexdigest() == FROZEN_WRAP_LOGS[protocol]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_untracked_meters_log_no_wraps(protocol, monkeypatch):
    rng = Random(3)
    server = make_server(protocol, [f"u{i}" for i in range(1, 9)], rng)
    meter = CostMeter()
    server.handle_event(MembershipEvent(1, "leave", ("u1", "u6")), rng, meter)
    assert meter.encrypt > 0 and meter.wrap_log is None
    untracked = run(_churn_scenario(protocol), track_members=False)
    assert all(record.cost.wrap_log is None for record in untracked.events)
    metered = []
    real_csv_row = harness.csv_row

    def spy(*args):
        metered.append(args[-1])
        return real_csv_row(*args)

    monkeypatch.setattr(harness, "csv_row", spy)
    rows, _ = sweep([protocol], [8], [2], ["join", "leave"], seed=1)
    assert len(metered) == len(rows) == 2
    assert all(m.encrypt > 0 and m.wrap_log is None for m in metered)


@pytest.mark.parametrize(
    "protocol, small_churn",
    [("ckcs", [200, 150, 218]), ("lkh", [0, 0, 0]), ("oft", [1420, 1026, 716]), ("okd", [204, 0, 98])],
)
def test_event_cost_carries_the_member_derivations(protocol, small_churn):
    text = f"init n=32 protocol={protocol} seed=3\njoin 4\nleave 3\njoin 2\n"
    assert [record.cost.member_derivations for record in run(parse_scenario(text)).events] == small_churn
    trace = run(_churn_scenario(protocol))
    counts = [record.cost.member_derivations for record in trace.events]
    assert counts == [row["member_derivations"] for row in trace.rows]
    if protocol != "lkh":  # lkh members only unwrap
        assert sum(counts) > 0
    untracked = run(_churn_scenario(protocol), track_members=False)
    assert [record.cost.member_derivations for record in untracked.events] == [0] * 12


def test_generated_scenarios_are_valid_and_seed_stable():
    a = generate_random_scenario(77)
    b = generate_random_scenario(77)
    assert a == b
    assert 1 <= a.n <= 16
    assert 1 <= len(a.steps) <= 8
    for step in a.steps:
        assert step.op in ("join", "leave")
        if step.layout is not None:
            assert step.layout in LAYOUTS


def test_churn_alternates_rotates_layouts_and_draws_sizes_from_its_seed():
    sizes = (1, 1, 2, 4, 8)
    scenario = generate_churn_scenario("lkh", 256, 13, 5, sizes)
    assert (scenario.protocol, scenario.n, scenario.seed) == ("lkh", 256, 5)
    assert [step.op for step in scenario.steps] == ["join", "leave"] * 6 + ["join"]
    assert [step.layout for step in scenario.steps if step.op == "leave"] == list(LAYOUTS) * 2
    assert {step.count for step in scenario.steps} <= set(sizes)
    draw = Random(5)
    assert [step.count for step in scenario.steps] == [draw.choice(sizes) for _ in range(13)]
    assert generate_churn_scenario("lkh", 256, 13, 5, sizes) == scenario
    assert {step.count for step in generate_churn_scenario("okd", 64, 9, 11, (3,)).steps} == {3}


def test_ckcs_churn_runs_out_of_root_codes_at_event_159():
    # the single-digit code floor blocks one prefix per lineage; this is
    # the limit a lineage policy for long horizons has to lift
    scenario = generate_churn_scenario("ckcs", 256, 200, 5, (1, 1, 2, 4, 8))
    with pytest.raises(CodeSpaceError, match="^event 159: no "):
        run(scenario, track_members=False)


# -- sweeps -------------------------------------------------------------------------


def test_sweep_grid_schema_and_notes():
    rows, notes = sweep(["ckcs", "lkh"], [4, 8], [2, 4, 8], ["join", "leave"], seed=0)
    expected_keys = set(CSV_COLUMNS) | set(SWEEP_EXTRA_COLUMNS)
    for row in rows:
        assert expected_keys <= set(row)
    # joins run at every cell; leaves skip m > n and trim m == n
    joins = [(r["protocol"], r["n"], r["m"]) for r in rows if r["op"] == "join"]
    assert ("ckcs", 4, 8) in joins and len(joins) == 12
    leaves = [(r["protocol"], r["n"], r["m"]) for r in rows if r["op"] == "leave"]
    assert ("ckcs", 4, 8) not in leaves  # skipped: more leavers than members
    assert ("ckcs", 4, 4) in leaves  # trimmed but reported under the requested m
    assert any("skipped, m > n" in note for note in notes)
    assert any("trimmed to m=3" in note for note in notes)
    assert any(note.startswith("ckcs leave n=8 m=2:") for note in notes)
    # a trim to m=0 leaves no batch: the cell is skipped, and the note says so
    rows, notes = sweep(["lkh"], [1, 2], [1, 2], ["leave"], seed=0)
    assert [(r["n"], r["m"]) for r in rows] == [(2, 1), (2, 2)]
    assert notes[:2] == [
        "lkh leave n=1 m=1: skipped; the group may not empty",
        "lkh leave n=1 m=2: skipped, m > n",
    ]


@pytest.mark.parametrize(
    "grid, fragment",
    [
        ((["lkh", "warp"], [8], [2], ["join"]), "unknown protocol 'warp'"),
        ((["lkh"], [8], [2], ["join", "frob"]), "unknown op 'frob'"),
        ((["lkh"], [8, 0], [2], ["join"]), "n must be at least 1"),
        ((["lkh"], [8], [2, -1], ["join"]), "m must be at least 1"),
    ],
)
def test_sweep_rejects_bad_grid_before_any_cell(monkeypatch, grid, fragment):
    def no_cell(*args, **kwargs):
        raise AssertionError("a cell ran before the grid was checked")

    monkeypatch.setattr(harness, "_sweep_cell", no_cell)
    with pytest.raises(ScenarioError, match=fragment):
        sweep(*grid, seed=1)
    with pytest.raises(ScenarioError, match="unknown layout 'sideways'"):
        sweep(["lkh"], [8], [2], ["leave"], seed=1, layout="sideways")


def test_sweep_rows_are_deterministic_apart_from_wall_time():
    def stripped(rows):
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]

    first, _ = sweep(["okd"], [8], [2], ["join", "leave"], seed=3)
    second, _ = sweep(["okd"], [8], [2], ["join", "leave"], seed=3)
    assert stripped(first) == stripped(second)


def test_sweep_layout_feeds_leaver_placement():
    rows, _ = sweep(["ckcs"], [8], [4], ["leave"], seed=1, layout="best-half")
    assert rows[0]["encrypt"] == 1  # a whole root subtree left: one cover node
    spread, _ = sweep(["ckcs"], [8], [3], ["leave"], seed=1, layout="worst-spread")
    assert spread[0]["encrypt"] == 4


@pytest.mark.parametrize("max_n", [2, 4, 9, 16])
def test_generated_groups_never_exceed_max_n(max_n):
    for seed in range(200):
        scenario = generate_random_scenario(seed, max_n=max_n)
        n = scenario.n
        assert 1 <= n <= max_n, (seed, scenario)
        for step in scenario.steps:
            n += step.count if step.op == "join" else -step.count
            assert 1 <= n <= max_n, (seed, scenario)



@pytest.mark.parametrize(
    "bounds,message",
    [({"max_n": 1}, "max_n must be at least 2, got 1"),
     ({"max_n": 0}, "max_n must be at least 2, got 0"),
     ({"max_events": 0}, "max_events must be at least 1, got 0")],
)
def test_generator_rejects_bounds_it_cannot_meet(bounds, message):
    with pytest.raises(ValueError, match=message):
        generate_random_scenario(5, **bounds)


def test_founding_group_draw_is_unchanged_from_max_n_16_up():
    for seed in range(200):
        founders = generate_random_scenario(seed, max_n=16).n
        assert generate_random_scenario(seed, max_n=64).n == founders
        assert generate_random_scenario(seed, max_n=1000).n == founders
