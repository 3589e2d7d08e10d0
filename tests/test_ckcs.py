"""Coded-tree protocol engine: join/leave walkthroughs, code lifecycle
(shortening, exhaustion, confidential reset), and server/member agreement."""

import re
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from churn import build_views, churn, deliver, members, random_steps
from ckcs_reference import reference_fresh_root_code
from gkms import tree as kt
from gkms.ckcs import CkcsServer
from gkms.core import CostMeter, EventError, MembershipEvent, Notice, RekeyMessage
from gkms.crypto import decode_code, derive, derive_with_code, unwrap
from gkms.harness import parse_scenario, run
from tree_reference import reference_subtree_members


def make(n=4, root_code="278", seed=1):
    rng = Random(seed)
    return CkcsServer(members(n), rng, root_code=root_code), rng


# -- initial state ----------------------------------------------------------------


def test_initial_tree_and_node_keys():
    server, _ = make(n=8, root_code="278")
    tree = server.tree
    assert tree.root.code == "278"
    assert server.member_ids == tuple(members(8))
    assert server.node_key(tree.root_id) == server.group_key
    for node in tree.walk():
        if node.is_leaf:
            assert server.node_key(node.node_id) == node.key
        elif node.node_id != tree.root_id:
            expected = derive_with_code(server.group_key, node.code)
            assert server.node_key(node.node_id) == expected
    # recomputed from the group key, so it changes when the key does
    middle_id = tree.root.children[0]
    before = server.node_key(middle_id)
    server._group_key = derive(server.group_key)
    assert server.node_key(middle_id) != before


def test_initial_members_agree_with_server():
    server, _ = make(n=8)
    views = build_views(server)
    for view in views.values():
        assert view.group_key == server.group_key
        for entry in view.path[:-1]:
            assert view.middle_keys[entry.node_id] == server.node_key(entry.node_id)


# -- join -------------------------------------------------------------------------


def test_join_batch_costs_and_structure():
    server, rng = make(n=4, root_code="278")
    old_key = server.group_key
    meter = CostMeter()
    event = MembershipEvent(1, "join", ("u5", "u6", "u7"))
    output = server.handle_event(event, rng, meter)
    cost = meter

    assert cost.keygen == 4  # one per joiner + one group-key refresh
    assert cost.encrypt == 3
    assert cost.multicast == 1 and cost.unicast == 0
    assert cost.payload_keys == 3
    assert cost.notices == 1
    assert output.stats["keygen_dedup"] == 4
    assert "code_resets" not in output.stats

    assert server.group_key == derive(old_key)  # one-way refresh
    assert server.tree.root.code == "27"
    top = server.tree.node(server.tree.root.children[1])
    assert re.fullmatch(r"27[0-9]", top.code) and top.code != "278"
    inner = [server.tree.node(c) for c in top.children if not server.tree.node(c).is_leaf]
    for node in inner:
        assert node.code.startswith(top.code) and len(node.code) == len(top.code) + 1

    (message,) = output.messages
    assert message.channel == "multicast"
    assert set(message.recipients) == {"u5", "u6", "u7"}
    assert [p.kek_id for p in message.payloads] == [
        server.tree.leaf_of(m).node_id for m in ("u5", "u6", "u7")
    ]
    (notice,) = output.notices
    assert set(notice.recipients) == set(members(4))
    assert len(output.bootstraps) == 3


def test_join_delivery_brings_everyone_to_the_new_key():
    server, rng = make(n=4, root_code="278")
    views = build_views(server)
    output = server.handle_event(MembershipEvent(1, "join", ("u5", "u6")), rng, CostMeter())
    for boot in output.bootstraps:
        views[boot.member_id] = server.build_member(boot)
    tally = CostMeter()
    deliver(views, output, tally)
    for member_id, view in views.items():
        assert view.group_key == server.group_key, member_id
        assert view.unwrap_misses == 0
        for entry in view.path[:-1]:
            assert view.middle_keys[entry.node_id] == server.node_key(entry.node_id)
    assert tally.member_derivations > 0  # old members stepped the key locally


def test_joiner_multicast_is_opaque_to_old_members():
    server, rng = make(n=4, root_code="278")
    views = build_views(server)
    output = server.handle_event(
        MembershipEvent(1, "join", ("u5",)), rng, CostMeter()
    )
    (message,) = output.messages
    assert set(message.recipients) == {"u5"}  # old members are not addressed
    old = views["u1"]
    with pytest.raises(EventError):
        old.apply_message(message, CostMeter())


# -- code lifecycle -----------------------------------------------------------------


def test_repeated_joins_shorten_then_reset_the_root_code():
    server, rng = make(n=4, root_code="27", seed=3)
    views = build_views(server)
    codes_before_reset = set(server.all_codes())

    # first join: "27" shortens to "2"
    output = server.handle_event(MembershipEvent(1, "join", ("u5",)), rng, CostMeter())
    for boot in output.bootstraps:
        views[boot.member_id] = server.build_member(boot)
    deliver(views, output)
    assert server.tree.root.code == "2"

    # second join: nothing left to drop, so a fresh confidential lineage starts
    meter = CostMeter()
    event = MembershipEvent(2, "join", ("u6",))
    output = server.handle_event(event, rng, meter)
    cost = meter
    fresh = server.tree.root.code
    assert len(fresh) == kt.ROOT_CODE_LEN
    for old in codes_before_reset:
        assert not fresh.startswith(old) and not old.startswith(fresh)

    assert output.stats["code_resets"] == 5  # one reset unicast per old member
    assert cost.unicast == 5
    assert cost.payload_keys == 1 + 5  # joiner key + five wrapped code blocks
    resets = [m for m in output.messages if m.aux["op"] == "code_reset"]
    assert len(resets) == 5
    for reset in resets:
        (recipient,) = reset.recipients
        leaf = server.tree.leaf_of(recipient)
        assert reset.payloads[0].kek_id == leaf.node_id
        block = unwrap(leaf.key, reset.payloads[0])
        assert decode_code(block.data) == fresh

    for boot in output.bootstraps:
        views[boot.member_id] = server.build_member(boot)
    deliver(views, output)
    for member_id, view in views.items():
        assert view.group_key == server.group_key, member_id
        assert view.path[-1].code == fresh
        assert view.unwrap_misses == 0
    assert fresh in server.all_codes()


def test_first_join_onto_single_member_group_starts_a_lineage():
    rng = Random(5)
    server = CkcsServer(["u1"], rng)
    views = build_views(server)
    assert server.tree.root.is_leaf  # no code yet
    output = server.handle_event(MembershipEvent(1, "join", ("u2",)), rng, CostMeter())
    assert len(server.tree.root.code) == kt.ROOT_CODE_LEN
    assert output.stats["code_resets"] == 1
    for boot in output.bootstraps:
        views[boot.member_id] = server.build_member(boot)
    deliver(views, output)
    assert views["u1"].group_key == server.group_key
    assert views["u2"].group_key == server.group_key


# Enough for any log below that leaves a code free: those leave at least one
# code in a hundred free, so the loop misses with odds of about 1e-9.
REFERENCE_ATTEMPTS = 2_000


@settings(max_examples=200, deadline=None)
@given(
    st.sets(st.sampled_from(kt.DIGITS)),
    st.lists(st.text(kt.DIGITS, min_size=1, max_size=10), max_size=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_fresh_root_code_matches_the_reference_loop(used_digits, used_codes, seed):
    server, _ = make(n=2)
    server._code_log = used_digits | set(used_codes)
    expected_rng = Random(seed)
    expected = reference_fresh_root_code(server._code_log, expected_rng, REFERENCE_ATTEMPTS)
    rng = Random(seed)
    if expected is None:
        state = rng.getstate()
        with pytest.raises(kt.CodeSpaceError, match="event 7: no 8-digit root code is left"):
            server._draw_root_code(rng, server._blocked_root_codes(7))
        assert rng.getstate() == state  # decided before drawing
    else:
        assert server._draw_root_code(rng, server._blocked_root_codes(7)) == expected
        assert rng.getstate() == expected_rng.getstate()


class _AlwaysNine:
    """Draws digit 9 every time, so the only free code is found at once."""

    def choice(self, digits):
        return "9"


def _all_but_eight_nines():
    """Every 8-digit code is blocked except 99999999, through codes of every
    length from 1 to 8 digits."""
    return {"9" * k + d for k in range(kt.ROOT_CODE_LEN) for d in kt.DIGITS[:-1]}


@pytest.mark.parametrize("last", [None, "99999999", "999999999", "9999999990"])
def test_fresh_root_code_space_is_used_up_exactly(last):
    server, _ = make(n=2)
    server._code_log = _all_but_eight_nines() | ({last} if last else set())
    if last is None:  # one code of 10**8 is still free
        assert server._draw_root_code(_AlwaysNine(), server._blocked_root_codes(3)) == "99999999"
    else:  # the last code itself, or a longer code below it, blocks it
        with pytest.raises(kt.CodeSpaceError, match="event 3"):
            server._blocked_root_codes(3)


def test_long_join_run_draws_the_reference_codes_at_the_join(monkeypatch):
    # the join decides exhaustion once and draws through _draw_root_code;
    # pinning that draw to the reference loop over the full code log must
    # change nothing either
    text = "init n=64 protocol=ckcs seed=1\n" + "join 1\n" * 79
    expected = run(parse_scenario(text), track_members=False)
    draws = []

    def reference_draw(self, rng, blocked):
        code = reference_fresh_root_code(self._code_log, rng, REFERENCE_ATTEMPTS)
        assert code is not None
        draws.append(code)
        return code

    monkeypatch.setattr(CkcsServer, "_draw_root_code", reference_draw)
    reference = run(parse_scenario(text), track_members=False)
    assert len(draws) == 9
    assert reference.digest == expected.digest
    assert reference.server.all_codes() == expected.server.all_codes()


def test_all_codes_accumulates_history():
    server, rng = make(n=4, root_code="278")
    before = set(server.all_codes())
    assert "278" in before
    server.handle_event(MembershipEvent(1, "join", ("u5", "u6")), rng, CostMeter())
    after = server.all_codes()
    assert before < after  # old codes are never forgotten
    assert "27" in after


# -- leave ------------------------------------------------------------------------


def test_leave_spread_uses_the_pre_removal_cover():
    server, rng = make(n=8, root_code="27")
    views = build_views(server)
    expected_cover = kt.compute_cover(server.tree, ["u1", "u4", "u8"])
    old_key = server.group_key

    meter = CostMeter()
    event = MembershipEvent(1, "leave", ("u1", "u4", "u8"))
    output = server.handle_event(event, rng, meter)
    cost = meter

    assert cost.keygen == 1  # a single fresh group key
    assert cost.encrypt == 4 and cost.payload_keys == 4
    assert cost.multicast == 1 and cost.unicast == 0
    assert output.stats["cover_size"] == 4

    (message,) = output.messages
    assert message.aux["cover"] == expected_cover
    assert [p.kek_id for p in message.payloads] == expected_cover
    cover_members = [reference_subtree_members(server.tree, i) for i in message.aux["cover"]]
    assert cover_members == [["u2"], ["u3"], ["u5", "u6"], ["u7"]]
    promoted = {p for p, _ in (tuple(pair) for pair in message.aux["promotions"])}
    assert promoted == {server.tree.leaf_of(m).node_id for m in ("u2", "u3", "u7")}

    assert server.group_key != derive(old_key)  # fresh draw, not a one-way step
    for leaver in ("u1", "u4", "u8"):
        views.pop(leaver)
    deliver(views, output)
    for member_id, view in views.items():
        assert view.group_key == server.group_key, member_id
        assert view.unwrap_misses == 0
        for entry in view.path[:-1]:
            assert view.middle_keys[entry.node_id] == server.node_key(entry.node_id)


def test_leave_of_a_whole_subtree_needs_one_encryption():
    server, rng = make(n=8, root_code="27")
    half = reference_subtree_members(server.tree, server.tree.root.children[0])
    other = server.tree.root.children[1]
    meter = CostMeter()
    event = MembershipEvent(1, "leave", tuple(half))
    output = server.handle_event(event, rng, meter)
    cost = meter
    assert cost.keygen == 1
    assert cost.encrypt == 1
    assert output.messages[0].aux["cover"] == [other]


def test_departed_member_cannot_open_the_leave_multicast():
    server, rng = make(n=4, root_code="278")
    views = build_views(server)
    leaver = views["u1"]
    output = server.handle_event(MembershipEvent(1, "leave", ("u1",)), rng, CostMeter())
    (message,) = output.messages
    assert "u1" not in message.recipients
    for payload in message.payloads:
        kek = leaver.middle_keys.get(payload.kek_id)
        if payload.kek_id == leaver.leaf_id:
            kek = leaver.individual_key
        if kek is None:
            continue
        # even a held key for a surviving node id no longer opens anything:
        # leaver-path nodes are never cover nodes
        with pytest.raises(Exception):
            unwrap(kek, payload)


# -- validation and message handling ------------------------------------------------


def test_event_validation_errors():
    server, rng = make(n=4)
    with pytest.raises(EventError):
        server.handle_event(MembershipEvent(1, "join", ("u1",)), rng, CostMeter())
    with pytest.raises(EventError):
        server.handle_event(MembershipEvent(1, "leave", ("nope",)), rng, CostMeter())
    with pytest.raises(EventError):
        server.handle_event(MembershipEvent(1, "leave", tuple(members(4))), rng, CostMeter())


def test_member_rejects_unknown_traffic():
    server, _ = make(n=4)
    views = build_views(server)
    view = views["u1"]
    bogus = RekeyMessage(
        channel="multicast",
        recipients=("u1",),
        payloads=(),
        aux={"op": "mystery"},
    )
    with pytest.raises(EventError):
        view.apply_message(bogus, CostMeter())
    with pytest.raises(EventError):
        view.apply_notice(Notice(kind="farewell", recipients=("u1",), aux={}), CostMeter())


def test_join_out_of_root_codes_changes_nothing():
    # the 80th single join from n=64 finds every fresh root code used up; it
    # must fail before drawing the joiner's key, leaving everything as it was
    rng = Random(1)
    server = CkcsServer(members(64), rng)
    for seq in range(1, 80):
        server.handle_event(MembershipEvent(seq, "join", (f"j{seq}",)), rng, CostMeter())
    rng_state = rng.getstate()
    dump, group_key = server.dump(), server.group_key
    member_ids, codes = server.member_ids, server.all_codes()
    meter = CostMeter(wrap_log={})
    with pytest.raises(kt.CodeSpaceError, match="event 80: no 8-digit root code is left"):
        server.handle_event(MembershipEvent(80, "join", ("j80",)), rng, meter)
    assert rng.getstate() == rng_state
    assert meter == CostMeter()
    assert meter.wrap_log == {}
    assert server.dump() == dump
    assert server.group_key == group_key
    assert server.member_ids == member_ids
    assert server.all_codes() == codes


def test_join_past_the_code_length_changes_nothing():
    # a 31-digit root code shortens to 30, and a binary subtree over 16
    # joiners needs 4 digits below that, 34 in all: the join must fail before
    # drawing any key, leaving everything as it was; 4 joiners fit in 32
    rng = Random(1)
    server = CkcsServer(members(4), rng, root_code="1" * 31)
    rng_state = rng.getstate()
    dump, group_key = server.dump(), server.group_key
    member_ids, codes = server.member_ids, server.all_codes()
    meter = CostMeter(wrap_log={})
    joiners = tuple(f"j{k}" for k in range(1, 17))
    with pytest.raises(kt.CodeSpaceError, match="event 1: a join of 16 needs codes of 34 digits"):
        server.handle_event(MembershipEvent(1, "join", joiners), rng, meter)
    assert rng.getstate() == rng_state
    assert meter == CostMeter()
    assert meter.wrap_log == {}
    assert server.dump() == dump
    assert server.group_key == group_key
    assert server.member_ids == member_ids
    assert server.all_codes() == codes
    server.handle_event(MembershipEvent(1, "join", joiners[:4]), rng, CostMeter())
    assert server.member_count == 8
    assert max(len(code) for code in server.all_codes()) == 32


@pytest.mark.parametrize("root_len", [20, 26, 29, 31, 32])
def test_join_fails_exactly_when_the_joiners_codes_overflow(root_len):
    # a join of m that runs codes its deepest new node with exactly the
    # predicted length, the new root's code plus the joiners' subtree
    # height; a join whose prediction passes 32 digits fails untouched
    for m in (1, 2, 3, 5, 8, 9, 16, 17, 33):
        server = CkcsServer(members(2), Random(m), root_code="7" * root_len)
        event = MembershipEvent(1, "join", tuple(f"j{k}" for k in range(m)))
        predicted = root_len - 1 + (m - 1).bit_length()
        rng = Random(0)
        if predicted > 32:
            with pytest.raises(kt.CodeSpaceError, match=f"needs codes of {predicted} digits"):
                server.handle_event(event, rng, CostMeter())
            assert rng.getstate() == Random(0).getstate()
        else:
            server.handle_event(event, rng, CostMeter())
            assert max(len(code) for code in server.all_codes()) == max(predicted, root_len)



# -- codes and per-event costs under churn ----------------------------------------


def test_codes_of_separate_subtrees_stay_prefix_disjoint_under_churn():
    # an ancestor's code need not prefix its descendants' (a fresh lineage
    # replaces the root code only), but the driver finds no two nodes in
    # separate subtrees holding codes where one prefixes the other
    pairs = traces = 0
    for seed in range(150):
        plan = Random(f"ckcs-codes/{seed}")
        n = plan.randint(2, 32)
        counts = churn("ckcs", n, random_steps(plan, plan.randint(1, 60), 8), seed, track=False)
        pairs += counts["code_pairs"]
        traces += not counts["code_space_ends"]
    assert traces > 100 and pairs > 50_000, (traces, pairs)


def test_event_costs_follow_the_pre_event_tree_under_churn():
    # the driver predicts each event's six counts from the tree before it,
    # and after each event checks that two nodes in separate subtrees never
    # hold codes where one prefixes the other (an ancestor's code need not
    # prefix its descendants': a fresh lineage replaces the root code only)
    total = Counter()
    for seed in range(210):
        plan = Random(f"ckcs-churn/{seed}")
        n = plan.randint(1, 32)
        root_code = plan.choice([None, "5", "27", "278"]) if n > 1 else None
        total += churn("ckcs", n, random_steps(plan, 36, 8), seed, root_code, track=False)
    assert total["events"] > 7000 and total["code_resets"] > 200, total
    assert total["code_pairs"] > 50_000, total


def test_a_churn_that_runs_out_of_codes_ends_with_nothing_changed():
    # the driver checks that the failing event left the server as it was:
    # the 80th single join from n=64 finds no fresh root code, and a join
    # of 16 below a 31-digit root code needs codes of 34 digits
    out_of_roots = churn("ckcs", 64, [("join", 1, "random")] * 90, seed=1)
    assert (out_of_roots["events"], out_of_roots["code_space_ends"]) == (79, 1)
    too_long = churn("ckcs", 4, [("join", 16, "random")], seed=1, root_code="1" * 31)
    assert (too_long["events"], too_long["code_space_ends"]) == (0, 1)
