"""The member derivation table: one event's derivations and unwraps, written
by members only.

Every protocol server owns a ``derivations`` dict that ``build_member``
hands to each member it builds.  Members look a one-way derivation or an
unwrap up there under its full inputs before they compute it; the server
empties the table at the start of every ``handle_event`` and never reads or
writes an entry.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkms import tree as kt
from gkms.baselines.lkh import LkhMember
from gkms.core import Bootstrap, CostMeter, MembershipEvent, Notice, RekeyMessage
from gkms.crypto import SymKey, UnwrapError, WrappedKey, blind, derive, derive_with_code, mix, unwrap, wrap
from gkms.harness import LAYOUTS, ScenarioError, generate_random_scenario, leaver_layout, make_server, run

DERIVING = ("ckcs", "okd", "oft")
PROTOCOLS = (*DERIVING, "lkh")


class StampedTable(dict):
    """A derivation table that stamps every entry with the event that wrote
    it and counts what happens to it while the server handles an event."""

    def __init__(self) -> None:
        super().__init__()
        self.event = 0
        self.serving = False
        self.stamps: dict = {}
        self.server_touches = 0
        self.clears = 0

    def __setitem__(self, step, value) -> None:
        self.server_touches += self.serving
        self.stamps[step] = self.event
        super().__setitem__(step, value)

    def get(self, step, default=None):
        self.server_touches += self.serving
        return super().get(step, default)

    def __getitem__(self, step):
        self.server_touches += self.serving
        return super().__getitem__(step)

    def __contains__(self, step) -> bool:
        self.server_touches += self.serving
        return super().__contains__(step)

    def clear(self) -> None:
        self.clears += 1
        super().clear()


def recompute(protocol: str, step) -> SymKey:
    """The derivation or unwrap a table entry stands for, computed from its
    key alone."""
    if isinstance(step, tuple) and step[0] == "unwrap":
        _, kek, ciphertext = step
        return unwrap(SymKey(kek), WrappedKey(ciphertext, "entry"))
    assert protocol != "lkh"  # lkh members derive nothing
    if protocol == "oft":
        below, blinded, side = step
        assert side in (0, 1)
        mine, theirs = blind(SymKey(below)), SymKey(blinded)
        return mix(theirs, mine) if side == 0 else mix(mine, theirs)
    if protocol == "ckcs" and isinstance(step, tuple):
        group_key, code = step
        return derive_with_code(SymKey(group_key), code)
    assert isinstance(step, bytes)
    return derive(SymKey(step))


def drive(protocol: str, n: int, steps, seed: int, build_members: bool = True):
    """Run ``steps`` through ``handle_event`` on a server whose table is a
    StampedTable; tracked members get every delivery, as ``harness.run``
    hands them out.  Yields the server and its table after every event."""
    rng = Random(seed)
    server = make_server(protocol, [f"u{i}" for i in range(1, n + 1)], rng)
    table = server.derivations = StampedTable()
    views = {}
    if build_members:
        views = {b.member_id: server.build_member(b) for b in server.initial_bootstraps()}
    joined = n
    for seq, (op, m, layout) in enumerate(steps, start=1):
        if op == "join":
            ids = [f"u{joined + k}" for k in range(1, m + 1)]
            joined += m
        else:
            m = min(m, server.member_count - 1)
            if m < 1:
                continue
            try:
                ids = leaver_layout(server.tree, m, layout, rng)
            except ScenarioError:  # best-half needs a root subtree of m members
                ids = leaver_layout(server.tree, m, "random", rng)
        table.event, table.serving = seq, True
        clears = table.clears
        try:
            output = server.handle_event(MembershipEvent(seq, op, tuple(ids)), rng, CostMeter())
        except kt.CodeSpaceError:
            return  # ckcs ran out of root codes; the event changed nothing
        finally:
            table.serving = False
        assert table.clears == clears + 1
        if build_members:
            for boot in output.bootstraps:
                views[boot.member_id] = server.build_member(boot)
            for gone in ids if op == "leave" else ():
                views.pop(gone)
            meter = CostMeter()
            for delivery in output.deliveries:
                for view in filter(None, map(views.get, delivery.recipients)):
                    if isinstance(delivery, Notice):
                        view.apply_notice(delivery, meter)
                    else:
                        view.apply_message(delivery, meter)
            for member_id, view in views.items():
                assert view.group_key == server.group_key, member_id
                assert view.unwrap_misses == 0, member_id
        yield server, table


churn_steps = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]), st.integers(1, 6), st.sampled_from(LAYOUTS)),
    min_size=1,
    max_size=8,
)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), steps=churn_steps, seed=st.integers(0, 2**16))
@example(n=1, steps=[("join", 1, "random"), ("leave", 1, "random")], seed=0)
@example(n=9, steps=[("join", 6, "random"), ("join", 5, "random"), ("leave", 4, "worst-spread")], seed=3)
def test_table_holds_only_this_events_true_derivations(protocol, n, steps, seed):
    for _, table in drive(protocol, n, steps, seed):
        assert table.server_touches == 0  # the server never reads or writes an entry
        for step, value in table.items():
            assert table.stamps[step] == table.event  # written during this event
            assert value == recompute(protocol, step)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_server_without_members_leaves_its_table_empty(protocol):
    steps = [("join", 3, "random"), ("leave", 2, "worst-spread"), ("join", 1, "random")] * 3
    for _, table in drive(protocol, 16, steps, seed=5, build_members=False):
        assert table.server_touches == 0
        assert len(table) == 0
    trace = run(generate_random_scenario(31, protocol=protocol), track_members=False)
    assert trace.server.derivations == {}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_traces_never_share_a_table(protocol):
    scenario = generate_random_scenario(17, protocol=protocol)
    first, second = run(scenario), run(scenario)
    assert first.server.derivations is not second.server.derivations
    for trace in (first, second):
        for view in [*trace.members.values(), *trace.departed.values()]:
            assert view.derivations is trace.server.derivations
    assert first.digest == second.digest


def test_lkh_has_no_member_derivations():
    # lkh members only unwrap, so every entry of the table is an unwrap
    trace = run(generate_random_scenario(17, protocol="lkh"))
    assert trace.server.derivations
    for step in trace.server.derivations:
        assert isinstance(step, tuple) and step[0] == "unwrap"


def test_oft_fold_step_is_keyed_by_its_side():
    # two folds over the same keys and blinds but opposite sides are two
    # different steps: the second must not read the first one's entries
    server = make_server("oft", [f"u{i}" for i in range(1, 9)], Random(4))
    view = server.build_member(server.initial_bootstraps()[0])
    assert server.derivations  # the founding fold filled the table
    view.sides = [1 - side for side in view.sides]
    view._dirty = 0
    view._fold(CostMeter())
    key, expected = view.individual_key, []
    for blinded, side in zip(view.blinds, view.sides, strict=True):
        key = mix(blinded, blind(key)) if side == 0 else mix(blind(key), blinded)
        expected.append(key)
    assert view.path == expected


# -- the shared unwrap ------------------------------------------------------------

A, B, ROOT = (SymKey(bytes([i]) * 32) for i in (10, 11, 1))


def lkh_member(member_id: str, leaf_key: SymKey, derivations: dict) -> LkhMember:
    """A member at leaf 10 under root 1, sharing ``derivations``."""
    boot = Bootstrap(member_id=member_id, individual_key=leaf_key, leaf_id=10, extra={"chain": [10, 1]})
    return LkhMember(boot, derivations)


def root_rekey(kek: SymKey, kek_id: int = 10) -> RekeyMessage:
    """The root key wrapped under ``kek``, addressed to u1 and u2."""
    payload = wrap(kek, ROOT, CostMeter(), kek_id=kek_id)
    return RekeyMessage("multicast", ("u1", "u2"), (payload,), {"targets": [1]})


def test_an_entry_under_one_kek_never_opens_for_another():
    table: dict = {}
    message = root_rekey(A)
    holder = lkh_member("u1", A, table)
    holder.apply_message(message, CostMeter())
    assert holder.group_key == ROOT
    assert table == {("unwrap", A.data, message.payloads[0].ciphertext): ROOT}
    # a member presenting KEK B finds no entry and makes its own, failing, decrypt
    other = lkh_member("u2", B, table)
    with pytest.raises(UnwrapError):
        other.apply_message(message, CostMeter())
    assert other.group_key is None
    assert ROOT.data not in other.knowledge.key_bytes
    assert len(table) == 1


def test_a_failed_unwrap_leaves_no_entry():
    table: dict = {}
    member = lkh_member("u2", B, table)
    with pytest.raises(UnwrapError):
        member.apply_message(root_rekey(A), CostMeter())
    assert table == {}
    with pytest.raises(UnwrapError):
        member._unwrap(B, root_rekey(A).payloads[0])
    assert table == {}


def test_a_member_with_nothing_to_open_misses_whatever_the_table_holds():
    # the payload is keyed under node 7, off the member's path; the table
    # holds its unwrap under the true KEK and under the member's own key
    message = root_rekey(A, kek_id=7)
    ciphertext = message.payloads[0].ciphertext
    table = {("unwrap", A.data, ciphertext): ROOT, ("unwrap", B.data, ciphertext): ROOT}
    member = lkh_member("u2", B, table)
    member.apply_message(message, CostMeter())
    assert member.unwrap_misses == 1
    assert member.group_key is None
    assert ROOT.data not in member.knowledge.key_bytes
