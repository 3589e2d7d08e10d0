"""The member derivation table: one event's derivations, written by members only.

Every protocol server owns a ``derivations`` dict that ``build_member``
hands to each member it builds.  Members look a one-way derivation up there
under its full inputs before they hash; the server empties the table at the
start of every ``handle_event`` and never reads or writes an entry.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkms import tree as kt
from gkms.core import CostMeter, MembershipEvent, Notice
from gkms.crypto import SymKey, blind, derive, derive_with_code, mix
from gkms.harness import LAYOUTS, ScenarioError, generate_random_scenario, leaver_layout, make_server, run

DERIVING = ("ckcs", "okd", "oft")


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
    """The derivation a table entry stands for, computed from its key alone."""
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
        views = {b.member_id: server.build_member(b, {}) for b in server.initial_bootstraps()}
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
                views[boot.member_id] = server.build_member(boot, {})
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


@pytest.mark.parametrize("protocol", DERIVING)
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


@pytest.mark.parametrize("protocol", [*DERIVING, "lkh"])
def test_a_server_without_members_leaves_its_table_empty(protocol):
    steps = [("join", 3, "random"), ("leave", 2, "worst-spread"), ("join", 1, "random")] * 3
    for _, table in drive(protocol, 16, steps, seed=5, build_members=False):
        assert table.server_touches == 0
        assert len(table) == 0
    trace = run(generate_random_scenario(31, protocol=protocol), track_members=False)
    assert trace.server.derivations == {}


@pytest.mark.parametrize("protocol", DERIVING)
def test_traces_never_share_a_table(protocol):
    scenario = generate_random_scenario(17, protocol=protocol)
    first, second = run(scenario), run(scenario)
    assert first.server.derivations is not second.server.derivations
    for trace in (first, second):
        for view in [*trace.members.values(), *trace.departed.values()]:
            assert view.derivations is trace.server.derivations
    assert first.digest == second.digest


def test_lkh_has_no_member_derivations():
    trace = run(generate_random_scenario(17, protocol="lkh"))
    assert trace.server.derivations == {}


def test_oft_fold_step_is_keyed_by_its_side():
    # two folds over the same keys and blinds but opposite sides are two
    # different steps: the second must not read the first one's entries
    server = make_server("oft", [f"u{i}" for i in range(1, 9)], Random(4))
    view = server.build_member(server.initial_bootstraps()[0], {})
    assert server.derivations  # the founding fold filled the table
    view.sides = [1 - side for side in view.sides]
    view._dirty = 0
    view._fold(CostMeter())
    key, expected = view.individual_key, []
    for blinded, side in zip(view.blinds, view.sides, strict=True):
        key = mix(blinded, blind(key)) if side == 0 else mix(blind(key), blinded)
        expected.append(key)
    assert view.path == expected
