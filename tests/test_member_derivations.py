"""The member derivation table: one event's derivations and unwraps, written
by members only.

Every protocol server owns a ``derivations`` dict that ``build_member``
hands to each member it builds.  Members look a one-way derivation or an
unwrap up there under its full inputs before they compute it; the server
empties the table at the start of every ``handle_event`` and never reads or
writes an entry.  The churn driver checks this after every event of its
plans (``churn.py``, invariant (h)); the first test feeds it small groups,
the others pin single cases.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from churn import PROTOCOLS, SMALL_STEPS, churn
from gkms.baselines.lkh import LkhMember
from gkms.core import Bootstrap, CostMeter, RekeyMessage
from gkms.crypto import SymKey, UnwrapError, blind, mix, wrap
from gkms.harness import generate_random_scenario, make_server, run


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 12), steps=SMALL_STEPS, seed=st.integers(0, 2**16))
@example(n=1, steps=[("join", 1, "random"), ("leave", 1, "random")], seed=0)
@example(n=9, steps=[("join", 6, "random"), ("join", 5, "random"), ("leave", 4, "worst-spread")], seed=3)
def test_table_holds_only_this_events_true_derivations(protocol, n, steps, seed):
    # the driver checks after every event that the server never touched the
    # table and that every entry is this event's and true to its inputs
    churn(protocol, n, steps, seed)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_server_without_members_leaves_its_table_empty(protocol):
    # the driver checks that the table stays empty after every event
    steps = [("join", 3, "random"), ("leave", 2, "worst-spread"), ("join", 1, "random")] * 3
    assert churn(protocol, 16, steps, seed=5, track=False)["events"] == 9
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
