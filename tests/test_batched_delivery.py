"""One ``MemberView.deliver`` call per delivery leaves every member as the
member-by-member ``apply_message``/``apply_notice`` calls do.

The batched entry parses a delivery once and then loops over its
recipients, so a value parsed from one recipient's state, or an iterator
the first recipient uses up, would reach the rest.  Each plan runs twice
from one seed, once each way, and after every event the two sides must hold
the same members in the same order, each with the same state (path, keys,
blinds, codes), group key, knowledge list in learning order and unwrap
misses, and the event must count the same member derivations and fill the
derivation table alike.
"""

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from churn import PROTOCOLS, STEPS, build_views, deliver, deliver_one_by_one, members, plan_events
from gkms.core import CostMeter
from gkms.harness import make_server


def _state(view):
    """Everything a member holds, its knowledge as ordered lists."""
    state = {name: value for name, value in vars(view).items() if name not in ("derivations", "knowledge")}
    return state, list(view.knowledge.keys), sorted(view.knowledge.codes)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), steps=STEPS, seed=st.integers(0, 2**16))
@example(n=9, steps=[("join", 6, "random"), ("join", 5, "random"), ("leave", 4, "worst-spread")], seed=3)
@example(
    n=12,
    steps=[("leave", 3, "random"), ("join", 4, "random"), ("leave", 5, "best-half"), ("leave", 2, "worst-spread")],
    seed=7,
)
def test_one_call_per_delivery_matches_member_by_member(protocol, n, steps, seed):
    sides = []
    for hand_over in (deliver, deliver_one_by_one):
        rng = Random(seed)
        server = make_server(protocol, members(n), rng)
        sides.append((hand_over, rng, server, build_views(server)))
    plans = [plan_events(server, n, steps, rng) for _, rng, server, _ in sides]
    for batched_event, single_event in zip(*plans):
        assert batched_event == single_event
        counted = []
        for (hand_over, rng, server, views), event in zip(sides, (batched_event, single_event)):
            output = server.handle_event(event, rng, CostMeter())
            for boot in output.bootstraps:
                views[boot.member_id] = server.build_member(boot)
            for gone in event.member_ids if event.op == "leave" else ():
                views.pop(gone)
            meter = CostMeter()
            hand_over(views, output, meter)
            counted.append(meter.member_derivations)
        (_, _, batched_server, batched), (_, _, single_server, single) = sides
        seq = batched_event.seq
        assert counted[0] == counted[1], seq
        assert list(batched) == list(single), seq
        for member_id, view in batched.items():
            assert _state(view) == _state(single[member_id]), (seq, member_id)
        assert list(batched_server.derivations.items()) == list(single_server.derivations.items()), seq
