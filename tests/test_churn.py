"""Every per-event invariant of ``churn.py`` on hypothesis churn plans."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from churn import PROTOCOLS, STEPS, churn


@pytest.mark.parametrize("protocol", PROTOCOLS)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), steps=STEPS, seed=st.integers(0, 2**16))
@example(n=1, steps=[("join", 1, "random"), ("leave", 1, "random")], seed=0)
@example(n=3, steps=[("leave", 1, "random")], seed=0)
@example(
    n=6,
    steps=[("join", 2, "random"), ("leave", 1, "random"), ("join", 1, "random"), ("leave", 2, "random")],
    seed=5,
)
@example(n=9, steps=[("join", 6, "random"), ("join", 5, "random"), ("leave", 4, "worst-spread")], seed=3)
@example(
    n=2,
    steps=[("join", 6, "random"), ("leave", 6, "worst-spread"), ("leave", 1, "best-half"), ("join", 2, "random")],
    seed=1,
)
def test_every_invariant_holds_under_churn(protocol, n, steps, seed):
    churn(protocol, n, steps, seed)
