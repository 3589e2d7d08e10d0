"""Initial server set-up: the one-pass build, codes and keys against the
plain reference forms in ``tree_reference.py``.

Every node (id, parent, children order, key, code, member), the member and
open-slot bookkeeping, CKCS's code log and group key, and the generator's
state after construction must equal the reference's, so every sweep row,
trace digest and audit verdict that follows is unchanged.
"""

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkms import tree as kt
from gkms.core import CostMeter
from gkms.crypto import KEY_LEN, random_key, random_keys
from gkms.harness import make_server
from tree_reference import REFERENCE_SETUPS, reference_assign_codes, reference_build_balanced


def members(n: int) -> list[str]:
    return [f"u{i}" for i in range(1, n + 1)]


def snapshot(tree: kt.KeyTree):
    return (
        [
            (i, n.node_id, n.parent, list(n.children), n.key, n.code, n.member)
            for i, n in tree.nodes.items()
        ],
        list(tree._member_leaf.items()),
        set(tree._open_slots),
        tree._next_id,
        tree.root_id,
    )


def assert_same_inserts(tree, reference, count=5):
    """The first inserts after a fresh build land where the reference's do."""
    for k in range(count):
        got = kt.insert_leaf(tree, f"j{k}")
        want = kt.insert_leaf(reference, f"j{k}")
        assert got == want
    assert snapshot(tree) == snapshot(reference)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    arity=st.integers(min_value=2, max_value=4),
    codes=st.sampled_from(["none", "drawn", "given"]),
    root_code=st.text(alphabet=kt.DIGITS, min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_build_matches_reference(n, arity, codes, root_code, seed):
    assume(not (n == 1 and codes == "given"))  # a bare leaf takes no code
    rng, reference_rng = Random(seed), Random(seed)
    tree = kt.build_balanced(members(n), arity)
    reference = reference_build_balanced(members(n), arity)
    if codes != "none":
        given_code = root_code if codes == "given" else None
        kt.assign_codes(tree, rng, given_code)
        reference_assign_codes(reference, reference_rng, given_code)
    assert snapshot(tree) == snapshot(reference)
    assert rng.getstate() == reference_rng.getstate()
    assert_same_inserts(tree, reference)


def assert_same_setup(protocol, n, seed, root_code=None):
    extra = (root_code,) if protocol == "ckcs" else ()
    rng, reference_rng = Random(seed), Random(seed)
    server = make_server(protocol, members(n), rng, *extra)
    reference = REFERENCE_SETUPS[protocol](members(n), reference_rng, *extra)
    assert snapshot(server.tree) == snapshot(reference.tree)
    assert server.group_key == reference.group_key
    if protocol == "ckcs":
        assert server._code_log == reference.code_log
    assert rng.getstate() == reference_rng.getstate()
    return server, reference


@settings(max_examples=60, deadline=None)
@given(
    protocol=st.sampled_from(sorted(REFERENCE_SETUPS)),
    n=st.integers(min_value=1, max_value=300),
    seed=st.integers(min_value=0, max_value=2**32),
    root_code=st.none() | st.text(alphabet=kt.DIGITS, min_size=1, max_size=8),
)
def test_server_setup_matches_reference(protocol, n, seed, root_code):
    # a one-member ckcs group has no node to take a root code: the server
    # raises TreeError (tests/test_tree.py), the reference ignores the code
    assume(not (protocol == "ckcs" and n == 1 and root_code is not None))
    assert_same_setup(protocol, n, seed, root_code if protocol == "ckcs" else None)


@pytest.mark.parametrize("n", [1024, 4097])
@pytest.mark.parametrize(
    "protocol,root_code",
    [("ckcs", None), ("ckcs", "27"), ("lkh", None), ("oft", None), ("okd", None)],
)
def test_server_setup_matches_reference_at_scale(protocol, root_code, n):
    server, reference = assert_same_setup(protocol, n, seed=n + 5, root_code=root_code)
    assert_same_inserts(server.tree, reference.tree)


@pytest.mark.parametrize("count", [1, 2, 3, 7, 64, 1025])
def test_one_randbytes_call_equals_per_key_draws(count):
    why = (
        "crypto.random_keys draws every server's set-up keys (CkcsServer, "
        "LkhServer and OftServer __init__) in one randbytes call; on this "
        "interpreter that no longer equals one randbytes(KEY_LEN) per key, so "
        "set-up keys, sweep rows and trace digests would change"
    )
    one, many = Random(count), Random(count)
    joined = one.randbytes(KEY_LEN * count)
    split = b"".join(many.randbytes(KEY_LEN) for _ in range(count))
    assert joined == split, why
    assert one.getstate() == many.getstate(), why

    one, many = Random(count), Random(count)
    meter, per_key_meter = CostMeter(), CostMeter()
    keys = random_keys(one, meter, count)
    assert keys == [random_key(many, per_key_meter) for _ in range(count)], why
    assert one.getstate() == many.getstate(), why
    assert meter.keygen == per_key_meter.keygen == count


@pytest.mark.parametrize("n,arity", [(1, 2), (2, 3), (5, 2), (7, 3), (300, 2), (1000, 3), (4097, 2)])
def test_fresh_build_ids_follow_walk_preorder(n, arity):
    tree = kt.build_balanced(members(n), arity)
    assert list(tree.nodes) == [node.node_id for node in tree.walk()], (
        "the set-up loops of CkcsServer, LkhServer and OftServer __init__ "
        "iterate tree.nodes as preorder (OFT's fold relies on children "
        "following their parent); build_balanced no longer hands out ids in "
        "walk() order"
    )
    assert list(tree.nodes) == list(range(len(tree.nodes)))
