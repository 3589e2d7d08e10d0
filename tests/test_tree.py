"""Key tree structure: code assignment, balanced builds, mutation operations,
and the cover computation checked against an exhaustive oracle."""

from itertools import combinations
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkms import tree as kt
from gkms.crypto import KEY_LEN, SymKey
from tree_reference import (
    assert_insert_matches_reference,
    cover_oracle,
    reference_assign_codes_below,
    reference_attach_subtree,
    reference_subtree_members,
)

DIGIT = st.sampled_from(kt.DIGITS)
CODES = st.text(alphabet=kt.DIGITS, min_size=1, max_size=12)


def members(n: int) -> list[str]:
    return [f"u{i}" for i in range(1, n + 1)]


# -- position codes ---------------------------------------------------------------


def test_parent_code_drops_last_digit():
    assert kt.parent_code("278") == "27"
    assert kt.parent_code("27") == "2"


def test_parent_code_needs_two_digits():
    with pytest.raises(kt.CodeSpaceError):
        kt.parent_code("7")


@given(CODES, st.sets(DIGIT, max_size=9), st.data())
def test_child_code_extends_and_avoids_used_digits(parent, used_digits, data):
    # a parent of k internal children, some of them coded first, the way an
    # attach leaves the old root coded; assign_codes_below draws the rest
    k = len(used_digits) + data.draw(
        st.integers(min_value=max(1, 2 - len(used_digits)), max_value=10 - len(used_digits))
    )
    tree = kt.build_balanced(members(2 * k), k)
    tree.root.code = parent
    kids = [tree.nodes[c] for c in tree.root.children]
    coded = data.draw(st.permutations(range(k)))[: len(used_digits)]
    for index, digit in zip(coded, sorted(used_digits)):
        kids[index].code = parent + digit
    before = {kid.node_id: kid.code for kid in kids if kid.code is not None}
    kt.assign_codes_below(tree, tree.root_id, Random(data.draw(st.integers(0, 2**32))))
    drawn = [kid.code for kid in kids if kid.node_id not in before]
    assert {kid.node_id: kid.code for kid in kids if kid.node_id in before} == before
    for code in drawn:
        assert code[:-1] == parent
        assert len(code) == len(parent) + 1
        assert code[-1] not in used_digits
        assert kt.parent_code(code) == parent
    assert len({kid.code[-1] for kid in kids}) == k


def test_child_code_exhaustion():
    # the root's eleventh internal child finds no free digit
    with pytest.raises(kt.CodeSpaceError, match="all sibling digits under code"):
        kt.assign_codes(kt.build_balanced(members(22), 11), Random(0))
    # a root code of KEY_LEN digits leaves no room for a child digit
    with pytest.raises(kt.CodeSpaceError, match="has no room for a child digit"):
        kt.assign_codes(kt.build_balanced(members(4), 2), Random(0), "1" * KEY_LEN)


# -- balanced builds ----------------------------------------------------------------


def test_single_member_tree_is_a_bare_leaf():
    tree = kt.build_balanced(["solo"], arity=2)
    assert tree.root.is_leaf
    assert tree.root.member == "solo"
    assert tree.member_count == 1
    assert tree.height() == 0


@pytest.mark.parametrize(
    "n,arity,height",
    [(2, 2, 1), (4, 2, 2), (5, 2, 3), (8, 2, 3), (9, 3, 2), (10, 3, 3), (16, 2, 4)],
)
def test_balanced_height(n, arity, height):
    tree = kt.build_balanced(members(n), arity=arity)
    assert tree.member_count == n
    assert tree.height() == height
    assert tree.members == tuple(members(n))  # leaf order preserves input order
    for node in tree.walk():
        if not node.is_leaf:
            assert 2 <= len(node.children) <= arity


def test_build_rejects_bad_input():
    with pytest.raises(kt.TreeError):
        kt.build_balanced([], arity=2)
    with pytest.raises(kt.TreeError):
        kt.build_balanced(["a", "a"], arity=2)
    with pytest.raises(kt.TreeError):
        kt.KeyTree(arity=1)


def coded_tree(n: int, seed: int, root_code: str | None = None) -> kt.KeyTree:
    tree = kt.build_balanced(members(n), arity=2)
    kt.assign_codes(tree, Random(seed), root_code)
    return tree


def test_coded_build_assigns_extension_codes():
    tree = coded_tree(8, 3, "278")
    assert tree.root.code == "278"
    for node in tree.walk():
        if node.is_leaf:
            assert node.code is None
        elif node.node_id != tree.root_id:
            parent = tree.node(node.parent)
            assert node.code is not None and parent.code is not None
            assert kt.parent_code(node.code) == parent.code
    for node in tree.walk():  # sibling codes stay distinct
        internal_children = [
            tree.node(c).code for c in node.children if tree.node(c).code is not None
        ]
        assert len(set(internal_children)) == len(internal_children)


def test_coded_build_via_flag_draws_root_code():
    tree = coded_tree(4, 9)
    assert tree.root.code is not None
    assert len(tree.root.code) == kt.ROOT_CODE_LEN


def test_one_member_tree_takes_no_root_code():
    # the bare leaf carries no code, so a given root code would be dropped
    tree = kt.build_balanced(["solo"], arity=2)
    with pytest.raises(kt.TreeError, match="one-member tree"):
        kt.assign_codes(tree, Random(0), root_code="12")
    assert tree.root.code is None
    rng = Random(0)
    kt.assign_codes(tree, rng)  # without one, nothing is coded or drawn
    assert tree.root.code is None and rng.getstate() == Random(0).getstate()


def test_assign_codes_rejects_malformed_root_code():
    tree = kt.build_balanced(members(4), arity=2)
    with pytest.raises(kt.TreeError):
        kt.assign_codes(tree, Random(0), root_code="12a")


def test_root_code_must_be_ascii_digits():
    arabic_indic = "\u0661\u0662\u0663\u0664"  # str.isdigit accepts these
    assert arabic_indic.isdigit()
    with pytest.raises(kt.TreeError, match="invalid node code"):
        coded_tree(4, 0, arabic_indic)
    current = kt.build_balanced(["solo"], arity=2)
    with pytest.raises(kt.TreeError, match="invalid node code"):
        kt.attach_subtree(current, ["v1"], arabic_indic)


# -- accessors -----------------------------------------------------------------------


def test_paths_and_relations():
    tree = coded_tree(8, 1, "278")
    leaf = tree.leaf_of("u3")
    chain = tree.ancestors(leaf.node_id)
    assert chain[-1] == tree.root_id
    assert tree.depth(leaf.node_id) == len(chain) == 3
    path = tree.path_to_root("u3")
    assert [p.node_id for p in path] == chain
    assert path[-1].code == "278"
    sibling = tree.siblings(leaf.node_id)
    assert len(sibling) == 1 and tree.node(sibling[0]).member == "u4"
    assert tree.siblings(tree.root_id) == []
    assert reference_subtree_members(tree, chain[0]) == ["u3", "u4"]
    assert tree.has_member("u5") and not tree.has_member("u99")
    with pytest.raises(kt.TreeError):
        tree.leaf_of("u99")
    with pytest.raises(kt.TreeError):
        tree.node(10**6)


def test_dump_renders_every_node():
    tree = coded_tree(4, 1, "5")
    text = tree.dump()
    assert len(text.splitlines()) == len(tree.nodes)
    assert "member=u1" in text and "code=5" in text


# -- attach (batch mount) --------------------------------------------------------------


def test_attach_shortens_root_code_and_codes_the_incoming_top():
    current = coded_tree(4, 1, "278")
    old_root_id = current.root_id
    old_codes = {n.node_id: n.code for n in current.walk()}
    new_root_id, top_id = kt.attach_subtree(current, ["v1", "v2", "v3"], kt.parent_code(current.root.code))
    assert current.root_id == new_root_id
    assert current.root.code == "27"
    assert current.node(top_id).code is None  # the caller codes the incoming side
    kt.assign_codes_below(current, new_root_id, Random(2))
    top = current.node(top_id)
    assert top.code is not None and len(top.code) == 3
    assert top.code.startswith("27") and top.code != "278"
    assert current.root.children == [old_root_id, top_id]
    assert current.node(old_root_id).code == "278"
    for node_id, code in old_codes.items():  # old codes untouched
        assert current.node(node_id).code == code
    assert current.members == (*members(4), "v1", "v2", "v3")


def test_attach_starts_fresh_lineage_when_code_exhausted():
    current = coded_tree(2, 1, "7")
    kt.attach_subtree(current, ["v1"], "12345678")
    assert current.root.code == "12345678"


def test_attach_to_bare_leaf_draws_random_lineage():
    # the lineage is drawn by the caller (CkcsServer._join); the incoming
    # top still gets a child code of the new root
    current = kt.build_balanced(["solo"], arity=2)
    new_root_id, top_id = kt.attach_subtree(current, ["v1", "v2"], "90817263")
    kt.assign_codes_below(current, new_root_id, Random(4))
    assert current.root.code == "90817263"
    assert current.node(top_id).code == current.root.code + current.node(top_id).code[-1]


def test_attach_leaf_incoming_gets_no_code():
    current = coded_tree(2, 1, "34")
    new_root_id, top_id = kt.attach_subtree(current, ["v1"], kt.parent_code(current.root.code))
    rng = Random(2)
    kt.assign_codes_below(current, new_root_id, rng)
    assert rng.getstate() == Random(2).getstate()  # nothing left to code
    assert current.node(top_id).is_leaf
    assert current.node(top_id).code is None
    assert current.root.code == "3"


def test_attach_preserves_node_keys():
    # the old tree's keys stay where they were; the new nodes are unkeyed
    # until the caller keys the joiners' leaves
    current = coded_tree(4, 1, "34")
    old_keys = {}
    for node in current.walk():
        node.key = old_keys[node.node_id] = SymKey(bytes([node.node_id + 1]) * 32)
    new_root_id, top_id = kt.attach_subtree(current, ["v1", "v2"], "3")
    for node_id, key in old_keys.items():
        assert current.node(node_id).key == key
    assert all(node.key is None for node in current.walk(top_id))
    assert current.node(new_root_id).key is None


# -- insert --------------------------------------------------------------------------


def test_insert_fills_open_slot_first():
    tree = kt.build_balanced(members(4), arity=2)
    kt.detach_leaf(tree, "u2")  # leaves a one-child stub
    stub_id = tree.leaf_of("u1").parent
    result = kt.insert_leaf(tree, "u9")
    assert result.parent_id == stub_id
    assert result.split_member is None
    assert tree.leaf_of("u9").parent == stub_id


def test_insert_splits_shallowest_leaf_when_full():
    tree = kt.build_balanced(members(4), arity=2)
    depths_before = {m: tree.depth(tree.leaf_of(m).node_id) for m in members(4)}
    result = kt.insert_leaf(tree, "u9")
    assert result.split_member == "u1"  # first leaf in scan order
    assert tree.depth(tree.leaf_of("u9").node_id) == depths_before["u1"] + 1
    assert tree.depth(tree.leaf_of("u1").node_id) == depths_before["u1"] + 1
    assert sorted(tree.node(result.parent_id).children) == sorted(
        [tree.leaf_of("u1").node_id, tree.leaf_of("u9").node_id]
    )


def test_insert_into_single_leaf_tree():
    tree = kt.build_balanced(["solo"], arity=2)
    result = kt.insert_leaf(tree, "u2")
    assert result.split_member == "solo"
    assert tree.member_count == 2
    assert not tree.root.is_leaf


def test_insert_after_detaches_fills_the_first_slot_in_scan_order():
    # detaches shift sibling indexes under surviving nodes; placement must
    # still follow the tree as it is now (u13 goes under node 11, not 16)
    tree = kt.build_balanced(members(10), arity=2)
    for member in ("u5", "u3", "u4"):
        kt.detach_leaf(tree, member)
    kt.insert_leaf(tree, "u11")
    for member in ("u1", "u2", "u7", "u6", "u11", "u9"):
        kt.detach_leaf(tree, member)
    assert_insert_matches_reference(tree, "u12")
    result = assert_insert_matches_reference(tree, "u13")
    assert result.parent_id == 11


def test_a_fill_into_the_last_split_node_keeps_the_split_scan():
    # arity 3 with no open slot: a split makes a two-child node, the next
    # joiner fills it, and the split scan resumes instead of restarting
    tree = kt.build_balanced(members(9), 3)
    split = assert_insert_matches_reference(tree, "u10")
    scan = tree._split_scan
    fill = assert_insert_matches_reference(tree, "u11")
    assert fill.parent_id == split.parent_id
    assert tree._split_scan is scan and scan[-1] == fill.leaf_id
    result = assert_insert_matches_reference(tree, "u12")
    assert result.split_member == "u2" and tree._split_scan is scan


PLACEMENT_STEPS = st.tuples(
    st.sampled_from(["insert", "insert", "insert", "detach", "detach", "remove", "attach"]),
    st.integers(min_value=1, max_value=6),  # batch size
    st.integers(min_value=0, max_value=2**32),  # picks the members that leave
)


@settings(max_examples=300, deadline=None)
@given(
    arity=st.sampled_from([2, 3, 4]),
    n=st.integers(min_value=1, max_value=40),
    steps=st.lists(PLACEMENT_STEPS, max_size=30),
)
@example(  # the pinned case above, one detach per step
    arity=2,
    n=10,
    steps=[("detach", 1, 4), ("detach", 1, 2), ("detach", 1, 2), ("insert", 1, 0)]
    + [("detach", 1, i) for i in (0, 0, 1, 0, 3, 1)]
    + [("insert", 2, 0)],
)
def test_every_insert_lands_where_a_fresh_scan_says(arity, n, steps):
    # random batches of every tree mutation; each insert is checked against
    # a fresh breadth-first scan of the tree it is made on.  A detach batch
    # reads ``pick`` as a mixed-radix number: each detach takes the member
    # at its next digit's index in registration order
    tree = kt.build_balanced(members(n), arity)
    last = n
    for op, size, pick in steps:
        if op == "attach":
            incoming = [f"u{last + k}" for k in range(1, size + 1)]
            last += size
            kt.attach_subtree(tree, incoming, "1")
        elif op == "remove":
            live = tree.members
            kt.remove_leaves(tree, Random(pick).sample(live, min(size, len(live) - 1)))
        for _ in range(size):
            if op == "insert":
                last += 1
                assert_insert_matches_reference(tree, f"u{last}")
            elif op == "detach" and tree.member_count > 1:
                live = tree.members
                pick, index = divmod(pick, len(live))
                kt.detach_leaf(tree, live[index])


def tree_state(tree):
    """Everything placement and the servers read: each node's id, parent,
    children in order, code and member, then the registration order, the
    open slots and the next id."""
    nodes = [(n.node_id, n.parent, list(n.children), n.code, n.member) for n in tree.walk()]
    return nodes, tree.members, sorted(tree._open_slots), tree._next_id, tree.root_id


@settings(max_examples=300, deadline=None)
@given(
    arity=st.sampled_from([2, 3, 4]),
    n=st.integers(min_value=1, max_value=40),
    steps=st.lists(PLACEMENT_STEPS, max_size=20),
)
def test_attach_in_place_matches_the_clone_based_attach(arity, n, steps):
    # two trees take the same random mutations; at each attach one grows the
    # joiners in place and the other clones a separately built tree in.
    # After each step, and after three more inserts, both must agree on
    # every id, parent, child order, code, member, open slot and next id
    tree = kt.build_balanced(members(n), arity)
    ref = kt.build_balanced(members(n), arity)
    last = n
    for op, size, pick in steps:
        if op == "attach":
            incoming = [f"u{last + k}" for k in range(1, size + 1)]
            last += size
            got = kt.attach_subtree(tree, incoming, "1")
            want = reference_attach_subtree(ref, kt.build_balanced(incoming, arity), "1")
            assert got == want
            rng, ref_rng = Random(pick), Random(pick)
            kt.assign_codes_below(tree, got[0], rng)
            reference_assign_codes_below(ref, want[0], ref_rng)
            assert rng.getstate() == ref_rng.getstate()
        elif op == "remove":
            live = tree.members
            leavers = Random(pick).sample(live, min(size, len(live) - 1))
            kt.remove_leaves(tree, leavers)
            kt.remove_leaves(ref, leavers)
        elif op == "insert":
            for _ in range(size):
                last += 1
                assert kt.insert_leaf(tree, f"u{last}") == kt.insert_leaf(ref, f"u{last}")
        else:
            for _ in range(size):
                if tree.member_count > 1:
                    live = tree.members
                    pick, index = divmod(pick, len(live))
                    kt.detach_leaf(tree, live[index])
                    kt.detach_leaf(ref, live[index])
        assert tree_state(tree) == tree_state(ref)
    for k in range(1, 4):
        assert kt.insert_leaf(tree, f"u{last + k}") == kt.insert_leaf(ref, f"u{last + k}")
    assert tree_state(tree) == tree_state(ref)


# -- detach (slot-keeping removal) ------------------------------------------------------


def test_detach_keeps_one_child_stub_and_reports_chain():
    tree = kt.build_balanced(members(8), arity=2)
    parent_id = tree.leaf_of("u1").parent
    chain_expected = [parent_id] + tree.ancestors(parent_id)
    result = kt.detach_leaf(tree, "u1")
    assert list(result.rekey_chain) == chain_expected
    assert len(tree.node(parent_id).children) == 1  # stub survives
    assert tree.member_count == 7


def test_detach_prunes_emptied_ancestors():
    tree = kt.build_balanced(members(4), arity=2)
    parent_id = tree.leaf_of("u1").parent
    kt.detach_leaf(tree, "u1")
    result = kt.detach_leaf(tree, "u2")  # empties the stub entirely
    assert parent_id in result.removed_node_ids
    assert result.rekey_chain == (tree.root_id,)


# -- remove (splicing batch removal) ----------------------------------------------------


def test_remove_splices_and_promotes():
    tree = kt.build_balanced(members(8), arity=2)
    promoted_expected = {tree.leaf_of(m).node_id for m in ("u2", "u3", "u7")}
    vacated_expected = {tree.leaf_of(m).parent for m in ("u1", "u4", "u8")}
    result = kt.remove_leaves(tree, ["u1", "u4", "u8"])
    assert {p for p, _ in result.promotions} == promoted_expected
    assert {v for _, v in result.promotions} == vacated_expected
    assert tree.member_count == 5
    assert set(tree.members) == {"u2", "u3", "u5", "u6", "u7"}
    for node in tree.walk():  # no unary nodes remain
        assert node.is_leaf or len(node.children) == 2
    assert len(result.removed_node_ids) == 6  # 3 leaves + 3 vacated parents


def test_remove_cascades_up_to_root_child():
    tree = kt.build_balanced(members(8), arity=2)
    result = kt.remove_leaves(tree, ["u1", "u2", "u3"])  # wipes most of one half
    assert tree.member_count == 5
    promoted = {p for p, _ in result.promotions}
    assert tree.leaf_of("u4").node_id in promoted


def test_remove_promotes_into_root():
    tree = kt.build_balanced(members(2), arity=2)
    kt.remove_leaves(tree, ["u1"])
    assert tree.root.is_leaf and tree.root.member == "u2"


# -- cover computation --------------------------------------------------------------------


def assert_cover_properties(tree: kt.KeyTree, leavers: list[str], cover: list[int]) -> None:
    remaining = [m for m in tree.members if m not in leavers]
    covered: list[str] = []
    for node_id in cover:
        part = reference_subtree_members(tree, node_id)
        assert not set(part) & set(leavers)
        covered.extend(part)
    assert sorted(covered) == sorted(remaining)  # everyone else exactly once


def test_cover_matches_oracle_exhaustively_small():
    for n in range(2, 11):
        tree = kt.build_balanced(members(n), arity=2)
        for r in range(1, n):
            for subset in combinations(members(n), r):
                leavers = list(subset)
                cover = kt.compute_cover(tree, leavers)
                assert cover == cover_oracle(tree, leavers)
                assert_cover_properties(tree, leavers, cover)


def test_cover_matches_oracle_on_irregular_trees():
    rng = Random(11)
    for trial in range(20):
        tree = kt.build_balanced(members(5), arity=2)
        extra = 6
        for _ in range(rng.randint(1, 6)):  # random structural churn
            if rng.random() < 0.5 and tree.member_count > 2:
                kt.detach_leaf(tree, rng.choice(tree.members))
            else:
                kt.insert_leaf(tree, f"u{extra}")
                extra += 1
        names = tree.members
        for r in range(1, len(names)):
            for subset in combinations(names, r):
                cover = kt.compute_cover(tree, list(subset))
                assert cover == cover_oracle(tree, list(subset))
                assert_cover_properties(tree, list(subset), cover)


def test_cover_with_no_leavers_is_the_root():
    tree = kt.build_balanced(members(4), arity=2)
    assert kt.compute_cover(tree, []) == [tree.root_id]


def test_cover_rejects_unknown_member():
    tree = kt.build_balanced(members(4), arity=2)
    with pytest.raises(kt.TreeError):
        kt.compute_cover(tree, ["ghost"])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=33), st.randoms(use_true_random=False))
def test_cover_properties_random(n, rng):
    arity = rng.choice([2, 3])
    tree = kt.build_balanced(members(n), arity=arity)
    m = rng.randint(1, n - 1)
    leavers = rng.sample(members(n), m)
    cover = kt.compute_cover(tree, leavers)
    assert_cover_properties(tree, leavers, cover)
    seen = set()
    for node_id in cover:  # cover subtrees are pairwise disjoint
        assert node_id not in seen
        seen.add(node_id)
        assert not (set(tree.ancestors(node_id)) & set(cover))
