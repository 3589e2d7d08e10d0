"""Plain reference versions of the servers' initial tree set-up.

``gkms.tree.build_balanced`` builds in one explicit-stack preorder pass,
``assign_codes_below`` keeps one string of free digits per parent, and the
servers draw all set-up keys in one ``randbytes`` call and fold OFT keys in
one reverse pass over the node ids.  The functions here are the direct
forms those replace: the recursive build over list slices, ``child_code``'s
per-child draw from a list built by scanning the siblings for used digits,
one ``random_key`` call per set-up key, and the OFT fold over a reversed
``walk()``.  Tests require every node, key, code and the generator's state
to come out the same.

``reference_placement`` is the direct form of ``insert_leaf``'s placement
rule, a fresh breadth-first scan per insert, which the tree replaces with
scans that resume between inserts.  ``reference_attach_subtree`` is the
two-tree form of ``attach_subtree``: build the joiners' tree apart, then
clone it node by node into the current tree, which the tree replaces with
one build in place.

``reference_subtree_members`` lists the members under a node over
``KeyTree.walk``: the direct form of the best-half layout's stack pass, and
the tests' way to name the members a cover node or subtree stands for.
``cover_oracle`` is the direct definition of ``compute_cover``: the
maximal leaver-free subtrees, found by walking each candidate whole.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from gkms import tree as kt
from gkms.core import CostMeter
from gkms.crypto import KEY_LEN, SymKey, blind, mix, random_key


def reference_subtree_members(tree, node_id):
    """The members of the leaves under ``node_id``, in ``walk()`` order."""
    return [n.member for n in tree.walk(node_id) if n.is_leaf and n.member]


def cover_oracle(tree: kt.KeyTree, leavers: list[str]) -> list[int]:
    """Maximal leaver-free subtrees by direct definition, in DFS order."""
    leaver_leaves = {tree.leaf_of(m).node_id for m in leavers}

    def clean(node_id: int) -> bool:
        return not any(n.node_id in leaver_leaves for n in tree.walk(node_id))

    out: list[int] = []

    def visit(node_id: int) -> None:
        if clean(node_id):
            out.append(node_id)
            return
        for child in tree.nodes[node_id].children:
            visit(child)

    visit(tree.root_id)
    return out


@dataclass
class ReferenceSetup:
    tree: kt.KeyTree
    group_key: SymKey
    code_log: set[str] | None = None


def _split_even(ids, parts):
    count = min(parts, len(ids))
    base, extra = divmod(len(ids), count)
    out, start = [], 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        out.append(ids[start:start + size])
        start += size
    return out


def reference_build_balanced(member_ids, arity):
    """Recursive balanced build: each node splits its slice of members."""
    if not member_ids:
        raise kt.TreeError("cannot build a tree with no members")
    if len(set(member_ids)) != len(member_ids):
        raise kt.TreeError("duplicate member ids")
    tree = kt.KeyTree(arity)

    def grow(ids, parent):
        if len(ids) == 1:
            return tree._new_node(parent=parent, member=ids[0]).node_id
        node = tree._new_node(parent=parent)
        node.children = [grow(part, node.node_id) for part in _split_even(ids, arity)]
        tree._slot_sync(node.node_id)
        return node.node_id

    tree.root_id = grow(list(member_ids), None)
    return tree


def reference_assign_codes(tree, rng, root_code=None):
    root = tree.root
    if root.is_leaf:
        return
    if root_code is not None:
        root.code = kt._checked_code(root_code)
    else:
        root.code = "".join(rng.choice(kt.DIGITS) for _ in range(kt.ROOT_CODE_LEN))
    reference_assign_codes_below(tree, root.node_id, rng)


def child_code(parent, rng, used):
    """Extend ``parent`` by one random digit not used by existing siblings."""
    if len(parent) >= KEY_LEN:
        raise kt.CodeSpaceError(f"code {parent!r} has no room for a child digit")
    taken = {code[-1] for code in used}
    free = [d for d in kt.DIGITS if d not in taken]
    if not free:
        raise kt.CodeSpaceError(f"all sibling digits under code {parent!r} are taken")
    return parent + rng.choice(free)


def reference_assign_codes_below(tree, top_id, rng):
    """Breadth-first; every child drawn rescans all its siblings for used
    digits.  A child already coded is left whole, subtree and all."""
    queue = deque([top_id])
    while queue:
        node = tree.nodes[queue.popleft()]
        for child_id in node.children:
            child = tree.nodes[child_id]
            if not child.is_leaf and child.code is None:
                used = [
                    tree.nodes[s].code
                    for s in node.children
                    if tree.nodes[s].code is not None and s != child_id
                ]
                child.code = child_code(node.code, rng, used)
                queue.append(child_id)


def reference_placement(tree):
    """(first open slot, first leaf) of a fresh breadth-first scan.

    The open slot is the first internal node with fewer than ``arity``
    children, or None; ``insert_leaf`` fills it when there is one and
    otherwise splits the first leaf.
    """
    slot = leaf = None
    queue = deque([tree.root_id])
    while queue:
        node = tree.nodes[queue.popleft()]
        if node.is_leaf:
            if leaf is None:
                leaf = node.node_id
        else:
            if slot is None and len(node.children) < tree.arity:
                slot = node.node_id
            queue.extend(node.children)
        if slot is not None and leaf is not None:
            break
    return slot, leaf


def assert_insert_matches_reference(tree, member):
    """``insert_leaf`` and check it picked the node ``reference_placement``
    names: the open slot it fills, or the leaf whose position a new internal
    node takes.  Returns the insert's result."""
    slot, leaf = reference_placement(tree)
    victim = tree.nodes[leaf]
    victim_member, parent = victim.member, victim.parent
    index = None if parent is None else tree.nodes[parent].children.index(leaf)
    result = kt.insert_leaf(tree, member)
    if slot is not None:
        assert (result.parent_id, result.split_member) == (slot, None), member
        return result
    assert result.split_member == victim_member, member
    split = tree.nodes[result.parent_id]
    assert split.children == [leaf, result.leaf_id], member
    assert split.parent == parent, member
    if parent is None:
        assert tree.root_id == split.node_id, member
    else:
        assert tree.nodes[parent].children[index] == split.node_id, member
    return result


def reference_attach_subtree(current, incoming, root_code):
    """Mount the separately built tree ``incoming`` beside the current root
    by cloning it in walk order, under a new root coded ``root_code``.
    Returns (new root id, incoming top id)."""
    root_code = kt._checked_code(root_code)
    old_root = current.root
    current._scan_dirty()
    id_map = {}
    for node in incoming.walk():
        clone = current._new_node(key=node.key, code=node.code, member=node.member)
        id_map[node.node_id] = clone.node_id
    for node in incoming.walk():
        clone = current.nodes[id_map[node.node_id]]
        clone.parent = id_map[node.parent] if node.parent is not None else None
        clone.children = [id_map[c] for c in node.children]
        current._slot_sync(clone.node_id)
    incoming_top = current.nodes[id_map[incoming.root_id]]
    new_root = current._new_node(code=root_code)
    new_root.children = [old_root.node_id, incoming_top.node_id]
    old_root.parent = new_root.node_id
    incoming_top.parent = new_root.node_id
    current.root_id = new_root.node_id
    current._slot_sync(new_root.node_id)
    return new_root.node_id, incoming_top.node_id


def reference_lkh_setup(member_ids, rng, arity=2):
    """LKH (arity 2) and OKD (arity 3): one key per node in walk order."""
    tree = reference_build_balanced(member_ids, arity)
    setup = CostMeter()
    for node in tree.walk():
        node.key = random_key(rng, setup)
    return ReferenceSetup(tree, tree.root.key)


def reference_okd_setup(member_ids, rng):
    return reference_lkh_setup(member_ids, rng, arity=3)


def reference_oft_setup(member_ids, rng):
    """Leaf keys in leaf order, then every internal key folded bottom-up."""
    tree = reference_build_balanced(member_ids, 2)
    setup = CostMeter()
    for leaf_id in tree.leaf_ids():
        tree.node(leaf_id).key = random_key(rng, setup)
    for node in reversed(list(tree.walk())):
        if not node.is_leaf:
            left, right = (tree.node(c) for c in node.children)
            node.key = mix(blind(left.key), blind(right.key))
    return ReferenceSetup(tree, tree.root.key)


def reference_ckcs_setup(member_ids, rng, root_code=None):
    """Coded build, leaf keys in leaf order, then the group key."""
    tree = reference_build_balanced(member_ids, 2)
    reference_assign_codes(tree, rng, root_code=root_code)
    setup = CostMeter()
    for leaf_id in tree.leaf_ids():
        tree.nodes[leaf_id].key = random_key(rng, setup)
    group_key = random_key(rng, setup)
    code_log = {n.code for n in tree.walk() if n.code is not None}
    return ReferenceSetup(tree, group_key, code_log)


REFERENCE_SETUPS = {
    "ckcs": reference_ckcs_setup,
    "lkh": reference_lkh_setup,
    "oft": reference_oft_setup,
    "okd": reference_okd_setup,
}
