"""Logical key trees with optional per-node position codes.

The tree is the shared data structure of every protocol engine: leaves stand
for members, internal nodes for subgroup keys.  Nodes keep a stable integer
id for their whole lifetime; codes and keys travel with the node when
restructuring moves it.

Position codes are digit strings.  A child's code extends its parent's code
by one digit, so everyone who knows a node's code can compute every ancestor
code by dropping trailing digits.  Codes are assigned to internal nodes only;
leaves are keyed by individual member keys and need no code.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from gkms.crypto import KEY_LEN, SymKey

DIGITS = "0123456789"
ROOT_CODE_LEN = 8  # fresh root codes leave headroom for repeated shortening


class TreeError(Exception):
    """Structural misuse of a key tree."""


class CodeSpaceError(TreeError):
    """No unused sibling digit or no room left to shorten the root code."""


def parent_code(code: str) -> str:
    """Drop the rightmost digit; the result names the parent position."""
    if len(code) < 2:
        raise CodeSpaceError(f"code {code!r} too short to have a parent code")
    return code[:-1]


def child_code(parent: str, rng: Random, used: Iterable[str] = ()) -> str:
    """Extend ``parent`` by one random digit not used by existing siblings."""
    if len(parent) >= KEY_LEN:
        raise CodeSpaceError(f"code {parent!r} has no room for a child digit")
    taken = {code[-1] for code in used}
    free = [d for d in DIGITS if d not in taken]
    if not free:
        raise CodeSpaceError(f"all sibling digits under code {parent!r} are taken")
    return parent + rng.choice(free)


@dataclass(slots=True)
class Node:
    node_id: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    key: SymKey | None = None
    code: str | None = None
    member: str | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class PathEntry:
    node_id: int
    code: str | None


@dataclass(frozen=True)
class RemovalResult:
    removed_node_ids: tuple[int, ...]
    promotions: tuple[tuple[int, int], ...]  # (promoted node, vacated parent)


@dataclass(frozen=True)
class DetachResult:
    removed_node_ids: tuple[int, ...]
    rekey_chain: tuple[int, ...]  # surviving former ancestors, bottom-up


@dataclass(frozen=True)
class InsertResult:
    leaf_id: int
    parent_id: int  # after a split, the new internal node
    split_member: str | None


class KeyTree:
    """Mutable rooted tree; every operation is deterministic."""

    def __init__(self, arity: int) -> None:
        if arity < 2:
            raise TreeError("arity must be at least 2")
        self.arity = arity
        self.nodes: dict[int, Node] = {}
        self.root_id: int | None = None
        self._next_id = 0
        self._member_leaf: dict[str, int] = {}
        # Placement bookkeeping for insert_leaf (see the helpers below):
        # the internal nodes with a free child slot, and two resumable
        # breadth-first scans, one for open slots and one for split victims.
        self._open_slots: set[int] = set()
        self._slot_scan: deque[int] | None = None
        self._split_scan: deque[int] | None = None

    # -- basic accessors ---------------------------------------------------

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise TreeError(f"no node {node_id}") from None

    @property
    def root(self) -> Node:
        if self.root_id is None:
            raise TreeError("tree is empty")
        return self.nodes[self.root_id]

    def leaf_of(self, member: str) -> Node:
        try:
            return self.nodes[self._member_leaf[member]]
        except KeyError:
            raise TreeError(f"no leaf for member {member!r}") from None

    def has_member(self, member: str) -> bool:
        return member in self._member_leaf

    @property
    def members(self) -> tuple[str, ...]:
        """Members in registration order (joins append, removals keep order).

        One O(n) copy without touching the tree, so building recipient
        lists never dominates an O(m) event.
        """
        return tuple(self._member_leaf)

    @property
    def member_count(self) -> int:
        return len(self._member_leaf)

    def leaf_ids(self) -> list[int]:
        return [n.node_id for n in self.walk() if n.is_leaf]

    def walk(self, start: int | None = None) -> Iterator[Node]:
        """Depth-first, children in stored order."""
        if self.root_id is None:
            return
        stack = [self.root_id if start is None else start]
        while stack:
            node = self.nodes[stack.pop()]
            yield node
            stack.extend(reversed(node.children))

    def depth(self, node_id: int) -> int:
        depth = 0
        node = self.node(node_id)
        while node.parent is not None:
            node = self.nodes[node.parent]
            depth += 1
        return depth

    def height(self) -> int:
        return max((self.depth(i) for i in self.leaf_ids()), default=0)

    def ancestors(self, node_id: int) -> list[int]:
        """Node ids from the parent of ``node_id`` up to and including the root."""
        out = []
        node = self.node(node_id)
        while node.parent is not None:
            out.append(node.parent)
            node = self.nodes[node.parent]
        return out

    def path_to_root(self, member: str) -> list[PathEntry]:
        """(node id, code) pairs from the member's leaf parent up to the root."""
        leaf = self.leaf_of(member)
        return [
            PathEntry(i, self.nodes[i].code) for i in self.ancestors(leaf.node_id)
        ]

    def siblings(self, node_id: int) -> list[int]:
        node = self.node(node_id)
        if node.parent is None:
            return []
        return [c for c in self.nodes[node.parent].children if c != node_id]

    # -- placement bookkeeping ----------------------------------------------
    # insert_leaf picks its target in breadth-first order: the first internal
    # node with a free child slot, otherwise the first leaf.  Rescanning the
    # whole tree per insert would make a batch of m joins cost O(n*m), so
    # each target has a breadth-first scan whose queue survives between
    # inserts.  An insert changes the tree only where the
    # scan that found its target stands, so that scan resumes in the state
    # a fresh scan would reach, and insert_leaf keeps the other in step.
    # Every other change drops both queues (_scan_dirty), and the next
    # insert scans afresh from the root: up to O(n) node visits once per
    # removal or attach, not once per join.

    def _slot_sync(self, node_id: int) -> None:
        """Re-check one node's open-slot status after its children changed."""
        children = self.nodes[node_id].children
        if children and len(children) < self.arity:
            self._open_slots.add(node_id)
        else:
            self._open_slots.discard(node_id)

    def _drop_node(self, node_id: int) -> None:
        """Delete a node: the one place a node leaves ``nodes``, the member
        index and the open-slot set."""
        node = self.nodes.pop(node_id)
        if node.member is not None:
            del self._member_leaf[node.member]
        self._open_slots.discard(node_id)

    def _scan_dirty(self) -> None:
        """The tree changed other than by an insert: drop both scans."""
        self._slot_scan = None
        self._split_scan = None

    def _first_open_slot(self) -> Node | None:
        """The open slot a breadth-first scan would reach first, if any.

        The scan stops at the slot without passing it, so inserts fill it
        until it is full; only then does the scan pass it and queue its
        children, as a fresh scan would.
        """
        if not self._open_slots:
            return None
        if self._slot_scan is None:
            self._slot_scan = deque([self.root_id])
        queue = self._slot_scan
        while queue:
            if queue[0] in self._open_slots:
                return self.nodes[queue[0]]
            queue.extend(self.nodes[queue.popleft()].children)
        return None

    def _first_split_victim(self) -> Node:
        """The leaf a breadth-first scan would reach first.

        The scan queue survives between calls: a split consumes the popped
        leaf and pushes the replacement pair at the tail, which is exactly
        the queue state a fresh scan of the new tree would have at that
        point (the new internal node occupies the consumed position).  A
        split happens only when no slot is open and opens at most the node it
        makes, so while this queue lives every fill goes into the node the
        last split made, whose children are still the queue's tail:
        insert_leaf appends the new leaf there.
        """
        if self._split_scan is None:
            self._split_scan = deque([self.root_id])
        queue = self._split_scan
        while queue:
            node = self.nodes[queue.popleft()]
            if node.is_leaf:
                return node
            queue.extend(node.children)
        raise TreeError("tree has no leaves")

    # -- construction ------------------------------------------------------

    def _new_node(self, **kwargs) -> Node:
        node = Node(node_id=self._next_id, **kwargs)
        self._next_id += 1
        self.nodes[node.node_id] = node
        if node.member is not None:
            self._member_leaf[node.member] = node.node_id
        return node

    def dump(self, key_of: Callable[[int], SymKey | None] | None = None) -> str:
        """Deterministic indented rendering for debugging and golden files."""
        lines: list[str] = []

        def render(node_id: int, indent: int) -> None:
            node = self.nodes[node_id]
            key = key_of(node_id) if key_of else node.key
            lines.append(
                "{}node {} code={} key={} member={}".format(
                    "  " * indent,
                    node.node_id,
                    node.code or "-",
                    key.fingerprint if key else "-",
                    node.member or "-",
                )
            )
            for child in node.children:
                render(child, indent + 1)

        if self.root_id is not None:
            render(self.root_id, 0)
        return "\n".join(lines)


def build_balanced(member_ids: Sequence[str], arity: int) -> KeyTree:
    """Balanced tree over the members, height ceil(log_arity n).

    A node over k members has min(arity, k) children, over consecutive runs
    of the members whose sizes differ by at most one (longer runs first).
    Ids are handed out in preorder, so ``tree.nodes`` iterates in the order
    of ``walk()``; the servers' set-up relies on that.  Nodes carry no codes;
    :func:`assign_codes` adds them.
    """
    if not member_ids:
        raise TreeError("cannot build a tree with no members")
    if len(set(member_ids)) != len(member_ids):
        raise TreeError("duplicate member ids")
    tree = KeyTree(arity)
    tree.root_id = _grow_balanced(tree, member_ids).node_id
    return tree


def _grow_balanced(tree: KeyTree, member_ids: Sequence[str]) -> Node:
    """Add a parentless balanced subtree over new, distinct members to
    ``tree`` and return its top.  Ids run in preorder from the tree's next
    id; see :func:`build_balanced` for the shape."""
    arity = tree.arity
    nodes = tree.nodes
    member_leaf = tree._member_leaf
    open_slots = tree._open_slots
    top_id = next_id = tree._next_id
    # (first member, end of members, parent id) of each subtree still to
    # build; a parent's runs are pushed last-first, so they pop in order
    stack: list[tuple[int, int, int | None]] = [(0, len(member_ids), None)]
    while stack:
        lo, hi, parent = stack.pop()
        node_id = next_id
        next_id += 1
        if parent is not None:
            nodes[parent].children.append(node_id)
        size = hi - lo
        if size == 1:
            member = member_ids[lo]
            nodes[node_id] = Node(node_id, parent, [], None, None, member)
            member_leaf[member] = node_id
            continue
        nodes[node_id] = Node(node_id, parent, [])
        count = min(arity, size)
        if count < arity:
            open_slots.add(node_id)
        base, extra = divmod(size, count)
        end = hi
        for index in range(count - 1, -1, -1):
            start = end - base - (index < extra)
            stack.append((start, end, node_id))
            end = start
    tree._next_id = next_id
    return nodes[top_id]


def assign_codes(tree: KeyTree, rng: Random, root_code: str | None = None) -> None:
    """Code every internal node of an uncoded tree: the root takes
    ``root_code`` or a fresh ``ROOT_CODE_LEN``-digit draw, every other
    internal node a child code of its parent.

    A one-member tree is a bare leaf, which carries no code, so it takes no
    ``root_code``.
    """
    root = tree.root
    if root.is_leaf:
        if root_code is not None:
            raise TreeError(f"a one-member tree has no node to take root code {root_code!r}")
        return
    if root_code is not None:
        root.code = _checked_code(root_code)
    else:
        root.code = "".join(rng.choice(DIGITS) for _ in range(ROOT_CODE_LEN))
    assign_codes_below(tree, root.node_id, rng)


def assign_codes_below(tree: KeyTree, top_id: int, rng: Random) -> None:
    """Code the uncoded internal children of the coded node ``top_id``,
    and every internal node below the ones it codes.

    Breadth-first, children in stored order: one ``rng.choice`` per code
    drawn, avoiding the digits of siblings coded so far.  A child that
    already has a code keeps it, and its subtree is not visited.
    """
    nodes = tree.nodes
    queue = deque([top_id])
    while queue:
        node = nodes[queue.popleft()]
        kids = [nodes[c] for c in node.children]
        used = [kid.code for kid in kids if kid.code is not None]
        for kid in kids:
            if kid.children and kid.code is None:
                kid.code = child_code(node.code, rng, used)  # type: ignore[arg-type]
                used.append(kid.code)
                queue.append(kid.node_id)


def _checked_code(code: str) -> str:
    if not code or not code.isascii() or not code.isdigit() or len(code) > KEY_LEN:
        raise TreeError(f"invalid node code {code!r}")
    return code


def attach_subtree(current: KeyTree, member_ids: Sequence[str], root_code: str) -> tuple[int, int]:
    """Grow a balanced subtree over ``member_ids`` beside the current root,
    under a new root coded ``root_code``.

    The members must be new to the tree and distinct
    (``ServerProtocol._validate`` checks this).  The subtree's ids run in
    preorder from the tree's next id, as :func:`build_balanced` hands them
    out, and the new root takes the id after them.  The caller picks the
    code: ckcs passes the current root's code less a digit, or a fresh
    lineage when no digit can be dropped, and then keys the new leaves and
    codes the new side with :func:`assign_codes_below`.  The old tree's
    keys and codes are untouched.  Returns (new root id, subtree top id).
    """
    root_code = _checked_code(root_code)
    old_root = current.root
    current._scan_dirty()
    top = _grow_balanced(current, member_ids)
    new_root = current._new_node(code=root_code)
    new_root.children = [old_root.node_id, top.node_id]
    old_root.parent = top.parent = new_root.node_id
    current.root_id = new_root.node_id
    current._slot_sync(new_root.node_id)
    return new_root.node_id, top.node_id


def remove_leaves(tree: KeyTree, member_ids: Sequence[str]) -> RemovalResult:
    """Delete leaver leaves; splice away parents left with a single child.

    A spliced parent's surviving child is promoted into its position (same
    index under the grandparent), keeping sibling order stable.  Returns the
    removed node ids and the (promoted, vacated) pairs.  The leavers must be
    distinct current members that leave at least one behind
    (``ServerProtocol._validate`` checks this).
    """
    tree._scan_dirty()
    removed: list[int] = []
    promotions: list[tuple[int, int]] = []
    touched: list[int] = []
    for member in member_ids:
        leaf = tree.leaf_of(member)
        parent_id = leaf.parent
        if parent_id is not None:
            tree.nodes[parent_id].children.remove(leaf.node_id)
            tree._slot_sync(parent_id)
            touched.append(parent_id)
        tree._drop_node(leaf.node_id)
        removed.append(leaf.node_id)

    # process deepest first so cascades reach the root in one pass
    queue = sorted(set(touched), key=lambda i: (-tree.depth(i), i))
    seen = set(queue)
    index = 0
    while index < len(queue):
        node_id = queue[index]
        index += 1
        node = tree.nodes.get(node_id)
        if node is None:
            continue
        if len(node.children) == 0:
            parent_id = node.parent
            if parent_id is not None:
                tree.nodes[parent_id].children.remove(node_id)
                tree._slot_sync(parent_id)
            tree._drop_node(node_id)
            removed.append(node_id)
            if parent_id is not None and parent_id not in seen:
                queue.append(parent_id)
                seen.add(parent_id)
        elif len(node.children) == 1:
            child = tree.nodes[node.children[0]]
            parent_id = node.parent
            child.parent = parent_id
            if parent_id is None:
                tree.root_id = child.node_id
            else:
                siblings = tree.nodes[parent_id].children
                siblings[siblings.index(node_id)] = child.node_id
            tree._drop_node(node_id)
            removed.append(node_id)
            promotions.append((child.node_id, node_id))
    return RemovalResult(tuple(removed), tuple(promotions))


def detach_leaf(tree: KeyTree, member: str) -> DetachResult:
    """Delete one leaf without splicing; empty ancestors are pruned.

    Internal nodes keep their position (and key) even when left with a
    single child, which matches trees that track fixed key slots.  Returns
    the removed ids and the surviving former-ancestor chain bottom-up.  The
    member must not be the last one.
    """
    leaf = tree.leaf_of(member)
    removed = [leaf.node_id]
    parent_id = leaf.parent
    tree.nodes[parent_id].children.remove(leaf.node_id)  # type: ignore[index]
    tree._drop_node(leaf.node_id)
    tree._scan_dirty()
    tree._slot_sync(parent_id)  # type: ignore[arg-type]
    while parent_id is not None:
        node = tree.nodes[parent_id]
        if node.children or node.parent is None:
            break
        tree.nodes[node.parent].children.remove(parent_id)
        tree._drop_node(parent_id)
        tree._slot_sync(node.parent)
        removed.append(parent_id)
        parent_id = node.parent
    chain = [parent_id] + tree.ancestors(parent_id) if parent_id is not None else []
    return DetachResult(tuple(removed), tuple(chain))


def insert_leaf(tree: KeyTree, member: str) -> InsertResult:
    """Add a member at the first spot in breadth-first order.

    The first internal node with a free child slot takes the new leaf
    directly.  When no slot is open, the first leaf is split: a new internal
    node takes its position and holds the old leaf and the new one.
    ``member`` must be new to the tree.
    """
    root = tree.root
    if root.is_leaf:
        new_internal = tree._new_node()
        new_leaf = tree._new_node(parent=new_internal.node_id, member=member)
        new_internal.children = [root.node_id, new_leaf.node_id]
        root.parent = new_internal.node_id
        tree.root_id = new_internal.node_id
        tree._scan_dirty()
        tree._slot_sync(new_internal.node_id)
        return InsertResult(new_leaf.node_id, new_internal.node_id, root.member)

    slot = tree._first_open_slot()
    if slot is not None:
        leaf = tree._new_node(parent=slot.node_id, member=member)
        slot.children.append(leaf.node_id)
        tree._slot_sync(slot.node_id)
        if tree._split_scan is not None:  # the slot is the last split's node
            tree._split_scan.append(leaf.node_id)
        return InsertResult(leaf.node_id, slot.node_id, None)

    victim = tree._first_split_victim()
    parent = tree.nodes[victim.parent]  # type: ignore[index]
    new_internal = tree._new_node(parent=parent.node_id)
    new_leaf = tree._new_node(parent=new_internal.node_id, member=member)
    new_internal.children = [victim.node_id, new_leaf.node_id]
    parent.children[parent.children.index(victim.node_id)] = new_internal.node_id
    victim.parent = new_internal.node_id
    tree._split_scan.extend((victim.node_id, new_leaf.node_id))  # type: ignore[union-attr]
    tree._slot_sync(new_internal.node_id)
    # no slot was open, so the new node is the first open slot if it is one
    tree._slot_scan = deque([new_internal.node_id])
    return InsertResult(new_leaf.node_id, new_internal.node_id, victim.member)


def compute_cover(tree: KeyTree, leaver_ids: Sequence[str]) -> list[int]:
    """Roots of the maximal subtrees containing no leaver, in DFS order.

    Computed on the pre-removal tree: every remaining member sits under
    exactly one cover node and no leaver sits under any.
    """
    tainted: set[int] = set()
    for member in leaver_ids:
        leaf = tree.leaf_of(member)
        node_id: int | None = leaf.node_id
        while node_id is not None and node_id not in tainted:
            tainted.add(node_id)
            node_id = tree.nodes[node_id].parent
    if tree.root_id not in tainted:
        return [tree.root_id]  # type: ignore[list-item]

    cover: list[int] = []

    def visit(node_id: int) -> None:
        for child_id in tree.nodes[node_id].children:
            if child_id in tainted:
                visit(child_id)
            else:
                cover.append(child_id)

    visit(tree.root_id)  # type: ignore[arg-type]
    return cover
