"""One-way-function folding rekeying (strictly binary tree, bottom-up keys).

Every internal node's key is computed, not stored independently: it is the
mix of the one-way-blinded keys of its two children, so the root (group) key
folds up from the leaves.  Each member holds its own leaf key plus the
blinded key of the sibling subtree at every level of its path, which is
exactly enough to fold the group key locally.  Rekeying therefore ships
"adverts": the blinded key of each changed path node, wrapped under the key
of that node's sibling, one advert per level.

A join always splits a leaf (keeping the tree strictly binary) and a leave
splices the vacated parent (promoting the remaining subtree).  In both cases
the affected neighbour leaf — the split victim at a join, one leaf of the
promoted subtree at a leave — gets a fresh individual key first, wrapped
under its old one.  Without that refresh the departed or arriving member
could keep folding: all other inputs to the new group key would be values it
already knows.  Batch events run as a sequence of single joins or leaves.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence

from gkms.core import (
    Bootstrap,
    CostMeter,
    EventError,
    EventOutput,
    MemberView,
    MembershipEvent,
    RekeyMessage,
    RosterView,
    ServerProtocol,
)
from gkms.crypto import SymKey, WrappedKey, blind, mix, random_key, random_keys, wrap
from gkms.tree import KeyTree, Node, build_balanced, remove_leaves


class OftServer(ServerProtocol):
    """Key server for the blinded-key-folding baseline."""

    name = "oft"
    arity = 2

    def __init__(self, member_ids: list[str], rng: random.Random) -> None:
        if not member_ids:
            raise EventError("initial group must not be empty")
        self.tree: KeyTree = build_balanced(member_ids, self.arity)
        setup = CostMeter()  # initial group setup is out of band, unmetered
        nodes = self.tree.nodes.values()  # id order, which is preorder
        leaves = [node for node in nodes if not node.children]
        for leaf, key in zip(leaves, random_keys(rng, setup, len(leaves))):
            leaf.key = key
        # fold bottom-up: in reverse preorder every child is keyed before its parent
        for node in reversed(nodes):
            if node.children:
                node.key = self._folded(node)

    def _folded(self, node: Node) -> SymKey:
        """The mix of the blinded keys of an internal node's two children."""
        nodes = self.tree.nodes
        left, right = node.children
        return mix(blind(nodes[left].key), blind(nodes[right].key))

    # -- event handling ---------------------------------------------------

    def handle_event(self, event: MembershipEvent, rng: random.Random, meter: CostMeter) -> EventOutput:
        return self._sequential_batch(event, rng, meter)

    def _refresh_leaf(
        self,
        leaf: Node,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        aux: dict,
    ) -> None:
        old_key = leaf.key
        new_key = random_key(rng, meter)
        message = RekeyMessage(
            channel="unicast",
            recipients=(leaf.member,),
            payloads=(wrap(old_key, new_key, meter, kek_id=leaf.node_id),),
            aux={"op": "refresh", "targets": [leaf.node_id], **aux},
        )
        output.send(message, meter)
        leaf.key = new_key

    def _advert_multicast(
        self,
        changed: list[Node],
        recipients: RosterView,
        aux: dict,
        meter: CostMeter,
        output: EventOutput,
    ) -> None:
        """One blinded-key advert per changed node, wrapped for its sibling."""
        payloads = []
        targets = []
        for node in changed:
            sibling = self.tree.node(self.tree.siblings(node.node_id)[0])
            payloads.append(wrap(sibling.key, blind(node.key), meter, kek_id=sibling.node_id))
            targets.append(node.node_id)
        if not payloads:
            return
        message = RekeyMessage(
            channel="multicast",
            recipients=recipients,
            payloads=tuple(payloads),
            aux={**aux, "targets": targets},
        )
        output.send(message, meter)

    def _join_one(
        self,
        member: str,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        old_members: RosterView,
    ) -> list[int]:
        individual, inserted, split = self._place_joiner(member, rng, meter)
        if split is None:
            raise EventError("binary folding tree requires a split at every join")
        split["joiner_side"] = self.tree.node(inserted.parent_id).children.index(inserted.leaf_id)

        victim = self.tree.leaf_of(inserted.split_member)
        # The victim must not fold yet: its new level only becomes foldable
        # once the advert multicast delivers the joiner's blinded key.
        self._refresh_leaf(victim, rng, meter, output, {"fold": False})

        leaf = self.tree.node(inserted.leaf_id)
        chain = [self.tree.node(i) for i in self.tree.ancestors(inserted.leaf_id)]
        for node in chain:
            node.key = self._folded(node)
            meter.keygen += 1

        # Unicast to the joiner: the blinded sibling at every level, plus the
        # group key, all wrapped under the joiner's new individual key.
        levels = self._levels_for(leaf.node_id, with_blinds=True)
        payloads = [wrap(individual, blinded, meter, kek_id=leaf.node_id) for _, _, blinded in levels]
        payloads.append(wrap(individual, self.group_key, meter, kek_id=leaf.node_id))
        targets = [sibling_id for sibling_id, _, _ in levels] + [self.tree.root_id]
        joiner_msg = RekeyMessage(
            channel="unicast",
            recipients=(member,),
            payloads=tuple(payloads),
            aux={"op": "join", "joined": [member], "targets": targets, "split": split},
        )
        output.send(joiner_msg, meter)

        changed = ([leaf] + chain)[:-1]  # every changed node below the root
        self._advert_multicast(
            changed,
            old_members,
            {"op": "join", "joined": [member], "split": split},
            meter,
            output,
        )

        output.bootstraps.append(self._bootstrap_for(member, individual, with_blinds=False))
        return [n.node_id for n in chain]

    def _leave_one(
        self,
        member: str,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        remaining: RosterView,
    ) -> list[int]:
        removal = remove_leaves(self.tree, [member])
        if not removal.promotions:
            raise EventError("binary folding tree expects a splice at every leave")
        promoted_id = removal.promotions[0][0]
        refresh_leaf = self._first_leaf_below(promoted_id)

        # The refreshed member gets the splice layout with its new key: all
        # its surviving sibling blinds are unchanged, so it can fold at once.
        self._refresh_leaf(
            refresh_leaf,
            rng,
            meter,
            output,
            {"fold": True, "deleted": list(removal.removed_node_ids)},
        )

        chain = [self.tree.node(i) for i in self.tree.ancestors(refresh_leaf.node_id)]
        for node in chain:
            node.key = self._folded(node)
            meter.keygen += 1

        changed = ([refresh_leaf] + chain)[:-1]
        self._advert_multicast(
            changed,
            remaining,
            {
                "op": "leave",
                "left": [member],
                "deleted": list(removal.removed_node_ids),
                "refresh_leaf": refresh_leaf.node_id,
            },
            meter,
            output,
        )
        return [n.node_id for n in chain]

    def _first_leaf_below(self, node_id: int) -> Node:
        queue = deque([node_id])
        while queue:
            node = self.tree.node(queue.popleft())
            if node.is_leaf:
                return node
            queue.extend(node.children)
        raise EventError("subtree has no leaves")

    # -- member construction ------------------------------------------------

    def _levels_for(self, leaf_id: int, with_blinds: bool) -> list[tuple]:
        levels = []
        below = leaf_id
        for node_id in self.tree.ancestors(leaf_id):
            node = self.tree.node(node_id)
            sibling_id = self.tree.siblings(below)[0]
            sibling = self.tree.node(sibling_id)
            side = node.children.index(sibling_id)
            blinded = blind(sibling.key) if with_blinds else None
            levels.append((sibling_id, side, blinded))
            below = node.node_id
        return levels

    def _bootstrap_for(self, member: str, individual: SymKey, with_blinds: bool) -> Bootstrap:
        leaf = self.tree.leaf_of(member)
        chain = [leaf.node_id] + self.tree.ancestors(leaf.node_id)
        return Bootstrap(
            member_id=member,
            individual_key=individual,
            leaf_id=leaf.node_id,
            extra={"chain": chain, "levels": self._levels_for(leaf.node_id, with_blinds)},
        )

    def initial_bootstraps(self) -> list[Bootstrap]:
        return [
            self._bootstrap_for(m, self.tree.leaf_of(m).key, with_blinds=True)
            for m in self.member_ids
        ]

    def build_member(self, bootstrap: Bootstrap) -> "OftMember":
        return OftMember(bootstrap, self.derivations)


class OftMember(MemberView):
    """Member state for the folding baseline, one list entry per path level.

    Level ``i`` folds ``chain[i]`` (the leaf, at ``i == 0``) into its parent
    ``chain[i + 1]``: ``siblings[i]`` is the parent's other child, ``sides[i]``
    that child's index under the parent and ``blinds[i]`` its blinded key
    (None until an advert delivers it).  ``path[i]`` is the parent key the
    last fold gave, and ``pos`` maps each chain node to its index.
    ``_dirty`` is the lowest level whose inputs changed since that fold, so
    ``path[:_dirty]`` still holds the current keys.
    """

    def __init__(self, bootstrap: Bootstrap, derivations: dict) -> None:
        super().__init__(bootstrap.member_id, bootstrap.individual_key, derivations)
        self.leaf_id: int = bootstrap.leaf_id
        self.chain: list[int] = list(bootstrap.extra["chain"])
        self._index_chain()
        levels = bootstrap.extra["levels"]
        self.siblings: list[int | None] = [sibling_id for sibling_id, _, _ in levels]
        self.sides: list[int] = [side for _, side, _ in levels]
        self.blinds: list[SymKey | None] = [blinded for _, _, blinded in levels]
        for blinded in self.blinds:
            if blinded is not None:
                self.knowledge.learn_key(blinded)
        self.path: list[SymKey] = []
        self._dirty = 0
        if None not in self.blinds:
            self._fold(CostMeter())  # founding members' first fold is set-up

    def _index_chain(self) -> None:
        self.pos = {node_id: index for index, node_id in enumerate(self.chain)}

    def _fold(self, meter: CostMeter) -> None:
        """Fold the path up to the group key, from the lowest changed level.

        The levels below ``_dirty`` keep their keys in ``path``; every level
        from there up is folded again and its new key learned.  A fold step
        is looked up in ``derivations`` under its full inputs (key below,
        blinded sibling, side) before it is hashed, so the members below a
        node fold it once per event between them.  Every level is still
        metered as its two derivations (one ``blind``, one ``mix``): the
        meter counts what the protocol makes a member compute, not what the
        simulator happens to recompute.
        """
        dirty = self._dirty
        path = self.path
        del path[dirty:]
        key = path[dirty - 1] if dirty else self.individual_key
        derivations = self.derivations
        levels = zip(self.blinds[dirty:], self.sides[dirty:], self.chain[dirty + 1:])
        for blinded, side, parent_id in levels:
            if blinded is None:
                raise EventError(f"cannot fold: missing blinded key below node {parent_id}")
            step = (key.data, blinded.data, side)
            parent = derivations.get(step)
            if parent is None:
                mine = blind(key)
                parent = derivations[step] = mix(blinded, mine) if side == 0 else mix(mine, blinded)
            key = parent
            self.knowledge.learn_key(key)
            path.append(key)
        self._dirty = len(path)
        meter.member_derivations += 2 * len(path)
        self.group_key = key  # learned by the fold that computed it

    def _apply_split(self, split: dict) -> None:
        """This member's leaf was split: a new level below its old first."""
        self.chain.insert(1, split["new_node"])
        self.siblings.insert(0, split["joiner_leaf"])
        self.sides.insert(0, split["joiner_side"])
        self.blinds.insert(0, None)
        self._dirty = 0
        self._index_chain()

    def _apply_splice(self, deleted: set[int]) -> None:
        """Drop the levels a leave's splice removed from this member's path."""
        if self.pos.keys().isdisjoint(deleted) and deleted.isdisjoint(self.siblings):
            return  # the splice is off this member's levels
        for i in reversed(range(len(self.siblings))):
            if self.chain[i + 1] in deleted:
                # my former ancestor was spliced out
                del self.chain[i + 1], self.siblings[i], self.sides[i], self.blinds[i]
            elif self.siblings[i] in deleted:
                # the sibling slot was refilled by a promotion; the advert
                # in this same message carries the replacement
                self.siblings[i] = self.blinds[i] = None
            else:
                continue
            self._dirty = min(self._dirty, i)
        self._index_chain()

    def _apply_refresh(self, payload: WrappedKey, fold: bool, meter: CostMeter) -> None:
        if payload.kek_id != self.leaf_id:
            self.unwrap_misses += 1
            return
        self.individual_key = self._unwrap(self.individual_key, payload)
        self.knowledge.learn_key(self.individual_key)
        self._dirty = 0
        if fold:
            self._fold(meter)

    def _apply_adverts(self, targets: list[tuple[int, int, WrappedKey]]) -> None:
        """Take the new blinds this member's levels need from the adverts,
        given as ``(kek_id, target, payload)`` in message order."""
        pos = self.pos
        siblings = self.siblings
        top = len(siblings)
        for kek_id, target, payload in targets:
            # an advert keyed under a chain node below the root carries the
            # new blind of that node's sibling, so it fills the node's level
            if kek_id not in pos:
                continue
            index = pos[kek_id]
            if index == top:
                continue
            if index:
                kek = self.path[index - 1]
            else:
                kek = self.individual_key
                if target == self.chain[-1]:
                    # group key shipped directly (joiner bundle): the bundle
                    # also sets every level's blind, so the fold that follows
                    # computes this key; it is left wrapped
                    continue
                if target in siblings:
                    # the joiner bundle keys every level under the leaf and
                    # names it by its sibling
                    index = siblings.index(target)
            siblings[index] = target
            self.blinds[index] = blinded = self._unwrap(kek, payload)
            self.knowledge.learn_key(blinded)
            self._dirty = min(self._dirty, index)

    @classmethod
    def receive_message(cls, message: RekeyMessage, views: Sequence[OftMember], meter: CostMeter) -> None:
        aux = message.aux
        split = aux.get("split")
        split_member = split["member"] if split else None
        deleted = set(aux.get("deleted", ()))
        refresh = aux.get("op") == "refresh"
        fold = aux.get("fold", False)
        refresh_leaf = aux.get("refresh_leaf")
        targets = [
            (payload.kek_id, target, payload) for payload, target in zip(message.payloads, aux["targets"])
        ]
        for view in views:
            if view.member_id == split_member:
                view._apply_split(split)
            if deleted:
                view._apply_splice(deleted)
            if refresh:
                view._apply_refresh(message.payloads[0], fold, meter)
                continue
            view._apply_adverts(targets)
            if view._dirty < len(view.siblings):
                view._fold(meter)
            elif refresh_leaf != view.leaf_id:
                # the refreshed member was fully served by its unicast; anyone
                # else should always find at least one decryptable advert
                view.unwrap_misses += 1
