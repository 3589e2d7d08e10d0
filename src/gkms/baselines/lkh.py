"""Hierarchy-of-key-encryption-keys rekeying (binary tree, independent node keys).

Every tree node holds an independently drawn symmetric key; the root key is
the group key and each member holds the keys on its leaf-to-root path.  A
join fills an open slot when one exists (splitting the shallowest leaf
otherwise), then redraws every key on the new leaf's path: the joiner gets
the path keys over a chained unicast, everyone else gets each redrawn key
wrapped under the keys of that node's children.  A leave deletes the leaf
and redraws the keys of its surviving former ancestors the same way.  Batch
events are processed as a sequence of single joins or leaves.
"""

from __future__ import annotations

import random
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
from gkms.crypto import SymKey, WrappedKey, random_key, random_keys, wrap
from gkms.tree import KeyTree, build_balanced, detach_leaf


class LkhServer(ServerProtocol):
    """Key server for the key-hierarchy baseline."""

    name = "lkh"
    arity = 2

    def __init__(self, member_ids: list[str], rng: random.Random) -> None:
        if not member_ids:
            raise EventError("initial group must not be empty")
        self.tree: KeyTree = build_balanced(member_ids, self.arity)
        setup = CostMeter()  # initial group setup is out of band, unmetered
        nodes = self.tree.nodes.values()  # id order, which is preorder
        for node, key in zip(nodes, random_keys(rng, setup, len(nodes))):
            node.key = key

    # -- event handling ---------------------------------------------------

    def handle_event(self, event: MembershipEvent, rng: random.Random, meter: CostMeter) -> EventOutput:
        return self._sequential_batch(event, rng, meter)

    def _join_one(
        self,
        member: str,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        old_members: RosterView,
    ) -> list[int]:
        individual, inserted, split = self._place_joiner(member, rng, meter)
        chain = list(self.tree.ancestors(inserted.leaf_id))
        for node_id in chain:
            self.tree.node(node_id).key = random_key(rng, meter)

        # Chained unicast: each path key wrapped under the key one level below.
        payloads = []
        targets = []
        prev_key, prev_id = individual, inserted.leaf_id
        for node_id in chain:
            node_key = self.tree.node(node_id).key
            payloads.append(wrap(prev_key, node_key, meter, kek_id=prev_id))
            targets.append(node_id)
            prev_key, prev_id = node_key, node_id
        joiner_msg = RekeyMessage(
            channel="unicast",
            recipients=(member,),
            payloads=tuple(payloads),
            aux={"op": "join", "joined": [member], "targets": targets, "split": split},
        )
        output.send(joiner_msg, meter)

        # Multicast to everyone else; the joiner is served by the unicast.
        payloads, targets = self._wrap_under_children(chain, inserted.leaf_id, meter)
        group_msg = RekeyMessage(
            channel="multicast",
            recipients=old_members,
            payloads=payloads,
            aux={"op": "join", "joined": [member], "targets": targets, "split": split},
        )
        output.send(group_msg, meter)

        output.bootstraps.append(self._bootstrap_for(member, individual))
        return chain

    def _leave_one(
        self,
        member: str,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        remaining: RosterView,
    ) -> list[int]:
        detached = detach_leaf(self.tree, member)

        chain = list(detached.rekey_chain)
        for node_id in chain:
            self.tree.node(node_id).key = random_key(rng, meter)

        payloads, targets = self._wrap_under_children(chain, None, meter)
        message = RekeyMessage(
            channel="multicast",
            recipients=remaining,
            payloads=payloads,
            aux={
                "op": "leave",
                "left": [member],
                "deleted": list(detached.removed_node_ids),
                "targets": targets,
            },
        )
        output.send(message, meter)
        return chain

    def _wrap_under_children(
        self, chain: list[int], skip: int | None, meter: CostMeter
    ) -> tuple[tuple[WrappedKey, ...], list[int]]:
        """Each redrawn chain key wrapped under each child's current key,
        except under ``skip``; returns the payloads and their target nodes."""
        payloads = []
        targets = []
        for node_id in chain:
            node = self.tree.node(node_id)
            for child_id in node.children:
                if child_id == skip:
                    continue
                child_key = self.tree.node(child_id).key
                payloads.append(wrap(child_key, node.key, meter, kek_id=child_id))
                targets.append(node_id)
        return tuple(payloads), targets

    # -- member construction ------------------------------------------------

    def _bootstrap_for(self, member: str, individual: SymKey) -> Bootstrap:
        leaf = self.tree.leaf_of(member)
        chain = [leaf.node_id] + self.tree.ancestors(leaf.node_id)
        return Bootstrap(
            member_id=member,
            individual_key=individual,
            leaf_id=leaf.node_id,
            extra={"chain": chain},
        )

    def initial_bootstraps(self) -> list[Bootstrap]:
        out = []
        for member in self.member_ids:
            leaf = self.tree.leaf_of(member)
            boot = self._bootstrap_for(member, leaf.key)
            boot.extra["path_keys"] = [
                (i, self.tree.node(i).key) for i in self.tree.ancestors(leaf.node_id)
            ]
            out.append(boot)
        return out

    def build_member(self, bootstrap: Bootstrap) -> "LkhMember":
        return LkhMember(bootstrap, self.derivations)


class LkhMember(MemberView):
    """Member state for the key-hierarchy baseline: path node ids plus keys."""

    def __init__(self, bootstrap: Bootstrap, derivations: dict) -> None:
        super().__init__(bootstrap.member_id, bootstrap.individual_key, derivations)
        self.leaf_id: int = bootstrap.leaf_id
        self.chain: list[int] = list(bootstrap.extra["chain"])
        self.chain_set: set[int] = set(self.chain)
        self.keys: dict[int, SymKey] = {self.leaf_id: bootstrap.individual_key}
        for node_id, key in bootstrap.extra.get("path_keys", []):
            self.keys[node_id] = key
            self.knowledge.learn_key(key)
        self._refresh_group_key()

    def _refresh_group_key(self) -> None:
        root_key = self.keys.get(self.chain[-1])
        if root_key is not None:
            self.group_key = root_key  # learned when it came into self.keys

    def _apply_split(self, split: dict) -> None:
        """This member's leaf was split: the new internal node joins its chain."""
        self.chain.insert(1, split["new_node"])
        self.chain_set.add(split["new_node"])

    @classmethod
    def receive_message(cls, message: RekeyMessage, views: Sequence[LkhMember], meter: CostMeter) -> None:
        aux = message.aux
        split = aux.get("split")
        split_member = split["member"] if split else None
        # a list, not an iterator: every view scans all of it, in message
        # order, since a key learned from one payload may wrap a later one
        targets = [
            (payload.kek_id, target, payload) for payload, target in zip(message.payloads, aux["targets"])
        ]
        for view in views:
            if view.member_id == split_member:
                view._apply_split(split)
            keys = view.keys
            chain_set = view.chain_set
            matched = False
            for kek_id, target, payload in targets:
                if target not in chain_set or kek_id not in keys:
                    continue
                new_key = view._unwrap(keys[kek_id], payload)
                keys[target] = new_key
                view.knowledge.learn_key(new_key)
                matched = True
            if not matched:
                view.unwrap_misses += 1
            view._refresh_group_key()
