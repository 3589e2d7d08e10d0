"""One-way key-derivation rekeying (ternary tree, self-updating joins).

Like the key-hierarchy baseline, every node holds its own key and members
hold their path keys.  The difference is the join: instead of redrawing and
re-distributing path keys, the server steps every key on the joiner's path
through a one-way derivation, sends the stepped keys to the joiner over one
unicast, and announces the affected node ids in a payload-free notice.
Current members then step their own copies locally — the old keys are the
pre-images, so the joiner learns nothing about traffic from before it
arrived.  When a slot-split is needed, the brand-new internal node has no
previous key to step, so the server draws a fresh random one and unicasts it
to the displaced member under that member's leaf key (a key derived from any
long-lived value would repeat if churn ever splits the same member again,
re-creating retired wrapping keys).  Leaves redraw fresh random path keys (a
derived key would still be computable by the departed member) and distribute
them wrapped under child keys, as in the key hierarchy.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from gkms.baselines.lkh import LkhMember, LkhServer
from gkms.core import (
    Bootstrap,
    CostMeter,
    EventOutput,
    Notice,
    RekeyMessage,
    RosterView,
)
from gkms.crypto import derive, random_key, wrap


class OkdServer(LkhServer):
    """Key server for the derive-step baseline."""

    name = "okd"
    arity = 3

    def _join_one(
        self,
        member: str,
        rng: random.Random,
        meter: CostMeter,
        output: EventOutput,
        old_members: RosterView,
    ) -> list[int]:
        individual, inserted, split = self._place_joiner(member, rng, meter)
        new_node_id = split["new_node"] if split else None

        chain = list(self.tree.ancestors(inserted.leaf_id))
        for node_id in chain:
            node = self.tree.node(node_id)
            if node_id == new_node_id:
                # brand-new internal node: nothing exists to step, so it gets
                # fresh randomness; the displaced member receives it by
                # unicast below, everyone else never needs it
                node.key = random_key(rng, meter)
            else:
                node.key = derive(node.key)
                meter.keygen += 1

        payloads = []
        for node_id in chain:
            node_key = self.tree.node(node_id).key
            payloads.append(wrap(individual, node_key, meter, kek_id=inserted.leaf_id))
        joiner_msg = RekeyMessage(
            channel="unicast",
            recipients=(member,),
            payloads=tuple(payloads),
            aux={"op": "join", "joined": [member], "targets": list(chain), "split": split},
        )
        output.send(joiner_msg, meter)

        if split is not None:
            victim_leaf = self.tree.leaf_of(inserted.split_member)
            victim_msg = RekeyMessage(
                channel="unicast",
                recipients=(inserted.split_member,),
                payloads=(
                    wrap(
                        victim_leaf.key,
                        self.tree.node(new_node_id).key,
                        meter,
                        kek_id=victim_leaf.node_id,
                    ),
                ),
                aux={
                    "op": "join",
                    "joined": [member],
                    "targets": [new_node_id],
                    "split": split,
                },
                )
            output.send(victim_msg, meter)

        notice = Notice(
            kind="join",
            recipients=old_members,
            aux={"op": "join", "joined": [member], "chain": list(chain), "split": split},
        )
        output.send(notice, meter)

        output.bootstraps.append(self._bootstrap_for(member, individual))
        return chain

    def build_member(self, bootstrap: Bootstrap) -> "OkdMember":
        return OkdMember(bootstrap, self.derivations)


class OkdMember(LkhMember):
    """Member that steps its own path keys on a join notice.

    Each step is looked up in ``derivations``, the server's member
    derivation table, under the old key before it is hashed.
    """

    @classmethod
    def receive_notice(cls, notice: Notice, views: Sequence[OkdMember], meter: CostMeter) -> None:
        aux = notice.aux
        split = aux.get("split")
        new_node = split["new_node"] if split else None
        # a fresh node's key travels by unicast, not stepping
        stepped = [node_id for node_id in aux["chain"] if node_id != new_node]
        derivations_made = 0
        for view in views:
            keys = view.keys
            derivations = view.derivations
            for node_id in stepped:
                old = keys.get(node_id)
                if old is None:
                    continue
                new = derivations.get(old.data)
                if new is None:
                    new = derivations[old.data] = derive(old)
                keys[node_id] = new
                derivations_made += 1
                view.knowledge.learn_key(new)
            view._refresh_group_key()
        meter.member_derivations += derivations_made
