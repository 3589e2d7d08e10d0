"""Plain reference versions of the harness's own per-event work.

``gkms.harness`` computes the worst-spread leaver layout with a frontier
heap and the best-half layout with one stack pass per root child, logs the
tree with its own explicit-stack walk after each event, and hashes the
trace digest one event at a time with recipient ids joined, not
JSON-encoded.  The functions here are the direct forms those replace: the
greedy that re-scores every leaf's whole path for each pick, the largest
root subtree listed over ``KeyTree.walk``, a walk over ``KeyTree.walk``, and
one JSON blob of the whole trace.  Tests require the harness to give
exactly their results, orders included.
"""

from __future__ import annotations

import hashlib
import json

from gkms.core import Notice
from tree_reference import reference_subtree_members


def reference_best_half(tree, m):
    """The first ``m`` members of the first largest root subtree holding at
    least ``m``, or None when no root subtree holds that many."""
    best = None
    for child_id in tree.root.children:
        members = reference_subtree_members(tree, child_id)
        if len(members) >= m and (best is None or len(best) < len(members)):
            best = members
    return None if best is None else best[:m]


def reference_worst_spread(tree, m):
    """Pick the leaf with most untainted path nodes, first in registration order."""
    tainted = set()
    chosen = []
    leaves = [tree.leaf_of(member) for member in tree.members]
    for _ in range(m):
        best_leaf = None
        best_gain = -1
        for leaf in leaves:
            if leaf.member in chosen:
                continue
            path = [leaf.node_id] + tree.ancestors(leaf.node_id)
            gain = sum(1 for node_id in path if node_id not in tainted)
            if gain > best_gain:
                best_leaf, best_gain = leaf, gain
        assert best_leaf is not None
        chosen.append(best_leaf.member)
        tainted.add(best_leaf.node_id)
        tainted.update(tree.ancestors(best_leaf.node_id))
    return chosen


def reference_log_tree(server, node_key_log, sibling_pairs):
    """Add the server tree's node keys and binary sibling triples to the logs."""
    tree = server.tree
    for node in tree.walk():
        if node.key is not None:
            node_key_log.setdefault(node.key.data, set()).add(node.node_id)
        if not node.is_leaf and len(node.children) == 2:
            left, right = node.children
            sibling_pairs.add((left, right, node.node_id))
    node_key_log.setdefault(server.group_key.data, set()).add(tree.root_id)


def reference_trace_digest(trace):
    """SHA-256 of the whole trace serialised as one JSON string."""
    payload = []
    for record in trace.events:
        deliveries = []
        for delivery in record.output.deliveries:
            if isinstance(delivery, Notice):
                deliveries.append(
                    {
                        "kind": delivery.kind,
                        "recipients": list(delivery.recipients),
                        "aux": delivery.aux,
                    }
                )
            else:
                deliveries.append(
                    {
                        "channel": delivery.channel,
                        "recipients": list(delivery.recipients),
                        "kek_ids": [p.kek_id for p in delivery.payloads],
                        "ciphertexts": [p.ciphertext.hex() for p in delivery.payloads],
                        "aux": delivery.aux,
                    }
                )
        payload.append(
            {
                "seq": record.seq,
                "op": record.op,
                "members": list(record.member_ids),
                "n": record.n_at_event,
                "cost": {
                    "keygen": record.cost.keygen,
                    "encrypt": record.cost.encrypt,
                    "unicast": record.cost.unicast,
                    "multicast": record.cost.multicast,
                    "msg_size_keys": record.cost.payload_keys,
                },
                "group_key": record.group_key.data.hex(),
                "deliveries": deliveries,
            }
        )
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
