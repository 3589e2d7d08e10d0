"""One churn driver for the four engines, and the helpers the tests share.

``churn(protocol, n, steps, seed)`` runs ``(op, m, layout)`` steps through
``handle_event`` with tracked members and, after every event, checks each
invariant below that applies to the protocol:

(a) members agree with the server: the tracked set equals the server's,
    each member holds the server's group key, and no unwrap missed;
(b) lkh, oft, okd: every multicast and notice a single join or leave sends
    addresses a fresh ``tuple(tree.members)`` taken where that single event
    stands (before the joiner is placed, after the leaver is gone), also
    through ``recipient_set`` and ``recipient_runs``; unicasts are 1-tuples;
(c) lkh, oft, okd: every ``insert_leaf`` lands where a fresh breadth-first
    scan says (``tree_reference.assert_insert_matches_reference``);
(d) ckcs: no code of a live internal node prefixes the code of another
    that is neither its ancestor nor its descendant;
(e) ckcs: the six counts equal ``predicted_cost`` of the pre-event tree;
(f) oft: the fold holds: ``fold_oracle``, a refold from the leaf keys
    alone, matches every internal node, ``_dirty <= len(path)`` holds for
    every recipient after every message, and each member's path is a fresh
    fold of its own levels holding the server's keys;
(g) lkh, okd: no leave deletes a node on a recipient's chain, checked on
    every recipient before the leave message reaches them;
(h) the derivation table is cleared once per event, the server never
    touches it, and every entry is this event's and equals a recomputation
    of its inputs; without tracked members it stays empty;
(i) ckcs: a ``CodeSpaceError`` ends the plan and changes nothing.

A join step adds m fresh members; a leave step takes up to m in ``layout``
(random where best-half finds no root subtree of that size), clamped so one
member stays, and is skipped when only one is left.  Steps come from the
``STEPS`` hypothesis strategy (or ``SMALL_STEPS``, of shorter plans and
smaller batches), which shrinks a failing plan to its shortest form, or
from ``random_steps``.  The driver returns how many of each check
it made, so a test can assert its coverage.

Members get each delivery as a tracked run hands it to them: all of its
recipients in one ``MemberView.deliver`` call (``deliver``).
``deliver_one_by_one`` hands it over member by member instead, through
``apply_message`` and ``apply_notice``, to compare the two.
"""

from collections import Counter
from random import Random
from unittest import mock

from hypothesis import strategies as st

from gkms import core
from gkms import tree as kt
from gkms.core import CostMeter, MembershipEvent, MemberView, Notice, RosterView
from gkms.crypto import SymKey, WrappedKey, blind, derive, derive_with_code, mix, unwrap
from gkms.harness import LAYOUTS, ScenarioError, leaver_layout, make_server
from tree_reference import assert_insert_matches_reference, cover_oracle

PROTOCOLS = ("ckcs", "lkh", "oft", "okd")
BASELINES = ("lkh", "oft", "okd")

STEPS = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]), st.integers(1, 8), st.sampled_from(LAYOUTS)),
    min_size=1,
    max_size=10,
)
SMALL_STEPS = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]), st.integers(1, 6), st.sampled_from(LAYOUTS)),
    min_size=1,
    max_size=8,
)


def random_steps(rng: Random, events: int, max_batch: int) -> list[tuple[str, int, str]]:
    """A seeded plan of ``events`` steps, each a join or leave of 1 to
    ``max_batch`` members in a random layout."""
    return [
        (rng.choice(("join", "leave")), rng.randint(1, max_batch), rng.choice(LAYOUTS))
        for _ in range(events)
    ]


def members(n):
    return [f"u{i}" for i in range(1, n + 1)]


def build_views(server):
    return {b.member_id: server.build_member(b) for b in server.initial_bootstraps()}


def deliver(views, output, meter=None):
    """Hand ``output`` to ``views`` as a tracked run does: each delivery to
    all of its recipients in ``views`` with one ``MemberView.deliver`` call."""
    meter = meter or CostMeter()
    for delivery in output.deliveries:
        MemberView.deliver(delivery, views, meter)


def deliver_one_by_one(views, output, meter=None):
    """Hand ``output`` to ``views`` member by member, through each view's
    own ``apply_message`` or ``apply_notice``, in recipient order."""
    meter = meter or CostMeter()
    for delivery in output.deliveries:
        for view in filter(None, map(views.get, delivery.recipients)):
            if isinstance(delivery, Notice):
                view.apply_notice(delivery, meter)
            else:
                view.apply_message(delivery, meter)


def assert_agreement(server, views):
    assert set(views) == set(server.member_ids)
    for member_id, view in views.items():
        assert view.group_key == server.group_key, member_id
        assert view.unwrap_misses == 0, member_id


def fold_oracle(tree):
    """Refold an oft tree from its leaf keys alone, check every internal
    node's stored key against the refold, and return the refolded root key.

    In reverse preorder every child comes before its parent, so one pass
    folds each internal node from its children's refolded keys, never from
    a stored internal key.
    """
    folded = {}
    for node in reversed(list(tree.walk())):
        if node.is_leaf:
            folded[node.node_id] = node.key
            continue
        left, right = node.children
        folded[node.node_id] = key = mix(blind(folded[left]), blind(folded[right]))
        assert node.key == key, f"internal node {node.node_id} breaks the fold"
    return folded[tree.root_id]


def reference_path(individual_key, blinds, sides):
    """The parent keys of a from-scratch fold of one member's levels."""
    key, path = individual_key, []
    for blinded, side in zip(blinds, sides, strict=True):
        mine = blind(key)
        key = mix(blinded, mine) if side == 0 else mix(mine, blinded)
        path.append(key)
    return path


def predicted_cost(tree, event):
    """(keygen, encrypt, unicast, multicast, payload_keys, notices) of one
    ckcs event, from the tree before it.

    A join of m draws m individual keys and steps the group key, wraps it
    once per joiner, and multicasts those wraps; when the old root is a bare
    leaf or its code cannot shorten, each of the r old members also gets the
    fresh root code by unicast.  A leave draws one group key and wraps it
    once per cover node in one multicast.
    """
    if event.op == "join":
        m, root = len(event.member_ids), tree.root
        r = tree.member_count if root.is_leaf or len(root.code) < 2 else 0
        return (m + 1, m + r, r, 1, m + r, 1)
    cover = len(cover_oracle(tree, list(event.member_ids)))
    return (1, cover, 0, 1, cover, 0)


def assert_codes_prefix_disjoint(tree) -> int:
    """Check that no live internal node's code prefixes the code of another
    that is neither its ancestor nor its descendant; return how many such
    separated pairs the tree holds.

    In code order, the codes a code prefixes follow it in one run, so one
    scan meets every prefixed pair, and each must be an ancestor pair.
    Every other pair passes whatever its nodes, so every separated pair is
    checked: all pairs less the ancestor pairs.
    """
    internal = sorted((node.code, node.node_id) for node in tree.walk() if node.children)
    above = {node_id: set(tree.ancestors(node_id)) for _, node_id in internal}
    for i, (code, node_id) in enumerate(internal):
        for other_code, other_id in internal[i + 1:]:
            if not other_code.startswith(code):
                break
            assert node_id in above[other_id] or other_id in above[node_id], (code, other_code)
    k = len(internal)
    return k * (k - 1) // 2 - sum(map(len, above.values()))


class StampedTable(dict):
    """A derivation table that stamps every entry with the event that wrote
    it and counts what happens to it while the server handles an event."""

    def __init__(self) -> None:
        super().__init__()
        self.event = 0
        self.serving = False
        self.stamps: dict = {}
        self.server_touches = 0
        self.clears = 0

    def __setitem__(self, step, value) -> None:
        self.server_touches += self.serving
        self.stamps[step] = self.event
        super().__setitem__(step, value)

    def get(self, step, default=None):
        self.server_touches += self.serving
        return super().get(step, default)

    def __getitem__(self, step):
        self.server_touches += self.serving
        return super().__getitem__(step)

    def __contains__(self, step) -> bool:
        self.server_touches += self.serving
        return super().__contains__(step)

    def clear(self) -> None:
        self.clears += 1
        super().clear()


def recompute(protocol: str, step) -> SymKey:
    """The derivation or unwrap a table entry stands for, computed from its
    key alone."""
    if isinstance(step, tuple) and step[0] == "unwrap":
        _, kek, ciphertext = step
        return unwrap(SymKey(kek), WrappedKey(ciphertext, "entry"))
    assert protocol != "lkh"  # lkh members derive nothing
    if protocol == "oft":
        below, blinded, side = step
        assert side in (0, 1)
        mine, theirs = blind(SymKey(below)), SymKey(blinded)
        return mix(theirs, mine) if side == 0 else mix(mine, theirs)
    if protocol == "ckcs" and isinstance(step, tuple):
        group_key, code = step
        return derive_with_code(SymKey(group_key), code)
    assert isinstance(step, bytes)
    return derive(SymKey(step))


def _record_snapshots(server):
    """Wrap the server's single join and leave so that every delivery each
    sends is paired with a fresh ``tuple(tree.members)`` taken where the
    single event stands: before the joiner is placed, after the leaver is
    gone."""
    sent = []
    join_one, leave_one = server._join_one, server._leave_one

    def join(member, rng, meter, output, old_members):
        snapshot = tuple(server.tree.members)
        start = len(output.deliveries)
        chain = join_one(member, rng, meter, output, old_members)
        sent.extend((d, snapshot) for d in output.deliveries[start:])
        return chain

    def leave(member, rng, meter, output, remaining):
        start = len(output.deliveries)
        chain = leave_one(member, rng, meter, output, remaining)
        snapshot = tuple(server.tree.members)
        sent.extend((d, snapshot) for d in output.deliveries[start:])
        return chain

    server._join_one, server._leave_one = join, leave
    return sent


def _assert_addressed_to_snapshots(sent, output):
    assert len(sent) == len(output.deliveries)
    for delivery, snapshot in sent:
        recipients = delivery.recipients
        if getattr(delivery, "channel", None) == "unicast":
            assert isinstance(recipients, tuple) and len(recipients) == 1
            continue
        assert isinstance(recipients, RosterView)
        assert list(recipients) == list(snapshot)
        assert len(recipients) == len(snapshot)
        assert tuple(recipients) == snapshot
        assert delivery.recipient_set == frozenset(snapshot)
        assert [member for run in delivery.recipient_runs() for member in run] == list(snapshot)
    sent.clear()


def _ckcs_state(server, rng):
    """Everything a failed ckcs event must leave as it was."""
    tree = server.tree
    nodes = [(n.node_id, n.parent, tuple(n.children), n.key, n.code, n.member) for n in tree.nodes.values()]
    return nodes, tree.root_id, server.group_key, server.member_ids, server.all_codes(), rng.getstate()


def _assert_oft_paths(server, views):
    for member_id, view in views.items():
        leaf = server.tree.leaf_of(member_id)
        assert view.chain == [leaf.node_id] + server.tree.ancestors(leaf.node_id)
        assert view.individual_key == leaf.key
        assert view.path == reference_path(view.individual_key, view.blinds, view.sides)
        assert view.path == [server.node_key(i) for i in view.chain[1:]]


def plan_events(server, n, steps, rng):
    """The events ``steps`` make of a server founded with ``n`` members,
    each built from the server as the previous event left it; leavers are
    drawn from ``rng``."""
    joined = n
    for seq, (op, m, layout) in enumerate(steps, start=1):
        if op == "join":
            ids = [f"u{joined + k}" for k in range(1, m + 1)]
            joined += m
        else:
            m = min(m, server.member_count - 1)
            if m < 1:
                continue
            try:
                ids = leaver_layout(server.tree, m, layout, rng)
            except ScenarioError:
                ids = leaver_layout(server.tree, m, "random", rng)
        yield MembershipEvent(seq, op, tuple(ids))


def churn(protocol, n, steps, seed, root_code=None, track=True) -> Counter:
    """Run ``steps`` on a fresh ``protocol`` server of ``n`` members, seeded
    with ``seed``, checking every invariant of the module docstring after
    every event.  Members are tracked unless ``track`` is false.  Returns
    the number of ``events`` run, ``placements`` checked, separated
    ``code_pairs`` checked, ckcs ``code_resets`` and ``code_space_ends``."""
    rng = Random(seed)
    server = make_server(protocol, members(n), rng, root_code)
    table = server.derivations = StampedTable()
    views = build_views(server) if track else {}
    counts = Counter()
    sent = _record_snapshots(server) if protocol in BASELINES else None

    def checked_insert(tree, member):
        counts["placements"] += 1
        return assert_insert_matches_reference(tree, member)

    with mock.patch.object(core, "insert_leaf", checked_insert):
        for event in plan_events(server, n, steps, rng):
            seq = event.seq
            if protocol == "ckcs":
                expected = predicted_cost(server.tree, event)
                before = _ckcs_state(server, rng)
            meter = CostMeter()
            table.event, table.serving = seq, True
            clears = table.clears
            try:
                output = server.handle_event(event, rng, meter)
            except kt.CodeSpaceError:  # (i)
                assert protocol == "ckcs"
                assert _ckcs_state(server, rng) == before
                assert meter == CostMeter()
                counts["code_space_ends"] += 1
                break
            finally:
                table.serving = False
            counts["events"] += 1
            assert table.clears == clears + 1  # (h)
            assert table.server_touches == 0
            if sent is not None:  # (b)
                _assert_addressed_to_snapshots(sent, output)
            if protocol == "ckcs":  # (e), (d)
                got = (meter.keygen, meter.encrypt, meter.unicast)
                got += (meter.multicast, meter.payload_keys, meter.notices)
                assert got == expected, (seq, event)
                counts["code_resets"] += expected[2] > 0
                counts["code_pairs"] += assert_codes_prefix_disjoint(server.tree)
            if protocol == "oft":  # (f)
                assert fold_oracle(server.tree) == server.group_key
            if track:
                for boot in output.bootstraps:
                    views[boot.member_id] = server.build_member(boot)
                for gone in event.member_ids if event.op == "leave" else ():
                    views.pop(gone)
                meter = CostMeter()
                for delivery in output.deliveries:
                    recipients = list(filter(None, map(views.get, delivery.recipients)))
                    if protocol in ("lkh", "okd") and delivery.aux["op"] == "leave":  # (g)
                        for view in recipients:
                            assert view.chain_set.isdisjoint(delivery.aux["deleted"]), (seq, view.member_id)
                    MemberView.deliver(delivery, views, meter)
                    if protocol == "oft":  # (f)
                        for view in recipients:
                            assert view._dirty <= len(view.path), (seq, view.member_id)
                assert_agreement(server, views)  # (a)
                if protocol == "oft":  # (f)
                    _assert_oft_paths(server, views)
            for step, value in table.items():  # (h)
                assert table.stamps[step] == seq
                assert value == recompute(protocol, step)
            assert track or not table
    return counts
