"""Code-keyed rekeying engine (protocol id ``ckcs``).

The server stores real keys only at the leaves (individual keys) and the
root (the group key).  Every other internal node holds a position code, and
its key is a pure function of the current group key and that code, so the
server recomputes middle keys lazily per epoch instead of storing them.

A join batch mounts the new members as one subtree beside the old root,
refreshes the group key with a one-way step that every current member can
take locally, and multicasts the new group key wrapped once per joiner.  A
leave batch wraps a fresh random group key under the keys of the cover (the
maximal leaver-free subtrees computed before removal) in a single multicast;
everyone else recomputes their middle keys from their codes.

Codes are secrets of the members on the corresponding paths, delivered only
over per-member secure channels.  The secrecy analyzer demonstrates that
publishing them breaks forward secrecy.
"""

from __future__ import annotations

from collections.abc import Sequence
from random import Random

from gkms import tree as kt
from gkms.core import (
    Bootstrap,
    CostMeter,
    EventError,
    EventOutput,
    MembershipEvent,
    MemberView,
    Notice,
    RekeyMessage,
    ServerProtocol,
)
from gkms.crypto import (
    KEY_LEN,
    SymKey,
    WrappedKey,
    decode_code,
    derive,
    derive_with_code,
    encode_code,
    random_key,
    random_keys,
    wrap,
)


class CkcsServer(ServerProtocol):
    name = "ckcs"
    arity = 2

    def __init__(self, member_ids: list[str], rng: Random, root_code: str | None = None) -> None:
        setup = CostMeter()  # initial group setup is out of band, unmetered
        self.tree = kt.build_balanced(member_ids, self.arity)
        kt.assign_codes(self.tree, rng, root_code)
        nodes = self.tree.nodes.values()
        leaves = [node for node in nodes if not node.children]
        # leaf keys in preorder, then the group key
        *leaf_keys, self._group_key = random_keys(rng, setup, len(leaves) + 1)
        for leaf, key in zip(leaves, leaf_keys):
            leaf.key = key
        self._code_log: set[str] = {node.code for node in nodes if node.code is not None}

    # -- state accessors ---------------------------------------------------

    @property
    def group_key(self) -> SymKey:
        return self._group_key

    def node_key(self, node_id: int) -> SymKey:
        """Current key at any node: stored for leaves, group key at the root,
        code-derived for middle nodes."""
        node = self.tree.node(node_id)
        if node_id == self.tree.root_id:
            return self._group_key
        if node.is_leaf:
            assert node.key is not None
            return node.key
        assert node.code is not None
        return derive_with_code(self._group_key, node.code)

    def all_codes(self) -> set[str]:
        """Every code ever assigned (for the codes-public analysis mode)."""
        return set(self._code_log)

    def dump(self) -> str:
        return self.tree.dump(key_of=self.node_key)

    # -- event handling ----------------------------------------------------

    def handle_event(self, event: MembershipEvent, rng: Random, meter: CostMeter) -> EventOutput:
        self._validate(event)
        self.derivations.clear()
        if event.op == "join":
            return self._join(event, rng, meter)
        return self._leave(event, rng, meter)

    def _blocked_root_codes(self, seq: int) -> set[str]:
        """The logged codes cut to ``ROOT_CODE_LEN`` digits: a draw is taken
        only if none of them is a prefix of it.

        The cut codes with no shorter prefix among them block disjoint
        ranges, so the space is used up exactly when those ranges add up to
        all of it; then this raises CodeSpaceError.  It draws nothing.
        Keeping every fresh lineage prefix-disjoint from every code ever used
        makes full-code collisions impossible, so no two nodes can ever hold
        equal code-derived keys by accident.
        """
        length = kt.ROOT_CODE_LEN
        blocked = {code[:length] for code in self._code_log}
        minimal = [c for c in blocked if not any(c[:k] in blocked for k in range(1, len(c)))]
        if sum(10 ** (length - len(c)) for c in minimal) == 10**length:
            raise kt.CodeSpaceError(
                f"event {seq}: no {length}-digit root code is left that is "
                "prefix-disjoint from every code used so far"
            )
        return blocked

    @staticmethod
    def _draw_root_code(rng: Random, blocked: set[str]) -> str:
        """Draw root codes until one has no prefix in ``blocked``, which
        :meth:`_blocked_root_codes` has found to leave one free."""
        length = kt.ROOT_CODE_LEN
        while True:
            code = "".join(rng.choice(kt.DIGITS) for _ in range(length))
            if not any(code[:k] in blocked for k in range(1, length + 1)):
                return code

    def _join(self, event: MembershipEvent, rng: Random, meter: CostMeter) -> EventOutput:
        joiners = list(event.member_ids)
        old_members = self.member_ids
        old_root_code = self.tree.root.code  # None when the root is a bare leaf
        # Normally the new root's code is the old one less a digit, which old
        # members derive locally.  A bare-leaf root has no code and a single
        # digit cannot shorten, so those cases start a fresh lineage below.
        # Whether the codes fit is decided first, so a join that cannot run
        # draws no key and changes nothing: a fresh lineage must be left,
        # and the joiners' deepest internal node, one digit per level below
        # the new root of a binary subtree over them, must fit a code.
        blocked: set[str] | None = None
        if old_root_code is None or len(old_root_code) < 2:
            blocked = self._blocked_root_codes(event.seq)
            new_code_len = kt.ROOT_CODE_LEN
        else:
            new_code_len = len(old_root_code) - 1
        deepest = new_code_len + (len(joiners) - 1).bit_length()
        if deepest > KEY_LEN:
            raise kt.CodeSpaceError(
                f"event {event.seq}: a join of {len(joiners)} needs codes of {deepest} "
                f"digits; a code has at most {KEY_LEN}"
            )

        individual: dict[str, SymKey] = {m: random_key(rng, meter) for m in joiners}
        fresh_code: str | None = None
        if blocked is None:
            new_root_code = kt.parent_code(old_root_code)  # type: ignore[arg-type]
        else:
            new_root_code = fresh_code = self._draw_root_code(rng, blocked)
        new_root_id, incoming_top_id = kt.attach_subtree(self.tree, joiners, new_root_code)
        for m, key in individual.items():
            self.tree.leaf_of(m).key = key
        kt.assign_codes_below(self.tree, new_root_id, rng)
        self._code_log.update(
            n.code for n in self.tree.walk(incoming_top_id) if n.code is not None
        )
        self._code_log.add(new_root_code)

        meter.keygen += 1  # one-way refresh of the group key
        new_group_key = derive(self._group_key)
        self._group_key = new_group_key

        output = EventOutput()
        if fresh_code is not None:
            # Old members cannot derive the fresh lineage; each gets the code
            # confidentially, wrapped under its individual key.  Codes stay
            # secret: in transcript plaintext a departed member could combine
            # an old group key with a later cover node's code and unwrap keys
            # it must not have.
            code_block = SymKey(encode_code(new_root_code))
            for member in old_members:
                leaf = self.tree.leaf_of(member)
                reset = RekeyMessage(
                    channel="unicast",
                    recipients=(member,),
                    payloads=(wrap(self.node_key(leaf.node_id), code_block, meter, kek_id=leaf.node_id),),
                    aux={"op": "code_reset", "new_root": new_root_id},
                )
                output.send(reset, meter)

        payloads = tuple(
            wrap(individual[m], new_group_key, meter, kek_id=self.tree.leaf_of(m).node_id)
            for m in joiners
        )
        message = RekeyMessage(
            channel="multicast",
            recipients=tuple(joiners),
            payloads=payloads,
            aux={"op": "join", "joined": joiners, "new_root": new_root_id},
        )
        for m in joiners:
            output.bootstraps.append(self._bootstrap_for(m, individual[m]))
        output.send(message, meter)
        notice = Notice(
            kind="join",
            recipients=old_members,
            aux={"op": "join", "new_root": new_root_id, "joined": joiners},
        )
        output.send(notice, meter)
        output.stats["keygen_dedup"] = len(joiners) + 1
        if fresh_code is not None:
            output.stats["code_resets"] = len(old_members)
        return output

    def _leave(self, event: MembershipEvent, rng: Random, meter: CostMeter) -> EventOutput:
        leavers = list(event.member_ids)
        cover_ids = kt.compute_cover(self.tree, leavers)
        cover_keys = [(node_id, self.node_key(node_id)) for node_id in cover_ids]

        removal = kt.remove_leaves(self.tree, leavers)
        remaining = self.member_ids
        new_group_key = random_key(rng, meter)
        self._group_key = new_group_key

        payloads = tuple(
            wrap(key, new_group_key, meter, kek_id=node_id) for node_id, key in cover_keys
        )
        message = RekeyMessage(
            channel="multicast",
            recipients=remaining,
            payloads=payloads,
            aux={
                "op": "leave",
                "left": leavers,
                "deleted": list(removal.removed_node_ids),
                "promotions": [list(p) for p in removal.promotions],
                "cover": list(cover_ids),
            },
        )
        output = EventOutput()
        output.send(message, meter)
        output.stats["keygen_dedup"] = 1
        output.stats["cover_size"] = len(cover_ids)
        return output

    # -- member construction -----------------------------------------------

    def _bootstrap_for(self, member: str, individual_key: SymKey, include_group_key: bool = False) -> Bootstrap:
        leaf = self.tree.leaf_of(member)
        extra: dict = {"path": self.tree.path_to_root(member)}
        if include_group_key:
            extra["group_key"] = self._group_key
        return Bootstrap(
            member_id=member, individual_key=individual_key, leaf_id=leaf.node_id, extra=extra
        )

    def initial_bootstraps(self) -> list[Bootstrap]:
        """Secure-channel deliveries that stand up the founding members."""
        out = []
        for member in self.member_ids:
            leaf = self.tree.leaf_of(member)
            assert leaf.key is not None
            out.append(self._bootstrap_for(member, leaf.key, include_group_key=True))
        return out

    def build_member(self, bootstrap: Bootstrap) -> "CkcsMember":
        return CkcsMember(bootstrap, self.derivations)


class CkcsMember(MemberView):
    """Client view: individual key, path codes, code-derived middle keys.

    Each derivation is looked up in ``derivations``, the server's member
    derivation table, before it is hashed: a middle key under
    ``(group key, code)``, a group key step under the old group key.
    """

    def __init__(self, bootstrap: Bootstrap, derivations: dict) -> None:
        assert bootstrap.individual_key is not None and bootstrap.leaf_id is not None
        super().__init__(bootstrap.member_id, bootstrap.individual_key, derivations)
        self.leaf_id = bootstrap.leaf_id
        self.path: list[kt.PathEntry] = list(bootstrap.extra["path"])
        for entry in self.path:
            if entry.code is not None:
                self.knowledge.learn_code(entry.code)
        self.middle_keys: dict[int, SymKey] = {}
        self._pending_root: kt.PathEntry | None = None
        group_key = bootstrap.extra.get("group_key")
        if group_key is not None:
            self._learn_group_key(group_key)
            self._recompute_middle_keys(CostMeter())  # founding members: set-up

    def _recompute_middle_keys(self, meter) -> None:
        """Refresh every non-root path key from the current group key."""
        group_key = self.group_key
        assert group_key is not None
        derivations = self.derivations
        self.middle_keys.clear()
        for entry in self.path[:-1]:
            assert entry.code is not None
            step = (group_key.data, entry.code)
            key = derivations.get(step)
            if key is None:
                key = derivations[step] = derive_with_code(group_key, entry.code)
            meter.member_derivations += 1
            self.middle_keys[entry.node_id] = key
            self.knowledge.learn_key(key)

    @classmethod
    def receive_notice(cls, notice: Notice, views: Sequence[CkcsMember], meter) -> None:
        if notice.kind != "join":
            raise EventError(f"unexpected notice kind {notice.kind!r}")
        new_root_id = notice.aux["new_root"]
        for view in views:
            view._apply_join_notice(new_root_id, meter)

    def _apply_join_notice(self, new_root_id: int, meter) -> None:
        if self._pending_root is not None and self._pending_root.node_id == new_root_id:
            entry = self._pending_root
            self._pending_root = None
        else:
            last = self.path[-1]
            assert last.code is not None
            entry = kt.PathEntry(new_root_id, kt.parent_code(last.code))
        self.path.append(entry)
        self.knowledge.learn_code(entry.code)  # type: ignore[arg-type]

        old = self.group_key
        assert old is not None
        new = self.derivations.get(old.data)
        if new is None:
            new = self.derivations[old.data] = derive(old)
        meter.member_derivations += 1  # one-way group key refresh
        self._learn_group_key(new)
        self._recompute_middle_keys(meter)

    @classmethod
    def receive_message(cls, message: RekeyMessage, views: Sequence[CkcsMember], meter) -> None:
        op = message.aux.get("op")
        payloads = message.payloads
        if op == "join":
            for view in views:
                view._apply_join_delivery(payloads, meter)
        elif op == "leave":
            deleted = set(message.aux["deleted"])
            for view in views:
                view._apply_leave(payloads, deleted, meter)
        elif op == "code_reset":
            new_root_id = message.aux["new_root"]
            for view in views:
                view._apply_code_reset(payloads[0], new_root_id)
        else:
            raise EventError(f"unexpected message op {op!r}")

    def _apply_code_reset(self, payload: WrappedKey, new_root_id: int) -> None:
        """A fresh root code, individually wrapped; held until the join notice
        names the node it belongs to."""
        if payload.kek_id != self.leaf_id:
            self.unwrap_misses += 1
            return
        code = decode_code(self._unwrap(self.individual_key, payload).data)
        self._pending_root = kt.PathEntry(new_root_id, code)
        self.knowledge.learn_code(code)

    def _apply_join_delivery(self, payloads: tuple[WrappedKey, ...], meter) -> None:
        for payload in payloads:
            if payload.kek_id == self.leaf_id:
                self._learn_group_key(self._unwrap(self.individual_key, payload))
                self._recompute_middle_keys(meter)
                return
        self.unwrap_misses += 1

    def _apply_leave(self, payloads: tuple[WrappedKey, ...], deleted: set[int], meter) -> None:
        if deleted:
            self.path = [e for e in self.path if e.node_id not in deleted]
            for node_id in deleted:
                self.middle_keys.pop(node_id, None)
        for payload in payloads:
            kek: SymKey | None = None
            if payload.kek_id == self.leaf_id:
                kek = self.individual_key
            elif payload.kek_id in self.middle_keys:
                kek = self.middle_keys[payload.kek_id]  # pre-refresh epoch value
            if kek is None:
                continue
            self._learn_group_key(self._unwrap(kek, payload))
            self._recompute_middle_keys(meter)
            return
        self.unwrap_misses += 1
