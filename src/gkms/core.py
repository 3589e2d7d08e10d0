"""Shared protocol machinery: events, messages, cost metering, interfaces.

The cost model meters the server only.  Five kinds are counted: key
generations, encryptions, unicast messages, multicast messages, and payload
keys (message size in key units).  Member-side hash work is tallied
separately as ``member_derivations`` and zero-payload signals as ``notices``;
neither contributes to the five server counters.  Secure-channel bootstrap
deliveries (individual keys, position codes) are out of band and unmetered.
"""

from __future__ import annotations

import csv
import io
import itertools
from abc import ABC, abstractmethod
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Literal

from gkms.crypto import SymKey, WrappedKey, random_key, unwrap
from gkms.tree import InsertResult, KeyTree, insert_leaf

CSV_COLUMNS = [
    "protocol",
    "n",
    "m",
    "op",
    "keygen",
    "encrypt",
    "unicast",
    "multicast",
    "msg_size_keys",
    "member_derivations",
]

Op = Literal["join", "leave"]


class EventError(Exception):
    """An event the current group state cannot accept."""


@dataclass(frozen=True)
class MembershipEvent:
    """A join or leave batch; ``ServerProtocol._validate`` decides whether it
    may happen."""

    seq: int
    op: Op
    member_ids: tuple[str, ...]


class RosterView:
    """``members[:present]`` less the leavers whose event index is below
    ``gone``, in ``members`` order: the members one single join or leave of
    a sequential batch addresses.

    ``cuts`` lists each leaver's ``(position in members, event index)``,
    sorted by position.  Every view of one batch shares its ``members``
    tuple and its ``cuts`` list, so a batch of m single joins or leaves
    copies the membership once, not m times.  A view iterates as the tuple
    a fresh ``tuple(tree.members)`` gave at that single join or leave; it
    is read through :meth:`spans`, ranges of ``members``, or :meth:`runs`,
    C-level slices of it, never a Python-level filter over the members.
    """

    __slots__ = ("members", "present", "cuts", "gone")

    def __init__(
        self,
        members: tuple[str, ...],
        present: int,
        cuts: list[tuple[int, int]] | tuple = (),
        gone: int = 0,
    ) -> None:
        self.members = members
        self.present = present
        self.cuts = cuts
        self.gone = gone

    def spans(self) -> list[tuple[int, int]]:
        """The view as the non-empty ``[start, end)`` ranges of ``members``
        between the members gone so far, in order."""
        gone = self.gone
        spans = []
        start = 0
        for cut, index in self.cuts:
            if index < gone:
                if start < cut:
                    spans.append((start, cut))
                start = cut + 1
        if start < self.present:
            spans.append((start, self.present))
        return spans

    def runs(self) -> list[tuple[str, ...]]:
        """The view as the slices of ``members`` that :meth:`spans` names."""
        members = self.members
        return [members[start:end] for start, end in self.spans()]

    def __iter__(self):
        return itertools.chain.from_iterable(self.runs())

    def __len__(self) -> int:
        return self.present - self.gone


class _Addressed:
    """A delivery to a fixed sequence of recipients: a tuple, or a view of
    its sequential batch's membership."""

    recipients: tuple[str, ...] | RosterView

    def recipient_runs(self) -> list[tuple[str, ...]]:
        """The recipients as consecutive non-empty tuples, in order, without
        copying them into one."""
        recipients = self.recipients
        if isinstance(recipients, RosterView):
            return recipients.runs()
        return [recipients]

    @cached_property
    def recipient_set(self) -> frozenset[str]:
        """The recipients as a set, built on the first direct member check;
        the batched delivery of ``MemberView.deliver`` never needs it."""
        return frozenset(self.recipients)


@dataclass(frozen=True)
class RekeyMessage(_Addressed):
    """One wire message carrying wrapped keys.

    ``aux`` is plaintext routing metadata (node ids for each payload,
    structural deltas).  It carries no key material and costs nothing in the
    key-unit size model.
    """

    channel: Literal["unicast", "multicast"]
    recipients: tuple[str, ...] | RosterView
    payloads: tuple[WrappedKey, ...]
    aux: dict

    def __post_init__(self) -> None:
        if not self.recipients:
            raise ValueError("message must have at least one recipient")
        if self.channel == "unicast" and len(self.recipients) != 1:
            raise ValueError("unicast messages have exactly one recipient")

    @property
    def size_in_keys(self) -> int:
        return len(self.payloads)


@dataclass(frozen=True)
class Notice(_Addressed):
    """Zero-payload signal (for example a join announcement)."""

    kind: str
    recipients: tuple[str, ...] | RosterView
    aux: dict

    def __post_init__(self) -> None:
        if not self.recipients:
            raise ValueError("notice must have at least one recipient")


@dataclass(frozen=True)
class Bootstrap:
    """Secure-channel delivery to one member; never metered."""

    member_id: str
    individual_key: SymKey | None
    leaf_id: int | None
    extra: dict


@dataclass
class EventOutput:
    """What one event produced.

    ``deliveries`` preserves emission order across messages and notices;
    later items may depend on state changes earlier ones cause, so receivers
    must apply them in order.  Bootstraps are secure-channel side deliveries
    applied before any wire traffic.
    """

    bootstraps: list[Bootstrap] = field(default_factory=list)
    deliveries: list[RekeyMessage | Notice] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def send(self, delivery: RekeyMessage | Notice, meter: CostMeter) -> None:
        """Emit one delivery and meter it: a message by channel and size, a
        notice outside the size model."""
        if isinstance(delivery, Notice):
            meter.notices += 1
        else:
            if delivery.channel == "unicast":
                meter.unicast += 1
            else:
                meter.multicast += 1
            meter.payload_keys += delivery.size_in_keys
        self.deliveries.append(delivery)

    @property
    def messages(self) -> list[RekeyMessage]:
        return [d for d in self.deliveries if isinstance(d, RekeyMessage)]

    @property
    def notices(self) -> list[Notice]:
        return [d for d in self.deliveries if isinstance(d, Notice)]


@dataclass
class CostMeter:
    """The cost record of one event: what it counted, and nothing else.

    Each event gets a fresh meter.  The server adds its work to the five
    server counters (``crypto`` counts keygen and encrypt, ``EventOutput.send``
    the messages and their size), and a tracked run's members add their
    derivations.  Work that is not charged to anyone (set-up, probes) runs
    against a throwaway meter.

    ``wrap_log``, when a dict, logs which key wrapped each ciphertext.  It is
    an analysis-side record (the wire carries only ciphertexts): the secrecy
    analyzer uses it to index unwrap attempts without changing their outcome,
    since exactly the wrapping key can open a payload.  A tracked run hands
    every event's meter the trace's own log; any other meter logs nothing.
    """

    keygen: int = 0
    encrypt: int = 0
    unicast: int = 0
    multicast: int = 0
    payload_keys: int = 0
    member_derivations: int = 0
    notices: int = 0
    wrap_log: dict[bytes, bytes] | None = field(default=None, repr=False, compare=False)


def csv_row(protocol: str, n: int, m: int, op: str, cost: CostMeter) -> dict:
    """One schema row for one event; ``n`` is the group size when the event
    starts."""
    return {
        "protocol": protocol,
        "n": n,
        "m": m,
        "op": op,
        "keygen": cost.keygen,
        "encrypt": cost.encrypt,
        "unicast": cost.unicast,
        "multicast": cost.multicast,
        "msg_size_keys": cost.payload_keys,
        "member_derivations": cost.member_derivations,
    }


def rows_to_csv(rows: list[dict], extra_columns: list[str] | None = None) -> str:
    columns = CSV_COLUMNS + (extra_columns or [])
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in columns})
    return out.getvalue()


class Knowledge:
    """Everything a principal has ever held: key values and node codes.

    ``keys`` lists each key value held, in the order it was learned: the
    ``bytes`` object the member obtained, so members that took a value from
    one event's ``derivations`` table share that one object.  ``learn_key``
    does not look for the value in ``keys``: every member learns a value
    once, where it obtains it, so the list holds one slot per distinct
    value.  ``key_bytes`` is the set of every value held.

    Monotone by construction; the secrecy analyzer seeds adversaries from it.
    """

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.codes: set[str] = set()

    def learn_key(self, key: SymKey) -> None:
        self.keys.append(key.data)

    @property
    def key_bytes(self) -> set[bytes]:
        """Every key value held, as a new set."""
        return set(self.keys)

    def learn_code(self, code: str) -> None:
        self.codes.add(code)


class MemberView(ABC):
    """Client-side state of one member.

    Concrete views keep whatever keys their protocol calls for; all of them
    expose the current group key and accumulate a knowledge log of every key
    value they held.  ``derivations`` is the server's member derivation
    table, shared with every member the server builds.
    """

    def __init__(self, member_id: str, individual_key: SymKey, derivations: dict) -> None:
        self.member_id = member_id
        self.individual_key = individual_key
        self.derivations = derivations
        self.group_key: SymKey | None = None
        self.knowledge = Knowledge()
        self.unwrap_misses = 0
        self.knowledge.learn_key(individual_key)

    def _unwrap(self, kek: SymKey, payload: WrappedKey) -> SymKey:
        """``unwrap(kek, payload)``, looked up in ``derivations`` first.

        The entry is keyed by the KEK value the member presents and the
        ciphertext, so a member reads only what its own decrypt would
        return: AES-SIV is deterministic.  A failed unwrap raises and stores
        nothing.
        """
        step = ("unwrap", kek.data, payload.ciphertext)
        key = self.derivations.get(step)
        if key is None:
            key = self.derivations[step] = unwrap(kek, payload)
        return key

    def _check_addressed(self, delivery: RekeyMessage | Notice) -> None:
        """Raise unless this member is one of the delivery's recipients."""
        if self.member_id not in delivery.recipient_set:
            raise EventError(
                f"message not addressed to {self.member_id}: {tuple(delivery.recipients)}"
            )

    @staticmethod
    def deliver(delivery: RekeyMessage | Notice, members: Mapping[str, MemberView], meter) -> None:
        """Apply one delivery to every recipient that ``members`` tracks, in
        recipient order, with one call on their class.

        The views are looked up by the delivery's own recipients, so only
        an addressed member can be reached; a recipient ``members`` does not
        hold (departed or untracked) is skipped.  Every view of one
        ``members`` map comes from one server, so they share a class.
        """
        get = members.get
        views = [view for run in delivery.recipient_runs() for view in map(get, run) if view is not None]
        if not views:
            return
        if isinstance(delivery, Notice):
            type(views[0]).receive_notice(delivery, views, meter)
        else:
            type(views[0]).receive_message(delivery, views, meter)

    def apply_message(self, message: RekeyMessage, meter) -> None:
        """Apply one message to this member alone, after checking that it is
        addressed to it."""
        self._check_addressed(message)
        self.receive_message(message, (self,), meter)

    def apply_notice(self, notice: Notice, meter) -> None:
        """Apply one notice to this member alone, after checking that it is
        addressed to it."""
        self._check_addressed(notice)
        self.receive_notice(notice, (self,), meter)

    @classmethod
    @abstractmethod
    def receive_message(cls, message: RekeyMessage, views: Sequence[MemberView], meter) -> None:
        """Apply one message to ``views``, recipients of it of this class, in
        order.  The message is parsed once; each view then does only its own
        work."""

    @classmethod
    def receive_notice(cls, notice: Notice, views: Sequence[MemberView], meter) -> None:
        """Apply one notice to ``views`` as :meth:`receive_message` does."""
        raise EventError(f"{cls.__name__} does not handle notices")

    def _learn_group_key(self, key: SymKey) -> None:
        self.group_key = key
        self.knowledge.learn_key(key)


class ServerProtocol(ABC):
    """Server-side engine of one protocol instance over its key tree."""

    name: str
    arity: int
    tree: KeyTree

    @property
    def group_key(self) -> SymKey:
        return self.tree.root.key

    def node_key(self, node_id: int) -> SymKey:
        """Current key of any tree node."""
        return self.tree.node(node_id).key

    @property
    def member_ids(self) -> tuple[str, ...]:
        return self.tree.members

    @property
    def member_count(self) -> int:
        return self.tree.member_count

    @abstractmethod
    def handle_event(self, event: MembershipEvent, rng: Random, meter: CostMeter) -> EventOutput: ...

    @cached_property
    def derivations(self) -> dict:
        """The member derivation table: one event's one-way derivations and
        successful unwraps, each keyed by its full inputs and holding its
        output.

        ``build_member`` hands it to every member it builds, and a member
        looks a derivation or an unwrap up here before it computes it, so
        the members of a subtree compute each shared step once: memo
        functions (Michie, "Memo functions and machine learning", Nature
        1968), scoped to one event.  An unwrap entry's key starts with the
        tag ``"unwrap"``, so it never meets a derivation entry.  Every
        ``handle_event`` empties the table first, so it holds at most one
        event's entries.  Server code never reads or writes an entry: the
        server's keys stay an independent check on the members' keys.
        """
        return {}

    @abstractmethod
    def build_member(self, bootstrap: Bootstrap) -> MemberView:
        """Construct the client view a bootstrap delivery creates; it shares
        ``derivations``.  A member meters each derivation it needs whether
        or not the table already held it."""

    def _validate(self, event: MembershipEvent) -> None:
        """The one membership check: raise EventError unless the event may
        happen to the current group.  Every ``handle_event`` calls it before
        it changes anything, and the tree operations rely on it."""
        if event.op not in ("join", "leave"):
            raise EventError(f"unknown op {event.op!r}")
        if not event.member_ids:
            raise EventError("event must name at least one member")
        if len(set(event.member_ids)) != len(event.member_ids):
            raise EventError("duplicate member ids in one event")
        if event.op == "join":
            stale = [m for m in event.member_ids if self.tree.has_member(m)]
            if stale:
                raise EventError(f"members already present: {stale}")
        else:
            unknown = [m for m in event.member_ids if not self.tree.has_member(m)]
            if unknown:
                raise EventError(f"cannot remove unknown members: {unknown}")
            if len(event.member_ids) >= self.tree.member_count:
                raise EventError("cannot remove every member; the group may not empty")

    def _sequential_batch(self, event: MembershipEvent, rng: Random, meter: CostMeter) -> EventOutput:
        """Run a batch as a sequence of single joins or leaves, in event order.

        For the sequential baselines, which define ``_join_one`` and
        ``_leave_one``; each returns the ancestor chain whose keys it drew.
        Each single event gets the members its multicasts and notices
        address as a :class:`RosterView`: a joiner the members before it
        joined, a leaver the members left after it.  The views of one batch
        share one membership tuple and, for leaves, one sorted list of cut
        positions.  The ``keygen_dedup`` stat is the batch's keygen less the
        chain keys drawn again for a node an earlier single event already
        rekeyed.
        """
        self._validate(event)
        self.derivations.clear()
        members = self.member_ids
        before = len(members)
        batch = range(len(event.member_ids))
        if event.op == "join":
            step = self._join_one
            joined = members + event.member_ids
            views = [RosterView(joined, before + index) for index in batch]
        else:
            step = self._leave_one
            position = dict(zip(members, range(before)))
            cuts = sorted((position[member], index) for index, member in enumerate(event.member_ids))
            views = [RosterView(members, before, cuts, index + 1) for index in batch]
        output = EventOutput()
        keygen_before = meter.keygen
        chain_keys = 0
        touched: set[int] = set()
        for member, view in zip(event.member_ids, views):
            chain = step(member, rng, meter, output, view)
            chain_keys += len(chain)
            touched.update(chain)
        output.stats["keygen_dedup"] = meter.keygen - keygen_before - chain_keys + len(touched)
        return output

    def _place_joiner(
        self, member: str, rng: Random, meter: CostMeter
    ) -> tuple[SymKey, InsertResult, dict | None]:
        """Draw a sequential baseline joiner's individual key and give it a
        leaf.  Returns the key, the placement and the split record (None
        when the joiner filled an open slot)."""
        individual = random_key(rng, meter)
        inserted = insert_leaf(self.tree, member)
        self.tree.node(inserted.leaf_id).key = individual
        split = None
        if inserted.split_member is not None:
            split = {
                "member": inserted.split_member,
                "new_node": inserted.parent_id,
                "joiner_leaf": inserted.leaf_id,
            }
        return individual, inserted, split
