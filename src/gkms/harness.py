"""Deterministic scenario runner and measurement sweeps.

A scenario is a line-oriented script: one ``init`` line fixing the protocol,
starting group size and seed, followed by ``join``/``leave`` steps.  The
runner builds the server, replays the script, delivers every message to the
tracked member states in emission order, runs a probe test after every event
(every current member must hold the server's group key, so one real unwrap of
a fresh key wrapped under it speaks for them all; every departed member must
fail, so none may hold that key), and meters costs into one CSV row per
event.  Runs are deterministic: the same scenario text reproduces the same
trace digest byte for byte.

``sweep`` runs one-event measurements over a (protocol, n, m, op) grid with
members untracked, so the wall-time column reflects server-side rekeying
work only.  Throughout, ``n`` is the group size at the moment the event
starts.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import re
import time
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from random import Random

from gkms.baselines import LkhServer, OftServer, OkdServer
from gkms.ckcs import CkcsServer
from gkms.core import (
    CostMeter,
    EventOutput,
    MembershipEvent,
    MemberView,
    Notice,
    RekeyMessage,
    RosterView,
    ServerProtocol,
    csv_row,
)
from gkms.crypto import KEY_LEN, SymKey, UnwrapError, random_key, unwrap, wrap
from gkms.tree import KeyTree, Node

OPS = ("join", "leave")
LAYOUTS = ("random", "best-half", "worst-spread")

# Largest group a scenario or sweep cell may reach.  Every member gets a
# leaf and a key up front, so an unbounded size would run until memory ran
# out instead of failing as bad input.
MAX_GROUP_SIZE = 2**20


class ScenarioError(Exception):
    """Malformed or inconsistent scenario script."""


class ProbeError(AssertionError):
    """A probe test failed; carries the diagnostic state dump."""


@dataclass(frozen=True)
class Step:
    op: str  # "join" | "leave"
    count: int | None = None
    ids: tuple[str, ...] | None = None
    layout: str | None = None

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ScenarioError(f"unknown step op {self.op!r}")
        if (self.count is None) == (self.ids is None):
            raise ScenarioError("step needs a count or explicit ids, not both")
        if self.count is not None and self.count < 1:
            raise ScenarioError("step batch size must be at least 1")
        if self.ids is not None:
            if self.op != "leave":
                raise ScenarioError("explicit ids are only supported for leave steps")
            if not self.ids:
                raise ScenarioError("explicit ids must name at least one member")
        if self.layout is not None:
            if self.op != "leave" or self.ids is not None:
                raise ScenarioError("layout applies to counted leave steps only")
            if self.layout not in LAYOUTS:
                raise ScenarioError(f"unknown layout {self.layout!r}")


@dataclass(frozen=True)
class Scenario:
    protocol: str
    n: int
    seed: int
    steps: tuple[Step, ...]
    root_code: str | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {self.protocol!r}")
        if self.n < 1:
            raise ScenarioError("initial group size must be at least 1")
        if self.root_code is not None:
            if self.protocol != "ckcs":
                raise ScenarioError(f"protocol {self.protocol!r} does not use position codes")
            code = self.root_code
            if not (code.isascii() and code.isdigit() and len(code) <= KEY_LEN):
                raise ScenarioError(f"root_code must be 1 to {KEY_LEN} ASCII digits, got {code!r}")
        reach = self.n + sum(step.count for step in self.steps if step.op == "join")
        if reach > MAX_GROUP_SIZE:
            raise ScenarioError(
                f"n plus all joins is {reach}, above the group size cap of {MAX_GROUP_SIZE}"
            )


PROTOCOLS = {
    "ckcs": CkcsServer,
    "lkh": LkhServer,
    "oft": OftServer,
    "okd": OkdServer,
}


def make_server(protocol: str, member_ids: list[str], rng: Random, root_code: str | None = None) -> ServerProtocol:
    if protocol not in PROTOCOLS:
        raise ScenarioError(f"unknown protocol {protocol!r}")
    if protocol == "ckcs":
        return CkcsServer(member_ids, rng, root_code=root_code)
    if root_code is not None:
        raise ScenarioError(f"protocol {protocol!r} does not use position codes")
    return PROTOCOLS[protocol](member_ids, rng)


# -- scenario text format ----------------------------------------------------


_INIT_KEYS = ("n", "protocol", "seed", "root_code")
_UNSIGNED = re.compile(r"[0-9]+")
_SIGNED = re.compile(r"-?[0-9]+")


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario script; any malformed text raises ScenarioError."""
    init: dict | None = None
    steps: list[Step] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "init":
            if init is not None:
                raise ScenarioError(f"line {line_no}: duplicate init line")
            init = _parse_kv(tokens[1:], line_no)
            for required in ("n", "protocol", "seed"):
                if required not in init:
                    raise ScenarioError(f"line {line_no}: init needs {required}=")
            for key, pattern in (("n", _UNSIGNED), ("seed", _SIGNED)):
                if not pattern.fullmatch(init[key]):
                    raise ScenarioError(f"line {line_no}: {key} must be a decimal integer, got {init[key]!r}")
                init[key] = _decimal(init[key], line_no)
        elif kind in OPS:
            if init is None:
                raise ScenarioError(f"line {line_no}: init must come first")
            steps.append(_parse_step(kind, tokens[1:], line_no))
        else:
            raise ScenarioError(f"line {line_no}: unknown directive {kind!r}")
    if init is None:
        raise ScenarioError("scenario has no init line")
    return Scenario(
        protocol=init["protocol"],
        n=init["n"],
        seed=init["seed"],
        steps=tuple(steps),
        root_code=init.get("root_code"),
    )


def _decimal(text: str, line_no: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter will convert
        raise ScenarioError(f"line {line_no}: number of {len(text)} digits is too long") from None


def _parse_kv(tokens: list[str], line_no: int) -> dict:
    out = {}
    for token in tokens:
        if "=" not in token:
            raise ScenarioError(f"line {line_no}: expected key=value, got {token!r}")
        key, value = token.split("=", 1)
        if key not in _INIT_KEYS:
            raise ScenarioError(f"line {line_no}: unknown init key {key!r}")
        if key in out:
            raise ScenarioError(f"line {line_no}: duplicate {key}=")
        out[key] = value
    return out


def _parse_step(op: str, tokens: list[str], line_no: int) -> Step:
    fields: dict = {}
    for token in tokens:
        if _UNSIGNED.fullmatch(token):
            name, value = "count", _decimal(token, line_no)
        elif token.startswith("ids="):
            name, value = "ids", tuple(part for part in token[4:].split(",") if part)
        elif token.startswith("layout="):
            name, value = "layout", token[7:]
        else:
            raise ScenarioError(f"line {line_no}: unexpected token {token!r}")
        if name in fields:
            raise ScenarioError(f"line {line_no}: step gives its {name} twice")
        fields[name] = value
    try:
        return Step(op=op, **fields)
    except ScenarioError as exc:
        raise ScenarioError(f"line {line_no}: {exc}") from None


def format_scenario(scenario: Scenario) -> str:
    init = f"init n={scenario.n} protocol={scenario.protocol} seed={scenario.seed}"
    if scenario.root_code is not None:
        init += f" root_code={scenario.root_code}"
    lines = [init]
    for step in scenario.steps:
        if step.ids is not None:
            lines.append(f"{step.op} ids={','.join(step.ids)}")
        else:
            line = f"{step.op} {step.count}"
            if step.layout is not None:
                line += f" layout={step.layout}"
            lines.append(line)
    return "\n".join(lines) + "\n"


# -- leaver layouts ----------------------------------------------------------


def leaver_layout(tree: KeyTree, m: int, layout: str, rng: Random) -> list[str]:
    """Pick ``m`` leavers by placement strategy.

    ``random`` samples uniformly.  ``best-half`` takes the first ``m`` leaves
    (in tree order) of one root-child subtree — leaving a whole subtree keeps
    the cover tiny.  ``worst-spread`` greedily picks the leaf that touches
    the most so-far-untouched ancestors, spreading leavers across disjoint
    subtrees to drive the cover as large as possible; ties go to the member
    registered first.  It costs O(n + m·depth·arity·log n) (see
    ``_worst_spread``).
    """
    n = tree.member_count
    if m < 1:
        raise ScenarioError("cannot pick an empty leaver set")
    if m >= n:
        raise ScenarioError(f"cannot remove {m} of {n} members; the group may not empty")
    if layout == "random":
        return sorted(rng.sample(tree.members, m))
    if layout == "best-half":
        best: list[str] | None = None
        for child_id in tree.root.children:
            members = _members_below(tree, child_id)
            if len(members) >= m and (best is None or len(best) < len(members)):
                best = members
        if best is None:
            raise ScenarioError(
                f"best-half infeasible: no root subtree holds {m} of {n} members"
            )
        return best[:m]
    if layout == "worst-spread":
        return _worst_spread(tree, m)
    raise ScenarioError(f"unknown layout {layout!r}")


def _members_below(tree: KeyTree, top_id: int) -> list[str]:
    """The members of the leaves under ``top_id``, in depth-first order,
    children in stored order: one stack pass reading each node once."""
    nodes = tree.nodes
    members: list[str] = []
    stack = [top_id]
    while stack:
        node = nodes[stack.pop()]
        if node.children:
            stack.extend(reversed(node.children))
        elif node.member:
            members.append(node.member)
    return members


def _worst_spread(tree: KeyTree, m: int) -> list[str]:
    """Greedy max-untainted-path picks, ties to the lowest registration index.

    Each pick taints its leaf's whole root path, so the tainted set is closed
    upward.  Below an untainted child of a tainted node (or the untainted
    root) every node is untainted, so a leaf's gain (untainted nodes on its
    path) is its depth below that child plus one, and the best leaf of the
    subtree is its deepest.  One reverse pass over a preorder list gives each
    node the key ``(-(height + 1), registration index)`` of its best leaf,
    height being that leaf's depth below the node, packed into one int as
    ``index - (height + 1)·n`` for n members: a leaf's is ``index - n``, an
    internal node's the smallest of its children's less n.  A frontier
    subtree's key thus orders it by its best leaf's (-gain, registration
    index) as it stands, with no depth arithmetic, and ``key % n`` names that
    leaf's member.  A heap holds the frontier under those keys; a pick pops
    the top and pushes the off-path children of the path it taints.  That is
    O(n) set-up plus O(depth·arity·log n) per pick.  Memberless leaves are
    never picked.
    """
    nodes = tree.nodes
    members = tree.members
    n = len(members)
    registration = dict(zip(members, range(n)))
    top_down: list[Node] = []  # every node after its parent
    stack = [tree.root_id]
    while stack:
        node = nodes[stack.pop()]
        top_down.append(node)
        stack.extend(node.children)
    best: dict[int, int] = {}
    get = best.get
    for node in reversed(top_down):
        if node.children:
            key = min(map(get, node.children, repeat(0)))  # 0: no member below
            if key < 0:
                best[node.node_id] = key - n
        elif node.member is not None:
            best[node.node_id] = registration[node.member] - n

    frontier = [(best[tree.root_id], tree.root_id)]  # type: ignore[index]
    chosen: list[str] = []
    for _ in range(m):
        key, top = heapq.heappop(frontier)
        member = members[key % n]
        chosen.append(member)
        below = node_id = tree.leaf_of(member).node_id
        while node_id != top:
            node_id = nodes[node_id].parent  # type: ignore[assignment]
            for child_id in nodes[node_id].children:
                if child_id != below and child_id in best:
                    heapq.heappush(frontier, (best[child_id], child_id))
            below = node_id
    return chosen


# -- trace running -----------------------------------------------------------


@dataclass
class EventRecord:
    seq: int
    op: str
    member_ids: tuple[str, ...]
    n_at_event: int  # group size when the event started
    cost: CostMeter
    output: EventOutput
    group_key: SymKey  # server group key after the event


@dataclass
class TraceRecord:
    scenario: Scenario
    server: ServerProtocol
    events: list[EventRecord] = field(default_factory=list)
    group_key_history: list[SymKey] = field(default_factory=list)
    members: dict[str, MemberView] = field(default_factory=dict)
    departed: dict[str, MemberView] = field(default_factory=dict)
    join_epoch: dict[str, int] = field(default_factory=dict)
    leave_epoch: dict[str, int] = field(default_factory=dict)
    digest: str = ""
    # analysis-side records (never on the wire), kept on tracked traces
    # only: which node each key value belonged to across epochs, the binary
    # sibling structure over time, and the wrapping key of every emitted
    # ciphertext (each event's meter logs into it)
    node_key_log: dict[bytes, set[int]] = field(default_factory=dict)
    sibling_pairs: set[tuple[int, int, int]] = field(default_factory=set)
    wrap_log: dict[bytes, bytes] = field(default_factory=dict)

    @property
    def rows(self) -> list[dict]:
        """One CSV schema row per event."""
        protocol = self.scenario.protocol
        return [
            csv_row(protocol, record.n_at_event, len(record.member_ids), record.op, record.cost)
            for record in self.events
        ]

    @property
    def deliveries(self) -> list[RekeyMessage | Notice]:
        """Full public transcript in delivery order."""
        out: list[RekeyMessage | Notice] = []
        for record in self.events:
            out.extend(record.output.deliveries)
        return out


def run(scenario: Scenario, track_members: bool = True) -> TraceRecord:
    """Execute a scenario and return its full trace.

    With ``track_members`` false no member views are built, so the analyzer
    has no adversary to seed from the trace; the analysis-side records
    (``node_key_log``, ``sibling_pairs``, ``wrap_log``) then stay empty.
    """
    rng = Random(scenario.seed)
    probe_rng = Random(f"{scenario.seed}/probe")
    initial = [f"u{i}" for i in range(1, scenario.n + 1)]
    next_index = scenario.n + 1
    server = make_server(scenario.protocol, initial, rng, scenario.root_code)
    trace = TraceRecord(scenario=scenario, server=server)
    trace.group_key_history.append(server.group_key)

    if track_members:
        _log_tree(trace)
        for boot in server.initial_bootstraps():
            trace.members[boot.member_id] = server.build_member(boot)
            trace.join_epoch[boot.member_id] = 0
        _run_probe(trace, probe_rng, seq=0)

    for seq, step in enumerate(scenario.steps, start=1):
        n_before = server.member_count
        if step.op == "join":
            batch = tuple(f"u{i}" for i in range(next_index, next_index + step.count))
            next_index += step.count
        elif step.ids is not None:
            batch = step.ids
        else:
            layout = step.layout or "random"
            batch = tuple(leaver_layout(server.tree, step.count, layout, rng))
        event = MembershipEvent(seq, step.op, batch)

        meter = CostMeter(wrap_log=trace.wrap_log if track_members else None)
        output = server.handle_event(event, rng, meter)
        trace.group_key_history.append(server.group_key)
        if track_members:
            _log_tree(trace)
            _deliver(trace, event, output, meter)
            _run_probe(trace, probe_rng, seq=seq)
        record = EventRecord(
            seq=seq,
            op=step.op,
            member_ids=batch,
            n_at_event=n_before,
            cost=meter,
            output=output,
            group_key=server.group_key,
        )
        trace.events.append(record)

    trace.digest = _trace_digest(trace)
    return trace


def _log_tree(trace: TraceRecord) -> None:
    """Add every node key and binary sibling triple of the tree to the logs.

    One preorder walk (``KeyTree.walk`` order) of the whole tree, so new
    entries of ``node_key_log``, of its id sets and of ``sibling_pairs`` go
    in the order the walk meets them.  Entries already logged stay where
    they are.
    """
    tree = trace.server.tree
    nodes = tree.nodes
    key_log = trace.node_key_log
    pairs = trace.sibling_pairs
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        node = nodes[node_id]
        children = node.children
        if node.key is not None:
            ids = key_log.get(node.key.data)
            if ids is None:
                key_log[node.key.data] = {node_id}
            else:
                ids.add(node_id)
        if len(children) == 2:
            pairs.add((children[0], children[1], node_id))
        stack.extend(reversed(children))
    key_log.setdefault(trace.server.group_key.data, set()).add(tree.root_id)


def _deliver(trace: TraceRecord, event: MembershipEvent, output: EventOutput, meter: CostMeter) -> None:
    """Hand the event's output to the tracked members, in emission order.

    Members count their derivations on ``meter``, the event's own meter.
    Each delivery reaches all of its tracked recipients in one
    ``MemberView.deliver`` call.
    """
    seq = event.seq
    for boot in output.bootstraps:
        trace.members[boot.member_id] = trace.server.build_member(boot)
        trace.join_epoch[boot.member_id] = seq
    if event.op == "leave":
        for member in event.member_ids:
            trace.departed[member] = trace.members.pop(member)
            trace.leave_epoch[member] = seq
    for delivery in output.deliveries:
        MemberView.deliver(delivery, trace.members, meter)


def _run_probe(trace: TraceRecord, probe_rng: Random, seq: int) -> None:
    """Wrap a fresh key under the server's group key: every current member
    must unwrap it, and every departed member must fail.

    AES-SIV authenticates, so a key opens the probe exactly when it equals
    the server's group key.  Each current member's group key is compared
    with the server's, so one real unwrap under the key they were all shown
    to hold speaks for all of them.  Likewise a departed member opens the
    probe exactly when its group key equals the server's, so one pass over
    ``trace.departed`` as it stands compares values and names the first
    departed member, in order, that still holds the key.
    """
    quiet = CostMeter()  # probes are not protocol work
    probe_payload = random_key(probe_rng, quiet)
    server_key = trace.server.group_key
    probe = wrap(server_key, probe_payload, quiet, kek_id="probe")
    if set(trace.members) != set(trace.server.member_ids):
        raise ProbeError(
            f"event {seq}: tracked members {sorted(trace.members)} != "
            f"server membership {sorted(trace.server.member_ids)}"
        )
    server_data = server_key.data
    for member_id, view in trace.members.items():
        # by value: SymKey's dataclass __eq__ runs as Python code
        if view.group_key is None or view.group_key.data != server_data:
            raise ProbeError(
                f"event {seq}: member {member_id} holds group key "
                f"{view.group_key.fingerprint if view.group_key else None}, server has "
                f"{server_key.fingerprint}"
            )
        if view.unwrap_misses:
            raise ProbeError(
                f"event {seq}: member {member_id} missed {view.unwrap_misses} deliveries"
            )
    first_id, first = next(iter(trace.members.items()))
    try:
        got = unwrap(first.group_key, probe)
    except UnwrapError as exc:
        raise ProbeError(f"event {seq}: member {first_id} failed the probe: {exc}") from exc
    if got != probe_payload:
        raise ProbeError(f"event {seq}: member {first_id} unwrapped a wrong probe value")

    mole = next(
        (
            member_id
            for member_id, view in trace.departed.items()
            if view.group_key is not None and view.group_key.data == server_data
        ),
        None,
    )
    if mole is not None:
        raise ProbeError(f"event {seq}: departed member {mole} still unwraps the probe")


_DIGEST_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encoded_roster(members: tuple[str, ...]) -> tuple[memoryview, list[int]]:
    """A batch roster's ids joined by ``","`` and encoded once, with the
    length of the first ``i`` ids, separators left out, at ``offsets[i]``.

    Id ``i`` starts at character ``offsets[i] + 3i``.  Characters are bytes
    because every member id in a trace is ASCII (see :func:`_trace_digest`).
    """
    return memoryview('","'.join(members).encode()), list(accumulate(map(len, members), initial=0))


def _span_bytes(encoded: memoryview, offsets: list[int], spans: list[tuple[int, int]]) -> list[memoryview]:
    """Each ``[a, b)`` span of a roster as the slice of its
    :func:`_encoded_roster` bytes that holds ids ``a`` to ``b - 1`` and the
    separators between them: no id is joined or encoded again."""
    return [encoded[offsets[a] + 3 * a : offsets[b] + 3 * b - 3] for a, b in spans]


def _trace_digest(trace: TraceRecord) -> str:
    """Stable digest over costs and wire bytes; replays must reproduce it.

    SHA-256 of the compact, key-sorted JSON list of per-event records, fed
    one event at a time: ``[``, the events joined by ``,``, then ``]``.

    Each event is JSON-encoded once with every delivery's recipients left
    empty, then each empty list is filled in as the bytes are hashed.  The
    list is written with no JSON escaping, as ``"id"`` strings joined by
    ``,``.  That is exact because every member id in a trace is ``u<n>``:
    ``run`` mints every founding and joining id, and a leave naming any
    other id fails ``ServerProtocol._validate`` before it reaches a
    delivery.  Under sorted keys ``recipients`` is each delivery's last
    key, and a quoted key can only occur unescaped where it is a key, so
    splitting the encoded event at ``"recipients":[]`` finds exactly one
    place per delivery.

    The id lists are the bulk of the bytes.  A sequential batch's
    deliveries address :class:`RosterView` spans of one shared roster, so
    that roster is joined and encoded once per batch
    (:func:`_encoded_roster`) and each span is hashed as a slice of those
    bytes: one O(n) join per batch and, per delivery, a walk over the
    batch's cuts, not a join of O(n) ids per delivery.  Tuple recipients
    (unicasts, ckcs messages and notices) are joined as they stand.
    """
    digest = hashlib.sha256(b"[")
    update = digest.update
    separator = b""
    roster = None
    for record in trace.events:
        sent = record.output.deliveries
        deliveries = []
        for delivery in sent:
            if isinstance(delivery, Notice):
                deliveries.append({"kind": delivery.kind, "recipients": (), "aux": delivery.aux})
            else:
                deliveries.append(
                    {
                        "channel": delivery.channel,
                        "recipients": (),
                        "kek_ids": [p.kek_id for p in delivery.payloads],
                        "ciphertexts": [p.ciphertext.hex() for p in delivery.payloads],
                        "aux": delivery.aux,
                    }
                )
        event = {
            "seq": record.seq,
            "op": record.op,
            "members": record.member_ids,
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
        head, *tails = _DIGEST_ENCODER.encode(event).split('"recipients":[]')
        update(separator + head.encode())
        for delivery, tail in zip(sent, tails, strict=True):
            recipients = delivery.recipients
            if isinstance(recipients, RosterView):
                if recipients.members is not roster:
                    roster = recipients.members
                    encoded, offsets = _encoded_roster(roster)
                first, *rest = _span_bytes(encoded, offsets, recipients.spans())
            else:
                first, rest = '","'.join(recipients).encode(), ()
            update(b'"recipients":["')
            update(first)
            for piece in rest:
                update(b'","')
                update(piece)
            update(b'"]' + tail.encode())
        separator = b","
    digest.update(b"]")
    return digest.hexdigest()


# -- random corpus -----------------------------------------------------------


def generate_random_scenario(
    seed: int,
    protocol: str | None = None,
    max_n: int = 64,
    max_events: int = 8,
) -> Scenario:
    """A reproducible random scenario: mixed batch sizes and leaver layouts.

    The group never holds more than ``max_n`` members, the founding group
    included.  ``max_n`` must be at least 2, so that a one-member group can
    always grow, and ``max_events`` at least 1.
    """
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if max_events < 1:
        raise ValueError(f"max_events must be at least 1, got {max_events}")
    rng = Random(f"scenario/{seed}")
    protocol = protocol or rng.choice(sorted(PROTOCOLS))
    arity = PROTOCOLS[protocol].arity
    n0 = rng.randint(1, min(16, max_n))  # the same draws for every max_n >= 16
    steps: list[Step] = []
    n = n0
    for _ in range(rng.randint(1, max_events)):
        can_leave = n > 1
        op = rng.choice(["join", "leave"]) if can_leave else "join"
        if op == "join":
            m = rng.randint(1, min(8, max_n - n)) if n < max_n else 0
            if m == 0:
                op = "leave"
        if op == "join":
            steps.append(Step(op="join", count=m))
            n += m
        else:
            m = rng.randint(1, min(8, n - 1))
            layout = rng.choice(LAYOUTS)
            if layout == "best-half" and m > max(1, n // arity):
                layout = "random"  # a root subtree of that size is not guaranteed
            steps.append(Step(op="leave", count=m, layout=layout))
            n -= m
    return Scenario(protocol=protocol, n=n0, seed=seed, steps=tuple(steps))


def generate_churn_scenario(
    protocol: str, n: int, events: int, seed: int, batch_sizes: tuple[int, ...]
) -> Scenario:
    """Join and leave batches in turn from ``n`` members, ``events`` steps.

    Even steps join and odd steps leave, the leave layouts rotating through
    ``LAYOUTS``.  Each batch size is drawn by ``Random(seed).choice`` from
    ``batch_sizes``, one draw per event.
    """
    draw = Random(seed)
    steps = []
    for i in range(events):
        count = draw.choice(batch_sizes)
        if i % 2 == 0:
            steps.append(Step(op="join", count=count))
        else:
            steps.append(Step(op="leave", count=count, layout=LAYOUTS[(i // 2) % len(LAYOUTS)]))
    return Scenario(protocol=protocol, n=n, seed=seed, steps=tuple(steps))


# -- measurement sweeps ------------------------------------------------------


def check_sweep_grid(
    protocols: list[str],
    n_values: list[int],
    m_values: list[int],
    ops: list[str],
    layout: str = "random",
) -> None:
    """Reject a grid before any cell runs, not at its first bad cell.

    Raises ScenarioError for an empty axis, an unknown protocol, op or
    layout, an n or m below 1, or a cell above ``MAX_GROUP_SIZE``.
    """
    for name, values in (("protocols", protocols), ("n", n_values), ("m", m_values), ("ops", ops)):
        if not values:
            raise ScenarioError(f"sweep grid has no {name}")
    for protocol in protocols:
        if protocol not in PROTOCOLS:
            raise ScenarioError(f"unknown protocol {protocol!r}")
    for op in ops:
        if op not in OPS:
            raise ScenarioError(f"unknown op {op!r}")
    for name, values in (("n", n_values), ("m", m_values)):
        if min(values) < 1:
            raise ScenarioError(f"sweep {name} must be at least 1, got {min(values)}")
    if layout not in LAYOUTS:
        raise ScenarioError(f"unknown layout {layout!r}")
    if max(n_values) + max(m_values) > MAX_GROUP_SIZE:
        raise ScenarioError(
            f"sweep cell n={max(n_values)} m={max(m_values)} exceeds the group size cap "
            f"of {MAX_GROUP_SIZE}"
        )


def sweep(
    protocols: list[str],
    n_values: list[int],
    m_values: list[int],
    ops: list[str],
    seed: int = 0,
    layout: str = "random",
) -> tuple[list[dict], list[str]]:
    """One-event measurements per grid cell, members untracked.

    ``n`` is the group size when the event starts.  Leave cells with m >= n
    are adjusted (m > n skipped, m == n trimmed to n-1, or skipped at n=1)
    with a note, since a group may not empty.  Wall time covers the server's
    event handling only.  A grid that ``check_sweep_grid`` rejects raises
    ScenarioError before any cell runs.
    """
    check_sweep_grid(protocols, n_values, m_values, ops, layout)
    rows: list[dict] = []
    notes: list[str] = []
    for protocol in protocols:
        for op in ops:
            for n in n_values:
                for m in m_values:
                    if op == "leave" and m > n:
                        notes.append(f"{protocol} leave n={n} m={m}: skipped, m > n")
                        continue
                    batch = m
                    if op == "leave" and m == n:
                        batch = n - 1
                        what = f"trimmed to m={batch}" if batch else "skipped"
                        notes.append(
                            f"{protocol} leave n={n} m={m}: {what}; the group may not empty"
                        )
                        if batch == 0:
                            continue
                    rows.append(
                        _sweep_cell(protocol, op, n, m, batch, seed, layout, notes)
                    )
    return rows, notes


def _sweep_cell(
    protocol: str,
    op: str,
    n: int,
    m: int,
    batch: int,
    seed: int,
    layout: str,
    notes: list[str],
) -> dict:
    rng = Random(f"sweep/{protocol}/{op}/{n}/{m}/{seed}")
    members = [f"u{i}" for i in range(1, n + 1)]
    server = make_server(protocol, members, rng)
    if op == "join":
        batch_ids = tuple(f"u{i}" for i in range(n + 1, n + batch + 1))
    else:
        batch_ids = tuple(leaver_layout(server.tree, batch, layout, rng))
    event = MembershipEvent(1, op, batch_ids)
    meter = CostMeter()
    start = time.perf_counter()
    output = server.handle_event(event, rng, meter)
    elapsed = time.perf_counter() - start
    row = csv_row(protocol, n, m, op, meter)  # the requested m, even when trimmed
    row["keygen_dedup"] = output.stats.get("keygen_dedup", "")
    row["wall_ms"] = round(elapsed * 1000, 4)
    if protocol == "ckcs" and op == "leave":
        notes.append(
            f"ckcs leave n={n} m={m}: encryptions equal the measured cover size "
            f"({meter.encrypt}), which depends on leaver placement"
        )
    return row


SWEEP_EXTRA_COLUMNS = ["keygen_dedup", "wall_ms"]
