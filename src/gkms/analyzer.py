"""Mechanized forward/backward secrecy checking.

The adversary model is a passive eavesdropper who keeps every secret it ever
legitimately held (a member's accumulated keys and codes) plus the full
public transcript of wire messages.  ``closure`` computes the fixed point of
that knowledge under the active protocol's derivation rules, operating on
real key bytes from the simulation rather than an abstract term algebra, so
every derived fact is backed by an executable witness chain.

Rules (per protocol):

- ``hash-forward`` / ``okd-derive`` — step a key with the one-way refresh
  function.
- ``code-derive`` — combine a key with a known node code.
- ``unwrap-from-transcript`` — open an observed ciphertext with a known key.
- ``oft-blind`` / ``oft-mix`` — blind a known node key, or fold two known
  sibling blinds into the parent key.  Mix candidates are driven by the
  public tree structure (which sibling pairs existed), keeping the closure
  finite; combining non-sibling values can never produce a protocol key.

Every rule but the unwrap applies one one-way function, named once in
``DERIVATIONS``; the closure's shared cache and the witness check both read
that table.  Only seeds and the outputs of ``_CHAINABLE`` rules (refresh
steps and unwrapped keys) start a further refresh or code derivation.

Every closure stays inside its trace's universe: the values the protocols
computed (every logged node key, which includes every group key, every key
the wrap log names and, for OFT, the blind of every node key).  A derivation
output outside it is dropped; seeds and unwrapped keys are always kept.
Dropping it loses nothing: an output is a one-way image of its inputs, so a
chain from a value outside the universe to a protocol key would need a
second preimage, and an authenticated unwrap succeeds only under the real
wrapping key, which the universe holds.

There is deliberately no inverse rule for any one-way function: backward
secrecy rests exactly on that absence.

Verdicts carry a human-readable witness chain on breach; witnesses are
always re-executed with real crypto before being reported.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

from gkms.core import RekeyMessage
from gkms.crypto import (
    SymKey,
    UnwrapError,
    WrappedKey,
    blind,
    decode_code,
    derive,
    derive_with_code,
    mix,
    unwrap,
)
from gkms.harness import TraceRecord, generate_random_scenario, run
from gkms.tree import CodeSpaceError

RULESETS: dict[str, tuple[str, ...]] = {
    "ckcs": ("hash-forward", "code-derive", "unwrap-from-transcript"),
    "lkh": ("unwrap-from-transcript",),
    "oft": ("unwrap-from-transcript", "oft-blind", "oft-mix"),
    "okd": ("okd-derive", "unwrap-from-transcript"),
}

# rule -> the one-way function it applies to its input keys (and code).
# Each entry looks its function up by name when it runs, so whatever the
# module binds that name to then (a tracing wrapper, say) sees the call.
DERIVATIONS: dict[str, Callable[[list[SymKey], str | None], SymKey]] = {
    "hash-forward": lambda keys, code: derive(*keys),
    "okd-derive": lambda keys, code: derive(*keys),
    "code-derive": lambda keys, code: derive_with_code(*keys, code),
    "oft-blind": lambda keys, code: blind(*keys),
    "oft-mix": lambda keys, code: mix(*keys),
}

# rules whose outputs a key-refresh or code derivation may start from (None
# is a seed); chaining off code-derived/blinded/mixed values models nothing
# any protocol computes and would make the fact universe explode
_CHAINABLE = frozenset((None, "hash-forward", "okd-derive", "unwrap-from-transcript"))


def fingerprint(value: bytes | SymKey) -> str:
    data = value.data if isinstance(value, SymKey) else value
    return data[:4].hex()


def _ct_fingerprint(ciphertext: bytes) -> str:
    return "ct:" + hashlib.sha256(ciphertext).hexdigest()[:8]


@dataclass(frozen=True)
class Fact:
    """One known key value and how it was obtained (rule None = seed)."""

    value: bytes
    rule: str | None = None
    inputs: tuple[bytes, ...] = ()
    code: str | None = None
    wrapped: WrappedKey | None = None

    def line(self) -> str:
        parts = [fingerprint(v) for v in self.inputs]
        if self.code is not None:
            parts.append(f"code={self.code}")
        if self.wrapped is not None:
            parts.append(_ct_fingerprint(self.wrapped.ciphertext))
        return f"{self.rule}({', '.join(parts)}) -> {fingerprint(self.value)}"


class KnowledgeSet:
    """Keys and codes a principal knows, and the :class:`ClosureIndex` they
    grow in.

    The index holds the whole closure context: the public transcript, the
    active rule set, and the public structural metadata (which node each
    observed key slot belonged to, which sibling pairs existed), from which
    it reads the trace's universe.  :func:`adversary_knowledge` hands every
    set of a trace the trace's one index, and :func:`closure` grows a set
    inside its own.
    """

    def __init__(
        self,
        index: ClosureIndex,
        keys: Iterable[bytes | SymKey] = (),
        codes: Iterable[str] = (),
    ) -> None:
        self.index = index
        self.facts: dict[bytes, Fact] = {}
        for key in keys:
            data = key.data if isinstance(key, SymKey) else key
            self.facts.setdefault(data, Fact(value=data))
        # code -> value of the fact it was decoded from (None = always held)
        self.codes: dict[str, bytes | None] = {code: None for code in codes}

    # -- queries -----------------------------------------------------------

    @property
    def keys(self) -> set[bytes]:
        return set(self.facts)

    def knows(self, key: bytes | SymKey) -> bool:
        data = key.data if isinstance(key, SymKey) else key
        return data in self.facts

    def witness_facts(self, key: bytes | SymKey) -> list[Fact]:
        """Every rule application behind ``key``, dependencies first."""
        data = key.data if isinstance(key, SymKey) else key
        if data not in self.facts:
            raise KeyError(f"key {fingerprint(data)} is not in this knowledge set")
        ordered: list[Fact] = []
        seen: set[bytes] = set()

        def visit(value: bytes) -> None:
            if value in seen:
                return
            seen.add(value)
            fact = self.facts[value]
            for inp in fact.inputs:
                visit(inp)
            if fact.code is not None:
                origin = self.codes.get(fact.code)
                if origin is not None:
                    visit(origin)
            if fact.rule is not None:
                ordered.append(fact)

        visit(data)
        return ordered

    def witness(self, key: bytes | SymKey) -> str:
        """Witness chain text: one ``rule(inputs) -> output`` line per step."""
        lines = [fact.line() for fact in self.witness_facts(key)]
        return "\n".join(lines) if lines else "(held from the start)"


class ClosureIndex:
    """One trace's closure context, built once and shared by every
    adversary's closure over that trace.

    It holds the public transcript, the active rule set, the node tags and
    sibling pairs, and the wrap log, which names the key that wrapped each
    ciphertext; from them it builds the transcript's payloads grouped by
    wrapping key, the OFT blind oracle, the sibling-pair maps and the
    trace's ``universe``.  It also keeps the finished facts the rules have
    produced: each output is computed with real crypto the first time any
    adversary needs it, and later adversaries look it up.
    Facts are frozen and compare by value, so sharing them changes no
    output; what stays per adversary is the fixpoint itself: its facts,
    codes and queue.
    """

    def __init__(
        self,
        transcript: Iterable[RekeyMessage] = (),
        rules: Iterable[str] = (),
        node_tags: dict[bytes, set[int]] | None = None,
        sibling_pairs: Iterable[tuple[int, int, int]] = (),
        wrap_log: dict[bytes, bytes] | None = None,
    ) -> None:
        self.transcript: tuple[RekeyMessage, ...] = tuple(transcript)
        self.rules: tuple[str, ...] = tuple(rules)
        self.derive_rule = next((r for r in ("hash-forward", "okd-derive") if r in self.rules), None)
        self.node_tags = node_tags if node_tags is not None else {}
        self.sibling_pairs = tuple(sibling_pairs)
        self.wrap_log = wrap_log if wrap_log is not None else {}

        # transcript payloads, deduplicated by ciphertext, grouped by the key
        # the wrap log says wrapped them, in wrap-log order
        cts: dict[bytes, WrappedKey] = {}
        for message in self.transcript:
            for payload in message.payloads:
                cts.setdefault(payload.ciphertext, payload)
        self.cts_by_kek: dict[bytes, list[WrappedKey]] = {}
        for ct, kek in self.wrap_log.items():
            if ct in cts:
                self.cts_by_kek.setdefault(kek, []).append(cts[ct])

        # node key -> its blind, for the mix rule's oracle below
        blinds: dict[bytes, bytes] = {}
        if "oft-mix" in self.rules:
            blinds = {key: _apply("oft-blind", (key,), None) for key in self.node_tags}
        # every value a protocol computed; no derivation output outside it
        # becomes a fact
        self.universe = frozenset((*self.node_tags, *self.wrap_log.values(), *blinds.values()))

        # rule outputs: unwrap by key value (a tuple of (fact, decoded code or
        # None) for the payloads it opens), every other rule in one cache
        self.unwrapped: dict[bytes, tuple[tuple[Fact, str | None], ...]] = {}
        self.outputs = _Derivations(self.universe)

        # blind(real node key) -> node ids; lets the mix rule recognise which
        # known values are blinds of which tree slots (public placement metadata)
        oracle: dict[bytes, set[int]] = {}
        for key_bytes, blinded in blinds.items():
            self.outputs["oft-blind", (key_bytes,), None] = Fact(blinded, "oft-blind", (key_bytes,))
            oracle.setdefault(blinded, set()).update(self.node_tags[key_bytes])
        self.blind_oracle: dict[bytes, tuple[int, ...]] = {
            value: tuple(nodes) for value, nodes in oracle.items()
        }
        # node -> the sibling it pairs with, on either side
        self.right_of: dict[int, list[int]] = {}
        self.left_of: dict[int, list[int]] = {}
        for left, right, _parent in self.sibling_pairs:
            self.right_of.setdefault(left, []).append(right)
            self.left_of.setdefault(right, []).append(left)

    # -- rule outputs, computed on first use -------------------------------

    def unwrap_facts(self, value: bytes) -> tuple[tuple[Fact, str | None], ...]:
        """What ``value`` opens among the payloads the wrap log says it wrapped."""
        found = self.unwrapped.get(value)
        if found is None:
            key = SymKey(value)
            opened = []
            for wrapped in self.cts_by_kek.get(value, ()):
                try:
                    plaintext = unwrap(key, wrapped).data
                except UnwrapError:
                    continue
                try:
                    code: str | None = decode_code(plaintext)
                except ValueError:
                    code = None  # an ordinary key, not an encoded node code
                fact = Fact(plaintext, "unwrap-from-transcript", (value,), wrapped=wrapped)
                opened.append((fact, code))
            found = self.unwrapped[value] = tuple(opened)
        return found


class _Derivations(dict):
    """Derivation outputs by what determines them: (rule, inputs, code).
    Looking up a missing output computes it with real crypto and keeps its
    fact, or None when the value lies outside the trace's universe; a hit
    stays a plain dict lookup."""

    def __init__(self, universe: frozenset[bytes]) -> None:
        super().__init__()
        self.universe = universe

    def __missing__(self, key: tuple[str, tuple[bytes, ...], str | None]) -> Fact | None:
        value = _apply(*key)
        fact = self[key] = Fact(value, *key) if value in self.universe else None
        return fact


def _apply(rule: str, inputs: tuple[bytes, ...], code: str | None) -> bytes:
    """Run derivation ``rule``'s one-way function with real crypto."""
    return DERIVATIONS[rule]([SymKey(value) for value in inputs], code).data


def closure(initial: KnowledgeSet) -> KnowledgeSet:
    """Least fixed point of the knowledge set under its index's rule set.

    Terminates because facts are deduplicated by value and every new one is
    either an unwrap of one of the transcript's finitely many payloads or a
    derivation output inside the index's finite ``universe``.  Rules fire in
    a fixed FIFO order, so the facts, their order and every witness depend
    only on the set and its index's context, not on what rule outputs the
    index already holds.
    """
    index = initial.index
    out = KnowledgeSet(index)
    facts = out.facts
    facts.update(initial.facts)
    codes = out.codes
    codes.update(initial.codes)

    rules = index.rules
    unwrap_rule = "unwrap-from-transcript" in rules
    derive_rule = index.derive_rule
    code_rule = "code-derive" in rules
    blind_rule = "oft-blind" in rules
    mix_rule = "oft-mix" in rules
    node_tags = index.node_tags
    blind_oracle = index.blind_oracle
    right_of, left_of = index.right_of, index.left_of
    unwrap_facts, outputs = index.unwrap_facts, index.outputs
    blinds_by_node: dict[int, dict[bytes, None]] = {}  # insertion-ordered sets

    queue: deque[bytes] = deque(facts)

    def add(fact: Fact | None) -> None:
        if fact is None or fact.value in facts:
            return
        facts[fact.value] = fact
        queue.append(fact.value)

    def add_code(code: str, origin: bytes) -> None:
        if code in codes:
            return
        codes[code] = origin
        if code_rule:
            for value, fact in list(facts.items()):
                if fact.rule in _CHAINABLE:
                    add(outputs["code-derive", (value,), code])

    def register_blind(value: bytes) -> None:
        for node in blind_oracle.get(value, ()):
            per_node = blinds_by_node.setdefault(node, {})
            if value in per_node:
                continue
            per_node[value] = None
            for right in right_of.get(node, ()):
                for partner in list(blinds_by_node.get(right, ())):
                    add(outputs["oft-mix", (value, partner), None])
            for left in left_of.get(node, ()):
                for partner in list(blinds_by_node.get(left, ())):
                    add(outputs["oft-mix", (partner, value), None])

    while queue:
        value = queue.popleft()
        fact = facts[value]
        chainable = fact.rule in _CHAINABLE

        if unwrap_rule:
            for opened, code in unwrap_facts(value):
                add(opened)
                if code is not None:
                    add_code(code, opened.value)

        if derive_rule and chainable:
            add(outputs[derive_rule, (value,), None])

        if code_rule and chainable:
            inputs = (value,)
            for code in list(codes):
                add(outputs["code-derive", inputs, code])

        if blind_rule and value in node_tags:
            add(outputs["oft-blind", (value,), None])

        if mix_rule:
            register_blind(value)

    return out


def verify_witness(ks: KnowledgeSet, key: bytes | SymKey) -> bool:
    """Re-execute a witness chain with real crypto and byte-check each step."""
    try:
        chain = ks.witness_facts(key)
    except KeyError:
        return False
    for fact in chain:
        if fact.rule == "unwrap-from-transcript":
            try:
                ok = unwrap(SymKey(fact.inputs[0]), fact.wrapped).data == fact.value
            except UnwrapError:
                ok = False
        else:
            ok = fact.rule in DERIVATIONS and _apply(fact.rule, fact.inputs, fact.code) == fact.value
        if not ok:
            return False
    return True


# -- trace-level checks ------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    secure: bool
    check: str  # "forward-secrecy" | "backward-secrecy"
    adversary: tuple[str, ...]
    targets_checked: int
    breached_epoch: int | None = None
    witness: str | None = None

    def __str__(self) -> str:
        who = "+".join(self.adversary)
        if self.secure:
            return f"{self.check}: secure for {who} ({self.targets_checked} target keys)"
        return (
            f"{self.check}: BREACH by {who} of epoch-{self.breached_epoch} group key\n"
            f"{self.witness}"
        )


def adversary_knowledge(
    trace: TraceRecord,
    members: tuple[str, ...],
    codes_public: bool = False,
) -> KnowledgeSet:
    """Everything the named principals ever held, plus the public transcript."""
    keys: set[bytes] = set()
    codes: set[str] = set()
    for member in members:
        view = trace.members.get(member) or trace.departed.get(member)
        if view is None:
            raise ValueError(f"{member!r} never appears in this trace")
        keys.update(view.knowledge.key_bytes)
        codes.update(view.knowledge.codes)
    if codes_public:
        all_codes = getattr(trace.server, "all_codes", None)
        if all_codes is None:
            raise ValueError("codes-public mode only applies to the coded protocol")
        codes.update(all_codes())
    # sorted seeding fixes the closure's fact order, and so its witness text,
    # independently of the process's string hash seed
    return KnowledgeSet(_trace_index(trace), keys=sorted(keys), codes=sorted(codes))


def _trace_index(trace: TraceRecord) -> ClosureIndex:
    """The trace's closure index, built on first use and kept on the trace
    itself, so it lives exactly as long as the trace."""
    index = vars(trace).get("_closure_index")
    if index is None:
        index = ClosureIndex(
            transcript=[d for d in trace.deliveries if isinstance(d, RekeyMessage)],
            rules=RULESETS[trace.scenario.protocol],
            node_tags=trace.node_key_log,
            sibling_pairs=trace.sibling_pairs,
            wrap_log=trace.wrap_log,
        )
        trace._closure_index = index  # type: ignore[attr-defined]
    return index


def _target_epochs(trace: TraceRecord, kind: str, member: str) -> range:
    """The epochs whose group keys a ``kind`` ("forward" or "backward")
    check of ``member`` targets."""
    if kind == "forward":
        if member not in trace.leave_epoch:
            raise ValueError(f"{member!r} never leaves in this trace")
        return range(trace.leave_epoch[member], len(trace.group_key_history))
    if member not in trace.join_epoch:
        raise ValueError(f"{member!r} never appears in this trace")
    return range(0, trace.join_epoch[member])


def _verdict(
    trace: TraceRecord,
    closed: KnowledgeSet,
    kind: str,
    adversaries: tuple[str, ...],
    target_epochs: range,
) -> Verdict:
    """The verdict on the target epochs' group keys of the adversaries'
    closed knowledge."""
    check = f"{kind}-secrecy"
    targets = [trace.group_key_history[e] for e in target_epochs]
    for epoch, target in zip(target_epochs, targets):
        if closed.knows(target):
            witness = closed.witness(target)
            if not verify_witness(closed, target):  # pragma: no cover - soundness guard
                raise AssertionError(f"witness failed re-execution:\n{witness}")
            return Verdict(False, check, adversaries, len(targets), epoch, witness)
    return Verdict(True, check, adversaries, len(targets))


def _check(
    trace: TraceRecord,
    kind: str,
    adversaries: tuple[str, ...],
    codes_public: bool,
) -> Verdict:
    target_epochs = _target_epochs(trace, kind, adversaries[0])
    closed = closure(adversary_knowledge(trace, adversaries, codes_public))
    return _verdict(trace, closed, kind, adversaries, target_epochs)


def check_forward_secrecy(
    trace: TraceRecord,
    leaver: str,
    *,
    codes_public: bool = False,
    colluders: tuple[str, ...] = (),
) -> Verdict:
    """Can the departed member reach any group key from its leave onward?"""
    return _check(trace, "forward", (leaver, *colluders), codes_public)


def check_backward_secrecy(
    trace: TraceRecord,
    joiner: str,
    *,
    codes_public: bool = False,
    colluders: tuple[str, ...] = (),
) -> Verdict:
    """Can the member reach any group key from before it joined?

    Founding members have no earlier epochs, so they are vacuously secure.
    """
    return _check(trace, "backward", (joiner, *colluders), codes_public)


# -- corpus audit ------------------------------------------------------------


@dataclass
class AuditReport:
    trials: int
    checks: int = 0
    breaches: list[tuple[int, Verdict]] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.breaches

    def summary(self) -> str:
        status = "all secure" if self.ok else f"{len(self.breaches)} BREACHES"
        return (
            f"audit: {self.trials} traces, {self.checks} closure checks, "
            f"{status}, {self.elapsed_s:.1f}s"
        )


def _audit_adversaries(trace: TraceRecord, sample: str) -> list[tuple[str, str]]:
    """(kind, member) pairs to check: endpoints by default, or everyone."""
    leave_events = [r for r in trace.events if r.op == "leave"]
    join_events = [r for r in trace.events if r.op == "join"]
    picks: list[tuple[str, str]] = []
    if sample == "all":
        for record in leave_events:
            picks.extend(("forward", m) for m in record.member_ids)
        for record in join_events:
            picks.extend(("backward", m) for m in record.member_ids)
    else:  # "endpoints": earliest and latest churn, the largest target sets on each side
        for record in (leave_events[:1] + leave_events[-1:]):
            picks.append(("forward", record.member_ids[0]))
        for record in (join_events[:1] + join_events[-1:]):
            picks.append(("backward", record.member_ids[0]))
    seen: set[tuple[str, str]] = set()
    unique = []
    for pick in picks:
        if pick not in seen:
            seen.add(pick)
            unique.append(pick)
    return unique


def _audit_trace(trace: TraceRecord, sample: str, codes_public: bool) -> list[Verdict]:
    """One verdict per :func:`_audit_adversaries` pick, in pick order.  A
    member that both joins and leaves is closed once, and both its checks
    read that one closure."""
    picks = _audit_adversaries(trace, sample)
    kinds_of: dict[str, list[str]] = {}
    for kind, member in picks:
        kinds_of.setdefault(member, []).append(kind)
    verdicts: dict[tuple[str, str], Verdict] = {}
    for member, kinds in kinds_of.items():
        closed = closure(adversary_knowledge(trace, (member,), codes_public))
        for kind in kinds:
            epochs = _target_epochs(trace, kind, member)
            verdicts[kind, member] = _verdict(trace, closed, kind, (member,), epochs)
    return [verdicts[pick] for pick in picks]


def audit(
    trials: int = 1000,
    max_n: int = 64,
    seed: int = 7,
    *,
    max_events: int = 8,
    codes_public: bool = False,
    sample: str = "endpoints",
) -> AuditReport:
    """Run secrecy checks over a corpus of seeded random traces.

    With ``codes_public`` the corpus is pinned to the coded protocol (the only
    one that has codes to leak); breaches are then the expected finding.  A
    trace that cannot run (ckcs out of fresh root codes on a long join-heavy
    trace) raises CodeSpaceError naming its scenario seed.
    """
    if sample not in ("endpoints", "all"):
        raise ValueError(f"unknown audit sample {sample!r}: expected 'endpoints' or 'all'")
    protocol = "ckcs" if codes_public else None
    report = AuditReport(trials=trials)
    start = time.perf_counter()
    for index in range(trials):
        scenario = generate_random_scenario(
            seed * 1_000_000 + index, protocol=protocol, max_n=max_n, max_events=max_events
        )
        try:
            trace = run(scenario)
        except CodeSpaceError as exc:
            raise CodeSpaceError(f"scenario seed {scenario.seed}: {exc}") from exc
        for verdict in _audit_trace(trace, sample, codes_public):
            report.checks += 1
            if not verdict.secure:
                report.breaches.append((scenario.seed, verdict))
    report.elapsed_s = time.perf_counter() - start
    return report
