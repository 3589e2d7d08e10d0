"""The secrecy closure as it was before the per-trace closure index: every
call rebuilds its payload maps, blind oracle, sibling maps and universe and
redoes every rule's crypto.  Kept as an oracle: the indexed ``closure`` must
reach the same facts, in the same order, with the same witness text.  It
reads only the raw context from the set's index (transcript, rules, node
tags, sibling pairs and wrap log), never the index's own tables.  With
``brute_force`` it ignores the wrap log and tries every transcript payload
with every key.
"""

from __future__ import annotations

from collections import deque

from gkms.analyzer import _CHAINABLE, Fact, KnowledgeSet
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


def reference_universe(context) -> set[bytes]:
    """The values the protocols computed, from an index's raw context: every
    node key, every key the wrap log names and, where the mix rule is on,
    the blind of every node key."""
    universe = set(context.node_tags) | set(context.wrap_log.values())
    if "oft-mix" in context.rules:
        universe.update(blind(SymKey(key)).data for key in context.node_tags)
    return universe


def reference_closure(initial: KnowledgeSet, brute_force: bool = False) -> KnowledgeSet:
    """Least fixed point of the knowledge set under its rule set, with every
    derivation output outside the reference universe dropped.

    Terminates because facts are deduplicated by value, and each new one is
    an unwrap of a transcript payload or a value of the finite universe.
    """
    context = initial.index
    out = KnowledgeSet(context)
    facts = out.facts
    facts.update(initial.facts)
    out.codes.update(initial.codes)

    rules = set(context.rules)
    derive_rule = next((r for r in ("hash-forward", "okd-derive") if r in rules), None)
    universe = reference_universe(context)

    # transcript payloads, deduplicated by ciphertext
    cts: dict[bytes, WrappedKey] = {}
    for message in context.transcript:
        for payload in message.payloads:
            cts.setdefault(payload.ciphertext, payload)
    cts_by_kek: dict[bytes, list[WrappedKey]] | None = None
    if not brute_force:
        cts_by_kek = {}
        for ct, kek in context.wrap_log.items():
            if ct in cts:
                cts_by_kek.setdefault(kek, []).append(cts[ct])

    # blind(real node key) -> node ids; lets the mix rule recognise which
    # known values are blinds of which tree slots (public placement metadata)
    blind_oracle: dict[bytes, set[int]] = {}
    if "oft-mix" in rules:
        for key_bytes, nodes in context.node_tags.items():
            blind_oracle.setdefault(blind(SymKey(key_bytes)).data, set()).update(nodes)
    pairs_left: dict[int, list[tuple[int, int, int]]] = {}
    pairs_right: dict[int, list[tuple[int, int, int]]] = {}
    for left, right, parent in context.sibling_pairs:
        pairs_left.setdefault(left, []).append((left, right, parent))
        pairs_right.setdefault(right, []).append((left, right, parent))
    blinds_by_node: dict[int, dict[bytes, None]] = {}  # insertion-ordered sets

    queue: deque[bytes] = deque(facts)

    def add(fact: Fact) -> None:
        if fact.value in facts:
            return
        facts[fact.value] = fact
        queue.append(fact.value)

    def add_derived(fact: Fact) -> None:
        if fact.value in universe:
            add(fact)

    def add_code(code: str, origin: bytes | None) -> None:
        if code in out.codes:
            return
        out.codes[code] = origin
        if "code-derive" in rules:
            for value, fact in list(facts.items()):
                if fact.rule in _CHAINABLE:
                    add_derived(_code_derived(value, code))

    def _code_derived(value: bytes, code: str) -> Fact:
        derived = derive_with_code(SymKey(value), code)
        return Fact(derived.data, "code-derive", (value,), code=code)

    def try_unwrap(value: bytes, wrapped: WrappedKey) -> None:
        try:
            plaintext = unwrap(SymKey(value), wrapped)
        except UnwrapError:
            return
        add(Fact(plaintext.data, "unwrap-from-transcript", (value,), wrapped=wrapped))
        try:
            add_code(decode_code(plaintext.data), plaintext.data)
        except ValueError:
            pass  # an ordinary key, not an encoded node code

    def register_blind(value: bytes) -> None:
        for node in blind_oracle.get(value, ()):
            per_node = blinds_by_node.setdefault(node, {})
            if value in per_node:
                continue
            per_node[value] = None
            for left, right, parent in pairs_left.get(node, ()):
                for partner in list(blinds_by_node.get(right, ())):
                    mixed = mix(SymKey(value), SymKey(partner))
                    add_derived(Fact(mixed.data, "oft-mix", (value, partner)))
            for left, right, parent in pairs_right.get(node, ()):
                for partner in list(blinds_by_node.get(left, ())):
                    mixed = mix(SymKey(partner), SymKey(value))
                    add_derived(Fact(mixed.data, "oft-mix", (partner, value)))

    while queue:
        value = queue.popleft()
        fact = facts[value]

        if "unwrap-from-transcript" in rules:
            if cts_by_kek is not None:
                for wrapped in cts_by_kek.get(value, ()):
                    try_unwrap(value, wrapped)
            else:
                for wrapped in cts.values():
                    try_unwrap(value, wrapped)

        if derive_rule and fact.rule in _CHAINABLE:
            stepped = derive(SymKey(value))
            add_derived(Fact(stepped.data, derive_rule, (value,)))

        if "code-derive" in rules and fact.rule in _CHAINABLE:
            for code in list(out.codes):
                add_derived(_code_derived(value, code))

        if "oft-blind" in rules and value in context.node_tags:
            blinded = blind(SymKey(value))
            add_derived(Fact(blinded.data, "oft-blind", (value,)))

        if "oft-mix" in rules:
            register_blind(value)

    return out
