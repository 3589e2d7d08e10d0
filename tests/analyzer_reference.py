"""Independent reachability oracle for secrecy verdicts.

Given a trace and an adversary's starting keys and codes, this module decides
which protocol-computed values the adversary can reach, by exhaustive
fixed-point iteration *within the finite universe of byte values the
protocols ever computed*, applying real crypto at every step:

- the universe is every node key over every epoch, every group key, every
  coded middle key that any (group key, code) pair can produce, every encoded
  code block, and the one-way blind of all of those;
- a transcript ciphertext contributes an edge by actually decrypting it under
  every universe value until the authenticated decryption succeeds;
- derivation edges are found by hashing forward over the whole universe and
  inverting the resulting maps.

Soundness of staying inside the universe: every rule output either is a hash
image of its inputs (so hitting a protocol value from outside the universe
would be a second-preimage) or a decryption (and authenticated decryption
succeeds only under the one real wrapping key, which the protocols always
took from the universe).  Values outside the universe therefore cannot sit on
any chain that ends at a protocol key.

This prover shares none of the production analyzer's machinery — no fact-kind
gating, no sibling-structure-driven mixing, no wrap-log index — so agreement
between the two is a meaningful completeness/soundness cross-check at desk
scale.
"""

from __future__ import annotations

from gkms.core import RekeyMessage
from gkms.crypto import (
    SymKey,
    UnwrapError,
    blind,
    derive,
    derive_with_code,
    encode_code,
    mix,
    unwrap,
)
from gkms.harness import TraceRecord

# which rule families each protocol's adversary may apply (stated here
# independently of the production rule table)
EDGE_FAMILIES = {
    "ckcs": frozenset({"unwrap", "derive", "code-derive"}),
    "lkh": frozenset({"unwrap"}),
    "oft": frozenset({"unwrap", "blind", "mix"}),
    "okd": frozenset({"unwrap", "derive"}),
}


class ReferenceProver:
    """Per-trace tables; reusable across adversaries of the same trace."""

    def __init__(self, trace: TraceRecord, extra_codes: set[str] | None = None) -> None:
        self.families = EDGE_FAMILIES[trace.scenario.protocol]
        groups = [k.data for k in trace.group_key_history]

        all_codes = getattr(trace.server, "all_codes", None)
        self.codes_ever: set[str] = set(all_codes()) if all_codes else set()
        self.codes_ever |= extra_codes or set()

        base: set[bytes] = set(trace.node_key_log)
        base.update(groups)
        self.code_pre: dict[bytes, list[tuple[bytes, str]]] = {}
        if "code-derive" in self.families:
            for g in groups:
                for code in self.codes_ever:
                    value = derive_with_code(SymKey(g), code).data
                    base.add(value)
                    self.code_pre.setdefault(value, []).append((g, code))
        self.encoded = {code: encode_code(code) for code in self.codes_ever}
        base.update(self.encoded.values())

        self.blind_pre: dict[bytes, list[bytes]] = {}
        if "blind" in self.families or "mix" in self.families:
            for v in list(base):
                self.blind_pre.setdefault(blind(SymKey(v)).data, []).append(v)
            base.update(self.blind_pre)

        self.universe = base

        self.derive_pre: dict[bytes, list[bytes]] = {}
        if "derive" in self.families:
            for v in self.universe:
                self.derive_pre.setdefault(derive(SymKey(v)).data, []).append(v)

        self.mix_pre: dict[bytes, list[tuple[bytes, bytes]]] = {}
        if "mix" in self.families:
            blinds = sorted(self.blind_pre)  # deterministic order
            for a in blinds:
                for b in blinds:
                    self.mix_pre.setdefault(mix(SymKey(a), SymKey(b)).data, []).append((a, b))

        # open every transcript ciphertext by trying the whole universe
        self.ct_edges: dict[bytes, list[bytes]] = {}  # plaintext -> [kek, ...]
        seen_cts: set[bytes] = set()
        for message in trace.deliveries:
            if not isinstance(message, RekeyMessage):
                continue
            for payload in message.payloads:
                if payload.ciphertext in seen_cts:
                    continue
                seen_cts.add(payload.ciphertext)
                for kek in self.universe:
                    try:
                        plain = unwrap(SymKey(kek), payload)
                    except UnwrapError:
                        continue
                    self.ct_edges.setdefault(plain.data, []).append(kek)
                    break  # authenticated: only one key can succeed

    def reachable(self, seed_keys: set[bytes], seed_codes: set[str]) -> tuple[set[bytes], set[str]]:
        """Fixed point of (known keys, known codes) under the edge families."""
        known: set[bytes] = set(seed_keys)
        known_codes: set[str] = set(seed_codes)
        changed = True
        while changed:
            changed = False
            for code, block in self.encoded.items():
                if code not in known_codes and block in known:
                    known_codes.add(code)
                    changed = True
            for value in self.universe:
                if value in known:
                    continue
                ok = False
                if "unwrap" in self.families:
                    ok = any(kek in known for kek in self.ct_edges.get(value, ()))
                if not ok and "derive" in self.families:
                    ok = any(u in known for u in self.derive_pre.get(value, ()))
                if not ok and "code-derive" in self.families:
                    ok = any(
                        g in known and code in known_codes
                        for g, code in self.code_pre.get(value, ())
                    )
                if not ok and "blind" in self.families:
                    ok = any(u in known for u in self.blind_pre.get(value, ()))
                if not ok and "mix" in self.families:
                    ok = any(
                        a in known and b in known for a, b in self.mix_pre.get(value, ())
                    )
                if ok:
                    known.add(value)
                    changed = True
        return known, known_codes
