"""Independent checks of the simulator's outputs.

Every primitive here is recomputed with ``hashlib`` and ``cryptography``'s
``AESSIV`` directly; nothing is imported from ``gkms.crypto``.  The checks
read the program's outputs (traces, sweep rows, audit reports) as plain data
and raise :class:`OracleError` on the first disagreement.
"""

from __future__ import annotations

import hashlib
import math
from random import Random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESSIV

KEY_LEN = 32


class OracleError(AssertionError):
    """A program output disagrees with its independent recomputation."""


# -- primitives (the published construction, recomputed) ---------------------


def derive(key: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + key).digest()


def blind(key: bytes) -> bytes:
    return hashlib.sha256(b"\x02" + key).digest()


def mix(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x03" + left + right).digest()


def derive_with_code(key: bytes, code: str) -> bytes:
    pad = code.encode("ascii").rjust(KEY_LEN, b"\x00")
    mixed = (int.from_bytes(key, "big") ^ int.from_bytes(pad, "big")).to_bytes(KEY_LEN, "big")
    return hashlib.sha256(b"\x04" + mixed).digest()


def aes_wrap(kek: bytes, payload: bytes) -> bytes:
    return AESSIV(kek).encrypt(payload, None)


def aes_unwrap(kek: bytes, ciphertext: bytes) -> bytes | None:
    """Plaintext, or None when ``kek`` did not wrap ``ciphertext``."""
    try:
        return AESSIV(kek).decrypt(ciphertext, None)
    except InvalidTag:
        return None


def _decoded_code(block: bytes) -> str | None:
    stripped = block.lstrip(b"\x00")
    if stripped and stripped.isdigit():
        return stripped.decode("ascii")
    return None


# -- scenario runs -------------------------------------------------------------


def check_membership(trace, scenario) -> None:
    """Final membership is initial + joined - left, from the scenario and the
    event records; tracked views agree with it."""
    expected = {f"u{i}" for i in range(1, scenario.n + 1)}
    if len(trace.events) != len(scenario.steps):
        raise OracleError(f"{len(trace.events)} event records for {len(scenario.steps)} steps")
    for step, record in zip(scenario.steps, trace.events):
        if record.op != step.op or (step.count is not None and len(record.member_ids) != step.count):
            raise OracleError(f"event {record.seq}: {record.op} of {len(record.member_ids)} for step {step}")
        if record.n_at_event != len(expected):
            raise OracleError(f"event {record.seq}: n={record.n_at_event}, expected {len(expected)}")
        batch = set(record.member_ids)
        if record.op == "join":
            if batch & expected:
                raise OracleError(f"event {record.seq}: joiners already present")
            expected |= batch
        else:
            if not batch <= expected:
                raise OracleError(f"event {record.seq}: leavers not in the group")
            expected -= batch
    if set(trace.server.member_ids) != expected:
        raise OracleError("server membership differs from initial + joined - left")
    if trace.members and set(trace.members) != expected:
        raise OracleError("tracked member views differ from initial + joined - left")


def check_probe(trace, rng: Random) -> None:
    """A probe wrapped under the final group key opens for every current
    member and for no departed member."""
    final = trace.group_key_history[-1].data
    if trace.server.group_key.data != final:
        raise OracleError("server group key differs from the last recorded group key")
    payload = rng.randbytes(KEY_LEN)
    probe = aes_wrap(final, payload)
    if not trace.members:
        raise OracleError("probe check needs tracked members")
    for member_id, view in trace.members.items():
        if view.group_key is None or aes_unwrap(view.group_key.data, probe) != payload:
            raise OracleError(f"current member {member_id} cannot open the probe")
    for member_id, view in trace.departed.items():
        if view.group_key is not None and aes_unwrap(view.group_key.data, probe) is not None:
            raise OracleError(f"departed member {member_id} opens the probe")


def oft_root(tree) -> bytes:
    """Group key folded bottom-up from the leaf keys: mix(blind(l), blind(r))."""
    folded: dict[int, bytes] = {}
    order = []
    stack = [tree.root_id]
    while stack:
        node_id = stack.pop()
        order.append(node_id)
        stack.extend(tree.nodes[node_id].children)
    for node_id in reversed(order):
        node = tree.nodes[node_id]
        if not node.children:
            folded[node_id] = node.key.data
        else:
            left, right = node.children
            folded[node_id] = mix(blind(folded[left]), blind(folded[right]))
    return folded[tree.root_id]


def check_oft_fold(trace) -> None:
    if oft_root(trace.server.tree) != trace.group_key_history[-1].data:
        raise OracleError("OFT root re-folded from the leaf keys differs from the group key")


def check_fresh_group_keys(trace) -> None:
    """Every event yields a group key never seen before in the trace."""
    seen: set[bytes] = set()
    for epoch, key in enumerate(trace.group_key_history):
        if key.data in seen:
            raise OracleError(f"epoch {epoch} repeats an earlier group key")
        seen.add(key.data)
    if len(trace.group_key_history) != len(trace.events) + 1:
        raise OracleError("group key history is not one key per event plus the initial key")
    for record in trace.events:
        if record.group_key.data != trace.group_key_history[record.seq].data:
            raise OracleError(f"event {record.seq}: recorded group key differs from the history")


def check_metered_counts(trace) -> None:
    """Metered multicast, unicast and payload counts equal the counts taken
    from each event's deliveries."""
    for record in trace.events:
        multicast = unicast = payloads = 0
        for delivery in record.output.deliveries:
            channel = getattr(delivery, "channel", None)
            if channel is None:
                continue  # a zero-payload notice, outside the cost model
            multicast += channel == "multicast"
            unicast += channel == "unicast"
            payloads += len(delivery.payloads)
        cost = record.cost
        got = (cost.multicast, cost.unicast, cost.payload_keys)
        delivered = (multicast, unicast, payloads)
        if got != delivered:
            raise OracleError(f"event {record.seq}: metered {got} != delivered {delivered}")


def check_run(trace, scenario, tracked: bool, rng: Random) -> None:
    check_membership(trace, scenario)
    check_fresh_group_keys(trace)
    check_metered_counts(trace)
    if tracked:
        check_probe(trace, rng)
    if scenario.protocol == "oft":
        check_oft_fold(trace)


# -- sweeps ----------------------------------------------------------------------


def expected_sweep_cells(n_values, m_values, ops) -> list[tuple[str, int, int, int]]:
    """(op, n, m, batch) of every grid cell a sweep keeps, in sweep order."""
    cells = []
    for op in ops:
        for n in n_values:
            for m in m_values:
                batch = m
                if op == "leave":
                    if m > n:
                        continue
                    if m == n:
                        batch = n - 1
                        if batch == 0:
                            continue
                cells.append((op, n, m, batch))
    return cells


def check_sweep_rows(rows, protocol, n_values, m_values, ops) -> None:
    """The row count equals the grid minus the skipped cells, in grid order."""
    cells = expected_sweep_cells(n_values, m_values, ops)
    if len(rows) != len(cells):
        raise OracleError(f"{protocol}: {len(rows)} sweep rows for {len(cells)} kept cells")
    for row, (op, n, m, _) in zip(rows, cells):
        if (row["protocol"], row["op"], row["n"], row["m"]) != (protocol, op, n, m):
            raise OracleError(f"{protocol}: row {row['op']} n={row['n']} m={row['m']} out of grid order")


def cover_size(tree, leavers) -> int:
    """Number of maximal leaver-free subtrees of ``tree``."""
    tainted: set[int] = set()
    for node_id, node in tree.nodes.items():
        if node.member in leavers:
            while node_id is not None and node_id not in tainted:
                tainted.add(node_id)
                node_id = tree.nodes[node_id].parent
    if tree.root_id not in tainted:
        return 1
    return sum(
        1
        for node_id in tainted
        for child in tree.nodes[node_id].children
        if child not in tainted
    )


def check_ckcs_closed_form(rows, covers: dict[tuple[int, int], int]) -> None:
    """join: keygen=m+1, encrypt=m, unicast=0, multicast=1;
    leave: keygen=1, unicast=0, multicast=1, encrypt=cover size >= 1."""
    for row in rows:
        n, m = row["n"], row["m"]
        got = (row["keygen"], row["encrypt"], row["unicast"], row["multicast"])
        if row["op"] == "join":
            want = (m + 1, m, 0, 1)
        else:
            cover = covers[(n, m)]
            if cover < 1:
                raise OracleError(f"ckcs leave n={n} m={m}: empty cover")
            want = (1, cover, 0, 1)
        if got != want:
            raise OracleError(
                f"ckcs {row['op']} n={n} m={m}: (keygen, encrypt, unicast, multicast) {got} != {want}"
            )


def check_baseline_keygen(rows, low: float = 0.5, high: float = 3.0) -> None:
    """Sequential-baseline keygen fits c * m * log2(n) with c in [low, high]."""
    for row in rows:
        c = row["keygen"] / (row["m"] * math.log2(row["n"]))
        if not low <= c <= high:
            cell = f"{row['protocol']} {row['op']} n={row['n']} m={row['m']}"
            raise OracleError(f"{cell}: keygen constant {c:.2f}")


# -- secrecy audit ---------------------------------------------------------------


def expected_audit_checks(scenarios) -> int:
    """With sample="all" every leaver and every joiner is checked once."""
    return sum(step.count for scenario in scenarios for step in scenario.steps)


def check_audit_reports(reports, scenarios) -> None:
    checks = sum(report.checks for report in reports)
    breaches = sum(len(report.breaches) for report in reports)
    if breaches:
        raise OracleError(f"{breaches} secrecy breaches in code-secret mode")
    expected = expected_audit_checks(scenarios)
    if checks != expected:
        raise OracleError(f"{checks} closure checks for {expected} leavers plus joiners")


def check_reaches(closed, key: bytes) -> None:
    if key not in closed.facts:
        raise OracleError("a surviving member's closure does not reach the final group key")


def check_witness_chain(closed, target: bytes) -> int:
    """Re-execute a closure's witness chain for ``target`` step by step from
    the adversary's seed knowledge; returns the number of steps."""
    known = {value for value, fact in closed.facts.items() if fact.rule is None}
    codes = {code for code, origin in closed.codes.items() if origin is None}
    chain = closed.witness_facts(target)
    for fact in chain:
        if not all(value in known for value in fact.inputs):
            raise OracleError(f"witness step {fact.rule} uses a value not yet known")
        if fact.rule in ("hash-forward", "okd-derive"):
            out = derive(fact.inputs[0])
        elif fact.rule == "code-derive":
            if fact.code not in codes:
                raise OracleError(f"witness step uses unknown code {fact.code}")
            out = derive_with_code(fact.inputs[0], fact.code)
        elif fact.rule == "oft-blind":
            out = blind(fact.inputs[0])
        elif fact.rule == "oft-mix":
            out = mix(fact.inputs[0], fact.inputs[1])
        elif fact.rule == "unwrap-from-transcript":
            out = aes_unwrap(fact.inputs[0], fact.wrapped.ciphertext)
        else:
            out = None
        if out is None or out != fact.value:
            raise OracleError(f"witness step {fact.rule} does not reproduce its output")
        known.add(out)
        code = _decoded_code(out)
        if code is not None:
            codes.add(code)
    if target not in known:
        raise OracleError("witness chain does not end at the breached group key")
    return len(chain)
