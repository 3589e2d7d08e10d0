"""Secrecy analyzer: closure mechanics, witness soundness, per-protocol
verdicts, the codes-public leak demonstration, and agreement with the
independent reachability oracle."""

from random import Random

import pytest

from analyzer_reference import ReferenceProver
from closure_reference import reference_closure
from gkms import analyzer
from gkms.analyzer import (
    DERIVATIONS,
    ClosureIndex,
    Fact,
    KnowledgeSet,
    RULESETS,
    adversary_knowledge,
    audit,
    check_backward_secrecy,
    check_forward_secrecy,
    closure,
    fingerprint,
    verify_witness,
)
from gkms.core import CostMeter
from gkms.crypto import SymKey, derive, derive_with_code, encode_code, wrap
from gkms.harness import Scenario, Step, parse_scenario, run

K = SymKey(bytes([5]) * 32)
K2 = SymKey(bytes([6]) * 32)


def trace_of(text):
    return run(parse_scenario(text))


# -- knowledge set basics -----------------------------------------------------------


def test_fingerprint_and_fact_line():
    assert fingerprint(K) == "05050505"
    assert fingerprint(K.data) == "05050505"
    fact = Fact(value=derive(K).data, rule="hash-forward", inputs=(K.data,))
    assert fact.line() == f"hash-forward(05050505) -> {derive(K).fingerprint}"


def test_empty_closure_stays_empty():
    closed = closure(KnowledgeSet(ClosureIndex(rules=RULESETS["ckcs"])))
    assert closed.keys == set()


def test_seed_keys_have_trivial_witness():
    ks = KnowledgeSet(ClosureIndex(), keys=[K])
    assert ks.knows(K)
    assert ks.witness(K) == "(held from the start)"
    with pytest.raises(KeyError):
        ks.witness(K2)


def test_derive_chain_stays_inside_the_universe():
    chain = [derive(K)]
    for _ in range(2):
        chain.append(derive(chain[-1]))
    node_tags = {key.data: {node} for node, key in enumerate(chain)}
    closed = closure(
        KnowledgeSet(ClosureIndex(rules=RULESETS["ckcs"], node_tags=node_tags), keys=[K])
    )
    for stepped in chain:
        assert closed.knows(stepped)
    assert not closed.knows(derive(chain[-1]))  # step 4 is no value of the trace
    assert verify_witness(closed, chain[-1])


def test_code_derivation_from_known_codes():
    # code-derived values are leaves of the search: the protocol never chains
    # a refresh or another code step off them, even onto a value of the trace
    leaves = [derive_with_code(derive_with_code(K, "41"), "7"), derive(derive_with_code(K, "41"))]
    node_tags = {
        key.data: {node}
        for node, key in enumerate(
            [derive(K), derive_with_code(K, "41"), derive_with_code(derive(K), "7"), *leaves]
        )
    }
    closed = closure(
        KnowledgeSet(
            ClosureIndex(rules=RULESETS["ckcs"], node_tags=node_tags), keys=[K], codes=["41", "7"]
        )
    )
    assert closed.knows(derive_with_code(K, "41"))
    assert closed.knows(derive_with_code(derive(K), "7"))
    for leaf in leaves:
        assert not closed.knows(leaf)


def test_unwrap_from_transcript_and_code_learning():
    meter = CostMeter(wrap_log={})
    code_block = SymKey(encode_code("2734"))
    ct_code = wrap(K, code_block, meter, kek_id=1)  # a confidential code delivery
    secret = derive_with_code(K2, "2734")
    ct_key = wrap(secret, K2, meter, kek_id=2)  # group key wrapped under a middle key
    from gkms.core import RekeyMessage

    transcript = [
        RekeyMessage("multicast", ("x",), (ct_code, ct_key), {}),
    ]
    index = ClosureIndex(
        transcript=transcript, rules=RULESETS["ckcs"], wrap_log=meter.wrap_log
    )
    closed = closure(KnowledgeSet(index, keys=[K, K2]))
    assert "2734" in closed.codes  # learned by decoding an unwrapped payload
    assert closed.knows(secret)
    assert closed.knows(K2)
    witness = closed.witness(secret)
    assert "code-derive" in witness and "code=2734" in witness
    assert verify_witness(closed, secret)
    # the witness for the code-derived key includes how the code was learned
    lines = witness.splitlines()
    assert any(line.startswith("unwrap-from-transcript") for line in lines)


def test_verify_witness_rejects_fabricated_facts():
    ks = KnowledgeSet(ClosureIndex(), keys=[K])
    bogus = Fact(value=K2.data, rule="hash-forward", inputs=(K.data,))
    ks.facts[K2.data] = bogus  # claim derive(K) == K2, which is false
    assert not verify_witness(ks, K2)
    assert not verify_witness(ks, SymKey(bytes(32)))  # unknown key


def test_verify_witness_rejects_a_rule_that_names_no_derivation():
    ks = KnowledgeSet(ClosureIndex(), keys=[K])
    stepped = derive(K).data
    ks.facts[stepped] = Fact(value=stepped, rule="hash-backward", inputs=(K.data,))
    assert not verify_witness(ks, stepped)
    ks.facts[stepped] = Fact(value=stepped, rule="hash-forward", inputs=(K.data,))
    assert verify_witness(ks, stepped)


def test_verify_witness_rejects_a_code_derive_step_with_the_wrong_code():
    ks = KnowledgeSet(ClosureIndex(), keys=[K], codes=["41", "42"])
    coded = derive_with_code(K, "41").data
    ks.facts[coded] = Fact(value=coded, rule="code-derive", inputs=(K.data,), code="42")
    assert not verify_witness(ks, coded)
    ks.facts[coded] = Fact(value=coded, rule="code-derive", inputs=(K.data,), code="41")
    assert verify_witness(ks, coded)


def test_every_rule_is_a_derivation_or_the_unwrap():
    rules = {rule for ruleset in RULESETS.values() for rule in ruleset}
    assert rules == set(DERIVATIONS) | {"unwrap-from-transcript"}


def test_derivations_call_the_one_way_function_bound_at_call_time(monkeypatch):
    """A wrapper bound over the module's name afterwards (as a tracer does)
    sees every derivation the closure and the witness check run."""
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("derive", "derive_with_code"):
        monkeypatch.setattr(analyzer, name, counting(name, getattr(analyzer, name)))
    target = derive_with_code(derive(K), "41")
    index = ClosureIndex(rules=RULESETS["ckcs"], node_tags={derive(K).data: {1}, target.data: {2}})
    closed = closure(KnowledgeSet(index, keys=[K], codes=["41"]))
    # K and derive(K) each step once and code-derive once; only the outputs
    # in the trace's universe become facts
    assert sorted(calls) == ["derive", "derive", "derive_with_code", "derive_with_code"]
    assert closed.keys == {K.data, derive(K).data, target.data}
    calls.clear()
    assert verify_witness(closed, target)
    assert calls == ["derive", "derive_with_code"]


# -- adversary construction -----------------------------------------------------------


def test_adversary_knowledge_validates_inputs():
    trace = trace_of("init n=4 protocol=lkh seed=1\nleave 1\n")
    with pytest.raises(ValueError):
        adversary_knowledge(trace, ("ghost",))
    with pytest.raises(ValueError):
        adversary_knowledge(trace, ("u1",), codes_public=True)


def test_current_member_reaches_the_current_group_key():
    for protocol in ("ckcs", "lkh", "oft", "okd"):
        trace = trace_of(f"init n=6 protocol={protocol} seed=3\njoin 2\nleave 2\n")
        stayer = sorted(trace.members)[0]
        closed = closure(adversary_knowledge(trace, (stayer,)))
        assert closed.knows(trace.server.group_key), protocol


def test_a_long_ckcs_churn_closure_stays_within_the_trace():
    # 40 alternating join/leave batches from n=64, sizes drawn from
    # {1, 1, 2, 4, 8}, leave layouts drawn at random.  A closure capped only
    # by the event count held 619,306 facts for the last leaver here; bounded
    # by the universe it holds at most its seeds, one fact per transcript
    # payload and one per universe value.
    rng = Random(5)
    steps = []
    for i in range(40):
        count = rng.choice((1, 1, 2, 4, 8))
        if i % 2 == 0:
            steps.append(Step(op="join", count=count))
        else:
            layout = rng.choice(("random", "best-half", "worst-spread"))
            steps.append(Step(op="leave", count=count, layout=layout))
    trace = run(Scenario(protocol="ckcs", n=64, seed=5, steps=tuple(steps)))
    last_leaver = list(trace.leave_epoch)[-1]
    ks = adversary_knowledge(trace, (last_leaver,))
    payloads = {p.ciphertext for message in ks.index.transcript for p in message.payloads}
    closed = closure(ks)
    assert len(closed.facts) <= len(ks.facts) + len(payloads) + len(ks.index.universe)
    assert check_forward_secrecy(trace, last_leaver).secure


# -- secrecy verdicts -------------------------------------------------------------------


FIG_TRACE = "init n=8 protocol=ckcs seed=1 root_code=27\nleave ids=u1,u4,u8\n"


@pytest.mark.parametrize("protocol", ["ckcs", "lkh", "oft", "okd"])
def test_forward_secrecy_holds_per_protocol(protocol):
    trace = trace_of(f"init n=8 protocol={protocol} seed=2\nleave 2\njoin 1\nleave 1\n")
    for leaver in trace.leave_epoch:
        verdict = check_forward_secrecy(trace, leaver)
        assert verdict.secure, f"{protocol}: {verdict}"
        assert verdict.targets_checked >= 1
        assert "secure" in str(verdict)


@pytest.mark.parametrize("protocol", ["ckcs", "lkh", "oft", "okd"])
def test_backward_secrecy_holds_per_protocol(protocol):
    trace = trace_of(f"init n=5 protocol={protocol} seed=4\njoin 2\nleave 1\njoin 1\n")
    for joiner, epoch in trace.join_epoch.items():
        verdict = check_backward_secrecy(trace, joiner)
        assert verdict.secure, f"{protocol}: {verdict}"
        assert verdict.targets_checked == epoch  # one target per earlier epoch


def test_founders_are_vacuously_backward_secure():
    trace = trace_of("init n=4 protocol=ckcs seed=1\njoin 1\n")
    verdict = check_backward_secrecy(trace, "u1")
    assert verdict.secure and verdict.targets_checked == 0


def test_verdict_requires_known_member():
    trace = trace_of(FIG_TRACE)
    with pytest.raises(ValueError):
        check_forward_secrecy(trace, "u2")  # never left
    with pytest.raises(ValueError):
        check_backward_secrecy(trace, "ghost")


def test_simultaneous_leavers_cannot_collude_back_in():
    trace = trace_of(FIG_TRACE + "join 2\nleave 2\n")
    verdict = check_forward_secrecy(trace, "u1", colluders=("u4", "u8"))
    assert verdict.secure
    assert verdict.adversary == ("u1", "u4", "u8")


def test_same_branch_earlier_leaver_adds_nothing():
    # u2's code knowledge (its own ancestors) never intersects the cover used
    # to rekey after u1's later departure, so pooling them gains nothing.
    trace = trace_of("init n=8 protocol=ckcs seed=6\nleave ids=u2\nleave ids=u1\n")
    verdict = check_forward_secrecy(trace, "u1", colluders=("u2",))
    assert verdict.secure


def test_cross_branch_leaver_collusion_leaks_cover_codes():
    # Codes are never refreshed by a leave, so a leaver from the other branch
    # still knows the code of the cover node that shields its old half.  Pool
    # that with the pre-leave group key held by a later leaver and the pair
    # can rebuild a cover middle key and open the rekey multicast.  Single
    # adversaries stay safe (see the per-protocol tests above); the pooled
    # breach is a measured property of the coded-cover design, reported as-is.
    trace = trace_of("init n=8 protocol=ckcs seed=6\nleave ids=u2\njoin 1\nleave ids=u5\n")
    verdict = check_forward_secrecy(trace, "u5", colluders=("u2",))
    assert not verdict.secure
    assert verdict.breached_epoch == 3
    lines = verdict.witness.splitlines()
    assert any(line.startswith("code-derive") for line in lines)
    assert any(line.startswith("unwrap-from-transcript") for line in lines)
    closed = closure(adversary_knowledge(trace, ("u5", "u2")))
    assert verify_witness(closed, trace.group_key_history[3])


def test_still_member_colluder_trivially_leaks_current_keys():
    trace = trace_of("init n=8 protocol=ckcs seed=6\nleave ids=u2\n")
    verdict = check_forward_secrecy(trace, "u2", colluders=("u5",))
    assert not verdict.secure  # u5 legitimately holds the post-leave key
    assert verdict.witness == "(held from the start)"


def test_codes_public_mode_breaks_forward_secrecy():
    trace = trace_of(FIG_TRACE)
    baseline = check_forward_secrecy(trace, "u1")
    assert baseline.secure  # codes kept secret: the design holds
    verdict = check_forward_secrecy(trace, "u1", codes_public=True)
    assert not verdict.secure
    assert verdict.breached_epoch == 1
    lines = verdict.witness.splitlines()
    assert any(line.startswith("code-derive") for line in lines)
    assert any(line.startswith("unwrap-from-transcript") for line in lines)
    # the breach witness re-executes against the closure that produced it
    closed = closure(adversary_knowledge(trace, ("u1",), codes_public=True))
    assert verify_witness(closed, trace.group_key_history[1])


# -- equivalence with the wrap-log-free search -------------------------------------------


@pytest.mark.parametrize("protocol", ["ckcs", "lkh", "oft", "okd"])
def test_indexed_and_brute_force_unwrap_agree(protocol):
    trace = trace_of(f"init n=6 protocol={protocol} seed=8\njoin 2\nleave 3\n")
    leaver = sorted(trace.leave_epoch)[0]
    ks = adversary_knowledge(trace, (leaver,))
    # the reference ignores the wrap log and tries every ciphertext
    assert closure(ks).keys == reference_closure(ks, brute_force=True).keys


# -- agreement with the independent reachability oracle ----------------------------------


def _adversary_picks(trace):
    picks = sorted(trace.leave_epoch)[:2]
    picks += sorted(trace.join_epoch, key=trace.join_epoch.get, reverse=True)[:1]
    picks += sorted(trace.members)[:1]
    return list(dict.fromkeys(picks))


def _assert_oracle_agreement(trace, codes_public=False):
    extra = set()
    if codes_public:
        extra = set(trace.server.all_codes())
    prover = ReferenceProver(trace, extra_codes=extra or None)
    for member in _adversary_picks(trace):
        ks = adversary_knowledge(trace, (member,), codes_public=codes_public)
        closed = closure(ks)
        seeds = set(ks.keys)
        seed_codes = set(ks.codes)
        known, _ = prover.reachable(seeds, seed_codes)
        for epoch, group_key in enumerate(trace.group_key_history):
            forward = closed.knows(group_key)
            independent = group_key.data in known
            assert forward == independent, (
                f"{trace.scenario.protocol} seed={trace.scenario.seed} member={member} "
                f"epoch={epoch}: closure={forward} oracle={independent}"
            )


@pytest.mark.parametrize("protocol", ["ckcs", "lkh", "oft", "okd"])
def test_closure_agrees_with_reference_prover(protocol):
    from gkms.harness import generate_random_scenario

    seeds = [901, 917, 944]
    for seed in seeds:
        scenario = generate_random_scenario(seed, protocol=protocol, max_n=16, max_events=8)
        trace = run(scenario)
        if not trace.leave_epoch and not trace.join_epoch:
            continue
        _assert_oracle_agreement(trace)


def test_codes_public_breach_is_confirmed_by_reference_prover():
    trace = trace_of(FIG_TRACE)
    prover = ReferenceProver(trace, extra_codes=set(trace.server.all_codes()))
    ks = adversary_knowledge(trace, ("u1",), codes_public=True)
    known, _ = prover.reachable(set(ks.keys), set(ks.codes))
    assert trace.group_key_history[1].data in known  # the oracle finds it too
    _assert_oracle_agreement(trace, codes_public=True)


# -- corpus audit --------------------------------------------------------------------------


def test_audit_small_corpus_is_secure():
    report = audit(trials=25, max_n=32, seed=11)
    assert report.ok
    assert report.trials == 25
    assert report.checks > 25  # several checks per trace on average
    assert "all secure" in report.summary()


def test_audit_sample_all_checks_every_mover():
    endpoints = audit(trials=8, max_n=24, seed=13)
    everyone = audit(trials=8, max_n=24, seed=13, sample="all")
    assert everyone.checks >= endpoints.checks
    assert everyone.ok


def test_audit_codes_public_finds_breaches_with_witnesses():
    report = audit(trials=10, max_n=24, seed=17, codes_public=True)
    assert not report.ok
    assert report.breaches
    for _seed, verdict in report.breaches:
        assert verdict.check == "forward-secrecy"
        assert verdict.witness
        assert "BREACH" in str(verdict)


def test_audit_closes_a_member_that_joins_and_leaves_once(monkeypatch):
    trace = trace_of("init n=4 protocol=okd seed=1\njoin 2\nleave ids=u5,u2\n")
    picks = analyzer._audit_adversaries(trace, "all")
    assert picks == [("forward", "u5"), ("forward", "u2"), ("backward", "u5"), ("backward", "u6")]
    check = {"forward": check_forward_secrecy, "backward": check_backward_secrecy}
    separate = [check[kind](trace, member) for kind, member in picks]
    closed = []

    def counting(ks):
        closed.append(ks)
        return closure(ks)

    monkeypatch.setattr(analyzer, "closure", counting)
    assert analyzer._audit_trace(trace, "all", codes_public=False) == separate
    assert len(closed) == 3  # u5, u2 and u6, once each


def test_audit_rejects_an_unknown_sample():
    with pytest.raises(ValueError, match="unknown audit sample 'everyone'"):
        audit(trials=1, sample="everyone")


def test_audit_rejects_a_group_bound_the_generator_cannot_meet():
    with pytest.raises(ValueError, match="max_n must be at least 2, got 1"):
        audit(trials=1, max_n=1)
