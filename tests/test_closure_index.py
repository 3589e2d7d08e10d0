"""The per-trace closure index changes no closure output.

Every check of a trace shares one ClosureIndex (payload maps, blind oracle,
sibling maps, universe, rule-output tables).  The indexed closure must reach
exactly what the pre-index closure in closure_reference reaches, in the same
order, with the same witness text, and nothing may carry over from one
trace's index to another trace.
"""

import gc
import weakref

import pytest

from closure_reference import reference_closure, reference_universe
from gkms.analyzer import (
    ClosureIndex,
    KnowledgeSet,
    _audit_adversaries,
    adversary_knowledge,
    check_backward_secrecy,
    check_forward_secrecy,
    closure,
)
from gkms.harness import generate_random_scenario, run

MODES = [("ckcs", False), ("ckcs", True), ("lkh", False), ("oft", False), ("okd", False)]
SEEDS = (3, 58, 611, 7004, 90210)


def _trace(seed, protocol):
    return run(generate_random_scenario(seed, protocol=protocol, max_n=32, max_events=6))


@pytest.mark.parametrize("protocol,codes_public", MODES)
def test_indexed_closure_matches_reference(protocol, codes_public):
    checked = 0
    for seed in SEEDS:
        trace = _trace(seed, protocol)
        for _kind, member in _audit_adversaries(trace, "all"):
            ks = adversary_knowledge(trace, (member,), codes_public=codes_public)
            indexed, reference = closure(ks), reference_closure(ks)
            assert list(indexed.facts.items()) == list(reference.facts.items()), (seed, member)
            assert list(indexed.codes.items()) == list(reference.codes.items()), (seed, member)
            for group_key in trace.group_key_history:
                if reference.knows(group_key):
                    assert indexed.witness(group_key) == reference.witness(group_key)
            checked += 1
    assert checked > len(SEEDS)


@pytest.mark.parametrize("protocol,codes_public", MODES)
def test_every_derived_fact_lies_in_the_trace_universe(protocol, codes_public):
    # each member's knowledge is closed as held and without its group keys,
    # which its closure then has to re-derive where the rules allow
    derived = 0
    for seed in (11, 204, 3907):
        trace = run(generate_random_scenario(seed, protocol=protocol, max_n=32, max_events=8))
        group_keys = {key.data for key in trace.group_key_history}
        universe = reference_universe(adversary_knowledge(trace, ()).index)
        assert group_keys <= universe
        for _kind, member in _audit_adversaries(trace, "all"):
            held = adversary_knowledge(trace, (member,), codes_public=codes_public)
            seeds = [key for key in held.facts if key not in group_keys]
            without = KnowledgeSet(held.index, seeds, held.codes)
            for ks in (held, without):
                for fact in closure(ks).facts.values():
                    if fact.rule not in (None, "unwrap-from-transcript"):
                        assert fact.value in universe, (seed, member, fact.line())
                        derived += 1
    assert bool(derived) == (protocol != "lkh")  # lkh has no derivation rule


def test_checks_of_a_trace_share_one_index_freed_with_the_trace():
    trace = _trace(58, "oft")
    first, second = sorted(trace.members)[:2]
    index = adversary_knowledge(trace, (first,)).index
    assert adversary_knowledge(trace, (second,)).index is index
    assert closure(adversary_knowledge(trace, (first,))).index is index
    freed = weakref.ref(index)
    del trace, index
    gc.collect()
    assert freed() is None


CONTEXT = ("transcript", "rules", "node_tags", "sibling_pairs", "wrap_log")


@pytest.mark.parametrize(
    "field,value", [("transcript", ()), ("wrap_log", {}), ("node_tags", {}), ("sibling_pairs", ())]
)
def test_closure_follows_its_own_context(field, value):
    # a set closed inside an index built with one input replaced must reach
    # what the reference reaches from that same context, not the trace's.
    # Each set leaves out the group keys its member held, so its closure has
    # to re-derive them, and every part of the context can change that.
    changed = 0
    for protocol in ("lkh", "oft", "okd"):
        trace = _trace(58, protocol)
        group_keys = {key.data for key in trace.group_key_history}
        for _kind, member in _audit_adversaries(trace, "all"):
            full = adversary_knowledge(trace, (member,))
            seeds = [key for key in full.facts if key not in group_keys]
            context = {name: getattr(full.index, name) for name in CONTEXT}
            index = ClosureIndex(**{**context, field: value})
            ks = KnowledgeSet(index, keys=seeds, codes=full.codes)
            after, reference = closure(ks), reference_closure(ks)
            assert list(after.facts.items()) == list(reference.facts.items()), (protocol, member)
            unchanged = closure(KnowledgeSet(full.index, keys=seeds, codes=full.codes))
            changed += list(after.facts) != list(unchanged.facts)
    assert changed


def _checks(trace, codes_public):
    check = {"forward": check_forward_secrecy, "backward": check_backward_secrecy}
    return [
        (lambda kind=kind, member=member: check[kind](trace, member, codes_public=codes_public))
        for kind, member in _audit_adversaries(trace, "all")
    ]


@pytest.mark.parametrize("protocol,codes_public", [("ckcs", True), ("oft", False)])
def test_interleaved_traces_match_separate_runs(protocol, codes_public):
    seeds = (611, 7004)
    separate = [[c() for c in _checks(_trace(s, protocol), codes_public)] for s in seeds]
    assert any(not v.secure for verdicts in separate for v in verdicts) == codes_public

    for order in (1, -1):
        queues = [_checks(_trace(s, protocol), codes_public)[::order] for s in seeds]
        interleaved: list[list] = [[], []]
        while any(queues):
            for slot, queue in enumerate(queues):
                if queue:
                    interleaved[slot].append(queue.pop(0)())
        assert [v[::order] for v in interleaved] == separate
