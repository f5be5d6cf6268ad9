"""Random-diagram fuzzer across the layers.

Each case is a random diagram from `test_semantics._random_diagram`
(mixed colours, boxes, multi-edges, self-loops, degree-0 spiders at
D=2..5) with one `random_rule_instance` spliced in by `compose`, so that
rules which need exact or zero phases find sites too, and its node ids
shuffled, so that no matcher may rely on an instance's nodes being
numbered one after the other. On each case the
two evaluators agree, every rule's matcher finds the sites of a
brute-force candidate list, `simplify` leaves none of those sites,
every site of every rule keeps the
matrix with a scalar of exactly 1, `simplify` takes the steps that a
full rescan per step takes and replays, and diagram and trace JSON
round-trip. A negative control shows that the brute-force list catches
keys that lose one site, that of a rule's own random instance.
"""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditzx import diagram as dg
from quditzx import rewrite as rw
from quditzx.semantics import compare_scalar_exact, evaluate
from test_semantics import _random_diagram

# Rewritten diagrams are evaluated only within the generator's own size
# bound, D^legs <= 2^15 per node tensor that the fast path builds, which
# leaves out spider self-loops: a fused spider can have many.
_NODE_ELEMS = 2 ** 15


def _spliced(dim: int, seed: int, rule: str, shuffle: bool = True) -> tuple:
    """(context, diagram): the random context drawn from `seed`, and the
    context with a random instance of `rule` composed after it (wired
    output to input where the counts agree, else side by side). With
    shuffle, the diagram's node ids are then permuted, also from `seed`,
    so that the instance's nodes are not numbered one after the other."""
    rng = random.Random(seed)
    context = _random_diagram(rng, dim)
    instance, _site = rw.random_rule_instance(rule, dim, rng)
    mode = ("sequential" if context.n_outputs == instance.n_inputs
            else "parallel")
    d = dg.compose(context, instance, mode)
    if not shuffle:
        return context, d
    ids = sorted(d.nodes)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    nodes = sorted((new[v], node) for v, node in d.nodes.items())
    edges = [(new[s], new[t]) for s, t in d.edges]
    return context, dg.Diagram(dim, dict(nodes), edges, d.scalar)


spliced_diagrams = st.builds(_spliced, st.integers(2, 5),
                             st.integers(0, 2 ** 32 - 1),
                             st.sampled_from(rw.ALL_RULES))


def _largest_node(d: dg.Diagram) -> int:
    """Entries of the largest node tensor the fast path builds for d: it
    builds no leg of a spider's self-loop."""
    def built(v):
        box = d.node(v).kind in dg.BOX_KINDS
        return sum(box or d.edges[e] != (v, v) for e, _ in d.legs(v))
    return d.dimension ** max(map(built, d.nodes), default=0)


def _sites_in_context(d: dg.Diagram) -> list:
    """Every (rule, site, rewritten diagram) of d within _NODE_ELEMS."""
    found = []
    for rule in rw.ALL_RULES:
        for site in rw.find_matches(d, rule):
            d2 = rw.apply_rule(d, rule, site)
            if _largest_node(d2) <= _NODE_ELEMS:
                found.append((rule, site, d2))
    return found


def _rescan_steps(d: dg.Diagram) -> tuple:
    """simplify's steps and result by definition, the oracle for its
    worklist: each step rescans every rule in order and fires the first
    site found."""
    steps = []
    while True:
        for rule in rw._SIMPLIFY_ORDER:
            sites = rw.find_matches(d, rule)
            if sites:
                d2 = rw.apply_rule(d, rule, sites[0])
                steps.append((rule, sites[0],
                              sorted(d.nodes.keys() - d2.nodes.keys()),
                              sorted(d2.nodes.keys() - d.nodes.keys())))
                d = d2
                break
        else:
            return steps, d


def _brute_force_sites(d: dg.Diagram) -> dict:
    """The sites of every rule by definition, the oracle for the candidate
    keys that find_matches and simplify share: every node, pair of nodes,
    first self-loop of a node, edge (with either end as K2_commute's gate)
    or pair of pairs of degree-3 nodes, in order, that the rule's check
    accepts. B_bialgebra's check needs degree 3 at all four nodes."""
    nodes = sorted(d.nodes)
    pairs = list(itertools.combinations(nodes, 2))
    cubic = list(itertools.combinations(
        [v for v in nodes if d.degree(v) == 3], 2))
    loops = {}
    for i, (s, t) in enumerate(d.edges):
        if s == t:
            loops.setdefault(s, i)
    candidates = {
        "D_identity": [{"node": v} for v in nodes],
        "S_fuse": [{"keep": a, "absorb": b, "color": d.node(a).kind}
                   for a, b in pairs],
        "F2_cancel": [{"boxes": [a, b]} for a, b in pairs],
        "loop_remove": [{"node": v, "edge": i}
                        for v, i in sorted(loops.items())],
        "B_copy": [{"state": s, "spider": t, "edge": i} for s, t, i in
                   sorted((s, t, i) for i, (s, t) in enumerate(d.edges))],
        "F1_color": [{"spider": v} for v in nodes],
        "K2_commute": [{"gate": g, "spider": v, "edge": i} for g, v, i in
                       sorted((g, v, i) for i, (s, t) in enumerate(d.edges)
                              for g, v in ((s, t), (t, s)))],
        "B_bialgebra": [{"first": [a, b], "second": [q1, q2],
                         "color": d.node(a).kind}
                        for a, b in cubic for q1, q2 in cubic],
    }
    g = dg.DiagramBuilder.from_diagram(d)
    found = {}
    for rule, sites in candidates.items():
        check = getattr(rw, "_check_" + rule.lower())
        found[rule] = []
        for site in sites:
            try:
                check(g, site)
            except rw.RuleMatchError:
                continue
            found[rule].append(site)
    return found


@settings(max_examples=200, deadline=None)
@given(spliced_diagrams)
def test_fuzz_matchers_equal_brute_force(case):
    _, d = case
    for rule, sites in _brute_force_sites(d).items():
        assert rw.find_matches(d, rule) == sites, rule


@pytest.mark.parametrize("rule", rw.ALL_RULES)
def test_brute_force_catches_a_key_that_drops_a_match(rule, monkeypatch):
    # The negative control for the test above: a record whose keys are
    # too tight by one candidate, the site of the rule's own random
    # instance, finds other sites than the brute-force list.
    record = rw._RULES[rule]
    cases = [rw.random_rule_instance(rule, dim, random.Random(f"{rule}:{dim}"))
             for dim in (2, 3, 4, 5)]
    for d, _site in cases:
        assert rw.find_matches(d, rule) == _brute_force_sites(d)[rule]
    for d, site in cases:
        def too_tight(g, edges, nodes, site=site):
            return (key for key in record.keys(g, edges, nodes)
                    if record.site(g, key) != site)

        monkeypatch.setitem(rw._RULES, rule, record._replace(keys=too_tight))
        sites = _brute_force_sites(d)[rule]
        assert site in sites
        assert rw.find_matches(d, rule) != sites


@settings(max_examples=100, deadline=None)
@given(spliced_diagrams)
def test_simplify_leaves_no_brute_force_site(case):
    # simplify's own fixpoint check reads the keys it would be checking;
    # the brute-force sites do not.
    _, d = case
    left = _brute_force_sites(rw.simplify(d)[0])
    assert not any(left[rule] for rule in rw._SIMPLIFY_ORDER), left


@settings(max_examples=100, deadline=None)
@given(spliced_diagrams)
def test_find_matches_reads_a_builder_as_it_is(case):
    # A DiagramBuilder, as simplify's fixpoint check passes one, gives the
    # sites of the diagram it would finish and is left as it is, also once
    # a rewrite in place has made its edge serials differ from positions.
    _, d = case
    g = dg.DiagramBuilder.from_diagram(d)
    for step in range(2):
        before = dg.to_json(g.finish())
        sites = {r: rw.find_matches(g, r) for r in rw.ALL_RULES}
        assert sites == {r: rw.find_matches(g.finish(), r)
                         for r in rw.ALL_RULES}
        assert dg.to_json(g.finish()) == before
        if step == 0:
            rule = next(r for r in rw.ALL_RULES if sites[r])
            rw.apply_rule(g, rule, sites[rule][0])


@settings(max_examples=200, deadline=None)
@given(spliced_diagrams)
def test_fuzz_spliced_random_diagrams(case):
    context, d = case
    # the reference evaluator runs on the whole case when it fits its
    # budget, else on the context alone
    small = d if d.dimension ** len(d.edges) <= _NODE_ELEMS else context
    fast, ref = evaluate(small, "fast"), evaluate(small, "reference")
    assert (fast.n_in, fast.n_out) == (ref.n_in, ref.n_out)
    assert np.max(np.abs(fast.matrix - ref.matrix), initial=0.0) < 1e-10

    before = evaluate(d).matrix
    steps = []
    for rule, site, d2 in _sites_in_context(d):
        s, dev, exact = compare_scalar_exact(evaluate(d2).matrix, before)
        assert exact, (rule, site, s, dev)
        steps.append(rw.TraceStep(rule, site,
                                  sorted(d.nodes.keys() - d2.nodes.keys()),
                                  sorted(d2.nodes.keys() - d.nodes.keys())))

    simplified, trace = rw.simplify(d)
    rescan, fixpoint = _rescan_steps(d)
    assert [(s.rule, s.site, s.removed, s.added)
            for s in trace.steps] == rescan
    assert rw.diagram_hash(fixpoint) == trace.final_hash
    replayed = rw.replay(d, trace)
    assert rw.diagram_hash(replayed) == trace.final_hash

    # every matcher's sites pass the trace loader's shape check
    for t in (trace, rw.RewriteTrace(trace.initial_hash, "", steps)):
        text = json.dumps(t.to_json_dict())
        assert rw.RewriteTrace.from_json_dict(json.loads(text)) == t
    for x in (d, simplified):
        assert dg.to_json(dg.from_json(dg.to_json(x))) == dg.to_json(x)


def test_fuzz_cases_give_every_rule_a_site():
    found = {rule: 0 for rule in rw.ALL_RULES}
    for seed in range(24):
        _, d = _spliced(2 + seed % 4, seed, rw.ALL_RULES[seed % 8])
        for rule, _site, _d2 in _sites_in_context(d):
            found[rule] += 1
    assert all(found.values()), found


def test_fuzz_fused_self_loops_are_checked():
    # This S_fuse site fuses two spiders into one of 27 legs, 26 of them
    # on 13 self-loops, in a closed diagram: once outside the node bound
    # (2^27), it is a 1x1 matrix.
    _, d = _spliced(2, 1460, "K2_commute")
    fused = [d2 for rule, _site, d2 in _sites_in_context(d)
             if rule == "S_fuse" and max(map(d2.degree, d2.nodes)) == 27]
    assert len(fused) == 1
    d2 = fused[0]
    after = evaluate(d2).matrix
    assert after.shape == (1, 1)
    assert compare_scalar_exact(after, evaluate(d).matrix)[2]
