"""Random-diagram fuzzer across the layers.

Each case is a random diagram from `test_semantics._random_diagram`
(mixed colours, boxes, multi-edges, self-loops, degree-0 spiders at
D=2..5) with one `random_rule_instance` spliced in by `compose`, so that
rules which need exact or zero phases find sites too. On each case the
two evaluators agree, every site of every rule keeps the matrix with a
scalar of exactly 1, `simplify` replays, and diagram and trace JSON
round-trip.
"""

import json
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from quditzx import diagram as dg
from quditzx import rewrite as rw
from quditzx.semantics import compare_scalar_exact, evaluate
from test_semantics import _random_diagram

# Rewritten diagrams are evaluated only within the generator's own size
# bound, D^legs <= 2^15 per node tensor that the fast path builds, which
# leaves out spider self-loops: a fused spider can have many.
_NODE_ELEMS = 2 ** 15


def _spliced(dim: int, seed: int, rule: str) -> tuple:
    """(context, diagram): the random context drawn from `seed`, and the
    context with a random instance of `rule` composed after it (wired
    output to input where the counts agree, else side by side)."""
    rng = random.Random(seed)
    context = _random_diagram(rng, dim)
    instance, _site = rw.random_rule_instance(rule, dim, rng)
    mode = ("sequential" if context.n_outputs == instance.n_inputs
            else "parallel")
    return context, dg.compose(context, instance, mode)


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
    site = {"keep": 0, "absorb": 1, "color": dg.X}
    d2 = rw.apply_rule(d, "S_fuse", site)
    assert max(d2.degree(v) for v in d2.nodes) == 27
    assert ("S_fuse", site) in [(r, s) for r, s, _ in _sites_in_context(d)]
    after = evaluate(d2).matrix
    assert after.shape == (1, 1)
    assert compare_scalar_exact(after, evaluate(d).matrix)[2]
