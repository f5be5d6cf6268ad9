"""Rewrite rules: concrete instances with matrix oracles, traces, replay.

Every rule application is compared against the evaluated matrix of the
diagram before and after, which is the ground truth the rules must
preserve (exactly, since the rules carry their own scalars).
"""

import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditzx import diagram as dg
from quditzx import rewrite as rw
from quditzx.diagram import DiagramBuilder, spider_diagram
from quditzx.phases import (PhaseVector, Turn, cyclic_vector,
                            phase_add, phase_neg_transform)
from quditzx.rewrite import (
    ALL_RULES,
    RULES,
    RewriteTrace,
    RuleMatchError,
    apply_rule,
    diagram_hash,
    find_matches,
    random_rule_instance,
    replay,
    simplify,
    soundness_report,
)
from quditzx.semantics import equal_up_to_scalar, evaluate, lambda_matrix
from test_semantics import _random_diagram


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _matrices_equal(d1, d2, tol=1e-10):
    return _dev(evaluate(d1).matrix, evaluate(d2).matrix) < tol


def test_rule_inventory():
    assert RULES == ("S_fuse", "D_identity", "B_copy", "B_bialgebra",
                     "K2_commute", "F1_color", "F2_cancel")
    assert "loop_remove" in ALL_RULES
    with pytest.raises(ValueError):
        find_matches(dg.wire_diagram(3), "T_teleport")
    with pytest.raises(ValueError):
        apply_rule(dg.wire_diagram(3), "T_teleport", {})


# ---------------------------------------------------------------------------
# Spider fusion

def _chain_of_two_spiders(dim, kind, pa, pb):
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    va = b.add_spider(kind, pa)
    vb = b.add_spider(kind, pb)
    o = b.add_output(0)
    b.add_edge(i, va)
    b.add_edge(va, vb)
    b.add_edge(vb, o)
    return b.finish(), va, vb


def test_s_fuse_adds_phases_and_preserves_matrix():
    pa = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(1, 4)])
    pb = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(1, 2)])
    d, va, vb = _chain_of_two_spiders(3, dg.Z, pa, pb)
    sites = find_matches(d, "S_fuse")
    assert sites == [{"keep": va, "absorb": vb, "color": dg.Z}]
    d2 = apply_rule(d, "S_fuse", sites[0])
    assert vb not in d2
    assert d2.node(va).phase == phase_add(pa, pb)
    assert _matrices_equal(d, d2)


def test_s_fuse_requires_matching_colors():
    pa = PhaseVector.zero(3)
    d, _, _ = _chain_of_two_spiders(3, dg.Z, pa, pa)
    mixed = DiagramBuilder.from_diagram(d)
    # Recolor the second spider; the edge no longer matches.
    vb = [v for v in d.nodes if d.node(v).kind == dg.Z][1]
    mixed.nodes[vb] = dg.Node(dg.X, phase=pa)
    assert find_matches(mixed.finish(), "S_fuse") == []
    with pytest.raises(RuleMatchError):
        apply_rule(mixed.finish(), "S_fuse",
                   {"keep": 1, "absorb": vb, "color": dg.Z})


def test_s_fuse_turns_parallel_edge_into_self_loop():
    b = DiagramBuilder(3)
    va = b.add_spider(dg.X)
    vb = b.add_spider(dg.X)
    i = b.add_input(0)
    o = b.add_output(0)
    b.add_edge(i, va)
    b.add_edge(va, vb)
    b.add_edge(va, vb)
    b.add_edge(vb, o)
    d = b.finish()
    d2 = apply_rule(d, "S_fuse", find_matches(d, "S_fuse")[0])
    loops = [(s, t) for s, t in d2.edges if s == t]
    assert len(loops) == 1
    assert _matrices_equal(d, d2)
    # The follow-up loop removal also preserves the matrix.
    d3 = apply_rule(d2, "loop_remove", find_matches(d2, "loop_remove")[0])
    assert _matrices_equal(d2, d3)
    assert not [(s, t) for s, t in d3.edges if s == t]


# ---------------------------------------------------------------------------
# Identity removal and self-loops

def test_d_identity_removes_phaseless_wire_spider():
    for kind in (dg.Z, dg.X):
        d = spider_diagram(3, kind, 1, 1)
        sites = find_matches(d, "D_identity")
        assert len(sites) == 1
        d2 = apply_rule(d, "D_identity", sites[0])
        assert _dev(evaluate(d2).matrix, np.eye(3)) < 1e-12
        assert _matrices_equal(d, d2)


def test_d_identity_skips_phased_or_branching_spiders():
    phased = spider_diagram(3, dg.Z, 1, 1,
                            PhaseVector(3, [Turn.exact(1, 3), Turn.zero()]))
    assert find_matches(phased, "D_identity") == []
    branching = spider_diagram(3, dg.Z, 1, 2)
    assert find_matches(branching, "D_identity") == []


def test_loop_remove_preserves_matrix_for_both_colors():
    for kind in (dg.Z, dg.X):
        b = DiagramBuilder(4)
        v = b.add_spider(kind, PhaseVector(4, [Turn.exact(1, 5),
                                               Turn.exact(2, 5),
                                               Turn.exact(3, 5)]))
        i = b.add_input(0)
        o = b.add_output(0)
        b.add_edge(i, v)
        b.add_edge(v, o)
        b.add_edge(v, v)
        d = b.finish()
        d2 = apply_rule(d, "loop_remove", find_matches(d, "loop_remove")[0])
        assert _matrices_equal(d, d2)


# ---------------------------------------------------------------------------
# Fourier boxes

def _boxed_wire(dim, first, second):
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    f1 = b.add_box(first)
    f2 = b.add_box(second)
    o = b.add_output(0)
    b.add_edge(i, f1)
    b.add_edge(f1, f2)
    b.add_edge(f2, o)
    return b.finish()


def test_f2_cancel_on_a_wire():
    for order in ((dg.F, dg.FDAG), (dg.FDAG, dg.F)):
        d = _boxed_wire(3, *order)
        sites = find_matches(d, "F2_cancel")
        assert len(sites) == 1
        d2 = apply_rule(d, "F2_cancel", sites[0])
        assert _dev(evaluate(d2).matrix, np.eye(3)) < 1e-12
        assert not any(d2.node(v).kind in (dg.F, dg.FDAG) for v in d2.nodes)


def test_f2_cancel_closed_cycle_traces_to_dimension():
    b = DiagramBuilder(5)
    f = b.add_box(dg.F)
    g = b.add_box(dg.FDAG)
    b.add_edge(f, g)
    b.add_edge(g, f)
    d = b.finish()
    assert abs(evaluate(d).matrix[0, 0] - 5.0) < 1e-10
    d2 = apply_rule(d, "F2_cancel", find_matches(d, "F2_cancel")[0])
    assert not d2.nodes
    assert abs(d2.scalar - 5.0) < 1e-12


def test_f1_color_flips_a_fully_boxed_spider():
    # Fdag into a Z spider and F out of it is the Fourier conjugation
    # that turns it into an X spider with the same phase.
    pv = PhaseVector(3, [Turn.exact(1, 7), Turn.exact(3, 7)])
    b = DiagramBuilder(3)
    i = b.add_input(0)
    fin = b.add_box(dg.FDAG)
    v = b.add_spider(dg.Z, pv)
    fout = b.add_box(dg.F)
    o = b.add_output(0)
    b.add_edge(i, fin)
    b.add_edge(fin, v)
    b.add_edge(v, fout)
    b.add_edge(fout, o)
    d = b.finish()
    sites = find_matches(d, "F1_color")
    assert sites == [{"spider": v}]
    d2 = apply_rule(d, "F1_color", sites[0])
    assert d2.node(v).kind == dg.X
    assert d2.node(v).phase == pv
    assert _matrices_equal(d, d2)
    assert _dev(evaluate(d2).matrix, lambda_matrix("X", pv)) < 1e-12


def test_f1_color_requires_boxes_on_every_leg():
    d = _boxed_wire(3, dg.FDAG, dg.F)
    b = DiagramBuilder.from_diagram(d)
    # Splice a spider between the boxes, then give it a second, naked leg.
    v = b.add_spider(dg.Z)
    inner = next(i for i, (s, t) in enumerate(d.edges)
                 if d.node(s).kind == dg.FDAG and d.node(t).kind == dg.F)
    fs, ft = d.edges[inner]
    b.remove_edges([inner])
    b.add_edge(fs, v)
    b.add_edge(v, ft)
    o = b.add_output(1)
    b.add_edge(v, o)
    assert find_matches(b.finish(), "F1_color") == []


# ---------------------------------------------------------------------------
# Copy rule

def _point_into_spider(dim, state_color, t, fanout):
    b = DiagramBuilder(dim)
    s = b.add_spider(state_color, cyclic_vector(dim, t))
    v = b.add_spider(dg.Z if state_color == dg.X else dg.X)
    b.add_edge(s, v)
    outs = [b.add_output(p) for p in range(fanout)]
    for o in outs:
        b.add_edge(v, o)
    return b.finish(), s, v


@pytest.mark.parametrize("dim,t,fanout", [(2, 1, 2), (3, 2, 2), (3, 1, 3),
                                          (4, 3, 2), (3, 0, 0)])
def test_b_copy_duplicates_classical_points(dim, t, fanout):
    d, s, v = _point_into_spider(dim, dg.X, t, fanout)
    sites = find_matches(d, "B_copy")
    assert sites == [{"state": s, "spider": v, "edge": 0}]
    d2 = apply_rule(d, "B_copy", sites[0])
    assert _matrices_equal(d, d2)
    copies = [w for w in d2.nodes if d2.node(w).kind == dg.X]
    assert len(copies) == fanout
    for w in copies:
        assert d2.node(w).phase == cyclic_vector(dim, t)
    assert abs(d2.scalar - dim ** (0.5 * (1 - fanout))) < 1e-12


def test_b_copy_flips_phase_on_upstream_legs():
    # Copying through a spider whose other leg points upstream emits the
    # inverse point there: a bra instead of a ket.
    b = DiagramBuilder(3)
    s = b.add_spider(dg.X, cyclic_vector(3, 1))
    v = b.add_spider(dg.Z)
    i = b.add_input(0)
    b.add_edge(s, v)
    b.add_edge(i, v)
    d = b.finish()
    d2 = apply_rule(d, "B_copy", find_matches(d, "B_copy")[0])
    assert _matrices_equal(d, d2)
    emitted = [w for w in d2.nodes if d2.node(w).kind == dg.X]
    assert len(emitted) == 1
    assert d2.node(emitted[0]).phase == cyclic_vector(3, 2)


def test_b_copy_rejects_non_classical_states():
    b = DiagramBuilder(3)
    s = b.add_spider(dg.X, PhaseVector(3, [Turn.exact(1, 5), Turn.zero()]))
    v = b.add_spider(dg.Z)
    o = b.add_output(0)
    b.add_edge(s, v)
    b.add_edge(v, o)
    assert find_matches(b.finish(), "B_copy") == []


# ---------------------------------------------------------------------------
# Commuting classical gates through opposite spiders

def _gate_after_spider(dim, alpha, k):
    """input -> Z(alpha) -> X^k -> output, as a diagram."""
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    v = b.add_spider(dg.Z, alpha)
    g = b.add_spider(dg.X, cyclic_vector(dim, k))
    o = b.add_output(0)
    b.add_edge(i, v)
    b.add_edge(v, g)
    b.add_edge(g, o)
    return b.finish(), v, g


def test_k2_commute_golden_instance():
    # Dimension 4, spider phases (pi/2, pi, 3pi/2): commuting the shift
    # gate X^k through Z(alpha) re-emits X^k on the input side, rotates
    # the phase vector by k, and leaves the scalar exp(i alpha_k).
    dim = 4
    alpha = PhaseVector(4, [Turn.exact(1, 4), Turn.exact(1, 2),
                            Turn.exact(3, 4)])
    for k in (1, 2, 3):
        d, v, g = _gate_after_spider(dim, alpha, k)
        sites = find_matches(d, "K2_commute")
        site = next(s for s in sites if s["gate"] == g)
        d2 = apply_rule(d, "K2_commute", site)
        assert _matrices_equal(d, d2, tol=1e-12)
        # The transformed spider phase.
        want = phase_neg_transform(alpha, k)
        assert d2.node(v).phase == want
        # The emitted gate and the collected scalar.
        gates = [w for w in d2.nodes if d2.node(w).kind == dg.X]
        assert len(gates) == 1
        assert d2.node(gates[0]).phase == cyclic_vector(dim, k)
        assert abs(d2.scalar
                   - np.exp(1j * alpha.alpha(k).radians)) < 1e-12
        # The emitted gate alone evaluates to the shift permutation.
        gate_only = spider_diagram(dim, dg.X, 1, 1, cyclic_vector(dim, k))
        perm = np.zeros((dim, dim))
        for c in range(dim):
            perm[(c - k) % dim, c] = 1.0
        assert _dev(evaluate(gate_only).matrix, perm) < 1e-12


def test_k2_commute_from_the_input_side():
    dim = 3
    alpha = PhaseVector(3, [Turn.exact(2, 9), Turn.exact(5, 9)])
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    g = b.add_spider(dg.X, cyclic_vector(dim, 1))
    v = b.add_spider(dg.Z, alpha)
    o = b.add_output(0)
    b.add_edge(i, g)
    b.add_edge(g, v)
    b.add_edge(v, o)
    d = b.finish()
    d2 = apply_rule(d, "K2_commute", find_matches(d, "K2_commute")[0])
    assert _matrices_equal(d, d2, tol=1e-12)
    assert d2.node(v).phase == phase_neg_transform(alpha, 2)


def test_k2_commute_ignores_trivial_gates():
    d, _, _ = _gate_after_spider(3, PhaseVector.zero(3), 0)
    assert find_matches(d, "K2_commute") == []


# ---------------------------------------------------------------------------
# Bialgebra

def test_b_bialgebra_collapses_the_square():
    b = DiagramBuilder(3)
    p1 = b.add_spider(dg.Z)
    p2 = b.add_spider(dg.Z)
    q1 = b.add_spider(dg.X)
    q2 = b.add_spider(dg.X)
    i0, i1 = b.add_input(0), b.add_input(1)
    o0, o1 = b.add_output(0), b.add_output(1)
    b.add_edge(i0, p1)
    b.add_edge(i1, p2)
    for p in (p1, p2):
        for q in (q1, q2):
            b.add_edge(p, q)
    b.add_edge(q1, o0)
    b.add_edge(q2, o1)
    d = b.finish()
    sites = find_matches(d, "B_bialgebra")
    assert sites == [{"first": [p1, p2], "second": [q1, q2], "color": dg.Z}]
    d2 = apply_rule(d, "B_bialgebra", sites[0])
    assert _matrices_equal(d, d2)
    assert len([v for v in d2.nodes
                if d2.node(v).kind in (dg.Z, dg.X)]) == 2
    assert abs(d2.scalar - 3 ** -0.5) < 1e-12


def test_b_bialgebra_rejects_phased_squares():
    b = DiagramBuilder(3)
    p1 = b.add_spider(dg.Z, cyclic_vector(3, 1))
    p2 = b.add_spider(dg.Z)
    q1 = b.add_spider(dg.X)
    q2 = b.add_spider(dg.X)
    i0, i1 = b.add_input(0), b.add_input(1)
    o0, o1 = b.add_output(0), b.add_output(1)
    b.add_edge(i0, p1)
    b.add_edge(i1, p2)
    for p in (p1, p2):
        for q in (q1, q2):
            b.add_edge(p, q)
    b.add_edge(q1, o0)
    b.add_edge(q2, o1)
    assert find_matches(b.finish(), "B_bialgebra") == []


# ---------------------------------------------------------------------------
# Random instances and the soundness battery

@pytest.mark.parametrize("rule", ALL_RULES)
def test_random_instances_sit_inside_their_own_matches(rule):
    for dim in (2, 3, 4, 5):
        rng = random.Random(f"match:{rule}:{dim}")
        for _ in range(5):
            d, site = random_rule_instance(rule, dim, rng)
            sites = find_matches(d, rule)
            assert site in sites
            for found in sites:
                apply_rule(d, rule, found)


@pytest.mark.parametrize("rule", ALL_RULES)
def test_matchers_keep_only_what_the_check_accepts(rule, monkeypatch):
    # a rule's pattern is its check: refusing every site leaves no match
    d, _ = random_rule_instance(rule, 3, random.Random(f"refuse:{rule}"))
    assert find_matches(d, rule) != []

    def refuse(d, site):
        raise RuleMatchError("refused")

    monkeypatch.setitem(rw._RULES, rule,
                        rw._RULES[rule]._replace(check=refuse))
    assert find_matches(d, rule) == []


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_RULES), st.integers(2, 4), st.integers(0, 999))
def test_random_rule_applications_preserve_semantics(rule, dim, seed):
    rng = random.Random(f"{rule}:{dim}:{seed}")
    d, site = random_rule_instance(rule, dim, rng)
    before = evaluate(d).matrix
    after = evaluate(apply_rule(d, rule, site)).matrix
    s = equal_up_to_scalar(before, after, 1e-9)
    assert s is not None
    assert abs(s - 1.0) < 1e-9  # rules carry their own scalars


def test_soundness_report_shape():
    rep = soundness_report("S_fuse", 3, trials=8, seed=1)
    assert rep["rule"] == "S_fuse" and rep["dim"] == 3
    assert rep["trials"] == 8 and rep["seed"] == 1
    assert rep["passed"] and rep["failures"] == []
    assert rep["maxDeviation"] < 1e-9
    assert rep["maxScalarDrift"] < 1e-9


def test_soundness_report_fails_a_rule_that_flips_the_scalar(monkeypatch):
    # after = -before is entrywise exact up to s = -1: only the scalar
    # check can catch it
    applier = rw._RULES["S_fuse"].apply

    def flipped(d, site):
        out = applier(d, site)
        d.scalar *= -1
        return out

    monkeypatch.setitem(rw._RULES, "S_fuse",
                        rw._RULES["S_fuse"]._replace(apply=flipped))
    rep = soundness_report("S_fuse", 3, trials=4, seed=1)
    assert not rep["passed"]
    assert len(rep["failures"]) == 4
    assert rep["maxDeviation"] < 1e-9
    assert rep["maxScalarDrift"] == pytest.approx(2.0)
    assert all(f["scalarDrift"] == pytest.approx(2.0)
               for f in rep["failures"])


@pytest.mark.parametrize("rule", ALL_RULES)
def test_soundness_report_fails_every_rule_whose_scalar_drifts(rule,
                                                               monkeypatch):
    # Each rule's check can fail: a scalar off by one part in a million is
    # caught at every D.
    apply = rw._RULES[rule].apply

    def drifted(d, site):
        apply(d, site)
        d.scalar *= 1 + 1e-6

    monkeypatch.setitem(rw._RULES, rule,
                        rw._RULES[rule]._replace(apply=drifted))
    for dim in (2, 3, 4, 5):
        rep = soundness_report(rule, dim, trials=3, seed=1)
        assert not rep["passed"]
        assert len(rep["failures"]) == 3
        assert rep["maxScalarDrift"] == pytest.approx(1e-6, rel=1e-3)


def _refusing(d, site):
    raise rw.RuleMatchError("applier refuses its own site")


def test_soundness_report_fails_a_rule_that_refuses_its_site(monkeypatch):
    # the instances are built to match, so a refusal is a failed check
    monkeypatch.setitem(rw._RULES, "S_fuse",
                        rw._RULES["S_fuse"]._replace(apply=_refusing))
    rep = soundness_report("S_fuse", 3, trials=3, seed=1)
    assert not rep["passed"]
    assert [f["reason"] for f in rep["failures"]] == [
        "applier refuses its own site"] * 3


def test_soundness_report_refuses_a_tensor_above_the_cap_first(
        monkeypatch):
    # At D=17 an S_fuse draw's six-legged spider has 17^6 entries, past
    # the evaluator's cap, so no instance is drawn and the line names D,
    # not a node; D=16, at 2^24 entries, is drawn.
    def unreachable(rule, dim, rng):
        raise AssertionError(f"an instance was drawn at D={dim}")

    monkeypatch.setattr(rw, "random_rule_instance", unreachable)
    for rule in ("D_identity", "S_fuse"):
        with pytest.raises(ValueError) as exc:
            soundness_report(rule, 17, trials=1)
        assert str(exc.value) == (
            "rule soundness refuses D=17: a random instance can need a "
            "tensor of 17^6 = 24137569 entries, above the evaluator's cap "
            "of 16777216")
    with pytest.raises(AssertionError, match="drawn at D=16"):
        soundness_report("S_fuse", 16, trials=1)


def test_no_draw_has_a_node_of_more_legs_than_the_cap_assumes():
    # soundness_report refuses D by D^_INSTANCE_LEGS: no draw, before or
    # after its rule, has a node with more loop-free legs, and S_fuse
    # reaches that many.
    rng = random.Random(3)
    most = 0
    for rule in ALL_RULES:
        for _ in range(200):
            d, site = random_rule_instance(rule, 2, rng)
            for diagram in (d, apply_rule(d, rule, site)):
                for v in diagram.nodes:
                    most = max(most, sum(diagram.far_end(e, s) != v
                                         for e, s in diagram.legs(v)))
    assert most == rw._INSTANCE_LEGS


def test_each_rule_record_bounds_its_draws():
    # A record's legs is the most loop-free legs at one node of its rule's
    # draws, before or after the rule, and draws at D=2..5 reach it.
    most = dict.fromkeys(ALL_RULES, 0)
    for rule in ALL_RULES:
        for dim in range(2, 6):
            rng = random.Random(f"legs:{rule}:{dim}")
            for _ in range(300):
                d, site = random_rule_instance(rule, dim, rng)
                for diagram in (d, apply_rule(d, rule, site)):
                    for v in diagram.nodes:
                        most[rule] = max(most[rule], sum(
                            diagram.far_end(e, s) != v
                            for e, s in diagram.legs(v)))
    assert most == {rule: rw._RULES[rule].legs for rule in ALL_RULES}


def test_simplify_reports_a_refused_own_match_as_a_bug(monkeypatch):
    # simplify finds its sites itself, so a refusal is a broken invariant
    d, _ = random_rule_instance("S_fuse", 3, random.Random(0))
    monkeypatch.setitem(rw._RULES, "S_fuse",
                        rw._RULES["S_fuse"]._replace(apply=_refusing))
    with pytest.raises(AssertionError, match="S_fuse failed at its own match"):
        rw.simplify(d)


def test_random_rule_instance_names_the_rules_on_a_typo():
    with pytest.raises(ValueError, match="unknown rule 'Q_magic'.*S_fuse"):
        random_rule_instance("Q_magic", 3, random.Random(0))


# ---------------------------------------------------------------------------
# Simplify, traces, replay

def _fusible_chain(dim, n_spiders):
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    prev = i
    rng = random.Random(99)
    for _ in range(n_spiders):
        v = b.add_spider(dg.Z, PhaseVector(
            dim, [Turn.exact(rng.randrange(12), 12)
                  for _ in range(dim - 1)]))
        b.add_edge(prev, v)
        prev = v
    o = b.add_output(0)
    b.add_edge(prev, o)
    return b.finish()


def test_simplify_reaches_a_fixpoint_and_preserves_matrix():
    d = _fusible_chain(3, 5)
    d2, trace = simplify(d)
    assert _matrices_equal(d, d2)
    spiders = [v for v in d2.nodes if d2.node(v).kind in (dg.Z, dg.X)]
    assert len(spiders) == 1  # the whole chain fuses
    assert len(trace.steps) == 4
    assert all(s.rule == "S_fuse" for s in trace.steps)
    # A fixpoint: simplifying again does nothing.
    d3, trace2 = simplify(d2)
    assert trace2.steps == []
    assert diagram_hash(d3) == diagram_hash(d2)


def test_simplify_emits_a_replayable_trace():
    d = _fusible_chain(3, 4)
    d2, trace = simplify(d)
    assert trace.initial_hash == diagram_hash(d)
    assert trace.final_hash == diagram_hash(d2)
    replayed = replay(d, trace)
    assert diagram_hash(replayed) == trace.final_hash
    with pytest.raises(ValueError):
        replay(dg.wire_diagram(3), trace)


def test_replay_names_the_step_that_diverged():
    d = _fusible_chain(3, 4)
    _, trace = simplify(d)
    assert len(trace.steps) >= 2
    trace.steps[1].site = dict(trace.steps[1].site, absorb=10 ** 6)
    with pytest.raises(RuleMatchError,
                       match=r"^replay step 1 \(S_fuse\): both nodes must be "
                             r"spiders$"):
        replay(d, trace)


@pytest.mark.parametrize("rule, site, reason", [
    ("S_fuse", {}, "site has no key 'keep'"),
    ("S_fuse", [], "list indices must be integers"),
    ("S_fuse", None, "not subscriptable"),
    ("S_fuse", {"keep": [1], "absorb": 2}, "unhashable"),
    ("Q_magic", {}, "unknown rule 'Q_magic'"),
], ids=["empty-site", "list-site", "none-site", "list-node", "unknown-rule"])
def test_replay_names_the_step_of_a_malformed_step(rule, site, reason):
    d = _fusible_chain(3, 4)
    _, trace = simplify(d)
    trace.steps[1].rule = rule
    trace.steps[1].site = site
    with pytest.raises(RuleMatchError,
                       match=rf"^replay step 1 \({rule}\): .*{reason}") as info:
        replay(d, trace)
    assert "\n" not in str(info.value)


def test_replay_names_a_step_whose_node_changes_differ():
    d = _fusible_chain(3, 4)
    _, trace = simplify(d)
    trace.steps[1].removed = trace.steps[1].removed + [10 ** 6]
    with pytest.raises(RuleMatchError,
                       match=r"^replay step 1 \(S_fuse\): removes \[\d+\] and "
                             r"adds \[\], the trace says \[\d+, 1000000\] and "
                             r"\[\]$"):
        replay(d, trace)


def test_replay_names_a_step_run_at_another_site_of_its_rule():
    d = _fusible_chain(3, 4)
    _, trace = simplify(d)
    site = trace.steps[1].site
    # Swapping the roles is a valid S_fuse site too, but it removes the
    # other spider.
    trace.steps[1].site = dict(site, keep=site["absorb"], absorb=site["keep"])
    with pytest.raises(RuleMatchError,
                       match=r"^replay step 1 \(S_fuse\): removes "):
        replay(d, trace)


def test_replay_accepts_a_b_copy_state_numbered_after_its_spider():
    # The state's id exceeds the spider's, so the nodes B_copy removes are
    # recorded as the sorted ids [spider, state], not in site order.
    b = DiagramBuilder(3)
    i = b.add_input(0)
    v = b.add_spider(dg.Z)
    o = b.add_output(0)
    s = b.add_spider(dg.X, cyclic_vector(3, 1))
    b.add_edge(i, v)
    b.add_edge(v, o)
    b.add_edge(s, v)
    d = b.finish()
    simplified, trace = simplify(d)
    assert trace.steps[0].rule == "B_copy"
    assert trace.steps[0].site == {"state": s, "spider": v, "edge": 2}
    assert trace.steps[0].removed == [v, s]
    assert diagram_hash(replay(d, trace)) == diagram_hash(simplified)
    # A trace that lists the same ids in another order replays too.
    trace.steps[0].removed = [s, v]
    assert diagram_hash(replay(d, trace)) == diagram_hash(simplified)


def test_trace_json_round_trip():
    d = _fusible_chain(3, 3)
    _, trace = simplify(d)
    obj = trace.to_json_dict()
    back = RewriteTrace.from_json_dict(obj)
    assert back == trace


@pytest.mark.parametrize("missing", ["rule", "site"])
def test_trace_json_names_a_step_without_rule_or_site(missing):
    _, trace = simplify(_fusible_chain(3, 4))
    obj = trace.to_json_dict()
    del obj["steps"][1][missing]
    with pytest.raises(ValueError, match=r"^trace step 1 needs a 'rule' "):
        RewriteTrace.from_json_dict(obj)


@pytest.mark.parametrize("missing", ["removed", "added"])
def test_trace_json_names_a_step_without_removed_or_added(missing):
    _, trace = simplify(_fusible_chain(3, 4))
    obj = trace.to_json_dict()
    del obj["steps"][1][missing]
    with pytest.raises(ValueError,
                       match=r"^trace step 1 needs 'removed' and 'added'$"):
        RewriteTrace.from_json_dict(obj)


@pytest.mark.parametrize("rule, site, message", [
    ("S_fuse", {}, r" \(S_fuse\): the site must be an object with keys "
                   r"\['absorb', 'color', 'keep'\], got \{\}"),
    ("S_fuse", [3, 4], r" \(S_fuse\): the site must be an object"),
    ("Q_magic", {}, r": unknown rule 'Q_magic'; choose from "),
    (["S_fuse"], {}, r": unknown rule \['S_fuse'\]"),
    ("S_fuse", {"keep": [1], "absorb": 2, "color": "Z"},
     r" \(S_fuse\): site key 'keep' has the wrong value \[1\]"),
    ("S_fuse", {"keep": 1, "absorb": True, "color": "Z"},
     r" \(S_fuse\): site key 'absorb' has the wrong value True"),
    ("S_fuse", {"keep": 1, "absorb": 2, "color": "Y"},
     r" \(S_fuse\): site key 'color' has the wrong value 'Y'"),
    ("F2_cancel", {"boxes": [1, 2, 3]},
     r" \(F2_cancel\): site key 'boxes' has the wrong value \[1, 2, 3\]"),
    ("D_identity", {"node": 1, "edge": 0},
     r" \(D_identity\): the site must be an object with keys \['node'\]"),
], ids=["empty-site", "list-site", "unknown-rule", "list-rule", "list-node",
        "bool-node", "bad-color", "triple-boxes", "extra-key"])
def test_trace_json_names_the_step_and_rule_of_a_malformed_site(
        rule, site, message):
    _, trace = simplify(_fusible_chain(3, 4))
    obj = trace.to_json_dict()
    obj["steps"][1]["rule"] = rule
    obj["steps"][1]["site"] = site
    with pytest.raises(ValueError, match=r"^trace step 1" + message) as info:
        RewriteTrace.from_json_dict(obj)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("key, value", [("removed", [1, "2"]),
                                        ("added", None)])
def test_trace_json_names_a_step_with_bad_node_ids(key, value):
    _, trace = simplify(_fusible_chain(3, 4))
    obj = trace.to_json_dict()
    obj["steps"][1][key] = value
    with pytest.raises(ValueError,
                       match=r"^trace step 1 \(S_fuse\): 'removed' and "
                             r"'added' must be lists of node ids$"):
        RewriteTrace.from_json_dict(obj)


@pytest.mark.parametrize("change", [
    lambda obj: obj.pop("steps"),
    lambda obj: obj.update(steps=5),
    lambda obj: obj.pop("finalHash"),
    lambda obj: obj.update(initialHash=None),
], ids=["no-steps", "int-steps", "no-final-hash", "null-initial-hash"])
def test_trace_json_refuses_a_malformed_trace(change):
    _, trace = simplify(_fusible_chain(3, 4))
    obj = trace.to_json_dict()
    change(obj)
    with pytest.raises(ValueError, match=r"^a trace needs string "
                                         r"'initialHash' and 'finalHash' "
                                         r"and a list of 'steps'$"):
        RewriteTrace.from_json_dict(obj)
    with pytest.raises(ValueError, match=r"^a trace needs "):
        RewriteTrace.from_json_dict([obj])


def test_diagram_hash_tracks_content():
    a = _fusible_chain(3, 2)
    assert diagram_hash(a) == diagram_hash(_fusible_chain(3, 2))
    assert diagram_hash(a) != diagram_hash(_fusible_chain(3, 3))
    assert len(diagram_hash(a)) == 64


def test_simplify_shrinks_generator_compositions():
    f = dg.generator_diagram("fourier", 3)
    fd = dg.generator_diagram("fourier_dag", 3)
    d = dg.compose(f, fd, "sequential")
    d2, trace = simplify(d)
    assert _matrices_equal(d, d2)
    assert [s.rule for s in trace.steps] == ["F2_cancel"]
    assert _dev(evaluate(d2).matrix, np.eye(3)) < 1e-12


# ---------------------------------------------------------------------------
# Pinned traces, edge positions after removals, and work per step

def _cnot_chain(dim, n):
    """n CNOTs in sequence on two wires, composed by doubling. The scalar
    is 1: a factor of sqrt(D) per CNOT would overflow on long chains."""
    cnot = dg.generator_diagram("cnot", dim)
    power = dg.Diagram(dim, cnot.nodes, cnot.edges)
    chain = None
    while n:
        if n & 1:
            chain = (power if chain is None
                     else dg.compose(chain, power, "sequential"))
        n >>= 1
        if n:
            power = dg.compose(power, power, "sequential")
    return chain


def _copy_after_removals(dim=3):
    """A diagram whose simplify trace runs F2_cancel on the two largest
    ids, S_fuse on a doubled edge, loop_remove and D_identity, and then
    B_copy, which reuses the removed ids. The loop_remove and B_copy edges
    come after edges removed by earlier steps, so their positions shift."""
    b = DiagramBuilder(dim)
    in0, v, out0 = b.add_input(0), b.add_spider(dg.Z), b.add_output(0)
    s = b.add_spider(dg.X, cyclic_vector(dim, 1))
    in1, out1 = b.add_input(1), b.add_output(1)
    in2, out2 = b.add_input(2), b.add_output(2)
    keep, absorb = b.add_spider(dg.Z), b.add_spider(dg.Z)
    f, fdag = b.add_box(dg.F), b.add_box(dg.FDAG)
    for edge in ((in1, f), (f, fdag), (fdag, out1), (in2, keep),
                 (keep, absorb), (keep, absorb), (absorb, out2),
                 (in0, v), (v, out0), (s, v)):
        b.add_edge(*edge)
    return b.finish()


def test_replay_maps_edge_positions_after_removals():
    d = _copy_after_removals()
    _, trace = simplify(d)
    assert [s.rule for s in trace.steps] == [
        "F2_cancel", "S_fuse", "loop_remove", "D_identity", "B_copy"]
    # D_identity removes the largest id left, and B_copy reuses it and the
    # one S_fuse removed
    assert trace.steps[3].removed == [8] and trace.steps[1].removed == [9]
    assert trace.steps[4].added == [8, 9]
    # the loop and the copied edge were at positions 5 and 9 at the start
    shifted = {2: 1, 4: 2}
    assert {i: trace.steps[i].site["edge"] for i in shifted} == shifted
    assert diagram_hash(replay(d, trace)) == trace.final_hash
    for i, position in shifted.items():
        rule = trace.steps[i].rule
        before = d
        for step in trace.steps[:i]:
            before = apply_rule(before, step.rule, step.site)
        # off by one either way, or a negative index onto the same edge
        for wrong in (position - 1, position + 1,
                      position - len(before.edges)):
            bad = RewriteTrace.from_json_dict(trace.to_json_dict())
            bad.steps[i].site = dict(trace.steps[i].site, edge=wrong)
            with pytest.raises(RuleMatchError,
                               match=rf"^replay step {i} \({rule}\): edge "):
                replay(d, bad)


def test_f1_color_names_a_refused_leg_by_its_position():
    # v's un-boxed out-leg is edge 3; once loop_remove has taken edge 0 it
    # sits at position 2, and a refusal names that position.
    b = DiagramBuilder(3)
    u, v = b.add_spider(dg.Z), b.add_spider(dg.Z)
    i0, o0, o1 = b.add_input(0), b.add_output(0), b.add_output(1)
    for edge in ((u, u), (i0, u), (u, o0), (v, o1)):
        b.add_edge(*edge)
    d = b.finish()
    g = DiagramBuilder.from_diagram(d)
    g.remove_edges([0])
    with pytest.raises(RuleMatchError, match=r"^leg 2 needs a F box$"):
        rw._check_f1_color(g, {"spider": v})
    trace = RewriteTrace(diagram_hash(d), "", [
        rw.TraceStep("loop_remove", {"node": u, "edge": 0}, [], []),
        rw.TraceStep("F1_color", {"spider": v}, [], [])])
    with pytest.raises(RuleMatchError,
                       match=r"^replay step 1 \(F1_color\): leg 2 needs a F "
                             r"box$"):
        replay(d, trace)


def test_simplify_copies_once_a_later_step_clears_the_spiders_phase():
    # B_copy(s1, v) is refused while v's phase is nonzero; copying s2
    # through u and fusing the copy into v cancels that phase.
    b = DiagramBuilder(3)
    s1 = b.add_spider(dg.X, cyclic_vector(3, 1))
    s2 = b.add_spider(dg.Z, cyclic_vector(3, 1))
    v = b.add_spider(dg.Z, cyclic_vector(3, 2))
    u = b.add_spider(dg.X)
    o0, o1, o2 = b.add_output(0), b.add_output(1), b.add_output(2)
    for edge in ((s1, v), (v, o0), (v, o2), (s2, u), (u, v), (u, o1)):
        b.add_edge(*edge)
    d = b.finish()
    d2, trace = simplify(d)
    assert [(s.rule, s.site) for s in trace.steps] == [
        ("B_copy", {"state": s2, "spider": u, "edge": 3}),
        ("S_fuse", {"keep": v, "absorb": 7, "color": dg.Z}),
        ("B_copy", {"state": s1, "spider": v, "edge": 0})]
    assert _matrices_equal(d, d2)


def test_simplify_refuses_to_stop_before_its_fixpoint(monkeypatch):
    # the fixpoint check catches a worklist that misses a site
    monkeypatch.setattr(rw._Worklist, "pop", lambda self: None)
    with pytest.raises(AssertionError,
                       match=r"^simplify stopped with sites of \['S_fuse'\] "
                             r"left$"):
        simplify(_fusible_chain(3, 2))


def test_simplify_checks_per_step_do_not_grow_with_the_chain(monkeypatch):
    # The worklist checks only what a step changed: the checks per step
    # on a 1,280-CNOT chain stay within twice those on an 80-CNOT one.
    calls = []
    for rule in ALL_RULES:
        def counted(d, site, check=rw._RULES[rule].check):
            calls.append(site)
            return check(d, site)

        monkeypatch.setitem(rw._RULES, rule,
                            rw._RULES[rule]._replace(check=counted))
    per_step = []
    for n in (80, 1280):
        calls.clear()
        _, trace = simplify(_cnot_chain(3, n))
        per_step.append(len(calls) / len(trace.steps))
    assert per_step[1] <= 2 * per_step[0], per_step


def _pinned_inputs():
    from test_fuzz import _spliced

    # unshuffled: the ids the pins were recorded with
    cases = [_spliced(2 + seed % 4, seed, ALL_RULES[seed % 8],
                      shuffle=False)[1] for seed in range(48)]
    cases += [_cnot_chain(dim, 6) for dim in (2, 3, 5)]
    return cases + [_copy_after_removals()]


def test_simplify_traces_are_pinned():
    # Steps and final structure of simplify on fixed inputs; the float
    # scalar and the hashes are left out.
    record = []
    fired = set()
    for d in _pinned_inputs():
        out, trace = simplify(d)
        fired.update(step.rule for step in trace.steps)
        obj = dg.to_json_dict(out)
        record.append({"steps": [[s.rule, s.site, s.removed, s.added]
                                 for s in trace.steps],
                       "nodes": obj["nodes"], "edges": obj["edges"]})
    assert {"loop_remove", "B_copy", "F2_cancel"} <= fired
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_TRACES


_PINNED_TRACES = ("0014ade015f0f000c65693686ab492ca"
                  "68a1b0a2ba8418d93aebcff8560dccdd")


def test_find_matches_are_pinned():
    # Every rule's sites on the pinned inputs and on each diagram their
    # simplify traces pass through.
    record = []
    for d in _pinned_inputs():
        _, trace = simplify(d)
        diagrams = [d]
        for step in trace.steps:
            diagrams.append(apply_rule(diagrams[-1], step.rule, step.site))
        record += [[find_matches(x, rule) for rule in ALL_RULES]
                   for x in diagrams]
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == _PINNED_MATCHES


_PINNED_MATCHES = ("d42017ec00b5ca6097d51f8e717b1248"
                   "369b85d3aaf9900322c3ece2b75887ee")


def test_applier_outputs_are_pinned():
    # The whole graph each applier builds, node ids, edge order and
    # direction included, on seeded random instances of every rule.
    h = hashlib.sha256()
    for rule in ALL_RULES:
        for dim in (2, 3, 4, 5):
            rng = random.Random(f"pin:{rule}:{dim}")
            for _ in range(25):
                d, site = random_rule_instance(rule, dim, rng)
                h.update(dg.to_json(d).encode())
                h.update(dg.to_json(apply_rule(d, rule, site)).encode())
    assert h.hexdigest() == _PINNED_APPLIER_OUTPUTS


_PINNED_APPLIER_OUTPUTS = ("526626597defd74d6b7b716fd98e1d5c"
                           "5c03717aa667e8887bea1b0c03523cb9")


# ---------------------------------------------------------------------------
# Canonical JSON, built once per diagram

def test_each_diagram_builds_its_json_once(monkeypatch):
    # As a zx-circuits case reads them: simplify hashes its input and its
    # output, replay the input again and its own output, and the output's
    # text and both final hashes come from the text each diagram keeps.
    built, build = [], dg._canonical_json

    def counted(d):
        built.append(d)
        return build(d)

    monkeypatch.setattr(dg, "_canonical_json", counted)
    d = _cnot_chain(3, 6)
    simplified, trace = simplify(d)
    assert len(built) == 2
    replayed = replay(d, trace)
    assert len(built) == 3
    dg.to_json(simplified)
    assert diagram_hash(replayed) == diagram_hash(simplified)
    assert len(built) == 3
    assert all(x is y for x, y in zip(built, (d, simplified, replayed)))


def _json_corner_diagrams(dim):
    """Diagrams whose text turns on json.dumps's rules for floats, big
    ints, ports and key order: extreme scalars, approximate phases of 17
    significant digits, exact parts of 70 bits, an F box whose one edge
    is a self-loop, diagrams without legs, and negative node ids."""
    wire = dg.wire_diagram(dim)
    out = [dg.Diagram(dim, wire.nodes, wire.edges, scalar)
           for scalar in (complex(-0.0, 5e-324), complex(1e308, -0.0))]
    approx = PhaseVector(dim, [Turn.approx(0.1 + 0.2)] * (dim - 1))
    exact = PhaseVector(dim, [Turn.exact(2 ** 70 - 3, 2 ** 70 - 1)]
                        + [Turn.approx(2 * math.pi / 3)] * (dim - 2))
    b = DiagramBuilder(dim)
    f = b.add_box(dg.F)
    b.add_edge(f, f)
    b.add_spider(dg.X, approx)
    out.append(b.finish())
    out.append(DiagramBuilder(dim, -0.0).finish())
    out.append(dg.Diagram(dim, {-7: dg.Node(dg.IN, position=0),
                                -2: dg.Node(dg.Z, phase=exact),
                                -1: dg.Node(dg.OUT, position=0)},
                          [(-7, -2), (-2, -1)]))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_kept_json_is_the_canonical_json(dim, seed):
    d = _random_diagram(random.Random(seed), dim)
    simplified, trace = simplify(d)
    replayed = replay(d, trace)
    evaluate(d)
    evaluate(simplified)
    for x in (d, simplified, replayed, *_json_corner_diagrams(dim)):
        text = dg.to_json(x)
        assert text == json.dumps(dg.to_json_dict(x), sort_keys=True,
                                  separators=(",", ":"))
        assert dg.to_json(x) is text
        assert dg.to_json(dg.from_json(text)) == text


def test_each_diagram_is_hashed_once(monkeypatch):
    hashed, sha256 = [], hashlib.sha256

    def counted(data):
        hashed.append(data)
        return sha256(data)

    monkeypatch.setattr(rw.hashlib, "sha256", counted)
    d = _cnot_chain(3, 6)
    first = diagram_hash(d)
    assert diagram_hash(d) == first
    assert hashed == [dg.to_json(d).encode()]
    simplified, trace = simplify(d)
    assert len(hashed) == 2
    replayed = replay(d, trace)
    assert diagram_hash(replayed) == trace.final_hash
    assert len(hashed) == 3
