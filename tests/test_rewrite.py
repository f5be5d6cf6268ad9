"""Rewrite rules: concrete instances with matrix oracles, traces, replay.

Every rule application is compared against the evaluated matrix of the
diagram before and after, which is the ground truth the rules must
preserve (exactly, since the rules carry their own scalars).
"""

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

    monkeypatch.setattr(rw, f"_check_{rule.lower()}", refuse)
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
    assert rep["elapsed"] > 0


def test_soundness_report_fails_a_rule_that_flips_the_scalar(monkeypatch):
    # after = -before is entrywise exact up to s = -1: only the scalar
    # check can catch it
    applier = rw._APPLIERS["S_fuse"]

    def flipped(b_, d, site):
        out = applier(b_, d, site)
        b_.scalar *= -1
        return out

    monkeypatch.setitem(rw._APPLIERS, "S_fuse", flipped)
    rep = soundness_report("S_fuse", 3, trials=4, seed=1)
    assert not rep["passed"]
    assert len(rep["failures"]) == 4
    assert rep["maxDeviation"] < 1e-9
    assert rep["maxScalarDrift"] == pytest.approx(2.0)
    assert all(f["scalarDrift"] == pytest.approx(2.0)
               for f in rep["failures"])


def _refusing(b_, d, site):
    raise rw.RuleMatchError("applier refuses its own site")


def test_soundness_report_fails_a_rule_that_refuses_its_site(monkeypatch):
    # the instances are built to match, so a refusal is a failed check
    monkeypatch.setitem(rw._APPLIERS, "S_fuse", _refusing)
    rep = soundness_report("S_fuse", 3, trials=3, seed=1)
    assert not rep["passed"]
    assert [f["reason"] for f in rep["failures"]] == [
        "applier refuses its own site"] * 3


def test_simplify_reports_a_refused_own_match_as_a_bug(monkeypatch):
    # simplify finds its sites itself, so a refusal is a broken invariant
    d, _ = random_rule_instance("S_fuse", 3, random.Random(0))
    monkeypatch.setitem(rw._APPLIERS, "S_fuse", _refusing)
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
