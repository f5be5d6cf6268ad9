"""Matrix semantics: spider tensors, phased unitaries, generator algebra.

Every closed-form matrix is rebuilt here with explicit loops before being
compared against the module, so the two computations share no code.
"""

import hashlib
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditzx import diagram as dg
from quditzx import rewrite as rw
from quditzx import semantics as sem
from quditzx.diagram import DiagramBuilder, compose, generator_diagram
from quditzx.phases import PhaseVector, Turn, cyclic_vector
from quditzx.semantics import (
    STRUCTURE_CHECKS,
    DenseOperator,
    c_coefficients,
    compare_scalar_exact,
    equal_up_to_scalar,
    evaluate,
    fourier_matrix,
    generator_matrix,
    lambda_matrix,
    omega,
    phased_state,
    run_structure_checks,
    structure_check,
)


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _oracle_fourier(d):
    return np.array([[np.exp(2j * np.pi * j * k / d) for k in range(d)]
                     for j in range(d)]) / math.sqrt(d)


def _random_phase_vector(dim, rng):
    return PhaseVector.from_radians(
        dim, [rng.uniform(0, 2 * math.pi) for _ in range(dim - 1)])


# ---------------------------------------------------------------------------
# Scalars and coefficient vectors

def test_omega_is_the_primitive_root():
    for d in range(2, 8):
        w = omega(d)
        assert abs(w - np.exp(2j * np.pi / d)) < 1e-15
        assert abs(omega(d, 3) - w ** 3) < 1e-12


def test_c_coefficients_against_direct_sum():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        alpha = PhaseVector.from_radians(
            d, rng.uniform(0, 2 * np.pi, d - 1).tolist())
        got = c_coefficients(alpha, d)
        full = alpha.radians_full()
        for j in range(d):
            want = sum(np.exp(1j * full[k]) * np.exp(2j * np.pi * j * k / d)
                       for k in range(d))
            assert abs(got[j] - want) < 1e-12


def test_c_coefficients_of_zero_phase_concentrate():
    for d in (2, 3, 4, 5):
        got = c_coefficients(PhaseVector.zero(d), d)
        want = np.zeros(d)
        want[0] = d
        assert _dev(got, want) < 1e-12


# ---------------------------------------------------------------------------
# Fourier and the two phased-unitary families

def test_fourier_matrix_entries_and_unitarity():
    for d in (2, 3, 5, 7):
        f = fourier_matrix(d)
        assert _dev(f, _oracle_fourier(d)) < 1e-12
        assert _dev(f @ f.conj().T, np.eye(d)) < 1e-12


def test_lambda_z_is_the_phase_diagonal():
    rng = np.random.default_rng(3)
    for d in (2, 4, 5):
        alpha = _random_phase_vector(d, np.random.RandomState(d))
        got = lambda_matrix("Z", alpha)
        want = np.diag([np.exp(1j * r) for r in alpha.radians_full()])
        assert _dev(got, want) < 1e-12
    del rng


def test_lambda_x_is_the_fourier_conjugate_of_lambda_z():
    for d in (2, 3, 4, 5):
        alpha = _random_phase_vector(d, np.random.RandomState(10 + d))
        f = _oracle_fourier(d)
        want = f @ lambda_matrix("Z", alpha) @ f.conj().T
        assert _dev(lambda_matrix("X", alpha), want) < 1e-12


def test_lambda_x_is_the_coefficient_circulant():
    d = 5
    alpha = _random_phase_vector(d, np.random.RandomState(44))
    lam = lambda_matrix("X", alpha)
    c = c_coefficients(alpha, d)
    for r in range(d):
        for col in range(d):
            assert abs(lam[r, col] - c[(r - col) % d] / d) < 1e-12


def test_lambda_with_cyclic_phase_is_a_shift_permutation():
    # The cyclic vectors are exactly the phases whose X-type unitary is a
    # basis permutation (a power of the down-shift).
    for d in (3, 4):
        for t in range(d):
            lam = lambda_matrix("X", cyclic_vector(d, t))
            want = np.zeros((d, d))
            for col in range(d):
                want[(col - t) % d, col] = 1.0
            assert _dev(lam, want) < 1e-12


def test_phased_states_in_both_colors():
    d = 3
    alpha = PhaseVector.from_radians(d, [0.3, 1.1])
    z_state = phased_state("Z", alpha)
    want = np.exp(1j * np.array(alpha.radians_full())) / math.sqrt(d)
    assert _dev(z_state, want) < 1e-12
    x_state = phased_state("X", alpha)
    assert _dev(x_state, _oracle_fourier(d) @ want) < 1e-12
    assert _dev(phased_state("Z", [0.3, 1.1], d), want) < 1e-12
    with pytest.raises(ValueError):
        phased_state("Y", alpha)
    # Raw angles carry no dimension: every phase helper refuses them alike.
    for call in (lambda: phased_state("Z", [0.1, 0.2]),
                 lambda: lambda_matrix("X", [0.1, 0.2]),
                 lambda: c_coefficients([0.1, 0.2])):
        with pytest.raises(ValueError, match="dim is required"):
            call()


def test_lambda_x_eigenvectors_are_x_phased_cyclic_states():
    d = 4
    alpha = _random_phase_vector(d, np.random.RandomState(9))
    lam = lambda_matrix("X", alpha)
    full = alpha.radians_full()
    for k in range(d):
        plus_k = _oracle_fourier(d)[:, k]
        assert _dev(lam @ plus_k, np.exp(1j * full[k]) * plus_k) < 1e-12


# ---------------------------------------------------------------------------
# Generator matrices

def test_generator_matrix_closed_forms():
    d = 3
    eye = np.eye(d)
    assert _dev(generator_matrix("id", d).matrix, eye) == 0.0

    swap = generator_matrix("swap", d).matrix
    for a in range(d):
        for b in range(d):
            assert swap[b * d + a, a * d + b] == 1.0

    cnot = generator_matrix("cnot", d).matrix
    for a in range(d):
        for b in range(d):
            col = a * d + b
            row = a * d + (b - a) % d
            assert abs(cnot[row, col] - 1.0) < 1e-12
    assert np.count_nonzero(np.abs(cnot) > 1e-12) == d * d

    # The point states carry the copyable normalization: ket0 is copied
    # by delta_x, ketplus by delta_z, both with counit value one.
    assert _dev(generator_matrix("ket0", d).matrix.ravel(),
                np.array([math.sqrt(d), 0, 0])) < 1e-12
    assert _dev(generator_matrix("ketplus", d).matrix.ravel(),
                np.ones(d)) < 1e-12
    assert _dev(generator_matrix("eps_z", d).matrix, np.ones((1, d))) < 1e-12
    assert _dev(generator_matrix("eps_x", d).matrix,
                np.array([[1, 0, 0]])) < 1e-12

    delta_z = generator_matrix("delta_z", d).matrix
    for j in range(d):
        col = np.zeros(d * d)
        col[j * d + j] = 1.0
        assert _dev(delta_z[:, j], col) < 1e-12

    delta_x = generator_matrix("delta_x", d).matrix
    for j in range(d):
        for a in range(d):
            assert abs(delta_x[a * d + (j - a) % d, j] - 1.0) < 1e-12

    f = generator_matrix("fourier", d).matrix
    assert _dev(f, _oracle_fourier(d)) < 1e-12
    assert _dev(generator_matrix("fourier_dag", d).matrix,
                f.conj().T) < 1e-12

    with pytest.raises(ValueError):
        generator_matrix("hadamard", d)


def test_delta_x_is_fourier_conjugate_of_delta_z():
    # Fourier conjugation carries one family's copy map onto the other;
    # the copyable-point normalizations differ by exactly sqrt(D).
    for d in (2, 3, 5):
        f = _oracle_fourier(d)
        dz = generator_matrix("delta_z", d).matrix
        dx = generator_matrix("delta_x", d).matrix
        assert _dev(math.sqrt(d) * np.kron(f, f) @ dz @ f.conj().T,
                    dx) < 1e-10


# ---------------------------------------------------------------------------
# Diagram evaluation

def test_z_spider_tensor_entries():
    pv = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(1, 2)])
    d = dg.spider_diagram(3, dg.Z, 2, 1, pv)
    m = evaluate(d).matrix
    full = pv.radians_full()
    for j in range(3):
        assert abs(m[j, j * 3 + j] - np.exp(1j * full[j])) < 1e-12
    assert np.count_nonzero(np.abs(m) > 1e-12) == 3


def test_x_spider_tensor_entries():
    pv = PhaseVector(3, [Turn.exact(1, 5), Turn.exact(2, 5)])
    d = dg.spider_diagram(3, dg.X, 1, 2, pv)
    m = evaluate(d).matrix
    c = c_coefficients(pv, 3)
    scale = (1 / math.sqrt(3)) ** 3
    for j_in in range(3):
        for a in range(3):
            for b in range(3):
                want = scale * c[(a + b - j_in) % 3]
                assert abs(m[a * 3 + b, j_in] - want) < 1e-11


def test_x_spider_tensor_is_built_in_place():
    # One int array and the complex result: at most 1.5x its bytes.
    d = dg.spider_diagram(5, dg.X, 3, 5, PhaseVector.zero(5))
    v = next(v for v in d.nodes if d.node(v).kind == dg.X)
    tracemalloc.start()
    try:
        t = sem._node_tensor(d, v, d.legs(v))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.shape == (5,) * 8
    assert peak <= 1.6 * t.nbytes


def test_phaseless_degree_zero_spider_is_the_dimension_scalar():
    # Z: sum of D unit phases. X: c_0 of the zero phase, no leg factors.
    for kind in (dg.Z, dg.X):
        d = dg.spider_diagram(3, kind, 0, 0)
        got = evaluate(d).matrix
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - 3.0) < 1e-12


def test_evaluate_trusts_the_diagram_to_be_valid(monkeypatch):
    d = generator_diagram("cnot", 3)

    def refuse(_d):
        raise AssertionError("evaluate re-validated a Diagram")

    monkeypatch.setattr(dg, "validate", refuse)
    for method in ("fast", "reference"):
        want = generator_matrix("cnot", 3).matrix
        assert _dev(evaluate(d, method).matrix, want) < 1e-12


def test_diagram_scalar_multiplies_the_matrix():
    d0 = dg.wire_diagram(3)
    d1 = dg.Diagram(3, d0.nodes, d0.edges, 2.0 - 1.0j)
    assert _dev(evaluate(d1).matrix, (2.0 - 1.0j) * np.eye(3)) == 0.0


def test_fast_and_reference_methods_agree():
    rng = np.random.RandomState(0)
    diagrams = [generator_diagram(n, 3) for n in dg.GENERATORS]
    diagrams.append(compose(generator_diagram("cnot", 3),
                            generator_diagram("cnot", 3), "sequential"))
    b = DiagramBuilder(3)
    v1 = b.add_spider(dg.Z, _random_phase_vector(3, rng))
    v2 = b.add_spider(dg.X, _random_phase_vector(3, rng))
    f = b.add_box(dg.F)
    i = b.add_input(0)
    o0, o1 = b.add_output(0), b.add_output(1)
    b.add_edge(i, v1)
    b.add_edge(v1, f)
    b.add_edge(f, v2)
    b.add_edge(v1, v2)
    b.add_edge(v2, o0)
    b.add_edge(v2, o1)
    diagrams.append(b.finish())
    for d in diagrams:
        fast = evaluate(d, "fast")
        ref = evaluate(d, "reference")
        assert (fast.dim, fast.n_in, fast.n_out) == (ref.dim, ref.n_in,
                                                     ref.n_out)
        assert _dev(fast.matrix, ref.matrix) < 1e-10
    with pytest.raises(ValueError):
        evaluate(diagrams[0], "symbolic")


def test_evaluation_handles_disconnected_components():
    d = compose(dg.spider_diagram(3, dg.Z, 0, 0), dg.wire_diagram(3),
                "parallel")
    assert _dev(evaluate(d).matrix, 3.0 * np.eye(3)) < 1e-12


def _random_diagram(rng: random.Random, dim: int) -> dg.Diagram:
    """A random valid diagram of at most log_D(2^15) edges, and of spiders
    with at most that many legs unless boundaries and boxes add more:
    Z and X spiders with random phases, F and Fdag boxes, multi-edges,
    self-loops (on boxes too), crossing bare wires, degree-0 spiders and
    disconnected parts."""
    budget = max(e for e in range(16) if dim ** e <= 2 ** 15)
    b = DiagramBuilder(dim, complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))
    spiders = [b.add_spider(rng.choice((dg.Z, dg.X)), PhaseVector.from_radians(
        dim, [rng.uniform(0, 2 * math.pi) for _ in range(dim - 1)]))
        for _ in range(rng.randint(0, 6))]
    n_in = rng.randint(0, 2)
    n_out = rng.randint(0, 2) if spiders else n_in
    ins = [b.add_input(p) for p in range(n_in)]
    outs = [b.add_output(p) for p in range(n_out)]
    rng.shuffle(outs)
    for i in ins:
        if outs and (not spiders or rng.random() < 0.3):
            b.add_edge(i, outs.pop())
        else:
            b.add_edge(i, rng.choice(spiders))
    for o in outs:
        b.add_edge(rng.choice(spiders), o)
    if spiders:
        for _ in range(rng.randint(0, min(2, (budget - len(b.edges)) // 2))):
            box = b.add_box(rng.choice((dg.F, dg.FDAG)))
            if rng.random() < 0.2:
                b.add_edge(box, box)
            else:
                b.add_edge(rng.choice(spiders), box)
                b.add_edge(box, rng.choice(spiders))
        while len(b.edges) < budget and rng.random() < 0.8:
            u, v = rng.choice(spiders), rng.choice(spiders)
            legs = Counter(x for edge in b.edges + [(u, v)] for x in edge)
            if max(legs[u], legs[v]) <= budget:
                b.add_edge(u, v)
    return b.finish()


def _seeded_diagrams():
    return [_random_diagram(random.Random(seed), 2 + seed % 4)
            for seed in range(200)]


def test_random_diagrams_cover_every_shape():
    diagrams = _seeded_diagrams()
    boundary = {dg.IN, dg.OUT}
    assert {d.dimension for d in diagrams} == {2, 3, 4, 5}
    assert any(s == t for d in diagrams for s, t in d.edges)
    assert any(d.node(s).kind in dg.BOX_KINDS
               for d in diagrams for s, t in d.edges if s == t)
    assert any({d.node(s).kind, d.node(t).kind} <= boundary
               for d in diagrams for s, t in d.edges)
    assert any(len(set(d.edges)) < len(d.edges) for d in diagrams)
    assert any(n.kind in dg.SPIDER_KINDS and not d.legs(v)
               for d in diagrams for v, n in d.nodes.items())


def test_fast_contraction_order_is_pinned(monkeypatch):
    # Every tensordot call the fast path makes, over 200 seeded diagrams.
    # The digest was recorded with the all-pairs planner this heap planner
    # replaced; it pins the contraction sequence and each call's axes.
    record = []
    real = np.tensordot

    def spy(a, b, axes=2):
        norm = axes if isinstance(axes, int) else tuple(map(tuple, axes))
        record.append((np.shape(a), np.shape(b), norm))
        return real(a, b, axes=axes)

    monkeypatch.setattr(np, "tensordot", spy)
    for d in _seeded_diagrams():
        evaluate(d)
    assert any(axes == 0 for _, _, axes in record)  # a disconnected remainder
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert (len(record), digest) == (
        473, "861c2daffade127bcc366dc97e637de131e956ec01b19bb570b20c1672da8107")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_fast_matches_reference_on_random_diagrams(dim, seed):
    d = _random_diagram(random.Random(seed), dim)
    fast, ref = evaluate(d, "fast"), evaluate(d, "reference")
    assert (fast.n_in, fast.n_out) == (ref.n_in, ref.n_out)
    assert _dev(fast.matrix, ref.matrix) < 1e-10


def _complete_graph(dim: int, n: int) -> dg.Diagram:
    b = DiagramBuilder(dim)
    vs = [b.add_spider(dg.Z) for _ in range(n)]
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            b.add_edge(u, v)
    return b.finish()


def _fed_x_spider(dim: int, legs: int) -> dg.Diagram:
    """Node 0 an X spider fed by `legs` one-legged Z spiders: a closed
    diagram whose one large node tensor comes first."""
    b = DiagramBuilder(dim)
    v = b.add_spider(dg.X)
    for _ in range(legs):
        b.add_edge(b.add_spider(dg.Z), v)
    return b.finish()


@pytest.mark.parametrize("diagram, elems, named", [
    (dg.spider_diagram(5, dg.X, 5, 6), 5 ** 11, ""),
    (_fed_x_spider(5, 11), 5 ** 11, " for node 0 (X, 11 loop-free legs) "),
], ids=["output-matrix", "node-tensor"])
def test_fast_path_refuses_above_its_cap_before_building(diagram, elems,
                                                         named, monkeypatch):
    def never(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(sem, "_node_tensor", never)
    with pytest.raises(ValueError) as exc:
        evaluate(diagram)
    msg = str(exc.value)
    assert "\n" not in msg
    assert "D=5" in msg and str(elems) in msg and str(sem._FAST_CAP) in msg
    assert named in msg


def test_fast_path_refuses_an_over_cap_merge_before_contracting(monkeypatch):
    # K5 of degree-4 spiders at D=2: every node tensor holds 2^4 entries
    # and every pair merges into 2^6, above a cap lowered to 2^4.
    monkeypatch.setattr(sem, "_FAST_CAP", 2 ** 4)
    monkeypatch.setattr(np, "tensordot", lambda *a, **k: pytest.fail("built"))
    with pytest.raises(ValueError, match=r"2\^6 = 64 elements .* cap of 16"):
        evaluate(_complete_graph(2, 5))


# ---------------------------------------------------------------------------
# Loop-free spider tensors and the node-tensor cache

def _self_looped_spider(dim: int, kind: str, loops: int, phase: PhaseVector,
                        boundary: bool) -> dg.Diagram:
    """A spider with `loops` self-loops and, if `boundary`, one input and
    two outputs, its legs in a seeded shuffled order."""
    b = DiagramBuilder(dim)
    v = b.add_spider(kind, phase)
    ends = [(v, v)] * loops
    if boundary:
        ends += [(b.add_input(0), v), (v, b.add_output(0)),
                 (v, b.add_output(1))]
    random.Random(dim * 100 + loops).shuffle(ends)
    for s, t in ends:
        b.add_edge(s, t)
    return b.finish()


def _loops_removed(d: dg.Diagram) -> dg.Diagram:
    while sites := rw.find_matches(d, "loop_remove"):
        d = rw.apply_rule(d, "loop_remove", sites[0])
    return d


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", [dg.Z, dg.X])
def test_self_looped_spiders_evaluate_without_their_loops(dim, kind,
                                                          monkeypatch):
    built = []
    real = sem._shared_node_tensor
    monkeypatch.setattr(sem, "_shared_node_tensor", lambda d, v, legs: (
        built.append(len(legs)), real(d, v, legs))[1])
    rng = np.random.RandomState(dim)
    for loops in (0, 1, 2, 5, 12):
        for boundary in (True, False):
            phase = (_random_phase_vector(dim, rng) if loops % 2
                     else cyclic_vector(dim, loops))
            d = _self_looped_spider(dim, kind, loops, phase, boundary)
            got = evaluate(d).matrix
            assert _dev(got, evaluate(_loops_removed(d)).matrix) < 1e-10
            # the reference path builds the loop legs too
            if dim ** (2 * loops + 3) <= sem._REFERENCE_CAP:
                assert _dev(got, evaluate(d, "reference").matrix) < 1e-10
    assert max(built) <= 3      # the fast path never built a loop leg


def test_fused_sfuse_corner_evaluates_in_small_memory():
    # Two X spiders joined by three edges, three boundary legs each, fused
    # at D=5: one spider of degree 10 whose two self-loops are not built.
    rng = np.random.RandomState(5)
    b = DiagramBuilder(5)
    keep, absorb = (b.add_spider(dg.X, _random_phase_vector(5, rng))
                    for _ in range(2))
    for _ in range(3):
        b.add_edge(keep, absorb)
    for pos, v in enumerate((keep, keep, absorb)):
        b.add_edge(b.add_input(pos), v)
    for pos, v in enumerate((keep, absorb, absorb)):
        b.add_edge(v, b.add_output(pos))
    d = b.finish()
    fused = rw.apply_rule(d, "S_fuse",
                          {"keep": keep, "absorb": absorb, "color": dg.X})
    assert max(fused.degree(v) for v in fused.nodes) == 10
    tracemalloc.start()
    try:
        got = evaluate(fused).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert compare_scalar_exact(got, evaluate(d).matrix)[2]


@pytest.fixture
def empty_cache(monkeypatch):
    cache = {}
    monkeypatch.setattr(sem, "_node_tensor_cache", cache)
    return cache


def test_cached_node_tensors_are_read_only_and_never_returned(empty_cache):
    # A one-in, one-out spider's tensor is the whole result, uncontracted.
    d = dg.spider_diagram(3, dg.Z, 1, 1, cyclic_vector(3, 1))
    a, b = evaluate(d).matrix, evaluate(d).matrix
    assert len(empty_cache) == 1
    assert not any(t.flags.writeable for t in empty_cache.values())
    assert a.flags.writeable and not np.shares_memory(a, b)
    assert not any(np.shares_memory(a, t) for t in empty_cache.values())
    assert np.array_equal(a, b)


def test_approximate_and_oversized_node_tensors_are_not_cached(empty_cache):
    approx = PhaseVector.from_radians(3, [0.5, 1.0])
    evaluate(dg.spider_diagram(3, dg.X, 1, 1, approx))
    evaluate(dg.spider_diagram(5, dg.X, 3, 3))     # 5^6 > _CACHE_ELEMS
    assert empty_cache == {}
    evaluate(dg.spider_diagram(5, dg.X, 2, 3))     # 5^5 <= _CACHE_ELEMS
    assert [t.size for t in empty_cache.values()] == [5 ** 5]


def test_node_tensor_cache_stops_growing_when_full(empty_cache, monkeypatch):
    monkeypatch.setattr(sem, "_CACHE_TENSORS", 2)
    for t in range(3):
        evaluate(dg.spider_diagram(3, dg.Z, 1, 1, cyclic_vector(3, t)))
    assert len(empty_cache) == 2


# ---------------------------------------------------------------------------
# Scalar-equivalence helper

def test_compare_scalar_exact_needs_scalar_one():
    a = np.array([[1.0, 2.0], [0.0, 1j]])
    s, dev, passed = compare_scalar_exact(a, a)
    assert s == pytest.approx(1.0) and dev == 0.0 and passed
    s, dev, passed = compare_scalar_exact(-a, a)
    assert s == pytest.approx(-1.0) and dev < 1e-12 and not passed
    assert compare_scalar_exact(a, np.eye(2)) == (None, math.inf, False)


def test_equal_up_to_scalar_finds_the_scale():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    s = equal_up_to_scalar(2j * a, a, 1e-9)
    assert s is not None and abs(s - 2j) < 1e-12
    assert equal_up_to_scalar(a, np.eye(2), 1e-9) is None
    assert equal_up_to_scalar(np.zeros((2, 2)), np.zeros((2, 2)),
                              1e-9) == 1.0 + 0j
    # A zero matrix is never proportional to a nonzero one.
    assert equal_up_to_scalar(np.zeros((2, 2)), a, 1e-9) is None
    assert equal_up_to_scalar(a, np.zeros((2, 2)), 1e-9) is None


@settings(max_examples=30)
@given(st.integers(2, 4), st.integers(0, 10 ** 6))
def test_equal_up_to_scalar_on_random_proportional_pairs(d, seed):
    rng = np.random.RandomState(seed % (2 ** 31))
    a = rng.randn(d, d) + 1j * rng.randn(d, d)
    z = rng.randn() + 1j * rng.randn()
    if abs(z) < 1e-3:
        z = 1.0 + 0j
    s = equal_up_to_scalar(z * a, a, 1e-9)
    assert s is not None and abs(s - z) < 1e-9 * max(1.0, abs(z))


# ---------------------------------------------------------------------------
# DenseOperator plumbing

def test_dense_operator_validates_shape():
    with pytest.raises(ValueError):
        DenseOperator(3, 1, 1, np.eye(4))
    op = DenseOperator(2, 1, 2, np.ones((4, 2)))
    assert (op @ DenseOperator(2, 0, 1, np.ones((2, 1)))).matrix.shape == (4, 1)
    assert op.tensor(op).matrix.shape == (16, 4)
    assert op.dagger().matrix.shape == (2, 4)
    with pytest.raises(ValueError):
        op @ op


def test_dense_operator_json_shape():
    op = DenseOperator(2, 0, 1, np.array([[1.0], [1.0j]]))
    obj = op.to_json_dict()
    assert obj["dim"] == 2 and obj["nIn"] == 0 and obj["nOut"] == 1
    assert obj["matrix"] == [[[1.0, 0.0]], [[0.0, 1.0]]]


# ---------------------------------------------------------------------------
# Structure-check battery

@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_structure_checks_pass(dim):
    reports = run_structure_checks(dim)
    assert [r.check_id for r in reports] == list(STRUCTURE_CHECKS)
    for r in reports:
        assert r.passed, (r.check_id, dim, r.deviation, r.note)
        if r.check_id != "cup_mismatch":
            # cup_mismatch records the distance between the two families'
            # cups, which is expected to be large for D >= 3.
            assert r.deviation < 1e-9


def test_structure_check_rejects_unknown_id():
    with pytest.raises(ValueError):
        structure_check("associativity_of_tea", 3)
