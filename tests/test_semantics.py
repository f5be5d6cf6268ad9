"""Matrix semantics: spider tensors, phased unitaries, generator algebra.

Every closed-form matrix is rebuilt here with explicit loops before being
compared against the module, so the two computations share no code.
"""

import gc
import hashlib
import importlib.util
import itertools
import math
import random
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    omega_powers,
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


def test_omega_powers_are_omega_bit_for_bit():
    # The kept roots are omega's own values, for an int power and for an
    # array of powers (negative and past D too), and they are the values
    # of the formula omega had when every pin was recorded,
    # exp(2 pi i (p mod D) / D) with an int p.
    for d in range(2, 402):
        roots = omega_powers(d)
        assert omega_powers(d) is roots and not roots.flags.writeable
        scalar = np.array([omega(d, j) for j in range(d)])
        assert roots.tobytes() == scalar.tobytes(), d
        assert roots.tobytes() == np.array(
            [np.exp(2j * np.pi * (j % d) / d) for j in range(d)]).tobytes(), d
        powers = np.arange(-2 * d, 2 * d) * 7
        assert omega(d, powers).tobytes() == roots[powers % d].tobytes(), d


def test_only_small_root_vectors_are_kept(monkeypatch):
    monkeypatch.setattr(sem, "_ETA_KEEP", 4)
    kept = sem._kept_omega_powers.cache_info()
    large = omega_powers(5)
    assert omega_powers(5) is not large and not large.flags.writeable
    assert sem._kept_omega_powers.cache_info()[:2] == kept[:2]
    assert large.tobytes() == sem._kept_omega_powers(5).tobytes()
    small = omega_powers(4)
    assert omega_powers(4) is small


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
        t = sem._node_tensor(d, v, [sign for _, sign in d.legs(v)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.shape == (5,) * 8
    assert peak <= 1.6 * t.nbytes


_TURNS = st.one_of(
    st.builds(Turn.exact, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Turn.approx, st.floats(0, 2 * math.pi)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 5), st.sampled_from((dg.Z, dg.X)),
       st.lists(st.sampled_from((1, -1)), max_size=5))
def test_node_tensors_follow_the_spider_definitions(data, dim, kind, signs):
    # The module docstring's formulas, entry by entry, for a spider whose
    # legs have the given signs in edge order: +1 an output leg, -1 an
    # input leg.
    phase = PhaseVector(dim, data.draw(st.lists(_TURNS, min_size=dim - 1,
                                                max_size=dim - 1)))
    b = DiagramBuilder(dim)
    v = b.add_spider(kind, phase)
    for i, sign in enumerate(signs):
        if sign == 1:
            b.add_edge(v, b.add_output(signs[:i].count(1)))
        else:
            b.add_edge(b.add_input(signs[:i].count(-1)), v)
    d = b.finish()
    legs = d.legs(v)
    assert [sign for _, sign in legs] == signs
    k = len(signs)
    t = sem._node_tensor(d, v, signs)

    u = np.exp(1j * np.array(phase.radians_full(), dtype=complex))
    if kind == dg.Z:
        # exp(i*alpha_j) where every leg carries digit j, else zero: the
        # entries are placed, so they match exactly. With no legs every j
        # qualifies, and the D terms' sum may round in another order.
        if k == 0:
            assert abs(t - sum(u)) < 1e-12
            return
        want = np.zeros((dim,) * k, dtype=complex)
        for j in range(dim):
            want[(j,) * k] = u[j]
        assert t.shape == want.shape and np.array_equal(t, want)
        return
    # (1/sqrt(D))^k * c_m, m = (output digits - input digits) mod D, and
    # c_m = sum_j exp(i*alpha_j) * eta^(m*j).
    c = [sum(u[j] * np.exp(2j * np.pi * m * j / dim) for j in range(dim))
         for m in range(dim)]
    if k == 0:
        assert abs(t - c[0]) < 1e-12
        return
    want = np.empty((dim,) * k, dtype=complex)
    for digits in itertools.product(range(dim), repeat=k):
        m = sum(sign * j for sign, j in zip(signs, digits)) % dim
        want[digits] = dim ** (-k / 2) * c[m]
    assert t.shape == want.shape and np.max(np.abs(t - want)) < 1e-12


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
            # the legs u and v would have with the edge added
            if max(b.degree(u), b.degree(v)) + 1 + (u == v) <= budget:
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


def _open_parts(d: dg.Diagram) -> int:
    """How many connected pieces carry d's open legs once its boundary
    nodes are removed; a bare wire is a piece of its own."""
    boundary = set(d.boundary_ids(dg.IN)) | set(d.boundary_ids(dg.OUT))
    root = {v: v for v in d.nodes}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for s, t in d.edges:
        if s not in boundary and t not in boundary:
            root[find(s)] = find(t)
    return len({("wire", s) if {s, t} <= boundary else
                find(t if s in boundary else s)
                for s, t in d.edges if boundary & {s, t}})


def test_fast_contraction_order_is_pinned(monkeypatch):
    # Every tensordot call the fast path makes, over 200 seeded diagrams:
    # contractions only, as an output's disconnected parts are folded in
    # without tensordot. The digest was recorded with the all-pairs planner
    # this heap planner replaced; it pins the contraction sequence and each
    # call's axes.
    record = []
    real = np.tensordot

    def spy(a, b, axes=2):
        norm = axes if isinstance(axes, int) else tuple(map(tuple, axes))
        record.append((np.shape(a), np.shape(b), norm))
        return real(a, b, axes=axes)

    monkeypatch.setattr(np, "tensordot", spy)
    diagrams = _seeded_diagrams()
    for d in diagrams:
        evaluate(d)
    assert any(_open_parts(d) > 1 for d in diagrams)
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert (len(record), digest) == (
        399, "fdca6c3cb4f0556f737126236a09f1ca39d4b7816a973d1f3ac9369d52cbb513")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_fast_matches_reference_on_random_diagrams(dim, seed):
    d = _random_diagram(random.Random(seed), dim)
    fast, ref = evaluate(d, "fast"), evaluate(d, "reference")
    assert (fast.n_in, fast.n_out) == (ref.n_in, ref.n_out)
    assert _dev(fast.matrix, ref.matrix) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))
def test_parallel_compositions_match_their_pieces(dim, count, seed):
    # The pieces' reference matrices, tensored, are the oracle for an
    # output the fast path assembles from several disconnected parts.
    rng = random.Random(seed)
    pieces = []
    while len(pieces) < count:
        piece = _random_diagram(rng, dim)
        legs = sum(len(p.boundary_ids(dg.IN)) + len(p.boundary_ids(dg.OUT))
                   for p in pieces + [piece])
        if dim ** legs <= 2 ** 14:
            pieces.append(piece)
    d = pieces[0]
    for piece in pieces[1:]:
        d = compose(d, piece, "parallel")
    want = evaluate(pieces[0], "reference").matrix
    for piece in pieces[1:]:
        want = np.kron(want, evaluate(piece, "reference").matrix)
    got = evaluate(d).matrix
    assert got.shape == want.shape
    assert _dev(got, want) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert got.flags.c_contiguous and got.flags.writeable
    assert not any(np.shares_memory(got, t)
                   for t in sem._node_tensor_cache.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_one_part_output_is_its_scaled_transposed_copy(dim, rank, seed):
    # Bit for bit, signed zeros and non-finite entries included.
    rng = np.random.default_rng(seed)
    arr = (rng.standard_normal((dim,) * rank)
           + 1j * rng.standard_normal((dim,) * rank))
    specials = [-0.0, complex(0.0, -0.0), complex(-0.0, 5.0), math.inf,
                complex(-math.inf, 1.0), math.nan]
    flat = arr.reshape(-1)
    for v in specials[:rng.integers(len(specials) + 1)]:
        flat[rng.integers(flat.size)] = v
    want = [("out", p) for p in range(rank)]
    labels = [want[i] for i in rng.permutation(rank)]
    perm = [labels.index(x) for x in want]
    scalar = complex(*rng.standard_normal(2))
    with np.errstate(invalid="ignore"):
        got = sem._assemble([(arr, labels)], want, scalar)
        expect = np.multiply(np.transpose(arr, perm), scalar, order="C")
    assert got.tobytes() == expect.tobytes()
    assert got.flags.c_contiguous and not np.shares_memory(got, arr)
    closed = sem._assemble([], [], scalar)
    assert closed.tobytes() == np.multiply(np.array(1.0, dtype=complex),
                                           scalar).tobytes()


def test_disconnected_output_is_built_in_one_array():
    # Two parts of 3^6 entries each: the output's 3^12 entries are the
    # only large allocation, with no outer product and no transposed copy.
    part = dg.spider_diagram(3, dg.X, 3, 3, cyclic_vector(3, 1))
    d = compose(part, part, "parallel")
    evaluate(d)
    tracemalloc.start()
    try:
        got = evaluate(d).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * got.nbytes
    assert _dev(got, np.kron(evaluate(part).matrix, evaluate(part).matrix)) \
        < 1e-12


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


def test_reference_path_refuses_a_node_tensor_above_its_cap(monkeypatch):
    # D^E = 5^8 fits the cap, but node 0's legs, each self-loop counted
    # twice, would need a 5^13 grid
    d = _self_looped_spider(5, dg.X, 5, PhaseVector.zero(5), True)
    assert 5 ** len(d.edges) <= sem._REFERENCE_CAP

    def never(*args):
        raise AssertionError("a tensor was built")

    monkeypatch.setattr(sem, "_node_tensor", never)
    with pytest.raises(ValueError) as exc:
        evaluate(d, "reference")
    msg = str(exc.value)
    assert "\n" not in msg
    assert msg.startswith("reference path refuses D=5: node 0 (X, 13 legs) ")
    assert str(5 ** 13) in msg and str(sem._REFERENCE_CAP) in msg


def test_fast_path_refuses_an_over_cap_merge_before_contracting(monkeypatch):
    # K5 of degree-4 spiders at D=2: every node tensor holds 2^4 entries
    # and every pair merges into 2^6, above a cap lowered to 2^4.
    monkeypatch.setattr(sem, "_FAST_CAP", 2 ** 4)
    monkeypatch.setattr(np, "tensordot", lambda *a, **k: pytest.fail("built"))
    with pytest.raises(ValueError, match=r"2\^6 = 64 elements .* cap of 16"):
        evaluate(_complete_graph(2, 5))


@pytest.mark.parametrize("method", ["fast", "reference"])
def test_x_spider_eta_table_counts_against_the_cap(method, monkeypatch):
    # A one-legged X spider at D=11 has a tensor of 11 entries, within a
    # cap lowered to 2^6, but its weights come from an 11 x 11 eta table.
    # An approximate phase keeps the tensor out of the node cache.
    monkeypatch.setattr(sem, "_FAST_CAP", 2 ** 6)
    monkeypatch.setattr(sem, "c_coefficients",
                        lambda *a: pytest.fail("the eta table was built"))
    d = dg.spider_diagram(11, dg.X, 0, 1,
                          PhaseVector.from_radians(11, [0.5] * 10))
    with pytest.raises(ValueError) as exc:
        evaluate(d, method)
    assert str(exc.value) == (
        "evaluation refuses D=11: node 0 (X) needs an eta table of 11^2 = "
        "121 entries, above its cap of 64")


def test_only_small_eta_tables_are_kept(monkeypatch):
    # With the bound lowered to 16 entries, D=4 is kept and D=5 is built
    # per call, with the same values, and never enters the kept tables.
    monkeypatch.setattr(sem, "_ETA_KEEP", 16)
    kept = sem._kept_eta_table.cache_info()
    large = sem._eta_table(5)
    assert sem._eta_table(5) is not large
    assert sem._kept_eta_table.cache_info()[:2] == kept[:2]
    assert not large.flags.writeable
    assert np.array_equal(large, sem._kept_eta_table(5))
    small = sem._eta_table(4)
    assert sem._eta_table(4) is small and not small.flags.writeable


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
    monkeypatch.setattr(sem, "_cache_charged", 0)
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
    # Three 9-entry tensors against a budget of two.
    monkeypatch.setattr(sem, "_CACHE_ENTRIES", 2 * sem._cache_charge(9, 3))
    for t in range(3):
        evaluate(dg.spider_diagram(3, dg.Z, 1, 1, cyclic_vector(3, t)))
    assert len(empty_cache) == 2


def test_node_tensor_cache_refuses_what_passes_its_room_only(empty_cache,
                                                             monkeypatch):
    # 9 entries stored, 27 refused, then 3 still stored.
    room = sem._cache_charge(9, 3) + sem._cache_charge(3, 3)
    monkeypatch.setattr(sem, "_CACHE_ENTRIES", room)
    for n_out in (1, 2, 0):
        evaluate(dg.spider_diagram(3, dg.Z, 1, n_out, cyclic_vector(3, 1)))
    assert [t.size for t in empty_cache.values()] == [9, 3]
    assert sem._cache_charged == room


def _scalar_spiders(dim: int, count: int) -> list:
    """count legless Z spiders of dimension dim with distinct exact phases."""
    return [dg.spider_diagram(dim, dg.Z, 0, 0, PhaseVector(
        dim, [Turn.exact(k, count) for _ in range(dim - 1)]))
        for k in range(count)]


def test_node_tensor_cache_charges_each_key(empty_cache, monkeypatch):
    # 1-entry tensors fill a budget of 1,000 entries with 1,000 // 113
    # keys, not 1,000.
    monkeypatch.setattr(sem, "_CACHE_ENTRIES", 1000)
    for d in _scalar_spiders(3, 30):
        evaluate(d)
    assert sem._cache_charge(1, 3) == 113
    assert len(empty_cache) == 8
    assert sem._cache_charged == 8 * 113


def test_a_full_cache_of_scalars_holds_under_its_budget(empty_cache):
    # The most keys a full cache can hold at D=32, 2^20 // (1 + 64 + 16*32)
    # 1-entry tensors whose phases hold 31 Turns each, take less than the
    # budget's 16 MiB.
    tracemalloc.start()
    try:
        for d in _scalar_spiders(32, 1827):
            evaluate(d)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(empty_cache) == 1817
    assert held < 16 * sem._CACHE_ENTRIES


def _exact_phases(d: dg.Diagram, den: int = 8) -> dg.Diagram:
    """d with each spider phase rounded to a multiple of 1/den turn, so
    that its node tensors can be cached."""
    nodes = {v: n if n.phase is None else dg.Node(n.kind, PhaseVector(
        d.dimension, [Turn.exact(round(t.radians / math.tau * den), den)
                      for t in n.phase]))
             for v, n in d.nodes.items()}
    return dg.Diagram(d.dimension, nodes, d.edges, d.scalar)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_a_warm_cache_never_changes_a_result(dim, seed):
    d = _exact_phases(_random_diagram(random.Random(seed), dim))
    saved = sem._node_tensor_cache, sem._cache_charged
    sem._node_tensor_cache, sem._cache_charged = {}, 0
    try:
        cold = evaluate(d).matrix
        stored = len(sem._node_tensor_cache)
        warm = evaluate(d).matrix
    finally:
        sem._node_tensor_cache, sem._cache_charged = saved
    # Every node tensor of at most _CACHE_ELEMS entries is stored.
    assert stored or all(dim ** len(d.legs(v)) > sem._CACHE_ELEMS
                         for v, n in d.nodes.items()
                         if n.kind not in dg.BOUNDARY_KINDS)
    assert cold.shape == warm.shape and cold.tobytes() == warm.tobytes()


# ---------------------------------------------------------------------------
# Fast-path plans, kept per diagram structure

@pytest.fixture
def empty_plans(monkeypatch):
    cache = {}
    monkeypatch.setattr(sem, "_plan_cache", cache)
    monkeypatch.setattr(sem, "_plan_charged", 0)
    monkeypatch.setattr(sem, "_shared", {})
    return cache


def _structure(d: dg.Diagram) -> tuple:
    """What a plan depends on: D, each node's kind and boundary position
    in id order, and the edges."""
    return (d.dimension, tuple((v, n.kind, n.position)
                               for v, n in sorted(d.nodes.items())), d.edges)


def _rephased(d: dg.Diagram, rng: random.Random) -> dg.Diagram:
    """d with a fresh scalar and fresh spider phases, each exact or
    approximate at random: the same structure."""
    dim = d.dimension
    nodes = {}
    for v, n in d.nodes.items():
        if n.phase is not None:
            exact = rng.random() < 0.5
            n = dg.Node(n.kind, PhaseVector(dim, [
                Turn.exact(rng.randrange(12), 12) if exact
                else Turn.approx(rng.uniform(0, 2 * math.pi))
                for _ in range(dim - 1)]))
        nodes[v] = n
    return dg.Diagram(dim, nodes, d.edges,
                      complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2 ** 32 - 1))
def test_a_kept_plan_runs_its_structure_byte_for_byte(dim, seed):
    # Twins of one random diagram (self-loops, box traces, bare wires,
    # degree-0 spiders, disconnected parts): each cold, with no kept plan,
    # then each warm, on the one plan their structure keeps.
    rng = random.Random(seed)
    twins = [_rephased(_random_diagram(rng, dim), rng)]
    twins += [_rephased(twins[0], rng) for _ in range(2)]
    saved = sem._plan_cache, sem._plan_charged, sem._shared
    try:
        cold = []
        for d in twins:
            sem._plan_cache, sem._plan_charged, sem._shared = {}, 0, {}
            cold.append(evaluate(d).matrix)
        warm = [evaluate(d).matrix for d in twins]
        kept = len(sem._plan_cache)
    finally:
        sem._plan_cache, sem._plan_charged, sem._shared = saved
    assert kept == 1
    for a, b in zip(cold, warm):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_plans_built_are_the_distinct_structures(empty_plans, monkeypatch):
    built = []
    real = sem._plan
    monkeypatch.setattr(sem, "_plan", lambda d: (built.append(d),
                                                  real(d))[1])
    rng = random.Random(41)
    structures, evaluated = set(), 0
    for rule in rw.ALL_RULES:
        for dim in (2, 3):
            for _ in range(25):
                d, site = rw.random_rule_instance(
                    rule, dim, random.Random(rng.randrange(2 ** 63)))
                for x in (d, rw.apply_rule(d, rule, site)):
                    evaluate(x)
                    structures.add(_structure(x))
                    evaluated += 1
    assert len(built) == len(empty_plans) == len(structures) < evaluated


def _two_wires(dim: int = 3, out_positions=(0, 1), box: str = dg.F,
               joined=(4, 6), order=None) -> dg.Diagram:
    """Input 0 through an X spider to output 0 and input 1 through a box
    to output 1, and a Z spider joined to the X spider."""
    nodes = {0: dg.Node(dg.IN, position=0), 1: dg.Node(dg.IN, position=1),
             2: dg.Node(dg.OUT, position=out_positions[0]),
             3: dg.Node(dg.OUT, position=out_positions[1]),
             4: dg.Node(dg.X, cyclic_vector(dim, 1)), 5: dg.Node(box),
             6: dg.Node(dg.Z, cyclic_vector(dim, 2))}
    if order is not None:
        nodes = {v: nodes[v] for v in order}
    return dg.Diagram(dim, nodes, [(0, 4), (4, 2), (1, 5), (5, 3), joined])


def test_plan_keys_tell_structures_apart(empty_plans):
    # Each change to what a plan reads makes a structure of its own; the
    # nodes' order in the diagram, phases and the scalar do not.
    base = _two_wires()
    diagrams = [base, _two_wires(out_positions=(1, 0)), _two_wires(2),
                _two_wires(box=dg.FDAG), _two_wires(joined=(6, 4)),
                _two_wires(order=range(6, -1, -1)),
                _rephased(base, random.Random(0))]
    for d in diagrams:
        assert _dev(evaluate(d).matrix, evaluate(d, "reference").matrix) \
            < 1e-10
    assert len(empty_plans) == len({_structure(d) for d in diagrams}) == 5


def test_warm_plans_keep_the_pinned_contraction_order(empty_plans,
                                                      monkeypatch):
    # test_fast_contraction_order_is_pinned's record, read again with
    # every plan kept from a first pass.
    diagrams = _seeded_diagrams()
    for d in diagrams:
        evaluate(d)
    planned = len(empty_plans)
    record = []
    real = np.tensordot

    def spy(a, b, axes=2):
        norm = axes if isinstance(axes, int) else tuple(map(tuple, axes))
        record.append((np.shape(a), np.shape(b), norm))
        return real(a, b, axes=axes)

    monkeypatch.setattr(np, "tensordot", spy)
    monkeypatch.setattr(sem, "_plan", lambda d: pytest.fail("planned"))
    for d in diagrams:
        evaluate(d)
    assert len(empty_plans) == planned
    digest = hashlib.sha256(repr(record).encode()).hexdigest()
    assert (len(record), digest) == (
        399, "fdca6c3cb4f0556f737126236a09f1ca39d4b7816a973d1f3ac9369d52cbb513")


def test_a_kept_plan_refuses_under_a_lowered_cap(empty_plans, monkeypatch):
    d = _complete_graph(2, 5)
    evaluate(d)
    assert len(empty_plans) == 1
    monkeypatch.setattr(sem, "_FAST_CAP", 2 ** 4)
    monkeypatch.setattr(np, "tensordot", lambda *a, **k: pytest.fail("built"))
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            evaluate(d)
        assert str(exc.value) == ("fast path refuses D=2: a tensor of 2^6 = "
                                  "64 elements is above its cap of 16")


def _eta_and_node_refusals(first: str) -> dg.Diagram:
    """At D=11, an X spider whose eta table has 11^2 entries and a
    two-legged Z spider of 11^2 entries, the one named by `first` at node
    0, all phases exact."""
    b = DiagramBuilder(11)
    ids = {k: b.add_spider(k, cyclic_vector(11, 1))
           for k in (first, ({dg.X, dg.Z} - {first}).pop())}
    b.add_edge(ids[dg.X], ids[dg.Z])
    b.add_edge(ids[dg.Z], b.add_spider(dg.Z, cyclic_vector(11, 2)))
    return b.finish()


@pytest.mark.parametrize("first, refusal", [
    (dg.X, "evaluation refuses D=11: node 0 (X) needs an eta table of 11^2 "
           "= 121 entries, above its cap of 64"),
    (dg.Z, "fast path refuses D=11: a tensor of 11^2 = 121 elements for "
           "node 0 (Z, 2 loop-free legs) is above its cap of 64"),
])
def test_the_first_refusal_holds_with_kept_plans_and_tensors(
        first, refusal, empty_plans, empty_cache, monkeypatch):
    # Cold, then warm: plan and node tensors kept at the default cap.
    d = _eta_and_node_refusals(first)
    default = sem._FAST_CAP
    for warm in (False, True):
        if warm:
            monkeypatch.setattr(sem, "_FAST_CAP", default)
            evaluate(d)
            assert empty_plans and empty_cache
        monkeypatch.setattr(sem, "_FAST_CAP", 2 ** 6)
        with pytest.raises(ValueError) as exc:
            evaluate(d)
        assert str(exc.value) == refusal


def _plan_charges(diagrams: list) -> list:
    """What keeping each diagram's plan charges, in turn, from an empty
    cache: kept plans share their equal tuples, so a plan's charge
    depends on those kept before it."""
    saved = sem._plan_cache, sem._plan_charged, sem._shared
    charges = []
    try:
        sem._plan_cache, sem._plan_charged, sem._shared = {}, 0, {}
        for d in diagrams:
            before = sem._plan_charged
            evaluate(d)
            charges.append(sem._plan_charged - before)
    finally:
        sem._plan_cache, sem._plan_charged, sem._shared = saved
    return charges


def test_plan_cache_stops_growing_when_full(empty_plans, monkeypatch):
    # Three plans against a budget of the first two.
    diagrams = [dg.spider_diagram(3, dg.Z, 1, n) for n in range(3)]
    charges = _plan_charges(diagrams)
    monkeypatch.setattr(sem, "_PLAN_BUDGET", charges[0] + charges[1])
    for d in diagrams:
        evaluate(d)
    assert len(empty_plans) == 2
    assert sem._plan_charged == charges[0] + charges[1]


def test_plan_cache_refuses_what_passes_its_room_only(empty_plans,
                                                      monkeypatch):
    # The middle plan, the largest, is refused; the last still fits.
    diagrams = [dg.spider_diagram(3, dg.Z, 1, n) for n in (1, 4, 0)]
    charges = (_plan_charges(diagrams[:2])
               + _plan_charges(diagrams[::2])[1:])
    room = charges[0] + charges[2]
    assert charges[1] > charges[2]
    monkeypatch.setattr(sem, "_PLAN_BUDGET", room)
    for d in diagrams:
        evaluate(d)
    assert list(empty_plans) == [sem._structure_key(diagrams[k])
                                 for k in (0, 2)]
    assert sem._plan_charged == room


def test_kept_plans_hold_less_than_their_charge(empty_plans):
    # 400 small structures, as rule instances are, and 20 parallel pairs
    # of them: the plan cache's own memory, freed by emptying it.
    rng = random.Random(3)
    diagrams = [_random_diagram(rng, 2 + k % 4) for k in range(400)]
    diagrams += [compose(*[_random_diagram(rng, 2) for _ in range(2)],
                         "parallel") for _ in range(20)]
    tracemalloc.start()
    try:
        for d in diagrams:
            sem._cached_plan(d)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        charged, kept = sem._plan_charged, len(empty_plans)
        empty_plans.clear()
        sem._shared.clear()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept > 300 and 0 < held <= charged


def test_a_structure_past_int16_is_planned_and_not_kept(empty_plans):
    spider = dg.Node(dg.Z, PhaseVector.zero(3))
    d = dg.Diagram(3, {0: spider, 40000: spider}, [(0, 40000)])
    assert sem._structure_key(d) is None
    assert abs(evaluate(d).matrix[0, 0] - 3.0) < 1e-12
    assert empty_plans == {}


def _outcome(d: dg.Diagram):
    """evaluate(d)'s matrix as (shape, bytes), or its refusal's text."""
    try:
        m = evaluate(d).matrix
    except ValueError as err:
        return str(err)
    return m.shape, m.tobytes()


@st.composite
def _plan_cases(draw):
    """(d, cache elems, fast cap): a random diagram (_random_diagram's
    self-loops, traced box loops, bare wires, closed diagrams and
    disconnected parts) with exact and approximate phases (_rephased),
    maybe beside a second one, so that its output has several parts;
    and lowered values of _CACHE_ELEMS and _FAST_CAP, or their defaults."""
    dim = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    d = _rephased(_random_diagram(rng, dim), rng)
    if draw(st.booleans()):
        other = _rephased(_random_diagram(rng, dim), rng)
        wires = sum(len(x.boundary_ids(k)) for x in (d, other)
                    for k in (dg.IN, dg.OUT))
        if dim ** wires <= 2 ** 12:
            d = compose(d, other, "parallel")
    elems = draw(st.sampled_from((1, dim, dim ** 2, sem._CACHE_ELEMS)))
    cap = draw(st.sampled_from((dim, dim ** 2, dim ** 3, sem._FAST_CAP)))
    return d, elems, cap


@settings(max_examples=150, deadline=None)
@given(_plan_cases())
def test_a_kept_plan_freezes_neither_cap(case):
    # Cold, with no kept plan or tensor, at the default caps; then warm on
    # the kept plan, from an empty node cache, under the drawn caps;
    # against cold under those caps: the same bytes, or the same refusal.
    d, elems, cap = case
    names = ("_plan_cache", "_plan_charged", "_shared", "_node_tensor_cache",
             "_cache_charged", "_CACHE_ELEMS", "_FAST_CAP")
    saved = {name: getattr(sem, name) for name in names}

    def empty(plans=True):
        if plans:
            sem._plan_cache, sem._plan_charged, sem._shared = {}, 0, {}
        sem._node_tensor_cache, sem._cache_charged = {}, 0

    try:
        empty()
        cold = _outcome(d)
        kept = len(sem._plan_cache)
        empty(plans=False)
        sem._CACHE_ELEMS, sem._FAST_CAP = elems, cap
        warm = _outcome(d)
        stored = [t.size for t in sem._node_tensor_cache.values()]
        empty()
        want = _outcome(d)
    finally:
        for name, value in saved.items():
            setattr(sem, name, value)
    assert kept == 1 and not isinstance(cold, str)
    assert warm == want
    assert isinstance(warm, str) or warm == cold
    assert all(size <= elems for size in stored)


def _rule_soundness_diagrams(seed: int) -> list:
    """The diagrams one pass of the benchmark's rule-soundness workload
    evaluates at `seed`: each case's instance, then its rewrite."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    diagrams = []
    for case in workloads.rule_cases(seed):
        dim, source = case.payload
        if isinstance(source, int):
            d, site = rw.random_rule_instance(case.kind, dim,
                                              random.Random(source))
        else:
            d, site = dg.from_json(source[0]), source[1]
        diagrams += [d, rw.apply_rule(d, case.kind, site)]
    return diagrams


def test_seed_one_rule_structures_are_all_kept_and_share_tuples(
        empty_plans):
    # The 9,602 evaluations of a seed-1 rule-soundness pass: every one of
    # their structures is kept within the budget, and kept plans hold one
    # copy of each equal tuple, the one _shared holds, whole plans too.
    diagrams = _rule_soundness_diagrams(1)
    for d in diagrams:
        sem._cached_plan(d)
    assert len(diagrams) == 9602
    assert len(empty_plans) == len({_structure(d) for d in diagrams}) == 2218
    assert sem._plan_charged <= sem._PLAN_BUDGET
    held = {}

    def walk(t):
        assert sem._shared[t] is t
        held[id(t)] = t
        for x in t:
            if type(x) is tuple:
                walk(x)

    for plan in empty_plans.values():
        walk(plan)
    assert len(held) == len(sem._shared)
    assert len({id(plan) for plan in empty_plans.values()}) < 2218
    signs = [leaf[1] for plan in empty_plans.values() for leaf in plan[3]]
    assert len({id(s) for s in signs}) == len(set(signs)) < len(signs)


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


def _equal_one_shot(a, b, tol):
    """equal_up_to_scalar as one formula over whole arrays: the oracle
    for its blockwise reading."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None
    if a.size == 0:
        return 1.0 + 0.0j
    pivot = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[pivot]) < tol:
        return (1.0 + 0.0j) if np.max(np.abs(a)) < tol else None
    s = a[pivot] / b[pivot]
    if abs(s) <= tol:
        return None
    if np.max(np.abs(a - s * b)) <= tol * max(1.0, np.max(np.abs(a))):
        return complex(s)
    return None


def _compare_one_shot(a, b, tol):
    s = _equal_one_shot(a, b, tol)
    if s is None:
        return None, math.inf, False
    deviation = float(np.max(np.abs(a - s * b), initial=0.0))
    return s, deviation, deviation <= tol and abs(s - 1.0) <= tol


def _comparison_cases():
    """(a, b) pairs on either side of each block boundary: proportional,
    nearly so, all-zero, NaN or inf in the first, a middle and the last
    block of either matrix, and b's largest modulus tied across blocks."""
    block = sem._COMPARE_BLOCK
    rng = np.random.default_rng(21)
    for n in (1, block - 1, block, block + 1, 3 * block + 5):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        z = complex(*rng.standard_normal(2))
        zero = np.zeros(n, dtype=complex)
        yield from [(z * b, b), (z * b + 1e-6 * rng.standard_normal(n), b),
                    (zero, zero), (zero, b), (b, zero), (b, b)]
        for at in sorted({0, n // 2, n - 1}):
            for bad in (math.nan, math.inf, complex(math.inf, -math.inf)):
                for base in ((z * b, b), (zero, zero)):
                    for which in (0, 1):
                        pair = [x.copy() for x in base]
                        pair[which][at] = bad
                        yield tuple(pair)
        if n > block:
            tied = b / (2 * np.max(np.abs(b)))
            tied[[1, n // 2, n - 1]] = [3, 3j, -3]    # |3| each, exactly
            yield z * tied, tied
            a = z * tied
            a[[1, n - 1]] *= [1 + 1e-11, 1 - 1e-11]   # s depends on the pivot
            yield a, tied


def test_blockwise_comparisons_match_the_whole_array_formula():
    cases = list(_comparison_cases())
    assert len(cases) >= 63
    for i, (a, b) in enumerate(cases):
        if a.size % 2 == 0:
            a, b = a.reshape(2, -1), b.reshape(2, -1)
        with np.errstate(invalid="ignore", over="ignore"):
            got = (equal_up_to_scalar(a, b), compare_scalar_exact(a, b))
            want = (_equal_one_shot(a, b, 1e-9),
                    _compare_one_shot(a, b, 1e-9))
        assert repr(got) == repr(want), (i, a.shape)


_SPECIAL = (0.0, math.nan, math.inf, complex(-math.inf, math.inf),
            complex(0.0, math.nan))


@st.composite
def _comparison_inputs(draw):
    """(a, b, tol) with a and b of 1-64 entries: b random, maybe zero or
    with tied maxima; a a random multiple of b, maybe perturbed throughout
    or by a multiple of tol at one entry; then zero, NaN and inf entries
    placed at random in either; a 2-row shape when the size is even."""
    tol = draw(st.sampled_from((1e-9, 1e-6)))
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if draw(st.booleans()):
        # Up to three entries share b's largest modulus, exactly.
        b /= 2 * np.max(np.abs(b))
        at = rng.choice(n, size=min(n, draw(st.integers(1, 3))),
                        replace=False)
        b[at] = [3, 3j, -3][:len(at)]
    b *= draw(st.sampled_from((0.0, 1e-12, 1.0, 1e6)))
    z = complex(*rng.standard_normal(2)) * draw(
        st.sampled_from((0.0, 1e-12, 1e-3, 1.0, 1e6)))
    a = z * b + draw(st.sampled_from((0.0, 1e-12, 1e-8, 1.0))) * (
        rng.standard_normal(n))
    if draw(st.booleans()):
        # A deviation on either side of tol and of 2*tol.
        a[draw(st.integers(0, n - 1))] += tol * draw(
            st.sampled_from((0.5, 1.0, 1.5, 3.0)))
    for _ in range(draw(st.integers(0, 3))):
        x = a if draw(st.booleans()) else b
        x[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_SPECIAL))
    if n % 2 == 0 and draw(st.booleans()):
        a, b = a.reshape(2, -1), b.reshape(2, -1)
    return a, b, tol


def _deviation_above_tol():
    """a = s*b but for one entry off by 1.5*tol, with max|a| < 1, so that
    the deviation bound is tol itself: a is not equal to s*b."""
    b = np.exp(1j * np.arange(9.0))
    a = 1e-3 * b
    a[4] += 1.5e-9
    return a, b, 1e-9


@pytest.mark.parametrize("block", [sem._COMPARE_BLOCK, 7])
@settings(max_examples=300, deadline=None)
@given(_comparison_inputs())
@example(_deviation_above_tol())
def test_comparisons_match_the_whole_array_formula_on_random_pairs(
        block, inputs):
    a, b, tol = inputs
    with pytest.MonkeyPatch.context() as mp, np.errstate(
            invalid="ignore", over="ignore"):
        mp.setattr(sem, "_COMPARE_BLOCK", block)
        got = (equal_up_to_scalar(a, b, tol), compare_scalar_exact(a, b, tol))
        want = (_equal_one_shot(a, b, tol), _compare_one_shot(a, b, tol))
    assert repr(got) == repr(want)


def _blocked_fit_scalar(a, b, tol: float, block: int) -> tuple:
    """_fit_scalar as its block helpers read it when each block's largest
    modulus was np.maximum.reduce'd: the oracle for the one-block path,
    (s, deviation) bit for bit."""
    def pivot_of(b):
        pivot, top = 0, -1.0
        for i in range(0, b.size, block):
            mags = np.abs(b[i:i + block])
            k = int(mags.argmax())
            if np.isnan(mags[k]):
                return i + k
            if mags[k] > top:
                pivot, top = i + k, mags[k]
        return pivot

    def blockwise_max(f, *arrays):
        m = 0.0
        for i in range(0, arrays[0].size, block):
            m = np.maximum.reduce(f(*[x[i:i + block] for x in arrays]),
                                  initial=m)
        return m

    def max_deviation(a, b, s):
        return blockwise_max(lambda x, y: np.abs(x - s * y), a, b)

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None, math.inf
    if a.size == 0:
        return 1.0 + 0.0j, 0.0
    a, b = a.reshape(-1), b.reshape(-1)
    pivot = pivot_of(b)
    if abs(b[pivot]) < tol:
        if not blockwise_max(np.abs, a) < tol:
            return None, math.inf
        return 1.0 + 0.0j, float(max_deviation(a, b, 1.0 + 0.0j))
    s = a[pivot] / b[pivot]
    if abs(s) <= tol:
        return None, math.inf
    deviation = float(max_deviation(a, b, s))
    if deviation <= tol or deviation <= tol * max(
            1.0, blockwise_max(np.abs, a)):
        return complex(s), deviation
    return None, math.inf


def _fit_bits(fit: tuple) -> tuple:
    s, deviation = fit
    return (None if s is None else struct.pack("dd", s.real, s.imag),
            struct.pack("d", deviation))


@st.composite
def _shaped_comparison_inputs(draw):
    """_comparison_inputs, both matrices reshaped to one random shape of
    their size, or b to another shape of its size."""
    a, b, tol = draw(_comparison_inputs())
    n = a.size
    rows = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
    a, b = a.reshape(rows, -1), b.reshape(rows, -1)
    if draw(st.integers(0, 9)) == 0:
        b = b.reshape(-1)
    return a, b, tol


@pytest.mark.parametrize("block", [1, 3, sem._COMPARE_BLOCK])
@settings(max_examples=150, deadline=None)
@given(_shaped_comparison_inputs())
@example(_deviation_above_tol())
def test_fit_scalar_matches_the_blocked_reduce_bit_for_bit(block, inputs):
    a, b, tol = inputs
    with pytest.MonkeyPatch.context() as mp, np.errstate(
            invalid="ignore", over="ignore"):
        mp.setattr(sem, "_COMPARE_BLOCK", block)
        got = sem._fit_scalar(a, b, tol)
        want = _blocked_fit_scalar(a, b, tol, block)
    assert _fit_bits(got) == _fit_bits(want)


def test_compare_scalar_exact_measures_the_deviation_once(monkeypatch):
    calls, deviation = [], sem._max_deviation

    def counted(*args):
        calls.append(args)
        return deviation(*args)

    monkeypatch.setattr(sem, "_max_deviation", counted)
    b = np.exp(1j * np.arange(12.0)).reshape(3, 4)
    for a, passed in ((b, True), (2j * b, False)):
        calls.clear()
        assert compare_scalar_exact(a, b)[2] is passed
        assert len(calls) == 1


def test_equal_up_to_scalar_builds_no_matrix_sized_temporary():
    rng = np.random.default_rng(3)
    b = rng.standard_normal(3 ** 12) + 1j * rng.standard_normal(3 ** 12)
    a = (0.5 - 2j) * b
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = equal_up_to_scalar(a, b)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert abs(s - (0.5 - 2j)) < 1e-12
    assert extra < 4 * 2 ** 20 < a.nbytes


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


# ---------------------------------------------------------------------------
# Structure-check battery

# (check id, passed, note) of every structure check, at every D.
STRUCTURE_REPORT = [
    ("frobenius_z", True, "worst law: coassoc"),
    ("frobenius_x", True, "worst law: coassoc"),
    ("classical_copy", True, ""),
    ("unbiased_points", True, ""),
    ("bialgebra_units", True, "up to scalar"),
    ("hopf", True, ""),
    ("strong_complementarity", True, "exact, scalar one"),
    ("dualizer", True, "negation matrix, unitary"),
    ("dim_independence", True, ""),
    ("cyclic_points", True, ""),
    ("cup_mismatch", True, "equal exactly when D = 2"),
    ("fourier_delta", True, "equal up to sqrt(D)"),
    ("fourier_phase_state", True, ""),
]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_structure_checks_pass(dim):
    reports = run_structure_checks(dim)
    assert [r.check_id for r in reports] == list(STRUCTURE_CHECKS)
    assert [(r.check_id, r.passed, r.note)
            for r in reports] == STRUCTURE_REPORT
    for r in reports:
        assert type(r.passed) is bool, r.check_id
        assert type(r.deviation) is float, r.check_id
        if r.check_id != "cup_mismatch":
            # cup_mismatch records the distance between the two families'
            # cups, which is expected to be large for D >= 3.
            assert r.deviation < 1e-9


def test_structure_battery_builds_one_law_model(monkeypatch):
    # One run_structure_checks call shares one Hilbert law model across
    # its rows, and its reports equal those of one structure_check per row.
    built = []
    law_model = sem._law_model
    monkeypatch.setattr(sem, "_law_model",
                        lambda d: built.append(d) or law_model(d))
    reports = run_structure_checks(4)
    assert built == [4]
    assert reports == [structure_check(c, 4) for c in STRUCTURE_CHECKS]


def test_fourier_phase_state_check_can_fail(monkeypatch):
    # The X state is the X spider's own tensor, not fourier_matrix times
    # the Z state, so the check sees a Fourier matrix that is wrong.
    fmat = sem.fourier_matrix
    monkeypatch.setattr(sem, "fourier_matrix", lambda d: fmat(d).conj())
    report = structure_check("fourier_phase_state", 3)
    assert not report.passed and report.deviation > 0.1


@pytest.mark.parametrize("dim", [3, 5])
def test_cyclic_points_check_can_fail(dim, monkeypatch):
    # Phases t*j^2/D turns are closed under addition as t*j/D are, but
    # are not the X classical points; at D=2, j^2 = j.
    monkeypatch.setattr(sem, "cyclic_vector", lambda d, t: PhaseVector(
        d, [Turn.exact(t * j * j, d) for j in range(1, d)]))
    report = structure_check("cyclic_points", dim)
    assert not report.passed and report.deviation > 0.5


def test_structure_check_rejects_unknown_id():
    with pytest.raises(ValueError):
        structure_check("associativity_of_tea", 3)
