"""Tests for the epistemically restricted phase-space theory.

Oracles used here:
  * symplectic products are recomputed from the coefficient formula and
    from the matrix form F^T J G;
  * orthocomplements are checked against brute-force enumeration of all
    points of (Z_d)^{2n};
  * the finite-difference Poisson bracket of linear functionals is
    compared with the symplectic product at every base point;
  * the 1-based label bridge is compared with the relational model's
    fibres and graph states.
"""

from fractions import Fraction
from itertools import product
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditzx import phasespace
from quditzx.phasespace import (
    DualVector,
    EpistemicState,
    OnticPoint,
    SymplecticAffine,
    all_maximal_states,
    apply_transform,
    basis_indicators,
    bracket_table,
    decode_ontic,
    encode_ontic,
    linear_table,
    measure_probabilities,
    orthocomplement,
    phase_space_report,
    poisson_bracket,
    random_symplectic,
    symplectic_form,
    symplectic_product,
)
from quditzx.toyrel import classical_point, phase_state


# ---------------------------------------------------------------------------
# points and dual vectors


def test_ontic_point_reduces_coordinates_mod_d():
    m = OnticPoint(3, (4, -1, 3, 7))
    assert m.coords == (1, 2, 0, 1)
    assert m.n == 2
    assert list(m) == [1, 2, 0, 1]


def test_ontic_point_validation():
    with pytest.raises(ValueError):
        OnticPoint(1, (0, 0))
    with pytest.raises(ValueError):
        OnticPoint(3, (0, 1, 2))  # odd length
    with pytest.raises(ValueError):
        OnticPoint(3, ())


def test_dual_vector_evaluates_linear_functional():
    F = DualVector(5, (2, 3, 1, 4))
    m = OnticPoint(5, (1, 2, 3, 4))
    expected = (2 * 1 + 3 * 2 + 1 * 3 + 4 * 4) % 5
    assert F(m) == expected
    assert F((1, 2, 3, 4)) == expected  # raw tuples work too
    with pytest.raises(ValueError):
        F((1, 2))  # wrong size


def test_dual_vector_validation():
    with pytest.raises(ValueError):
        DualVector(1, (0, 1))
    with pytest.raises(ValueError):
        DualVector(3, (1,))
    assert DualVector(3, (4, -1)).coeffs == (1, 2)


# ---------------------------------------------------------------------------
# symplectic form and product


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_form_block_structure(d, n):
    J = symplectic_form(n, d)
    assert J.shape == (2 * n, 2 * n)
    expected = np.zeros_like(J)
    for j in range(n):
        expected[2 * j, 2 * j + 1] = 1
        expected[2 * j + 1, 2 * j] = d - 1
    assert np.array_equal(J, expected)
    # J^2 = -I, so J is a symplectic structure
    assert np.array_equal((J @ J) % d, (-np.eye(2 * n, dtype=np.int64)) % d)


def test_x_and_p_have_unit_bracket():
    # {X, P} = +1 fixes the sign convention of the whole module.
    assert symplectic_product((1, 0), (0, 1), 3) == 1
    assert symplectic_product((0, 1), (1, 0), 3) == 3 - 1


def test_symplectic_product_matches_matrix_form():
    rng = random.Random(7)
    for d in (2, 3, 5):
        for n in (1, 2):
            J = symplectic_form(n, d)
            for _ in range(20):
                f = [rng.randrange(d) for _ in range(2 * n)]
                g = [rng.randrange(d) for _ in range(2 * n)]
                direct = symplectic_product(f, g, d)
                matrix = int(np.array(f) @ J @ np.array(g)) % d
                assert direct == matrix


def test_symplectic_product_requires_dimension_for_raw_input():
    with pytest.raises(ValueError):
        symplectic_product((1, 0), (0, 1))
    F = DualVector(3, (1, 0))
    assert symplectic_product(F, (0, 1)) == 1  # d taken from the DualVector
    with pytest.raises(ValueError):
        symplectic_product((1, 0), (0, 1, 0, 0), 3)


@given(st.integers(1, 2), st.data())
@settings(max_examples=60, deadline=None)
def test_symplectic_product_is_antisymmetric_and_bilinear(n, data):
    d = data.draw(st.sampled_from([2, 3, 5]))
    coeff = st.integers(0, d - 1)
    f = data.draw(st.tuples(*[coeff] * (2 * n)))
    g = data.draw(st.tuples(*[coeff] * (2 * n)))
    h = data.draw(st.tuples(*[coeff] * (2 * n)))
    c = data.draw(coeff)
    fg = symplectic_product(f, g, d)
    assert symplectic_product(g, f, d) == (-fg) % d
    assert symplectic_product(f, f, d) == 0
    g_plus_ch = tuple((gi + c * hi) % d for gi, hi in zip(g, h))
    assert symplectic_product(f, g_plus_ch, d) \
        == (fg + c * symplectic_product(f, h, d)) % d


# ---------------------------------------------------------------------------
# functional tables and the Poisson bracket


@pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_poisson_bracket_of_linear_functionals_is_symplectic_product(d, n):
    rng = random.Random(d * 10 + n)
    for _ in range(10):
        f = DualVector(d, tuple(rng.randrange(d) for _ in range(2 * n)))
        g = DualVector(d, tuple(rng.randrange(d) for _ in range(2 * n)))
        tf, tg = linear_table(f), linear_table(g)
        want = symplectic_product(f, g)
        for m in product(range(d), repeat=2 * n):
            assert poisson_bracket(tf, tg, m, d) == want


def _bracket_at(F_table, G_table, m, d):
    """Per-point finite-difference bracket, one shifted lookup at a time:
    the oracle for bracket_table."""
    def shifted(table, pos):
        idx = list(m)
        idx[pos] = (idx[pos] + 1) % d
        return int(table[tuple(idx)])

    f0, g0 = int(F_table[m]), int(G_table[m])
    total = 0
    for x in range(0, len(m), 2):
        total += (shifted(F_table, x) - f0) * (shifted(G_table, x + 1) - g0)
        total -= (shifted(F_table, x + 1) - f0) * (shifted(G_table, x) - g0)
    return total % d


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_bracket_table_matches_the_per_point_oracle(d, n, seed):
    # arbitrary functionals, not only linear ones, so that every forward
    # difference is exercised
    rng = np.random.default_rng(seed)
    tf, tg = rng.integers(0, d, size=(2, ) + (d,) * (2 * n))
    table = bracket_table(tf, tg, d)
    assert table.shape == tf.shape
    for m in product(range(d), repeat=2 * n):
        assert table[m] == _bracket_at(tf, tg, m, d)
    m = tuple(int(c) for c in rng.integers(0, d, size=2 * n))
    assert poisson_bracket(tf, tg, m, d) == _bracket_at(tf, tg, m, d)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_linear_table_matches_the_functional_at_every_point(d, n, data):
    F = DualVector(d, data.draw(st.tuples(*[st.integers(0, d - 1)] * (2 * n))))
    table = linear_table(F)
    assert table.shape == (d,) * (2 * n)
    for m in product(range(d), repeat=2 * n):
        assert table[m] == F(m)


def test_linear_table_shape_and_values():
    F = DualVector(3, (1, 2))
    table = linear_table(F)
    assert table.shape == (3, 3)
    for x in range(3):
        for p in range(3):
            assert table[x, p] == (x + 2 * p) % 3


def test_poisson_bracket_validation():
    F = DualVector(3, (1, 0))
    t = linear_table(F)
    with pytest.raises(ValueError):
        poisson_bracket(t, np.zeros((3, 3, 3)), (0, 0), 3)
    with pytest.raises(ValueError):
        poisson_bracket(t, t, (0, 0, 0), 3)
    with pytest.raises(ValueError):
        bracket_table(np.zeros((3,) * 3), np.zeros((3,) * 3), 3)


# ---------------------------------------------------------------------------
# orthocomplements


def _brute_orthocomplement(V, d, n):
    """All points annihilated by every variable in V."""
    duals = [DualVector(d, tuple(f)) for f in V]
    return sorted(m for m in product(range(d), repeat=2 * n)
                  if all(F(m) == 0 for F in duals))


def _span(basis, d, n):
    points = set()
    for combo in product(range(d), repeat=len(basis)):
        vec = [0] * (2 * n)
        for c, b in zip(combo, basis):
            for i, entry in enumerate(b):
                vec[i] = (vec[i] + c * entry) % d
        points.add(tuple(vec))
    return sorted(points)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_orthocomplement_matches_brute_force(d):
    cases = [
        ([(1, 0)], 1),
        ([(0, 1)], 1),
        ([(1, 1)], 1),
        ([], 1),
        ([(1, 0, 0, 0)], 2),
        ([(1, 0, 0, 0), (0, 0, 1, 0)], 2),
        ([(1, 0, 0, 0), (2 % d, 0, 0, 0)], 2),  # dependent rows
    ]
    for V, n in cases:
        basis = orthocomplement(V, d, n)
        assert _span(basis, d, n) == _brute_orthocomplement(V, d, n)


def test_orthocomplement_requires_prime_dimension():
    with pytest.raises(ValueError):
        orthocomplement([(1, 0)], 4, 1)


def test_orthocomplement_of_empty_set_is_everything():
    basis = orthocomplement([], 3, 2)
    assert len(_span(basis, 3, 2)) == 3 ** 4


# ---------------------------------------------------------------------------
# epistemic states


def test_state_support_is_the_coset_of_known_variables():
    s = EpistemicState(3, 1, [(1, 0)], (2, 0))  # X known to equal 2
    assert s.support() == [(2, 0), (2, 1), (2, 2)]
    assert s.valuation((1, 0)) == 2


def test_known_variables_are_constant_on_the_support():
    rng = random.Random(11)
    for d in (3, 5):
        for _ in range(10):
            a, b = rng.randrange(d), rng.randrange(d)
            if (a, b) == (0, 0):
                continue
            v_rep = (rng.randrange(d), rng.randrange(d))
            s = EpistemicState(d, 1, [(a, b)], v_rep)
            F = DualVector(d, (a, b))
            values = {F(m) for m in s.support()}
            assert values == {s.valuation(F)}


def test_distribution_is_uniform_and_sums_to_exactly_one():
    s = EpistemicState(3, 2, [(1, 0, 0, 0)], (1, 2, 0, 1))
    mu = s.distribution()
    assert len(mu) == 3 ** 3  # one constraint on a 4-dim space
    assert all(w == Fraction(1, 27) for w in mu.values())
    assert sum(mu.values()) == 1
    assert s.distribution() == mu


def test_conjugate_variables_cannot_be_jointly_known():
    with pytest.raises(ValueError, match="not isotropic"):
        EpistemicState(3, 1, [(1, 0), (0, 1)], (0, 0))
    # commuting pair on two systems is fine
    EpistemicState(3, 2, [(1, 0, 0, 0), (0, 0, 1, 0)], (0, 0, 0, 0))
    with pytest.raises(ValueError, match="not isotropic"):
        EpistemicState(3, 2, [(1, 0, 0, 0), (0, 1, 0, 0)], (0, 0, 0, 0))


def test_state_validation():
    with pytest.raises(ValueError):
        EpistemicState(4, 1, [(1, 0)], (0, 0))  # non-prime
    with pytest.raises(ValueError):
        EpistemicState(3, 0, [], ())
    with pytest.raises(ValueError):
        EpistemicState(3, 2, [(1, 0, 0, 0)], (0, 0))  # v_rep too short


def test_states_compare_by_support():
    a = EpistemicState(3, 1, [(1, 0)], (2, 0))
    b = EpistemicState(3, 1, [(2, 0)], (2, 1))  # same line, other data
    c = EpistemicState(3, 1, [(1, 0)], (1, 0))
    assert a == b
    assert a != c
    assert a != "not a state"


def test_state_json_round_trip():
    s = EpistemicState(5, 2, [(1, 0, 2, 0), (0, 0, 1, 0)], (1, 2, 3, 4))
    t = EpistemicState.from_json(s.to_json())
    assert t == s
    assert t.to_json() == s.to_json()


@pytest.mark.parametrize("field, value, message", [
    ("d", 3.5, "d must be an integer, got 3.5"),
    ("n", True, "n must be an integer, got True"),
    ("V", 5, "V must be a list, got 5"),
    ("V", [5], "V row must be a list, got 5"),
    ("V", [[1.5, 0]], "V row entry must be an integer, got 1.5"),
    ("v_rep", [0.9, 0], "v_rep entry must be an integer, got 0.9"),
    ("v_rep", 0, "v_rep must be a list, got 0"),
    # field None: value is the whole object
    (None, {"d": 3, "n": 1}, "state JSON has no 'V' field"),
    (None, [], "state JSON must be an object, got []"),
])
def test_state_json_refuses_bad_fields(field, value, message):
    # A float or bool is refused, not truncated, and a missing field or a
    # record that is not an object is refused, each with one line naming
    # the field.
    obj = EpistemicState(3, 1, [(1, 0)], (2, 0)).to_json_dict()
    if field is None:
        obj = value
    else:
        obj[field] = value
    with pytest.raises(ValueError) as err:
        EpistemicState.from_json_dict(obj)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# label bridge to the relational model


def test_labels_match_relational_fibres():
    d = 3
    for t in range(d):
        x_known = EpistemicState(d, 1, [(1, 0)], (t, 0))
        assert x_known.labels() == classical_point("Z", d, t).support()
        p_known = EpistemicState(d, 1, [(0, 1)], (0, t))
        assert p_known.labels() == classical_point("X", d, t).support()


def test_labels_match_relational_graph_states():
    # knowing X + b*P = t is the graph p = b^{-1} t - b^{-1} x
    d = 3
    for b in (1, 2):
        sigma = pow(b, -1, d)
        for t in range(d):
            s = EpistemicState(d, 1, [(1, b)], (t, 0))
            expected = phase_state("Z", d, sigma, (sigma * t) % d)
            assert s.labels() == expected.support()


def test_encode_ontic_formula_and_round_trip():
    assert encode_ontic(OnticPoint(3, (0, 0))) == 1
    assert encode_ontic(OnticPoint(3, (1, 2))) == 6
    assert encode_ontic(OnticPoint(3, (2, 2))) == 9
    for d in (2, 3):
        for n in (1, 2, 3):
            for label in range(1, (d * d) ** n + 1):
                m = decode_ontic(label, d, n)
                assert m.n == n
                assert encode_ontic(m, n) == label


def test_encode_ontic_is_big_endian_in_the_first_system():
    m = OnticPoint(3, (1, 0, 0, 2))  # system 1 = (1,0), system 2 = (0,2)
    assert encode_ontic(m, 2) == (1 * 3 + 0) * 9 + (0 * 3 + 2) + 1


def test_bridge_validation():
    with pytest.raises(TypeError):
        encode_ontic((0, 0))
    with pytest.raises(ValueError):
        encode_ontic(OnticPoint(3, (0, 0)), 2)
    with pytest.raises(ValueError):
        encode_ontic(OnticPoint(3, (0,) * 8), 4)
    with pytest.raises(ValueError):
        decode_ontic(0, 3, 1)
    with pytest.raises(ValueError):
        decode_ontic(10, 3, 1)
    with pytest.raises(ValueError):
        decode_ontic(1, 3, 4)


# ---------------------------------------------------------------------------
# affine symplectic transformations


def test_symplectic_affine_rejects_non_symplectic_matrices():
    with pytest.raises(ValueError, match="not symplectic"):
        SymplecticAffine(3, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        SymplecticAffine(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        SymplecticAffine(3, np.eye(2, dtype=int), a=(1, 2, 3))


def test_identity_transform_fixes_points():
    t = SymplecticAffine.identity(5, 2)
    m = OnticPoint(5, (1, 2, 3, 4))
    assert t(m) == (1, 2, 3, 4)
    assert t((0, 1, 2, 3)) == (0, 1, 2, 3)


def test_compose_is_function_composition():
    rng = random.Random(3)
    d, n = 5, 2
    for _ in range(10):
        t1 = random_symplectic(d, n, rng)
        t2 = random_symplectic(d, n, rng)
        both = t1.compose(t2)
        for _ in range(5):
            m = tuple(rng.randrange(d) for _ in range(2 * n))
            assert both(m) == t1(t2(m))
    with pytest.raises(ValueError):
        random_symplectic(3, 1, rng).compose(random_symplectic(3, 2, rng))


def test_random_symplectic_satisfies_the_defining_relation():
    rng = random.Random(123)
    for d in (3, 5):
        for n in (1, 2):
            J = symplectic_form(n, d)
            for _ in range(25):
                t = random_symplectic(d, n, rng)
                assert np.array_equal((t.S.T @ J @ t.S) % d, J)


@pytest.mark.parametrize("d, order", [(3, 24), (5, 120)])
def test_random_symplectic_reaches_the_whole_group(d, order):
    # Sp(2, d) = SL(2, d) has d(d^2 - 1) elements; products of random
    # transvections reach all of them
    rng = random.Random(d)
    J = symplectic_form(1, d)
    seen = set()
    for _ in range(2000):
        S = random_symplectic(d, 1, rng).S
        assert np.array_equal((S.T @ J @ S) % d, J)
        seen.add(S.tobytes())
    assert len(seen) == order


def test_random_symplectic_is_seed_deterministic():
    a = random_symplectic(3, 2, random.Random(42))
    b = random_symplectic(3, 2, random.Random(42))
    assert np.array_equal(a.S, b.S)
    assert np.array_equal(a.a, b.a)


def test_transforms_map_supports_pointwise():
    rng = random.Random(99)
    for d in (3, 5):
        for n in (1, 2):
            for _ in range(10):
                coeffs = tuple(rng.randrange(d) for _ in range(2 * n))
                if all(c == 0 for c in coeffs):
                    coeffs = (1,) + (0,) * (2 * n - 1)
                v_rep = tuple(rng.randrange(d) for _ in range(2 * n))
                s = EpistemicState(d, n, [coeffs], v_rep)
                t = random_symplectic(d, n, rng)
                out = apply_transform(s, t)
                assert sorted(t(m) for m in s.support()) == out.support()
                # the image is again a valid state of the same knowledge size
                assert len(out.support()) == len(s.support())


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.data())
@settings(max_examples=40, deadline=None)
def test_apply_transform_matches_the_pointwise_image(d, n, data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    # the x-columns of a symplectic matrix are isotropic
    S0 = random_symplectic(d, n, rng).S
    V = [tuple(S0[:, 2 * j]) for j in range(data.draw(st.integers(0, n)))]
    s = EpistemicState(d, n, V, [rng.randrange(d) for _ in range(2 * n)])
    t = random_symplectic(d, n, rng)
    assert apply_transform(s, t).support() \
        == sorted(t(m) for m in s.support())


def test_apply_transform_checks_the_image():
    # a map that is not symplectic sends the coset elsewhere than the new
    # known variables say, and the image check catches it
    s = EpistemicState(3, 1, [(1, 0)], (0, 0))
    t = SymplecticAffine.identity(3, 1)
    t.S = np.array([[1, 0], [0, 0]])
    with pytest.raises(AssertionError, match="pointwise image"):
        apply_transform(s, t)


def test_transform_preserves_number_of_known_variables():
    s = EpistemicState(3, 1, [(1, 0)], (1, 0))
    t = SymplecticAffine(3, [[0, 2], [1, 0]], a=(1, 1))  # quarter rotation
    out = apply_transform(s, t)
    assert len(out.V) == 1
    F = out.V[0]
    values = {F(m) for m in out.support()}
    assert len(values) == 1  # still sharply known


def test_apply_transform_size_mismatch():
    s = EpistemicState(3, 1, [(1, 0)], (0, 0))
    with pytest.raises(ValueError):
        apply_transform(s, SymplecticAffine.identity(3, 2))
    with pytest.raises(ValueError):
        apply_transform(s, SymplecticAffine.identity(5, 1))


# ---------------------------------------------------------------------------
# measurements


def test_measuring_a_known_variable_is_deterministic():
    d = 3
    s = EpistemicState(d, 1, [(1, 0)], (2, 0))  # X = 2 sharply
    probs = measure_probabilities(s.distribution(),
                                  basis_indicators((1, 0), d, 1))
    assert probs == [Fraction(0), Fraction(0), Fraction(1)]


def test_measuring_the_conjugate_variable_is_uniform():
    d = 5
    s = EpistemicState(d, 1, [(1, 0)], (2, 0))
    probs = measure_probabilities(s.distribution(),
                                  basis_indicators((0, 1), d, 1))
    assert probs == [Fraction(1, d)] * d


def test_measurement_probabilities_are_exact_and_sum_to_one():
    rng = random.Random(17)
    for d in (3, 5):
        for _ in range(10):
            coeffs = tuple(rng.randrange(d) for _ in range(2))
            if coeffs == (0, 0):
                coeffs = (0, 1)
            s = EpistemicState(d, 1, [coeffs],
                               (rng.randrange(d), rng.randrange(d)))
            obs = tuple(rng.randrange(d) for _ in range(2))
            if obs == (0, 0):
                obs = (1, 0)
            probs = measure_probabilities(s.distribution(),
                                          basis_indicators(obs, d, 1))
            assert all(isinstance(p, Fraction) for p in probs)
            assert sum(probs) == 1
            # deterministic iff obs commutes with the known variable
            if symplectic_product(coeffs, obs, d) == 0:
                assert sorted(probs) == [0] * (d - 1) + [1]
            else:
                assert probs == [Fraction(1, d)] * d


@given(st.sampled_from([2, 3, 5]), st.integers(1, 2),
       st.sampled_from([10, 10 ** 6]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_measure_probabilities_matches_the_per_point_fraction_sum(
        d, n, bound, seed):
    # non-uniform weights on a random subset of (Z_d)^{2n}; at the larger
    # bound the common denominator outgrows int64
    rng = random.Random(seed)
    points = [m for m in product(range(d), repeat=2 * n)
              if rng.random() < 0.6] or [(0,) * (2 * n)]
    raw = [Fraction(rng.randint(1, bound), rng.randint(1, bound))
           for _ in points]
    mu = {m: r / sum(raw) for m, r in zip(points, raw)}
    outcomes = rng.randint(1, 4)
    labels = np.array([rng.randrange(outcomes) for _ in
                       range(d ** (2 * n))]).reshape((d,) * (2 * n))
    indicators = [(labels == k).astype(np.int64) for k in range(outcomes)]
    want = [sum((w * int(x[m]) for m, w in mu.items()), Fraction(0))
            for x in indicators]
    got = measure_probabilities(mu, indicators)
    assert got == want
    assert all(type(p) is Fraction for p in got)


@given(st.lists(st.tuples(st.integers(0, 10 ** 20), st.integers(1, 10 ** 20)),
                min_size=1, max_size=30), st.booleans())
@settings(max_examples=100, deadline=None)
def test_normalization_check_is_the_exact_fraction_sum(raw, normalize):
    # Weights with unrelated denominators, past int64; normalized ones sum
    # to exactly 1, and the others almost never do.
    weights = [Fraction(p, q) for p, q in raw]
    total = sum(weights, Fraction(0))
    if normalize and total:
        weights = [w / total for w in weights]
    mu = dict(enumerate(weights))
    assert phasespace._sums_to_one(mu) == (sum(weights, Fraction(0)) == 1)


def test_normalization_check_sees_one_part_in_the_denominator():
    # Off by 1/(3 * 10^30) from 1: a float sum would not notice.
    mu = {0: Fraction(1, 3), 1: Fraction(1, 3),
          2: Fraction(1, 3) - Fraction(1, 3 * 10 ** 30)}
    assert not phasespace._sums_to_one(mu)
    assert float(sum(mu.values())) == 1.0
    assert phasespace._sums_to_one(EpistemicState(3, 2, [(1, 0, 0, 0)],
                                                  (1, 2, 0, 1)).distribution())


def test_measure_probabilities_validates_partitions():
    d = 3
    mu = EpistemicState(d, 1, [(1, 0)], (0, 0)).distribution()
    good = basis_indicators((1, 0), d, 1)
    with pytest.raises(ValueError):
        measure_probabilities(mu, [])
    with pytest.raises(ValueError):
        measure_probabilities(mu, good[:2])  # does not cover everything
    with pytest.raises(ValueError):
        measure_probabilities(mu, [2 * good[0], good[1], good[2]])
    with pytest.raises(ValueError):
        measure_probabilities(mu, [good[0], np.ones((d, d, d), dtype=int)])


def _assert_stacked_counts_match(d, states):
    # One _outcome_hits call per coset size over every measured variable of
    # a system: each state's hits, summed over its coset and divided by its
    # size, must be measure_probabilities of its distribution, exactly.
    families = [(0, 1)] + [(1, b) for b in range(d)]
    indicators = [basis_indicators(F, d, 1) for F in families]
    for size in {len(s.support()) for s in states}:
        group = [s for s in states if len(s.support()) == size]
        hits = phasespace._outcome_hits(
            indicators, np.stack([s._points() for s in group]), batch=1)
        counts = hits.reshape(len(families), d, len(group), size).sum(axis=3)
        for f, table in enumerate(indicators):
            for j, s in enumerate(group):
                assert ([Fraction(c, size) for c in counts[f, :, j].tolist()]
                        == measure_probabilities(s.distribution(), table))


@st.composite
def _states_at_one_d(draw):
    # A known variable of (0, 0) stands for knowing nothing: the state is
    # uniform over the whole plane, a coset of d^2 points.
    d = draw(st.sampled_from([3, 5, 7]))
    point = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    states = []
    for _ in range(draw(st.integers(1, 5))):
        F = draw(point)
        states.append(EpistemicState(d, 1, [F] if any(F) else [],
                                     draw(point)))
    return d, states


@given(_states_at_one_d())
@settings(max_examples=25, deadline=None)
def test_stacked_outcome_counts_equal_measure_probabilities(case):
    _assert_stacked_counts_match(*case)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_stacked_counts_of_every_maximal_state(d):
    _assert_stacked_counts_match(d, all_maximal_states(d))


def test_stacked_indicators_are_checked_per_measurement():
    good = basis_indicators((1, 0), 3, 1)
    points = np.zeros((1, 2), dtype=np.int64)
    assert phasespace._outcome_hits([good, good], points, batch=1).shape == \
        (2, 3, 1)
    with pytest.raises(ValueError, match="do not partition"):
        phasespace._outcome_hits([good, [good[0], good[0], good[2]]],
                                 points, batch=1)
    with pytest.raises(ValueError, match="different shapes"):
        phasespace._outcome_hits([good, good[:2]], points, batch=1)


# ---------------------------------------------------------------------------
# enumeration of maximal states


def test_all_maximal_states_counts_directions_times_valuations():
    states = all_maximal_states(3)
    assert len(states) == 12
    supports = [tuple(s.support()) for s in states]
    assert len(set(supports)) == 12
    assert all(len(s.support()) == 3 for s in states)
    # every phase-space point lies on exactly d + 1 of the lines
    for m in product(range(3), repeat=2):
        hits = sum(m in s.support() for s in states)
        assert hits == 4


def test_all_maximal_states_have_claimed_valuations():
    for s in all_maximal_states(5):
        F = s.V[0]
        values = {F(m) for m in s.support()}
        assert values == {s.valuation(F)}
    with pytest.raises(ValueError):
        all_maximal_states(6)


@given(st.sampled_from([2, 3, 5]), st.data())
@settings(max_examples=40, deadline=None)
def test_round_trip_encode_decode_property(d, data):
    n = data.draw(st.integers(1, 3))
    coords = data.draw(st.tuples(*[st.integers(0, d - 1)] * (2 * n)))
    m = OnticPoint(d, coords)
    assert decode_ontic(encode_ontic(m, n), d, n) == m


@pytest.mark.parametrize("d, n, cases", [(4, 1, 5), (1, 1, 5), (3, 0, 5),
                                         (3, 1, 0), (3, 1, -3)])
def test_phase_space_report_rejects_what_it_cannot_check(d, n, cases):
    with pytest.raises(ValueError, match="prime d, n >= 1 and cases >= 1"):
        phase_space_report(d, n, cases=cases)


@pytest.mark.parametrize("d, n, cases, size", [
    (3, 50, 1, "1*3^100"), (3, 1, 100_000_000, "100000000*3^2"),
    (1_000_000_007, 1, 1, "1*1000000007^2"), (2, 9, 1, "1*2^18"),
    (3, 10 ** 12, 1, "1*3^2000000000000"), (2, 1, 3856, "3856*2^2")])
def test_phase_space_report_refuses_work_above_its_cap(d, n, cases, size):
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        phase_space_report(d, n, cases=cases)
    assert time.perf_counter() - start < 1.0
    message = str(exc.value)
    assert "\n" not in message
    for part in (f"d={d}", f"n={n}", f"cases={cases}",
                 f"{size} + 64*{cases}", "262144"):
        assert part in message


@pytest.mark.parametrize("n", [10 ** 14, 10 ** 4300 - 1])
def test_phase_space_report_refuses_an_n_of_15_digits_unprinted(n):
    # 2n may have more digits than Python prints; the line names d and
    # the cap instead.
    with pytest.raises(ValueError) as exc:
        phase_space_report(3, n, cases=1)
    assert str(exc.value) == (
        "the phase-space battery at d=3 refuses an n of 15 or more digits: "
        "cases*d^(2n) point evaluations are above its cap of 262144")


@pytest.mark.parametrize("d, n, cases, refusal", [
    (3, 10 ** 5000, 1, "the phase-space battery at d=3 refuses an n"),
    (3, 1, 10 ** 5000,
     "the phase-space battery at d=3 refuses a number of cases"),
    (10 ** 5000, 1, 1, "the phase-space battery refuses a d")],
    ids=["n", "cases", "d"])
def test_phase_space_report_refuses_5001_digits_unprinted(d, n, cases,
                                                          refusal):
    # Python refuses to print an int of more than 4300 digits, so no
    # refusal may print the argument.
    with pytest.raises(ValueError) as exc:
        phase_space_report(d, n, cases=cases)
    assert str(exc.value) == (
        f"{refusal} of 15 or more digits: cases*d^(2n) point evaluations "
        "are above its cap of 262144")


@pytest.mark.parametrize("d, n, cases", [(-10 ** 5000, 1, 1),
                                         (3, -10 ** 5000, 1),
                                         (3, 1, -10 ** 5000)],
                         ids=["d", "n", "cases"])
def test_phase_space_report_rejects_5001_digits_unprinted(d, n, cases):
    with pytest.raises(ValueError) as exc:
        phase_space_report(d, n, cases=cases)
    message = str(exc.value)
    assert message.startswith("the phase-space battery needs prime d, "
                              "n >= 1 and cases >= 1; got ")
    assert "(15 or more digits)" in message and len(message) < 200


def test_phase_space_report_runs_up_to_its_cap(monkeypatch):
    # The cap is exact: 3^4 + 64 point evaluations pass a cap of 145, and
    # twice that is refused.
    monkeypatch.setattr(phasespace, "_PHASE_SPACE_CAP", 145)
    assert phase_space_report(3, 2, cases=1)["passed"]
    with pytest.raises(ValueError,
                       match="2\\*3\\^4 \\+ 64\\*2 point evaluations"):
        phase_space_report(3, 2, cases=2)


def test_phase_space_report_is_seed_deterministic():
    first = phase_space_report(5, 2, seed=3, cases=4)
    assert first == phase_space_report(5, 2, seed=3, cases=4)
    assert first["passed"] and len(first["checks"]) == 4
    assert first["checks"][0]["detail"] == "8 states"

