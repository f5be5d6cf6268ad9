"""Turn and PhaseVector arithmetic.

Oracles here are plain Fraction/float arithmetic done inline, so every
assertion is independent of the module under test.
"""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quditzx.phases import (
    TAU,
    PhaseVector,
    Turn,
    check_size,
    cyclic_value,
    cyclic_vector,
    phase_add,
    phase_invert,
    phase_neg_transform,
)


# ---------------------------------------------------------------------------
# Turn construction and normalization

def test_exact_reduces_modulo_one_turn():
    assert Turn.exact(5, 3) == Turn.exact(2, 3)
    assert Turn.exact(-1, 3) == Turn.exact(2, 3)
    assert Turn.exact(4, 2) == Turn.exact(0)
    assert Turn.exact(6, 4).fraction == Fraction(1, 2)


def test_exact_radians():
    assert Turn.exact(1, 2).radians == math.pi
    assert Turn.exact(1, 4).radians == math.pi / 2
    assert Turn.zero().radians == 0.0


def test_approx_wraps_into_one_turn():
    t = Turn.approx(TAU + 0.5)
    assert not t.is_exact
    assert abs(t.radians - 0.5) < 1e-12
    t = Turn.approx(-0.25)
    assert abs(t.radians - (TAU - 0.25)) < 1e-12


def test_approx_snaps_full_turn_to_zero():
    assert Turn.approx(TAU).radians == 0.0
    assert Turn.approx(0.0).radians == 0.0
    assert Turn.approx(5 * TAU).is_zero
    # Values clearly inside the interval are not snapped.
    assert Turn.approx(1e-6).radians == pytest.approx(1e-6)


def test_fraction_property_requires_exactness():
    assert Turn.exact(2, 6).fraction == Fraction(1, 3)
    with pytest.raises(ValueError):
        _ = Turn.approx(1.0).fraction


def test_exactness_is_contagious_under_addition():
    a = Turn.exact(1, 3)
    b = Turn.exact(1, 2)
    assert (a + b).is_exact
    assert (a + b).fraction == Fraction(5, 6)
    mixed = a + Turn.approx(0.5)
    assert not mixed.is_exact
    assert abs(mixed.radians - (TAU / 3 + 0.5)) < 1e-12


def test_subtraction_and_negation():
    a = Turn.exact(1, 4)
    b = Turn.exact(3, 4)
    assert a - b == Turn.exact(1, 2)
    assert -a == Turn.exact(3, 4)
    assert (-Turn.approx(1.0)).radians == pytest.approx(TAU - 1.0)


def test_exact_and_approx_never_compare_equal():
    assert Turn.exact(1, 2) != Turn.approx(math.pi)
    assert Turn.exact(1, 2) == Turn.exact(2, 4)
    assert hash(Turn.exact(1, 2)) == hash(Turn.exact(2, 4))


def test_str_forms():
    assert str(Turn.exact(0)) == "0"
    assert str(Turn.exact(1, 3)) == "1/3"
    assert str(Turn.approx(1.5)).endswith("rad")


def test_turn_json_round_trip():
    for t in (Turn.exact(2, 7), Turn.zero(), Turn.approx(2.5)):
        assert Turn.from_json(t.to_json()) == t
    assert Turn.exact(2, 7).to_json() == {"exact": [2, 7]}
    assert Turn.approx(2.5).to_json() == {"approx": 2.5}
    with pytest.raises(ValueError):
        Turn.from_json({"neither": 1})
    with pytest.raises(ValueError):
        Turn.from_json("1/3")


def test_turn_json_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        Turn.from_json({"exact": [1, 0]})


@pytest.mark.parametrize("rad", [math.nan, math.inf, -math.inf])
def test_turn_json_rejects_non_finite_angles(rad):
    with pytest.raises(ValueError, match="not finite"):
        Turn.from_json({"approx": rad})


@given(st.integers(-50, 50), st.integers(1, 40), st.integers(-50, 50),
       st.integers(1, 40))
def test_exact_addition_matches_fraction_arithmetic(n1, d1, n2, d2):
    got = Turn.exact(n1, d1) + Turn.exact(n2, d2)
    assert got.fraction == (Fraction(n1, d1) + Fraction(n2, d2)) % 1


_DENOMINATORS = st.integers(-60, 60).filter(bool)


@given(st.integers(-10 ** 6, 10 ** 6), _DENOMINATORS,
       st.integers(-10 ** 6, 10 ** 6), _DENOMINATORS)
def test_exact_turns_match_fraction_arithmetic(n1, d1, n2, d2):
    # Negative and unreduced denominators included; Fraction is the oracle.
    f1, f2 = Fraction(n1, d1) % 1, Fraction(n2, d2) % 1
    t1, t2 = Turn.exact(n1, d1), Turn.exact(n2, d2)
    assert (t1.fraction, t2.fraction) == (f1, f2)
    assert (t1 + t2).fraction == (f1 + f2) % 1
    assert (t1 - t2).fraction == (f1 - f2) % 1
    assert (-t1).fraction == -f1 % 1
    assert (t1 == t2) == (f1 == f2)
    assert t1 == Turn.exact(3 * n1, 3 * d1) == Turn.from_fraction(f1)
    assert hash(t1) == hash(Turn.exact(3 * n1, 3 * d1))
    assert (t1 + t2 - t2 == t1) and hash(t1 + t2 - t2) == hash(t1)
    assert str(t1) == ("0" if f1 == 0 else f"{f1.numerator}/{f1.denominator}")
    assert repr(t1) == f"Turn.exact({f1.numerator}, {f1.denominator})"
    assert t1.to_json() == {"exact": [f1.numerator, f1.denominator]}
    assert Turn.from_json({"exact": [n1, d1]}) == t1
    assert Turn.from_json(t1.to_json()) == t1
    assert t1.radians == float(f1) * TAU
    assert t1.is_zero == (f1 == 0) and t1 != Turn.approx(t1.radians)


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_approx_radians_stay_in_range(r):
    rad = Turn.approx(r).radians
    assert 0.0 <= rad < TAU
    # Same angle up to full turns.
    assert abs(math.remainder(rad - r, TAU)) < 1e-9


# ---------------------------------------------------------------------------
# PhaseVector

def test_phase_vector_needs_dim_minus_one_entries():
    with pytest.raises(ValueError):
        PhaseVector(3, [Turn.zero()])
    with pytest.raises(ValueError):
        PhaseVector(1, [])
    pv = PhaseVector(4, [Turn.exact(1, 4)] * 3)
    assert pv.dim == 4 and len(pv) == 3


def test_phase_vector_coerces_fractions_and_floats_as_turns():
    pv = PhaseVector(3, [Fraction(1, 3), 0.25])
    assert pv.alpha(1) == Turn.exact(1, 3)
    # A bare float is a value in turns, not radians.
    assert not pv.alpha(2).is_exact
    assert abs(pv.alpha(2).radians - TAU / 4) < 1e-12
    with pytest.raises(TypeError):
        PhaseVector(3, ["1/3", 0])


def test_alpha_indexing_convention():
    pv = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(2, 3)])
    assert pv.alpha(0) == Turn.zero()
    assert pv.alpha(1) == Turn.exact(1, 3)
    assert pv.alpha(2) == Turn.exact(2, 3)
    # Indices reduce mod D.
    assert pv.alpha(3) == Turn.zero()
    assert pv.alpha(-1) == Turn.exact(2, 3)


def test_radians_full_prepends_zero():
    pv = PhaseVector(3, [Turn.exact(1, 4), Turn.exact(1, 2)])
    assert pv.radians_full() == [0.0, TAU / 4, TAU / 2]


def test_phase_vector_group_operations():
    a = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(2, 3)])
    b = PhaseVector(3, [Turn.exact(2, 3), Turn.exact(2, 3)])
    assert phase_add(a, b) == PhaseVector(3, [Turn.zero(), Turn.exact(1, 3)])
    assert a + b == phase_add(a, b)
    assert phase_invert(a) == PhaseVector(3, [Turn.exact(2, 3),
                                              Turn.exact(1, 3)])
    assert -a == phase_invert(a)
    assert a + (-a) == PhaseVector.zero(3)
    with pytest.raises(ValueError):
        phase_add(a, PhaseVector.zero(4))


def test_phase_vector_json_round_trip():
    pv = PhaseVector(4, [Turn.exact(1, 4), Turn.approx(1.0), Turn.zero()])
    assert PhaseVector.from_json(4, pv.to_json()) == pv


# ---------------------------------------------------------------------------
# The cyclic-shift action on phase vectors

def test_neg_transform_zero_is_identity():
    pv = PhaseVector(4, [Turn.exact(1, 5), Turn.exact(2, 5), Turn.exact(3, 5)])
    assert phase_neg_transform(pv, 0) == pv


def test_neg_transform_matches_componentwise_formula():
    pv = PhaseVector(4, [Turn.exact(1, 8), Turn.exact(5, 8), Turn.exact(1, 2)])
    k = 2
    got = phase_neg_transform(pv, k)
    for i in range(1, 4):
        assert got.alpha(i) == pv.alpha((k + i) % 4) - pv.alpha(k)


def test_neg_transform_rejects_out_of_range_k():
    pv = PhaseVector.zero(3)
    with pytest.raises(ValueError):
        phase_neg_transform(pv, 3)
    with pytest.raises(ValueError):
        phase_neg_transform(pv, -1)


@given(st.integers(2, 6), st.data())
def test_neg_transforms_compose_as_a_cyclic_group_action(dim, data):
    entries = [
        Turn.exact(data.draw(st.integers(0, 11), label=f"a{j}"), 12)
        for j in range(dim - 1)
    ]
    pv = PhaseVector(dim, entries)
    k = data.draw(st.integers(0, dim - 1), label="k")
    l = data.draw(st.integers(0, dim - 1), label="l")
    twice = phase_neg_transform(phase_neg_transform(pv, k), l)
    assert twice == phase_neg_transform(pv, (k + l) % dim)


# ---------------------------------------------------------------------------
# Cyclic phase vectors (the classical points of the torus)

def test_cyclic_vector_entries():
    assert cyclic_vector(3, 1) == PhaseVector(3, [Turn.exact(1, 3),
                                                  Turn.exact(2, 3)])
    assert cyclic_vector(3, 0).is_zero
    assert cyclic_vector(4, 2) == PhaseVector(4, [Turn.exact(1, 2),
                                                  Turn.zero(),
                                                  Turn.exact(1, 2)])


def test_cyclic_vector_round_trip():
    for dim in range(2, 7):
        for t in range(dim):
            assert cyclic_value(cyclic_vector(dim, t)) == t


def test_cyclic_value_rejects_non_cyclic_vectors():
    assert cyclic_value(PhaseVector(3, [Turn.exact(1, 5),
                                        Turn.exact(2, 5)])) is None
    assert cyclic_value(PhaseVector.from_radians(3, [TAU / 3,
                                                     2 * TAU / 3])) is None


@st.composite
def _near_cyclic_vectors(draw):
    """A cyclic vector at D = 2..9 with up to three entries replaced by an
    exact turn of small denominator, which may be the same turn, an
    approximate turn, or the approximate twin of the entry."""
    dim = draw(st.integers(2, 9))
    turns = list(cyclic_vector(dim, draw(st.integers(0, dim - 1))))
    for j in draw(st.lists(st.integers(0, dim - 2), max_size=3)):
        turns[j] = draw(st.one_of(
            st.builds(Turn.exact, st.integers(-20, 20),
                      st.integers(1, 2 * dim)),
            st.builds(Turn.approx, st.floats(0, TAU)),
            st.just(Turn.approx(turns[j].radians))))
    return PhaseVector(dim, turns)


@given(_near_cyclic_vectors())
def test_cyclic_value_matches_its_definition(pv):
    want = next((t for t in range(pv.dim) if pv == cyclic_vector(pv.dim, t)),
                None)
    assert cyclic_value(pv) == want


def test_cyclic_vectors_form_a_subgroup():
    for dim in (2, 3, 5):
        for s in range(dim):
            for t in range(dim):
                assert (cyclic_vector(dim, s) + cyclic_vector(dim, t)
                        == cyclic_vector(dim, (s + t) % dim))


# ---------------------------------------------------------------------------
# check_size: one rule for every size cap

_SIZE = "{base}^{power} = {size} of {cap}"


@pytest.mark.parametrize("base, power, kw", [
    (2, 24, {}), (3, 4, {"times": 2}), (3, 4, {"times": 2, "plus": 64})])
def test_check_size_passes_at_its_cap_and_refuses_above_it(base, power, kw):
    size = kw.get("times", 1) * (base ** power + kw.get("plus", 0))
    check_size(base, power, size, "{9}", **kw)    # the template is unread
    with pytest.raises(ValueError, match=f"^{size} of {size - 1}$"):
        check_size(base, power, size - 1, "{size} of {cap}", **kw)


@pytest.mark.parametrize("power, named", [
    (13, "10^13 = 10000000000000"),      # 14 digits: written out
    (14, "10^14"),                       # 15 digits: named, not repeated
])
def test_check_size_names_a_size_of_15_or_more_digits(power, named):
    with pytest.raises(ValueError) as exc:
        check_size(10, power, 1, _SIZE)
    assert str(exc.value) == f"{named} of 1"
    with pytest.raises(ValueError) as exc:
        check_size(10, power, 1, "{size}", times=7, plus=3)
    assert str(exc.value) == (f"7*(10^{power} + 3)" if power == 14
                              else str(7 * (10 ** power + 3)))


def test_check_size_names_a_first_power_as_its_base():
    with pytest.raises(ValueError) as exc:
        check_size(10 ** 14, 1, 1, "{size}", times=7)
    assert str(exc.value) == f"7*{10 ** 14}"


def test_check_size_takes_bases_zero_and_one_exactly():
    start = time.perf_counter()
    check_size(0, 10 ** 12, 0, "")
    check_size(1, 10 ** 12, 1, "")
    with pytest.raises(ValueError, match="^1 of 0$"):
        check_size(1, 10 ** 12, 0, "{size} of {cap}")
    assert time.perf_counter() - start < 0.5


def test_check_size_refuses_a_huge_power_at_once():
    start = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        check_size(3, 10 ** 12, 2 ** 24, "{0}: " + _SIZE, "node 0")
    assert time.perf_counter() - start < 0.5
    assert str(exc.value) == "node 0: 3^1000000000000 of 16777216"
