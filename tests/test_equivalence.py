"""Tests for the trit-toy-theory / qutrit-stabilizer equivalence layer.

The layer is supposed to be zero-tolerance: every comparison is exact
rational or exact cyclotomic arithmetic.  These tests re-derive small
oracles with plain complex numbers, check the Z[eta] array kernel against
`Cyclotomic` and against per-entry loops, check the dictionary rows
against the independently built numeric states, require the exhaustive
check battery to come back entirely green, and require it to report the
pinned failures when the dictionary is corrupted on purpose.
"""

import cmath
import dataclasses
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditzx import equivalence, phasespace, toyrel
from quditzx.equivalence import (
    FAMILIES,
    STATE_NAMES,
    Cyclotomic,
    _braket_table,
    _phase_array,
    _zconj,
    _zmul,
    _znorm2,
    build_3spek_states,
    build_dictionary,
    run_equivalence_checks,
)
from quditzx.phases import PhaseVector, Turn, cyclic_vector
from quditzx.semantics import equal_up_to_scalar, phased_state

ETA = cmath.exp(2j * cmath.pi / 3)


# ---------------------------------------------------------------------------
# exact cyclotomic arithmetic


def test_eta_powers_cycle_with_period_three():
    assert Cyclotomic.eta_power(0) == Cyclotomic(1, 0)
    assert Cyclotomic.eta_power(1) == Cyclotomic(0, 1)
    assert Cyclotomic.eta_power(2) == Cyclotomic(-1, -1)
    for k in range(-6, 7):
        assert Cyclotomic.eta_power(k) == Cyclotomic.eta_power(k % 3)


def test_eta_satisfies_its_minimal_polynomial():
    eta = Cyclotomic.eta_power(1)
    one = Cyclotomic(1)
    assert (eta * eta * eta) == one
    assert (one + eta + eta * eta).is_zero()


def test_conjugate_times_self_is_the_norm():
    x = Cyclotomic(Fraction(2, 3), Fraction(-1, 2))
    prod = x * x.conj()
    assert prod.b == 0
    assert prod.a == x.norm2()
    assert x.norm2() >= 0


@given(st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-5, 5), st.integers(-5, 5))
@settings(max_examples=80, deadline=None)
def test_cyclotomic_ops_agree_with_complex_numbers(a1, b1, a2, b2):
    x = Cyclotomic(a1, b1)
    y = Cyclotomic(a2, b2)
    zx = a1 + b1 * ETA
    zy = a2 + b2 * ETA
    assert complex(x + y) == pytest.approx(zx + zy, abs=1e-12)
    assert complex(x - y) == pytest.approx(zx - zy, abs=1e-12)
    assert complex(x * y) == pytest.approx(zx * zy, abs=1e-12)
    assert complex(x.conj()) == pytest.approx(zx.conjugate(), abs=1e-12)
    assert float(x.norm2()) == pytest.approx(abs(zx) ** 2, abs=1e-12)


def test_norm_is_multiplicative():
    x = Cyclotomic(3, -2)
    y = Cyclotomic(-1, 4)
    assert (x * y).norm2() == x.norm2() * y.norm2()


def test_integer_coefficients_stay_integers():
    x = Cyclotomic(3, -2) * Cyclotomic(-1, 4) + Cyclotomic.eta_power(2)
    assert type(x.a) is int and type(x.b) is int
    assert type(x.norm2()) is int
    assert Cyclotomic(0.5, Fraction(1, 3)) == Cyclotomic(Fraction(1, 2),
                                                        Fraction(1, 3))
    assert type(Cyclotomic(0.5).a) is Fraction
    for e in build_dictionary():
        assert all(type(c) is int for x in e.ket for c in (x.a, x.b))


def test_cyclotomic_equality_and_hash():
    assert Cyclotomic(1, 2) == Cyclotomic(Fraction(1), Fraction(2))
    assert Cyclotomic(1, 2) != Cyclotomic(2, 1)
    assert hash(Cyclotomic(1, 2)) == hash(Cyclotomic(Fraction(1), 2))
    assert Cyclotomic(0, 0).is_zero()
    assert not Cyclotomic(0, 1).is_zero()


# ---------------------------------------------------------------------------
# the Z[eta] array kernel against its Cyclotomic oracle


def _cyclotomics(x):
    """An array with a trailing (a, b) axis as nested lists of
    Cyclotomic."""
    if x.ndim == 1:
        return Cyclotomic(int(x[0]), int(x[1]))
    return [_cyclotomics(y) for y in x]


def _inner(e, s):
    """<e|s> = sum conj(e_j) * s_j, one Cyclotomic at a time."""
    out = Cyclotomic(0)
    for ej, sj in zip(e, s):
        out = out + ej.conj() * sj
    return out


def _quantum_phase_matrix(color, u, v):
    """The phase map with phases (u, v) thirds, entry by entry: diagonal
    eta^gamma_j for Z, sum_k eta^((j - m) k + gamma_k) for X."""
    gamma = (0, u, v)
    eta = Cyclotomic.eta_power
    if color == "Z":
        return [[eta(gamma[j]) if j == m else Cyclotomic(0)
                 for m in range(3)] for j in range(3)]
    rows = []
    for j in range(3):
        row = []
        for m in range(3):
            acc = Cyclotomic(0)
            for k in range(3):
                acc = acc + eta((j - m) * k + gamma[k])
            row.append(acc)
        rows.append(row)
    return rows


_z_arrays = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.integers(-10 ** 4, 10 ** 4), min_size=2 * n, max_size=2 * n)).map(
        lambda v: np.array(v, dtype=np.int64).reshape(-1, 2))


@given(_z_arrays, _z_arrays)
@settings(max_examples=80, deadline=None)
def test_z_kernel_agrees_with_cyclotomic(x, y):
    n = min(len(x), len(y))
    x, y = x[:n], y[:n]
    for got, a, b in zip(_cyclotomics(_zmul(x, y)), _cyclotomics(x),
                         _cyclotomics(y)):
        assert got == a * b
    assert _cyclotomics(_zconj(x)) == [a.conj() for a in _cyclotomics(x)]
    assert _znorm2(x).tolist() == [a.norm2() for a in _cyclotomics(x)]


def test_phase_array_equals_the_entrywise_phase_matrix():
    for color in ("Z", "X"):
        for u in range(3):
            for v in range(3):
                got = _phase_array(color, u, v)
                assert got.shape == (3, 3, 2)
                assert got.dtype == np.int64
                assert _cyclotomics(got) == _quantum_phase_matrix(color, u, v)


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.integers(-50, 50), min_size=6 * n, max_size=6 * n)))
@settings(max_examples=60, deadline=None)
def test_braket_table_equals_the_per_pair_inner_product(values):
    kets = np.array(values, dtype=np.int64).reshape(-1, 3, 2)
    table = _braket_table(kets)
    rows = _cyclotomics(kets)
    assert table.shape == (len(rows), len(rows), 2)
    for i, e in enumerate(rows):
        for j, s in enumerate(rows):
            assert _cyclotomics(table[i, j]) == _inner(e, s)


def test_braket_table_of_the_dictionary_kets():
    entries = build_dictionary()
    kets = np.array([[(x.a, x.b) for x in e.ket] for e in entries])
    table = _braket_table(kets)
    for i, e in enumerate(entries):
        for j, s in enumerate(entries):
            assert _cyclotomics(table[i, j]) == _inner(e.ket, s.ket)
        assert table[i, i].tolist() == [e.norm2, 0]


# ---------------------------------------------------------------------------
# the dictionary rows


def test_dictionary_covers_the_twelve_states_in_order():
    entries = build_dictionary()
    assert [e.name for e in entries] == list(STATE_NAMES)
    assert len({e.support for e in entries}) == 12
    for e in entries:
        assert e.family in FAMILIES.keys() or e.family in ("z", "x", "xz",
                                                           "xz2")
        assert f"{e.family}_{e.index}" == e.name


def test_supports_match_the_level_set_table():
    supports = build_3spek_states()
    assert supports["z_0"] == frozenset({1, 2, 3})
    assert supports["z_2"] == frozenset({7, 8, 9})
    assert supports["x_0"] == frozenset({1, 4, 7})
    assert supports["xz_0"] == frozenset({1, 6, 8})
    assert supports["xz_1"] == frozenset({2, 4, 9})
    assert supports["xz2_0"] == frozenset({1, 5, 9})
    assert supports["xz2_2"] == frozenset({3, 4, 8})
    # three labels each, covering 1..9 exactly four times in total
    assert all(len(s) == 3 for s in supports.values())
    counts = {}
    for s in supports.values():
        for label in s:
            counts[label] = counts.get(label, 0) + 1
    assert counts == {k: 4 for k in range(1, 10)}


def test_basis_family_kets_are_scaled_basis_vectors():
    # the X-colored rows of the dictionary must be exactly 3*e_t
    entries = {e.name: e for e in build_dictionary()}
    for t in range(3):
        e = entries[f"z_{t}"]
        assert e.color == "X"
        for j in range(3):
            expected = Cyclotomic(3) if j == t else Cyclotomic(0)
            assert e.ket[j] == expected
        assert e.norm2 == 9


def test_unbiased_family_kets_are_flat_with_norm_three():
    entries = {e.name: e for e in build_dictionary()}
    for name in STATE_NAMES[3:]:
        e = entries[name]
        assert e.color == "Z"
        assert all(x.norm2() == 1 for x in e.ket)
        assert e.norm2 == 3
        assert e.ket[0] == Cyclotomic(1)  # first entry pinned to 1


def test_basis_state_phases_are_cyclic_vectors():
    # |t> lives on the X torus at the cyclic phase vector of parameter -t
    entries = {e.name: e for e in build_dictionary()}
    for t in range(3):
        assert entries[f"z_{t}"].phases == cyclic_vector(3, (-t) % 3)
    # and |1> is the documented exact pair of thirds
    assert entries["z_1"].phases.alpha(1) == Turn.exact(2, 3)
    assert entries["z_1"].phases.alpha(2) == Turn.exact(1, 3)


def test_kets_match_the_numeric_spider_states():
    # each exact ket must be parallel to the independently computed
    # numeric phased state of the same color and phases
    for e in build_dictionary():
        numeric = phased_state(e.color, e.phases)
        exact = np.array([complex(x) for x in e.ket])
        scale = equal_up_to_scalar(exact, numeric, tol=1e-12)
        assert scale is not None
        assert abs(scale) > 1e-9


# The module docstring's printed dictionary, transcribed as literal data
# (phases in thirds of a turn):
#     z_t      <->  X-spider, t * (2/3, 1/3)
#     x_a      <->  Z-spider, a * (1/3, 2/3)
#     (xz)_t   <->  Z-spider, (1/3, 1/3) + t * (1/3, 2/3)
#     (xz^2)_t <->  Z-spider, (2/3, 2/3) + t * (1/3, 2/3)
PRINTED_DICTIONARY = {
    "z_0": ("X", (0, 0)), "z_1": ("X", (2, 1)), "z_2": ("X", (1, 2)),
    "x_0": ("Z", (0, 0)), "x_1": ("Z", (1, 2)), "x_2": ("Z", (2, 1)),
    "xz_0": ("Z", (1, 1)), "xz_1": ("Z", (2, 0)), "xz_2": ("Z", (0, 2)),
    "xz2_0": ("Z", (2, 2)), "xz2_1": ("Z", (0, 1)), "xz2_2": ("Z", (1, 0)),
}


def test_derived_dictionary_matches_the_printed_table():
    entries = build_dictionary()
    assert [e.name for e in entries] == list(PRINTED_DICTIONARY)
    for e in entries:
        color, (u, v) = PRINTED_DICTIONARY[e.name]
        assert e.color == color, e.name
        assert e.phases == PhaseVector(3, [Turn.exact(u, 3),
                                           Turn.exact(v, 3)]), e.name


def test_phi_equals_the_hand_written_torus_map():
    # The 18 values of the table _phi was before it was derived from
    # Weyl rows: Z (sigma + t, sigma + 2t), X (2 sigma + 2t, 2 sigma + t).
    assert [equivalence._phi(color, sigma, t) for color in ("Z", "X")
            for sigma in range(3) for t in range(3)] == [
        (0, 0), (1, 2), (2, 1), (1, 1), (2, 0), (0, 2), (2, 2), (0, 1), (1, 0),
        (0, 0), (2, 1), (1, 2), (2, 2), (1, 0), (0, 1), (1, 1), (0, 2), (2, 0),
    ]


def test_dictionary_refuses_unbiased_points_that_are_not_distinct(
        monkeypatch):
    honest = toyrel.phase_state

    def collapsed(color, D, sigma, t):
        # every X-unbiased point lands on the (0, t) one
        return honest(color, D, 0 if color == "X" else sigma, t)

    monkeypatch.setattr(toyrel, "phase_state", collapsed)
    with pytest.raises(AssertionError, match="the X unbiased points"):
        build_dictionary()


def test_ket_names_are_unique_and_follow_the_legend():
    entries = {e.name: e for e in build_dictionary()}
    assert entries["z_0"].ket_name == "0"
    assert entries["x_0"].ket_name == "plus"
    assert entries["xz_0"].ket_name == "times"
    assert entries["xz2_0"].ket_name == "minus"
    assert len({e.ket_name for e in entries.values()}) == 12


def test_dictionary_entries_are_immutable():
    e = build_dictionary()[0]
    with pytest.raises(AttributeError):
        e.name = "other"


# ---------------------------------------------------------------------------
# hand-computed probability oracles


def _inner_c(e, s):
    return sum((complex(x).conjugate() * complex(y) for x, y in zip(e, s)),
               0j)


def test_born_rule_spot_checks_against_plain_complex_arithmetic():
    entries = {e.name: e for e in build_dictionary()}
    cases = [
        ("z_0", "z_0", Fraction(1)),     # same state
        ("z_0", "z_1", Fraction(0)),     # orthogonal basis states
        ("x_0", "z_0", Fraction(1, 3)),  # unbiased pair
        ("xz_0", "xz_1", Fraction(0)),   # same torus, different phase
        ("xz_0", "xz2_0", Fraction(1, 3)),
    ]
    for effect_name, state_name, want in cases:
        e, s = entries[effect_name], entries[state_name]
        braket = _inner_c(e.ket, s.ket)
        got = abs(braket) ** 2 / (float(e.norm2) * float(s.norm2))
        assert got == pytest.approx(float(want), abs=1e-12)


def test_possibility_matches_support_overlap_for_every_pair():
    # quantum <e|s> is nonzero exactly when the toy supports intersect
    entries = build_dictionary()
    for e in entries:
        for s in entries:
            overlap = bool(e.support & s.support)
            braket = _inner_c(e.ket, s.ket)
            assert (abs(braket) > 1e-9) == overlap, (e.name, s.name)


# ---------------------------------------------------------------------------
# the exhaustive battery


@pytest.fixture(scope="module")
def report():
    return run_equivalence_checks()


def test_battery_reports_the_right_shape(report):
    assert report["dim"] == 3
    assert set(report) == {"dim", "possibilistic", "probabilities",
                           "phaseGroups", "equivariance", "passed"}


def test_possibilistic_agreement_is_total(report):
    assert report["possibilistic"]["pairs"] == 144
    assert report["possibilistic"]["failures"] == []


def test_probabilities_agree_exactly_with_allowed_values(report):
    assert report["probabilities"]["pairs"] == 144
    assert report["probabilities"]["failures"] == []
    assert set(report["probabilities"]["valuesSeen"]) <= {"0", "1/3", "1"}


def test_phase_groups_are_isomorphic(report):
    groups = report["phaseGroups"]
    assert groups["toyGroupLaw"] is True
    assert groups["toyFactors"] == [3, 3]
    assert groups["quantumFactors"] == [3, 3]
    assert groups["dictionaryHomomorphism"] is True
    assert groups["isomorphic"] is True


def test_dictionary_is_equivariant_under_all_phase_maps(report):
    equi = report["equivariance"]
    assert equi["maps"] == 18
    assert equi["stateChecks"] == 216
    assert equi["failures"] == []


def test_battery_passes_overall(report):
    assert report["passed"] is True


def test_battery_builds_each_phase_map_once(monkeypatch):
    honest = toyrel.phase_map
    calls = []

    def counted(color, D, sigma, t):
        calls.append((color, sigma, t))
        return honest(color, D, sigma, t)

    monkeypatch.setattr(toyrel, "phase_map", counted)
    assert run_equivalence_checks()["passed"] is True
    assert sorted(calls) == [(c, s, t) for c in ("X", "Z")
                             for s in range(3) for t in range(3)]


def test_passing_battery_builds_a_fraction_per_value_seen(monkeypatch):
    # Section 2 compares integer counts: a passing run measures nothing
    # through measure_probabilities and builds one Fraction per distinct
    # value it reports.
    def unreachable(mu, indicators):
        raise AssertionError("the battery called measure_probabilities")

    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(phasespace, "measure_probabilities", unreachable)
    monkeypatch.setattr(equivalence, "Fraction", counted)
    report = run_equivalence_checks()
    assert report["passed"] is True
    assert report["probabilities"]["valuesSeen"] == ["0", "1", "1/3"]
    assert len(built) == 3


@pytest.mark.parametrize("victim, donor", [("z_0", "z_1"), ("xz2_2", "x_0")])
def test_probabilities_fail_on_a_state_with_another_valuation(victim, donor):
    # The toy state named `victim` gets the coset of `donor`, while the
    # dictionary stays honest. The probability failures must be those of
    # a per-pair measure_probabilities loop, in its order: family, then
    # state, then outcome.
    honest = equivalence._epistemic_states

    def swapped():
        states = honest()
        states[victim] = states[donor]
        return states

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivalence, "_epistemic_states", swapped)
        mp.setattr(equivalence, "_checked_supports",
                   lambda states: equivalence._printed_supports())
        report = run_equivalence_checks()
    states = swapped()
    entries = build_dictionary()
    by_name = {e.name: e for e in entries}
    want = []
    for family, coeffs in FAMILIES.items():
        indicators = phasespace.basis_indicators(coeffs, 3, 1)
        for s in entries:
            toy = phasespace.measure_probabilities(
                states[s.name].distribution(), indicators)
            for k, toy_p in enumerate(toy):
                e = by_name[f"{family}_{k}"]
                quantum_p = Fraction(_inner(e.ket, s.ket).norm2(),
                                     e.norm2 * s.norm2)
                if toy_p != quantum_p or toy_p not in (0, Fraction(1, 3), 1):
                    want.append({"effect": e.name, "state": s.name,
                                 "toy": str(toy_p), "quantum": str(quantum_p)})
    assert want
    assert report["probabilities"]["failures"] == want
    assert report["possibilistic"]["failures"] == []
    assert report["passed"] is False


def test_probabilities_fail_on_agreeing_values_outside_the_three(
        monkeypatch):
    # Give x_0 three points, two on x=0, and the ket (2, 1, 1) of norm 6:
    # effect z_0 reads 2/3 on it on both sides, which still fails, since
    # every qutrit probability is 0, 1/3 or 1.
    honest_states, honest_dictionary = (equivalence._epistemic_states,
                                        equivalence._dictionary)
    points = np.array([(0, 0), (0, 1), (1, 0)])

    class Points:
        def _points(self):
            return points

        def distribution(self):
            return {tuple(m): Fraction(1, 3) for m in points.tolist()}

    def states():
        out = honest_states()
        out["x_0"] = Points()
        return out

    def dictionary(checked):
        ket = tuple(map(Cyclotomic, (2, 1, 1)))
        return [dataclasses.replace(e, ket=ket, norm2=6)
                if e.name == "x_0" else e for e in honest_dictionary(checked)]

    monkeypatch.setattr(equivalence, "_epistemic_states", states)
    monkeypatch.setattr(equivalence, "_dictionary", dictionary)
    monkeypatch.setattr(equivalence, "_checked_supports",
                        lambda states: equivalence._printed_supports())
    failures = run_equivalence_checks()["probabilities"]["failures"]
    assert {"effect": "z_0", "state": "x_0", "toy": "2/3",
            "quantum": "2/3"} in failures


_HONEST_SUPPORTS = sorted(map(sorted, build_3spek_states().values()))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_HONEST_SUPPORTS),
                          st.lists(st.integers(1, 9), unique=True)),
                min_size=12, max_size=12))
def test_stacked_toy_tables_match_per_pair_composites(supports):
    # Give the twelve entries random supports, some of them the supports of
    # other entries: the possibilistic failures and the equivariance
    # targets, read from the battery's stacked products, must be those of
    # one Rel composite per pair, in the battery's loop order.
    honest = equivalence._dictionary

    def relabelled(checked):
        return [dataclasses.replace(e, support=frozenset(support))
                for e, support in zip(honest(checked), supports)]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivalence, "_dictionary", relabelled)
        report = run_equivalence_checks()
    entries = relabelled(build_3spek_states())
    states = [toyrel.Rel.state(3, e.support) for e in entries]

    possibilistic = []
    for e, effect in zip(entries, states):
        for s, state in zip(entries, states):
            toy = (effect.converse() @ state).scalar_true()
            quantum = not _inner(e.ket, s.ket).is_zero()
            if toy != quantum:
                possibilistic.append({"effect": e.name, "state": s.name,
                                      "toy": toy, "quantum": quantum})
    assert report["possibilistic"]["failures"] == possibilistic

    by_support = {e.support: i for i, e in enumerate(entries)}
    targets = {(color, (sigma, t), e.name):
               by_support.get((toy_map @ state).support())
               for color in ("Z", "X")
               for (sigma, t), toy_map in toyrel.phase_maps(color, 3).items()
               for e, state in zip(entries, states)}
    failures = report["equivariance"]["failures"]
    keys = [(f["color"], tuple(f["map"]), f["state"]) for f in failures]
    assert keys == [k for k in targets if k in keys]      # loop order
    for key, f in zip(keys, failures):
        if targets[key] is None:
            assert f["reason"] == "image not a state"
        else:
            assert f == {"color": key[0], "map": list(key[1]),
                         "state": key[2],
                         "target": entries[targets[key]].name,
                         "reason": "kets not parallel"}
    assert all(target is not None for key, target in targets.items()
               if key not in keys)


def _digest(failures):
    return hashlib.sha256(json.dumps(failures).encode()).hexdigest()


def test_battery_fails_every_section_on_a_corrupted_dictionary(monkeypatch):
    # shift the first X phase of every X-colored image by one third: the
    # basis kets stop being basis vectors and the map stops being a
    # homomorphism. The failure lists, in loop order, are pinned from the
    # entry-by-entry Cyclotomic battery.
    honest = equivalence._phi

    def shifted(color, sigma, t):
        u, v = honest(color, sigma, t)
        return ((u + 1) % 3, v) if color == "X" else (u, v)

    monkeypatch.setattr(equivalence, "_phi", shifted)
    report = run_equivalence_checks()
    assert report["passed"] is False
    pairs = [(f["effect"], f["state"])
             for f in report["possibilistic"]["failures"]]
    assert pairs == [
        ("z_0", "xz_0"), ("z_0", "xz_2"), ("z_1", "xz_0"), ("z_1", "xz_1"),
        ("z_2", "xz_1"), ("z_2", "xz_2"), ("xz_0", "z_0"), ("xz_0", "z_1"),
        ("xz_1", "z_1"), ("xz_1", "z_2"), ("xz_2", "z_0"), ("xz_2", "z_2")]
    assert all(f["toy"] is True and f["quantum"] is False
               for f in report["possibilistic"]["failures"])
    probs = report["probabilities"]
    assert len(probs["failures"]) == 18
    assert probs["failures"][2] == {"effect": "z_2", "state": "xz_0",
                                    "toy": "1/3", "quantum": "1"}
    assert probs["valuesSeen"] == ["0", "1", "1/3"]
    assert report["phaseGroups"]["dictionaryHomomorphism"] is False
    assert report["phaseGroups"]["isomorphic"] is False
    equi = report["equivariance"]
    assert equi["stateChecks"] == 216
    assert len(equi["failures"]) == 87
    assert equi["failures"][0] == {"color": "Z", "map": [0, 1],
                                   "state": "z_0", "target": "z_0",
                                   "reason": "kets not parallel"}
    assert [_digest(report[k]["failures"]) for k in
            ("possibilistic", "probabilities", "equivariance")] == [
        "1cbf0a1c7795b9b5523212ec699915d01abffa52117f303cb07b07cd16ecce7a",
        "efc4feae57c30f19b3cf90ec48153c1cfbaf4f87083353bff5de2c6a41271475",
        "c1beb62b5c0903671e886158914cfa81942edb144c14e43b21d9983d5e0798f5",
    ]
