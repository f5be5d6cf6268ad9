"""Prime-qudit stabilizer machinery against a dense state-vector oracle."""

import functools
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quditzx
from quditzx import _modp, stabilizer
from quditzx.phases import PhaseVector, Turn, cyclic_vector
from quditzx.semantics import fourier_matrix, omega
from quditzx.stabilizer import (
    GATES,
    DenseSimulator,
    PauliOp,
    Tableau,
    _order_divides_dim,
    _row_commutation,
    _row_conjugate,
    _row_mul,
    _row_pow,
    conjugate_pauli,
    enumerate_stabilizer_states,
    gate_matrix,
    measurement_observable,
    phase_group,
    random_circuit,
    run_circuit,
    torus_exponents,
)


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _eta(d, p=1):
    return np.exp(2j * np.pi * p / d)


def _xmat(d):
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j - 1) % d, j] = 1.0
    return m


def _zmat(d):
    return np.diag([_eta(d, j) for j in range(d)])


# ---------------------------------------------------------------------------
# Pauli words

@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_commutation_relation(d):
    # XZ = eta ZX, with X the down-shift and Z the phase diagonal.
    x, z = _xmat(d), _zmat(d)
    assert _dev(x @ z, _eta(d) * (z @ x)) < 1e-12
    assert _dev(np.linalg.matrix_power(x, d), np.eye(d)) < 1e-12
    assert _dev(np.linalg.matrix_power(z, d), np.eye(d)) < 1e-12


def _random_pauli(rng, n, d):
    return PauliOp(n, d, rng.randrange(2 * d),
                   tuple(rng.randrange(d) for _ in range(n)),
                   tuple(rng.randrange(d) for _ in range(n)))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pauli_dense_matches_word_definition(d):
    rng = random.Random(d)
    for n in (1, 2, 3):
        for _ in range(10):
            p = _random_pauli(rng, n, d)
            want = np.array([[1.0 + 0j]])
            for xk, zk in zip(p.x, p.z):
                w = (np.linalg.matrix_power(_xmat(d), xk)
                     @ np.linalg.matrix_power(_zmat(d), zk))
                want = np.kron(want, w)
            want = _eta(2 * d, p.phase) * want
            assert _dev(p.dense(), want) < 1e-12
            # act is the same monomial on a stack of vectors
            psi = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in range(2)] for _ in range(d ** n)])
            assert _dev(p.act(psi), want @ psi) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_pauli_products_track_dense_products(d):
    rng = random.Random(10 + d)
    for n in (1, 2, 3):
        for _ in range(10):
            a, b = _random_pauli(rng, n, d), _random_pauli(rng, n, d)
            assert _dev(a.mul(b).dense(), a.dense() @ b.dense()) < 1e-12
            c = a.commutation_exponent(b)
            assert _dev(a.dense() @ b.dense(),
                        _eta(d, c) * b.dense() @ a.dense()) < 1e-12
            # the closed-form power, through D = 2's half-phases
            for k in range(2 * d + 1):
                assert _dev(a.pow(k).dense(),
                            np.linalg.matrix_power(a.dense(), k)) < 1e-9


def test_pauli_order_divides_dim_flag():
    # Plain words without half-phases always have order D when D is odd;
    # at D = 2, XZ squares to -1 and needs the half-phase fixup.
    p = PauliOp(1, 2, 0, (1,), (1,))
    assert not p.order_divides_dim()
    assert p.scaled(1).order_divides_dim()
    assert _dev(p.scaled(1).pow(2).dense(), np.eye(2)) < 1e-12
    q = PauliOp(1, 3, 0, (1,), (1,))
    assert q.order_divides_dim()
    assert _dev(q.pow(3).dense(), np.eye(3)) < 1e-12


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_closed_form_order_check_matches_the_dth_power(d, n, data):
    # Reduced x and z, and a phase that need not be reduced: at D = 2 the
    # z.x term decides, at odd D the phase's parity alone.
    entries = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    x, z = data.draw(entries), data.draw(entries)
    phase = data.draw(st.integers(-6 * d, 6 * d))
    row = np.array(x + z + [phase], dtype=np.int64)
    want = not _row_pow(row, d, d).any()
    assert _order_divides_dim(row, d) == want
    assert PauliOp(n, d, phase, tuple(x), tuple(z)).order_divides_dim() == want


@pytest.mark.parametrize("d, row, want", [
    (2, [1, 1, 0], False),   # XZ squares to -1
    (2, [1, 1, 1], True),    # i XZ squares to 1
    (2, [1, 1, -3], True),
    (2, [1, 0, 2], True),    # -X
    (2, [1, 1, 1, 1, 0], True),  # (XZ)(XZ): the two -1s cancel
    (3, [1, 2, 1], False),   # sqrt(eta) XZ^2 cubes to -1
    (3, [1, 2, 4], True),
    (7, [3, 5, 6, 2, -2], True),
])
def test_order_check_examples(d, row, want):
    row = np.array(row, dtype=np.int64)
    assert _order_divides_dim(row, d) == want
    assert (not _row_pow(row, d, d).any()) == want


def test_pauli_row_is_a_copy_the_word_does_not_share():
    p = PauliOp(2, 3, 7, (1, 5), (0, 2))
    want = [1, 2, 0, 2, 1]
    row = p.row
    row[:] = 0
    assert p.row.tolist() == want and p.row is not p.row
    source = np.array(want)
    q = PauliOp.from_row(3, source)
    source[:] = 0
    for word in (p, q):
        assert (word.x, word.z, word.phase) == ((1, 2), (0, 2), 1)
        assert word.commutation_exponent(PauliOp.single(2, 3, 1, x=1)) == 1
    assert p == q


def test_pauli_validation_and_str():
    with pytest.raises(ValueError):
        PauliOp(2, 3, 0, (1,), (0, 0))
    with pytest.raises(ValueError):
        PauliOp.identity(1, 3).pow(-1)
    assert str(PauliOp.single(2, 3, 1, x=2, z=1)) == "X2Z[1]"
    assert str(PauliOp.identity(1, 3)) == "I"


# ---------------------------------------------------------------------------
# Gates and conjugation

@pytest.mark.parametrize("d", [2, 3, 5])
def test_gate_matrices_are_unitary(d):
    for name in GATES:
        q = 2 % d if name == "Sq" else None
        if name == "Sq" and math.gcd(2, d) != 1:
            q = 1
        m = gate_matrix(name, d, q)
        assert _dev(m.conj().T @ m, np.eye(m.shape[0])) < 1e-12


def test_gate_matrix_closed_forms():
    d = 3
    f = gate_matrix("F", d)
    assert _dev(f * math.sqrt(d),
                [[_eta(d, j * k) for k in range(d)] for j in range(d)]) < 1e-12
    cnot = gate_matrix("CNOT", d)
    for j in range(d):
        for k in range(d):
            assert cnot[j * d + (k - j) % d, j * d + k] == 1.0
    cp = gate_matrix("CP", d)
    assert _dev(cp, np.diag([_eta(d, j * k) for j in range(d)
                             for k in range(d)])) < 1e-12
    with pytest.raises(ValueError):
        gate_matrix("Sq", 4, q=2)
    with pytest.raises(ValueError):
        gate_matrix("TOFFOLI", 3)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("gate", GATES)
def test_conjugation_matches_dense_conjugation(d, gate):
    rng = random.Random(f"{gate}:{d}")
    n = 1 if gate in ("F", "Sq") else 2
    for trial in range(8):
        q = rng.choice([u for u in range(1, d) if math.gcd(u, d) == 1]) \
            if gate == "Sq" else None
        p = _random_pauli(rng, n, d)
        wires = list(range(n))
        got = conjugate_pauli(p, gate, wires, q)
        u = gate_matrix(gate, d, q)
        want = u @ p.dense() @ u.conj().T
        assert _dev(got.dense(), want) < 1e-9, (gate, d, trial)


def test_conjugation_rejects_unknown_gate():
    with pytest.raises(ValueError):
        conjugate_pauli(PauliOp.identity(1, 3), "HADAMARD", [0])


def _row_conjugate_oracle(rows, gate, wires, q, dim):
    """The gate update as first written: every touched column reduced mod
    D and every phase mod 2D, whatever the gate changed."""
    d = dim
    n = rows.shape[-1] // 2
    x, z, phase = rows[..., :n], rows[..., n:-1], rows[..., -1]
    if gate == "F":
        (a,) = wires
        phase += 2 * x[..., a] * z[..., a]
        x[..., a], z[..., a] = z[..., a], -x[..., a]
    elif gate == "Sq":
        (a,) = wires
        x[..., a] *= pow(int(q), -1, d)
        z[..., a] *= int(q) % d
    elif gate == "CNOT":
        a, b = wires
        z[..., a] += z[..., b]
        x[..., b] -= x[..., a]
    elif gate == "CP":
        a, b = wires
        phase += 2 * x[..., a] * x[..., b]
        z[..., a] -= x[..., b]
        z[..., b] -= x[..., a]
    elif gate == "SWAP":
        a, b = wires
        rows[..., [a, b, n + a, n + b]] = rows[..., [b, a, n + b, n + a]]
    touched = list(wires) + [n + w for w in wires]
    rows[..., touched] %= d
    phase %= 2 * d


@st.composite
def _reduced_rows_and_a_gate(draw):
    """Reduced rows on n = 1..64 qudits (a table of 1..2n rows, or one 1-D
    row as conjugate_pauli passes) and a gate at random wires."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    gate = draw(st.sampled_from(GATES))
    arity = 1 if gate in ("F", "Sq") else 2
    n = draw(st.integers(arity, 64))
    wires = draw(st.lists(st.integers(0, n - 1), min_size=arity,
                          max_size=arity, unique=True))
    q = draw(st.integers(1, d - 1)) if gate == "Sq" else None
    shape = () if draw(st.booleans()) else (draw(st.integers(1, 2 * n)),)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.integers(0, d, size=shape + (2 * n + 1,))
    rows[..., -1] = rng.integers(0, 2 * d, size=shape)
    return rows, gate, wires, q, d


@given(_reduced_rows_and_a_gate())
@settings(max_examples=400, deadline=None)
def test_gates_reduce_what_they_change_like_the_full_update(drawn):
    # Reducing only the changed columns, and the phase only under F and
    # CP, must leave every entry as the full reduction does: an entry
    # left unreduced, or one reduced by the wrong modulus, differs here,
    # though dense() would hide it.
    rows, gate, wires, q, d = drawn
    want = rows.copy()
    _row_conjugate_oracle(want, gate, wires, q, d)
    _row_conjugate(rows, gate, wires, q, d)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, want)


# ---------------------------------------------------------------------------
# Tableau

def test_zero_state_measures_z_deterministically():
    tab = Tableau.zero_state(2, 3)
    obs = measurement_observable("Z", 0, 2, 3)
    assert tab.outcome_distribution(obs) == [Fraction(1), Fraction(0),
                                             Fraction(0)]
    k, det = tab.measure(obs, random.Random(0))
    assert (k, det) == (0, True)


def test_fourier_rotates_z_into_x():
    tab = Tableau.zero_state(1, 5)
    tab.apply("F", [0])
    obs = measurement_observable("X", 0, 1, 5)
    k, det = tab.measure(obs, random.Random(0))
    assert (k, det) == (0, True)
    # The Z outcome on the rotated state is uniform.
    tab2 = Tableau.zero_state(1, 5)
    tab2.apply("F", [0])
    z_obs = measurement_observable("Z", 0, 1, 5)
    assert tab2.outcome_distribution(z_obs) == [Fraction(1, 5)] * 5


def test_measurement_collapse_is_repeatable():
    tab = Tableau.zero_state(1, 3)
    tab.apply("F", [0])
    obs = measurement_observable("Z", 0, 1, 3)
    rng = random.Random(7)
    k1, det1 = tab.measure(obs, rng)
    assert not det1
    k2, det2 = tab.measure(obs, rng)
    assert det2 and k2 == k1


def test_entangled_pair_correlations():
    # F then CNOT makes the maximally correlated two-qutrit state; the
    # difference observable Z_0 Z_1^(D-1)... here: after CNOT the state
    # is sum_j |j, -j>, so Z_0 and Z_1^2... direct check: measuring Z on
    # wire 0 then Z on wire 1 gives outcomes summing to zero mod 3.
    for seed in range(6):
        tab = Tableau.zero_state(2, 3)
        tab.apply("F", [0])
        tab.apply("CNOT", [0, 1])
        rng = random.Random(seed)
        k0, det0 = tab.measure(measurement_observable("Z", 0, 2, 3), rng)
        k1, det1 = tab.measure(measurement_observable("Z", 1, 2, 3), rng)
        assert not det0 and det1
        assert (k0 + k1) % 3 == 0


def test_tableau_dense_state_matches_simulator():
    moves = [("F", [0], None), ("CNOT", [0, 1], None), ("Sq", [1], 2),
             ("CP", [0, 1], None), ("SWAP", [0, 1], None)]
    tab = Tableau.zero_state(2, 3)
    sim = DenseSimulator(2, 3)
    for gate, wires, q in moves:
        tab.apply(gate, wires, q)
        sim.apply(gate, wires, q)
        got = tab.dense_state()
        s = got.conj() @ sim.psi
        assert abs(abs(s) - 1.0) < 1e-9  # equal up to global phase
    # Random gate sequences: the state pins every phase update, which
    # single-qudit Z and X outcomes alone can miss.
    for d in (2, 3, 5):
        rng = random.Random(f"dense-state:{d}")
        for _ in range(4):
            tab, sim = Tableau.zero_state(3, d), DenseSimulator(3, d)
            for step in random_circuit(3, d, rng, depth=12, measurements=0):
                tab.apply(step["gate"], step["wires"], step.get("q"))
                sim.apply(step["gate"], step["wires"], step.get("q"))
            s = tab.dense_state().conj() @ sim.psi
            assert abs(abs(s) - 1.0) < 1e-9, d


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_multi_qudit_measurements_match_the_dense_oracle(d, n, data):
    # Observables with any phase, kept when obs^D = 1, whose x|z is drawn
    # on every wire or is that of a product of stabilizer powers: then the
    # outcome is certain, need not be 0, and multiplies several rows whose
    # z.x need not vanish. A random outcome updates several rows. Single-
    # qudit Z and X, and the group's own elements, reach neither.
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    tab, sim = Tableau.zero_state(n, d), DenseSimulator(n, d)
    for step in random_circuit(n, d, rng, depth=4 * n + 4, measurements=0):
        tab.apply(step["gate"], step["wires"], step.get("q"))
        sim.apply(step["gate"], step["wires"], step.get("q"))
    entries = st.lists(st.integers(0, d - 1), min_size=n, max_size=n)
    for _ in range(10):
        if data.draw(st.booleans()):
            xz = data.draw(entries) + data.draw(entries)
        else:
            xz = functools.reduce(functools.partial(_row_mul, dim=d),
                                  _row_pow(tab.rows, data.draw(entries), d)
                                  )[:-1].tolist()
        obs = PauliOp(n, d, data.draw(st.integers(0, 2 * d - 1)),
                      tuple(xz[:n]), tuple(xz[n:]))
        if not obs.order_divides_dim() or not any(xz):
            continue
        born = sim.born_probabilities(obs)
        probs = tab.outcome_distribution(obs)
        assert max(abs(float(p) - q) for p, q in zip(probs, born)) < 1e-9
        k, deterministic = tab.measure(obs, rng)
        assert deterministic == (born[k] > 1 - 1e-9), (obs, born)
        sim.collapse(obs, k)
        overlap = tab.dense_state().conj() @ sim.psi
        assert abs(abs(overlap) - 1.0) < 1e-9, (obs, k)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_oracle_outcome_k_is_the_eta_k_eigenspace(d):
    # Z|j> = eta^j |j> and X F|j> = eta^j F|j>: outcome j, with certainty.
    for j in range(d):
        for basis in ("Z", "X"):
            sim = DenseSimulator(1, d)
            sim.psi = np.eye(d, dtype=complex)[j]
            if basis == "X":
                sim.apply("F", [0])
            obs = measurement_observable(basis, 0, 1, d)
            want = [float(k == j) for k in range(d)]
            assert _dev(sim.born_probabilities(obs), want) < 1e-12
            before = sim.psi
            sim.collapse(obs, j)
            assert _dev(sim.psi, before) < 1e-12
            with pytest.raises(ValueError, match="impossible outcome"):
                sim.collapse(obs, (j + 1) % d)


def _eigenprojection_oracle(obs, psi, k):
    """P_k psi with obs applied anew for each outcome, as the Born
    distribution first did."""
    d = obs.dim
    acc = np.asarray(psi, dtype=complex)
    term = acc
    for m in range(1, d):
        term = obs.act(term)
        acc = acc + omega(d, -k * m) * term
    return acc / d


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_born_probabilities_match_per_outcome_projections(d, n, data):
    # Sharing the powers obs^m psi among the D outcomes keeps each
    # outcome's sum in its order, so the floats are equal, not just close.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sim = DenseSimulator(n, d)
    psi = rng.normal(size=d ** n) + 1j * rng.normal(size=d ** n)
    sim.psi = psi / np.linalg.norm(psi)
    x, z = rng.integers(0, d, size=n), rng.integers(0, d, size=n)
    phase = 2 * int(rng.integers(d)) + (d - 1) * int(z @ x) % 2
    obs = PauliOp(n, d, phase, tuple(x), tuple(z))
    assert obs.order_divides_dim()
    want = [float(np.real(np.vdot(sim.psi,
                                  _eigenprojection_oracle(obs, sim.psi, k))))
            for k in range(d)]
    assert sim.born_probabilities(obs) == want
    k = int(np.argmax(want))
    v = _eigenprojection_oracle(obs, sim.psi, k)
    sim.collapse(obs, k)
    assert np.array_equal(sim.psi, v / np.linalg.norm(v))


def _counting_powers(monkeypatch):
    """Count the calls of _powers_applied, which only a Born distribution
    and a collapse that is not handed Born's projections make."""
    calls = []
    real = stabilizer._powers_applied

    def counted(obs, psi):
        calls.append(obs)
        return real(obs, psi)

    monkeypatch.setattr(stabilizer, "_powers_applied", counted)
    return calls


def _oracle_collapse(obs, psi, k):
    v = _eigenprojection_oracle(obs, psi, k)
    return v / np.linalg.norm(v)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_oracle_circuits_match_the_per_term_projection_route(d, n, data):
    # Born keeps its D projections and collapse takes one of them; the
    # probabilities and every state must be the bytes that obs applied
    # anew and omega called per term give, after gates, for single-qudit
    # and multi-qudit observables, on the outcome drawn among the possible.
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    sim = DenseSimulator(n, d)
    for step in random_circuit(n, d, rng, depth=3 * n + 3, measurements=4):
        if step["gate"] != "measure":
            sim.apply(step["gate"], step["wires"], step.get("q"))
            continue
        obs = measurement_observable(step["basis"], step["wires"][0], n, d)
        word = _random_pauli(rng, n, d)
        if data.draw(st.booleans()) and word.order_divides_dim():
            obs = word
        want = [_eigenprojection_oracle(obs, sim.psi, k) for k in range(d)]
        born = sim.born_probabilities(obs)
        assert born == [float(np.real(np.vdot(sim.psi, v))) for v in want]
        k = rng.choice([j for j in range(d) if born[j] > 1e-9])
        v = want[k] / np.linalg.norm(want[k])
        sim.collapse(obs, k)
        assert sim.psi.tobytes() == v.tobytes()
        assert not sim.psi.flags.writeable


def test_collapse_reuses_borns_projections_only_for_its_state(monkeypatch):
    calls = _counting_powers(monkeypatch)
    sim = DenseSimulator(2, 3)
    obs = measurement_observable("Z", 0, 2, 3)
    # The same observable on the same state: Born's projection is taken.
    sim.apply("F", [0])
    sim.born_probabilities(obs)
    want = _oracle_collapse(obs, sim.psi, 2)
    sim.collapse(obs, 2)
    assert len(calls) == 1 and sim.psi.tobytes() == want.tobytes()
    # Born on |2,0>, then F: every outcome is possible again, and Born's
    # projections 0 and 1 of |2,0> are zero, so a stale one would refuse.
    sim.born_probabilities(obs)
    sim.apply("F", [0])
    want = _oracle_collapse(obs, sim.psi, 0)
    sim.collapse(obs, 0)
    assert len(calls) == 3 and sim.psi.tobytes() == want.tobytes()
    # A collapse drops them too: a second collapse builds its own.
    sim.born_probabilities(obs)
    sim.collapse(obs, 0)
    sim.collapse(obs, 0)
    assert len(calls) == 5
    # Another state object, or an equal observable that is another
    # object, is not handed them either.
    sim.apply("F", [0])
    sim.born_probabilities(obs)
    sim.psi = np.roll(sim.psi, 3)
    want = _oracle_collapse(obs, sim.psi, 1)
    sim.collapse(obs, 1)
    assert len(calls) == 7 and sim.psi.tobytes() == want.tobytes()
    sim.apply("F", [0])
    sim.born_probabilities(obs)
    twin = measurement_observable("Z", 0, 2, 3)
    sim.collapse(twin, 1)
    assert len(calls) == 9
    # Past the keep bound, D^(n+1) amplitudes, Born keeps nothing.
    monkeypatch.setattr(stabilizer, "MAX_DENSE_AMPLITUDES", 9)
    sim = DenseSimulator(2, 3)
    sim.born_probabilities(obs)
    sim.collapse(obs, 0)
    assert len(calls) == 11


@pytest.mark.parametrize("born_first", [True, False], ids=["kept", "fresh"])
def test_collapse_refuses_an_outcome_out_of_range(born_first, monkeypatch):
    # Before, collapse(obs, 4) and collapse(obs, -2) at D=3 both collapsed
    # onto outcome 1, as eta^(-km) only reads k mod D.
    calls = _counting_powers(monkeypatch)
    sim = DenseSimulator(1, 3)
    sim.apply("F", [0])
    obs = measurement_observable("Z", 0, 1, 3)
    if born_first:
        sim.born_probabilities(obs)
    before = sim.psi
    for bad in (4, -2, 3, True, 1.0, "1"):
        with pytest.raises(ValueError) as exc:
            sim.collapse(obs, bad)
        assert str(exc.value) == ("collapse outcome must be an integer in "
                                  f"0..2, got {bad!r}")
    assert sim.psi is before and len(calls) == born_first
    sim.collapse(obs, np.int64(1))
    assert len(calls) == 1
    assert sim.psi.tobytes() == _oracle_collapse(obs, before, 1).tobytes()


@pytest.mark.parametrize("n, d, obs", [
    (2, 3, PauliOp.single(3, 3, 0, z=1)),
    (2, 3, PauliOp.single(1, 3, 0, x=1)),
    (2, 3, PauliOp.single(2, 5, 0, z=1)),
    (1, 2, PauliOp(1, 2, 0, (1,), (1,))),
], ids=["more-qudits", "fewer-qudits", "other-D", "order-2D"])
def test_oracle_refuses_the_tableaus_bad_observables(n, d, obs):
    # An observable of another system, or one whose D-th power is a phase
    # other than 1, is refused in the tableau's own line by born and by
    # collapse, with or without projections kept. Before, the first raised
    # numpy's "cannot reshape array of size 9 into shape (3,3,3)" and the
    # last returned probabilities that do not sum to 1.
    with pytest.raises(ValueError) as tab:
        Tableau.zero_state(n, d).outcome_distribution(obs)
    sim = DenseSimulator(n, d)
    sim.apply("F", [0])
    with pytest.raises(ValueError) as born:
        sim.born_probabilities(obs)
    with pytest.raises(ValueError) as fresh:
        sim.collapse(obs, 0)
    sim.born_probabilities(measurement_observable("Z", 0, n, d))
    with pytest.raises(ValueError) as kept:
        sim.collapse(obs, 0)
    assert (str(born.value) == str(fresh.value) == str(kept.value)
            == str(tab.value))
    assert str(tab.value) in ("observable acts on the wrong system",
                              "observable must have order dividing D")


def test_gate_matrices_are_kept_read_only_within_their_bound(monkeypatch):
    monkeypatch.setattr(stabilizer, "_gate_store", {})
    monkeypatch.setattr(stabilizer, "_gate_store_entries", 0)
    monkeypatch.setattr(stabilizer, "MAX_DENSE_GATE_ENTRIES", 100)
    f = gate_matrix("F", 3)
    assert gate_matrix("F", 3) is f and not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 0] = 0
    cnot = gate_matrix("CNOT", 3)           # 9 + 81 entries: kept
    assert gate_matrix("CNOT", 3) is cnot
    cp = gate_matrix("CP", 3)               # 81 more would pass 100
    again = gate_matrix("CP", 3)
    assert again is not cp and not again.flags.writeable
    assert again.tobytes() == cp.tobytes()
    sq = gate_matrix("Sq", 3, 2)            # 9 more fit
    assert gate_matrix("Sq", 3, 2) is sq and gate_matrix("Sq", 3, 1) is not sq
    store = stabilizer._gate_store
    assert set(store) == {("F", 3, None), ("CNOT", 3, None), ("Sq", 3, 2)}
    assert (stabilizer._gate_store_entries
            == sum(m.size for m in store.values()) == 99)
    # A refused gate is not kept, and q is reduced before it indexes.
    with pytest.raises(ValueError):
        gate_matrix("Sq", 3, 3)
    assert len(store) == 3
    big = 10 ** 30 + 2
    assert gate_matrix("Sq", 5, big).tobytes() == gate_matrix("Sq", 5, 2
                                                              ).tobytes()


def test_born_distribution_at_the_work_cap_sums_to_one():
    # n=1, D=401 is the largest D the Born work cap admits at one qudit.
    rng = np.random.default_rng(401)
    sim = DenseSimulator(1, 401)
    psi = rng.normal(size=401) + 1j * rng.normal(size=401)
    sim.psi = psi / np.linalg.norm(psi)
    probs = sim.born_probabilities(measurement_observable("X", 0, 1, 401))
    assert len(probs) == 401 and min(probs) > -1e-12
    assert abs(sum(probs) - 1) < 1e-12


def test_dense_oracle_refuses_above_its_cap():
    with pytest.raises(ValueError, match=r"D\^n = 2097152 amplitudes"):
        DenseSimulator(21, 2)
    assert DenseSimulator(20, 2).psi.shape == (2 ** 20,)


@pytest.mark.parametrize("n, d, message", [
    (2, 1021, r"D=1021, n=2: D\^4 = 1086683238481 entries in a two-qudit "
              r"gate matrix, above its cap of 1048576$"),
    (2, 37, r"D=37, n=2: D\^4 = 1874161 entries"),
    (1, 409, r"D=409, n=1: D\^\(n\+2\) = 68417929 updates per Born "
             r"distribution, above its cap of 67108864$"),
    (9, 7, r"D=7, n=9: D\^n = 40353607 amplitudes"),
    (3000, 3, r"D=3, n=3000: D\^n = 3\^3000 amplitudes, above its cap of "
              r"1048576$"),
], ids=["gate-D1021", "gate-D37", "born-D409", "amplitudes-D7",
        "amplitudes-n3000"])
def test_dense_oracle_refuses_work_above_its_caps(n, d, message):
    # A state within the amplitude cap can still need a gate matrix or a
    # Born distribution the oracle cannot finish; both are refused at
    # construction, in one line.
    with pytest.raises(ValueError, match=message) as exc:
        DenseSimulator(n, d)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("n, d", [(2, 31), (1, 401), (7, 7), (12, 3)])
def test_dense_oracle_builds_up_to_its_caps(n, d):
    assert DenseSimulator(n, d).psi.shape == (d ** n,)


def test_tableau_validates_generators():
    d = 3
    with pytest.raises(ValueError):
        Tableau(1, 4, [PauliOp.single(1, 4, 0, z=1)])  # non-prime
    with pytest.raises(ValueError):
        Tableau(2, d, [PauliOp.single(2, d, 0, z=1)])  # wrong count
    with pytest.raises(ValueError):
        Tableau(2, d, [PauliOp.single(2, d, 0, z=1),
                       PauliOp.single(2, d, 0, x=1)])  # non-commuting
    with pytest.raises(ValueError):
        Tableau(2, d, [PauliOp.single(2, d, 0, z=1),
                       PauliOp.single(2, d, 0, z=2)])  # dependent
    with pytest.raises(ValueError):
        # Plain XZ at D = 2 squares to -1; only i*XZ stabilizes a state.
        Tableau(1, 2, [PauliOp(1, 2, 0, (1,), (1,))])
    assert Tableau(1, 2, [PauliOp(1, 2, 1, (1,), (1,))]).n == 1


def test_measure_rejects_bad_observables():
    # measure and outcome_distribution share one check: each bad
    # observable is refused by both, with the same one-line message.
    bad = [
        (3, PauliOp.single(2, 3, 0, z=1), "acts on the wrong system"),
        (3, PauliOp.single(2, 3, 1, z=1), "acts on the wrong system"),
        (3, PauliOp.single(1, 5, 0, z=1), "acts on the wrong system"),
        (2, PauliOp(1, 2, 1, (0,), (1,)), "order dividing D"),  # iZ
        (3, PauliOp.single(1, 3, 0, z=1, phase=1), "order dividing D"),
    ]
    for d, obs, message in bad:
        for method in ("outcome_distribution", "measure"):
            tab = Tableau.zero_state(1, d)
            args = (obs, random.Random(0))[:1 + (method == "measure")]
            with pytest.raises(ValueError, match=message) as err:
                getattr(tab, method)(*args)
            assert "\n" not in str(err.value)
            assert (tab.table == np.eye(2, 3, dtype=np.int64)).all()
    # A scalar is not measured, though its outcome is certain.
    tab = Tableau.zero_state(1, 3)
    assert tab.outcome_distribution(PauliOp.identity(1, 3))[0] == 1
    with pytest.raises(ValueError, match="cannot measure a scalar"):
        tab.measure(PauliOp.identity(1, 3), random.Random(0))
    with pytest.raises(ValueError):
        measurement_observable("Y", 0, 1, 3)


# ---------------------------------------------------------------------------
# Circuits

def test_run_circuit_is_deterministic_per_seed():
    rng = random.Random(4)
    circuit = random_circuit(3, 3, rng, depth=15, measurements=4)
    a = run_circuit(circuit, 3, 3, seed=11)
    b = run_circuit(circuit, 3, 3, seed=11)
    assert a == b
    assert len(a["outcomes"]) == 4
    assert a["n"] == 3 and a["dim"] == 3 and a["seed"] == 11
    assert not a["oracle"]


def test_run_circuit_outcomes_are_pinned():
    # Outcomes and deterministic flags of seeded random circuits, hashed.
    # The digest was recorded on the tuple-based tableau that the array
    # tableau replaced, so it pins how measurements consume the rng.
    rng = random.Random("pinned-outcomes")
    h = hashlib.sha256()
    count = 0
    for d in (2, 3, 5):
        for n in (1, 2, 3, 5, 8, 12):
            for trial in range(3):
                circuit = random_circuit(n, d, rng, depth=6 * n,
                                         measurements=4 * n)
                out = run_circuit(circuit, n, d, seed=trial)
                rec = [(o["outcome"], o["deterministic"])
                       for o in out["outcomes"]]
                count += len(rec)
                h.update(json.dumps([d, n, rec]).encode())
    assert count == 1116
    assert h.hexdigest() == ("4e97d25fe812b5f36767ddf5ef299ac1"
                             "f0a8253d515ec9343fccff17d0051094")


@pytest.mark.parametrize("oracle", [False, True])
def test_measurements_run_no_elimination(monkeypatch, oracle):
    # The destabilizers give every outcome, deterministic or random, in
    # O(n^2): run_circuit never row-reduces over Z_D.
    calls = []
    real = _modp.rref_mod

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_modp, "rref_mod", counted)
    rng = random.Random("no-elimination")
    deterministic = 0
    for d in (2, 3, 5):
        for n in (1, 3, 4):
            circuit = random_circuit(n, d, rng, depth=4 * n,
                                     measurements=3 * n)
            out = run_circuit(circuit, n, d, seed=n, oracle=oracle)
            deterministic += sum(o["deterministic"] for o in out["outcomes"])
    assert deterministic > 0
    assert calls == []


def test_each_measurement_is_one_commutation_pass(monkeypatch):
    # measure and outcome_distribution check the observable, commute it
    # with all 2n rows and read a deterministic outcome from that one
    # vector, so each makes exactly one _row_commutation call; measure
    # after outcome_distribution on the same observable, as run_circuit's
    # oracle does, reads the kept pass and makes none.
    calls = []
    real = stabilizer._row_commutation

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stabilizer, "_row_commutation", counted)
    rng = random.Random("one-commutation-pass")
    seen = set()
    for d in (2, 3, 5):
        for n in (1, 3, 6):
            tab = Tableau.zero_state(n, d)
            for step in random_circuit(n, d, rng, depth=4 * n,
                                       measurements=3 * n):
                if step["gate"] != "measure":
                    tab.apply(step["gate"], step["wires"], step.get("q"))
                    continue
                obs = measurement_observable(step["basis"],
                                             step["wires"][0], n, d)
                calls.clear()
                tab.outcome_distribution(obs)
                assert len(calls) == 1
                calls.clear()
                # A fresh, equal observable is commuted afresh.
                _, deterministic = tab.measure(
                    measurement_observable(step["basis"], step["wires"][0],
                                           n, d), rng)
                assert len(calls) == 1, deterministic
                calls.clear()
                dist = tab.outcome_distribution(obs)
                assert tab.measure(obs, rng) == (dist.index(1), True)
                assert len(calls) == 1
                seen.add(deterministic)
    assert seen == {True, False}


def test_a_kept_commutation_pass_ends_when_the_rows_change():
    # One observable object throughout: a gate, then a random outcome,
    # change what its distribution reads.
    tab = Tableau.zero_state(1, 3)
    obs = measurement_observable("Z", 0, 1, 3)
    certain = [Fraction(1), Fraction(0), Fraction(0)]
    assert tab.outcome_distribution(obs) == certain
    tab.apply("F", [0])
    assert tab.outcome_distribution(obs) == [Fraction(1, 3)] * 3
    k, deterministic = tab.measure(obs, random.Random(0))
    assert not deterministic
    assert tab.outcome_distribution(obs) == certain[-k:] + certain[:-k]
    assert tab.measure(obs, random.Random(0)) == (k, True)


def _check_tableau(tab, rng):
    d, n = tab.dim, tab.n
    assert (_row_commutation(tab.destab, tab.rows, d)
            == np.eye(n, dtype=np.int64)).all()
    assert not _row_commutation(tab.rows, tab.rows, d).any()
    rebuilt = Tableau(n, d, [PauliOp.from_row(d, r) for r in tab.rows])
    for wire in range(n):
        for basis in ("Z", "X"):
            obs = measurement_observable(basis, wire, n, d)
            assert (rebuilt.outcome_distribution(obs)
                    == tab.outcome_distribution(obs)), (basis, wire)
    # A product of powers of the stabilizers, taken one _row_mul at a
    # time, is in the group: outcome 0 with certainty.
    powers = [rng.randrange(d) for _ in range(n)]
    word = functools.reduce(functools.partial(_row_mul, dim=d),
                            _row_pow(tab.rows, powers, d))
    assert tab.outcome_distribution(PauliOp.from_row(d, word))[0] == 1


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stabilizer_group_elements_measure_zero(d):
    # Deep circuits leave generators with z.x != 0 mod D, where the
    # product's phase needs every reordering term.
    rng = random.Random(f"group:{d}")
    for trial in range(20):
        n = rng.randint(2, 6)
        tab = Tableau.zero_state(n, d)
        for step in random_circuit(n, d, rng, depth=30, measurements=0):
            tab.apply(step["gate"], step["wires"], step.get("q"))
        for _ in range(3):
            powers = [rng.randrange(d) for _ in range(n)]
            word = functools.reduce(functools.partial(_row_mul, dim=d),
                                    _row_pow(tab.rows, powers, d))
            probs = tab.outcome_distribution(PauliOp.from_row(d, word))
            assert probs[0] == 1, (trial, powers)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 12), st.integers(0, 2 ** 32))
@settings(max_examples=20, deadline=None)
def test_destabilizers_survive_gates_and_measurements(d, n, seed):
    # After every step: destab[i] fails to commute with rows[i] alone,
    # the rows commute, a tableau rebuilt from the rows (whose
    # destabilizers come from elimination) gives the same outcomes, and
    # the group's elements measure 0.
    rng = random.Random(seed)
    tab = Tableau.zero_state(n, d)
    _check_tableau(tab, rng)
    for step in random_circuit(n, d, rng, depth=2 * n + 10, measurements=n):
        wires = step["wires"]
        if step["gate"] == "measure":
            obs = measurement_observable(step["basis"], wires[0], n, d)
            tab.measure(obs, rng)
        else:
            tab.apply(step["gate"], wires, step.get("q"))
        _check_tableau(tab, rng)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_random_circuits_match_dense_oracle(d):
    rng = random.Random(f"oracle:{d}")
    for trial in range(12):
        n = rng.randint(1, 3)
        circuit = random_circuit(n, d, rng)
        out = run_circuit(circuit, n, d, seed=trial, oracle=True)
        assert out["oracle"]
        assert out["maxProbabilityDeviation"] < 1e-9, (d, trial)


def test_deterministic_flags_agree_with_probabilities():
    circuit = [
        {"gate": "F", "wires": [0]},
        {"gate": "measure", "wires": [0], "basis": "X"},
        {"gate": "measure", "wires": [0], "basis": "Z"},
        {"gate": "measure", "wires": [0], "basis": "Z"},
    ]
    out = run_circuit(circuit, 1, 3, seed=0)
    flags = [o["deterministic"] for o in out["outcomes"]]
    assert flags == [True, False, True]
    assert out["outcomes"][1]["outcome"] == out["outcomes"][2]["outcome"]


@pytest.mark.parametrize("step, why", [
    ({"gate": "NOPE", "wires": [0]}, "unknown gate 'NOPE'"),
    ({"wires": [0]}, "unknown gate None"),
    ("F", "unknown gate None"),
    ({"gate": "F", "wires": [0, 1]}, "F takes 1 wire"),
    ({"gate": "CNOT", "wires": [1]}, "CNOT takes 2 wire"),
    ({"gate": "measure", "wires": []}, "measure takes 1 wire"),
    ({"gate": "SWAP", "wires": 1}, "SWAP takes 2 wire"),
    ({"gate": "CNOT", "wires": [0, 0]}, "distinct wires"),
    ({"gate": "CP", "wires": [1, 1]}, "distinct wires"),
    ({"gate": "F", "wires": [2]}, "0..1"),
    ({"gate": "F", "wires": [-1]}, "0..1"),
    ({"gate": "measure", "wires": [5]}, "0..1"),
    ({"gate": "Sq", "wires": ["0"], "q": 1}, "0..1"),
    ({"gate": "Sq", "wires": [0]}, "Sq needs an integer q, got None"),
    ({"gate": "Sq", "wires": [0], "q": "a"}, "Sq needs an integer q"),
    ({"gate": "Sq", "wires": [0], "q": 1.5}, "Sq needs an integer q"),
    ({"gate": "Sq", "wires": [0], "q": True}, "Sq needs an integer q"),
    ({"gate": "Sq", "wires": [0], "q": 3}, "unit q mod 3, got 3"),
    ({"gate": "F", "wires": [True]}, "0..1"),
    ({"gate": "measure", "wires": [0], "basis": "Y"}, "basis must be"),
])
@pytest.mark.parametrize("oracle", [False, True])
def test_run_circuit_rejects_bad_steps(step, why, oracle):
    circuit = [{"gate": "F", "wires": [0]}, step]
    with pytest.raises(ValueError) as exc:
        run_circuit(circuit, 2, 3, oracle=oracle)
    assert str(exc.value).startswith("bad circuit step 1: ")
    assert why in str(exc.value)


_CHOOSE = "choose from ('F', 'Sq', 'CNOT', 'CP', 'SWAP', 'measure')"


@pytest.mark.parametrize("step, why", [
    ({"gate": "NOPE", "wires": [0]}, f"unknown gate 'NOPE'; {_CHOOSE}"),
    ("F", f"unknown gate None; {_CHOOSE}"),
    ({"gate": ["F"], "wires": [0]}, f"unknown gate ['F']; {_CHOOSE}"),
    ({"gate": "F", "wires": [0, 1]}, "F takes 1 wire(s), got [0, 1]"),
    ({"gate": "SWAP", "wires": 1}, "SWAP takes 2 wire(s), got 1"),
    ({"gate": "CNOT", "wires": [0, 0]},
     "CNOT needs distinct wires, got [0, 0]"),
    ({"gate": "F", "wires": [-1]},
     "wires must be integers in 0..1, got [-1]"),
    ({"gate": "CNOT", "wires": [0, 1.0]},
     "wires must be integers in 0..1, got [0, 1.0]"),
    ({"gate": "CP", "wires": [1, True]},
     "wires must be integers in 0..1, got [1, True]"),
    ({"gate": "Sq", "wires": ["0"], "q": 1},
     "wires must be integers in 0..1, got ['0']"),
    ({"gate": "Sq", "wires": [0], "q": True},
     "Sq needs an integer q, got True"),
    ({"gate": "Sq", "wires": [0], "q": 3}, "Sq needs a unit q mod 3, got 3"),
    ({"gate": "measure", "wires": [0], "basis": "Y"},
     "basis must be 'Z' or 'X', got 'Y'"),
])
def test_bad_circuit_step_refusals_are_pinned(step, why):
    # The whole line, naming the first bad step of two after good ones.
    circuit = [{"gate": "F", "wires": [0]}, {"gate": "CNOT", "wires": [1, 0]},
               step, {"gate": "NOPE"}]
    for oracle in (False, True):
        with pytest.raises(ValueError) as exc:
            run_circuit(circuit, 2, 3, oracle=oracle)
        assert str(exc.value) == f"bad circuit step 2: {why}"


@pytest.mark.parametrize("n, dim", [(0, 3), (-1, 3), (1, 0), (1, 1),
                                    (2, 4), (1, -3)])
def test_run_circuit_needs_qudits_of_prime_dimension(n, dim):
    with pytest.raises(ValueError, match="n >= 1 qudits of prime dimension"):
        run_circuit([], n, dim)


# ---------------------------------------------------------------------------
# int64 bound and size cap

# the largest prime below the int64 bound D < 2^20, and the next prime
BIG_PRIME, PAST_BOUND = 1048573, 1048583


@pytest.mark.parametrize("d", [1000003, BIG_PRIME])
def test_order_check_stays_in_int64(d):
    # (up-shift X)(Z^-1) has order D; z.x k(k-1) at k = D is about D^4
    assert PauliOp(1, d, 0, (d - 1,), (d - 1,)).order_divides_dim()


def test_large_prime_circuits_run_without_overflow():
    # Any numpy overflow warning fails the test (warnings are errors).
    for s in range(200):
        circuit = random_circuit(3, 1000003, random.Random(s), depth=20,
                                 measurements=6)
        out = run_circuit(circuit, 3, 1000003, seed=s)
        assert len(out["outcomes"]) == 6
        assert all(0 <= o["outcome"] < 1000003 for o in out["outcomes"])


def test_long_stabilizer_product_at_the_bound_measures_zero():
    # The eigenvalue phase of a product of 400 dense generators sums
    # about n^3 D^2 / 8 terms, past 2^63 unless each row's sum is reduced
    # mod D; numpy integer arrays wrap without a warning.
    n, d = 400, BIG_PRIME
    rng = random.Random(0)
    tab = Tableau.zero_state(n, d)
    for step in random_circuit(n, d, rng, depth=12000, measurements=0):
        tab.apply(step["gate"], step["wires"], step.get("q"))
    powers = [rng.randrange(d) for _ in range(n)]
    word = functools.reduce(functools.partial(_row_mul, dim=d),
                            _row_pow(tab.rows, powers, d))
    assert tab.measure(PauliOp.from_row(d, word), rng) == (0, True)


@pytest.mark.parametrize("build", [
    lambda d: PauliOp(1, d, 0, (0,), (0,)),
    lambda d: Tableau.zero_state(1, d),
    lambda d: Tableau(1, d, []),
    lambda d: run_circuit([], 1, d),
    lambda d: enumerate_stabilizer_states(d),
], ids=["PauliOp", "zero_state", "Tableau", "run_circuit", "enumerate"])
@pytest.mark.parametrize("d", [PAST_BOUND, 10 ** 18 + 9])
def test_every_entry_refuses_a_prime_past_the_int64_bound(build, d):
    # checked before the primality test, whose trial division would take
    # about 10^9 steps at D = 10^18 + 9
    with pytest.raises(ValueError, match=f"refuse n=1, D={d}: their int64"):
        build(d)


def test_pauli_word_refuses_n_past_the_int64_bound():
    # refused before x and z are read
    with pytest.raises(ValueError, match=r"n=4611686018427387904, D=3"):
        PauliOp(2 ** 62, 3, 0, (), ())


def test_tableau_cap_is_checked_before_allocating(monkeypatch):
    monkeypatch.setattr(stabilizer, "MAX_TABLEAU_QUDITS", 4)
    assert Tableau.zero_state(4, 3).table.shape == (8, 9)
    message = "tableau refuses n=5 qudits of D=3: .* cap of 4 qudits"
    gens = [PauliOp.single(5, 3, w, z=1) for w in range(5)]
    for build in (lambda: Tableau.zero_state(5, 3),
                  lambda: Tableau(5, 3, gens),
                  lambda: run_circuit([], 5, 3)):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("build", [lambda: Tableau.zero_state(1, 4),
                                   lambda: Tableau(1, 4, [])],
                         ids=["zero_state", "Tableau"])
def test_both_tableau_constructors_need_a_prime(build):
    with pytest.raises(ValueError, match="tableau needs prime dimension"):
        build()


def test_elimination_refuses_a_non_unit_pivot():
    # pow(a, -1, p) raises where Fermat's a^(p-2) gave a wrong inverse
    with pytest.raises(ValueError, match="not invertible"):
        _modp.rref_mod([[2, 1]], 4)
    assert _modp.rref_mod([[3, 1]], 4)[0].tolist() == [[1, 3]]


def _rref_oracle(rows, cols, p):
    """Row-reduced echelon form mod p on lists of Python ints, one row
    operation at a time; returns (R, pivot_columns)."""
    r = [[v % p for v in row] for row in rows]
    pivots = []
    for col in range(cols):
        lead = len(pivots)
        pivot = next((i for i in range(lead, len(r)) if r[i][col]), None)
        if pivot is None:
            continue
        r[lead], r[pivot] = r[pivot], r[lead]
        inverse = pow(r[lead][col], -1, p)
        r[lead] = [v * inverse % p for v in r[lead]]
        for i in range(len(r)):
            if i != lead and r[i][col]:
                factor = r[i][col]
                r[i] = [(v - factor * w) % p for v, w in zip(r[i], r[lead])]
        pivots.append(col)
    return r, pivots


@st.composite
def _matrices_mod_p(draw):
    """A prime p and a matrix of 0..6 rows and 0..7 columns, with many
    zeros and some repeated rows, so every rank turns up."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.integers(-3 * p, 3 * p))
    matrix = [draw(st.lists(entry, min_size=cols, max_size=cols))
              for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        matrix[-1] = list(matrix[0])
    return p, np.array(matrix, dtype=np.int64).reshape(rows, cols)


@given(_matrices_mod_p())
@settings(max_examples=300, deadline=None)
def test_rref_matches_a_python_int_oracle(drawn):
    # The RREF is unique, so the broadcast row updates must give the
    # oracle's matrix and pivots exactly, zero rows and columns included.
    p, a = drawn
    r, pivots = _modp.rref_mod(a, p)
    want, want_pivots = _rref_oracle(a.tolist(), a.shape[1], p)
    assert r.dtype == np.int64 and r.shape == a.shape
    assert r.tolist() == want
    assert pivots == want_pivots
    assert all(type(c) is int for c in pivots)


# ---------------------------------------------------------------------------
# Single-qudit stabilizer states and their exact phase coordinates

@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_enumeration_counts_and_exactness(d):
    states = enumerate_stabilizer_states(d)
    assert len(states) == d * (d + 1)
    seen = set()
    for st in states:
        assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-10
        key = tuple(np.round(st.vector / st.vector[np.argmax(
            np.abs(st.vector))], 8))
        seen.add(key)
        if st.z_phases is not None:
            assert st.z_phases.is_exact
            # Flat in the computational basis.
            assert _dev(np.abs(st.vector), np.full(d, 1 / math.sqrt(d))) \
                < 1e-10
            # The coordinates reproduce the vector.
            rebuilt = np.exp(1j * np.array(st.z_phases.radians_full()))
            rebuilt = rebuilt / math.sqrt(d)
            assert abs(abs(rebuilt.conj() @ st.vector) - 1.0) < 1e-10
        if st.x_phases is not None:
            assert st.x_phases.is_exact
    assert len(seen) == d * (d + 1)  # pairwise distinct up to phase


def test_qutrit_computational_states_have_x_coordinates():
    states = enumerate_stabilizer_states(3)
    z_states = {st.index: st for st in states if st.family == "Z"}
    # |1> sits on the X torus at (4pi/3, 2pi/3).
    assert z_states[1].x_phases == PhaseVector(3, [Turn.exact(2, 3),
                                                   Turn.exact(1, 3)])
    assert z_states[1].x_phases.radians_full() == pytest.approx(
        [0.0, 4 * math.pi / 3, 2 * math.pi / 3])
    assert z_states[0].x_phases == cyclic_vector(3, 0)
    assert z_states[2].x_phases == PhaseVector(3, [Turn.exact(1, 3),
                                                   Turn.exact(2, 3)])
    for st in z_states.values():
        assert st.z_phases is None  # basis kets are not Z-unbiased


def test_exactly_six_qutrit_states_sit_on_both_tori():
    states = enumerate_stabilizer_states(3)
    both = [st for st in states if st.unbiased_z and st.unbiased_x]
    assert len(both) == 6
    # They are the two non-Fourier flat families.
    assert {st.family for st in both} == {1, 2}


def test_x_coordinates_match_fourier_transform():
    # If a state has X coordinates, its Fourier preimage must be the
    # flat state with those Z coordinates.
    from quditzx.semantics import fourier_matrix, phased_state
    for d in (2, 3, 5, 7):
        f = fourier_matrix(d)
        for st in enumerate_stabilizer_states(d):
            if st.x_phases is None:
                continue
            rebuilt = f @ phased_state("Z", st.x_phases, d)
            overlap = abs(rebuilt.conj() @ st.vector)
            assert abs(overlap - 1.0) < 1e-10


def test_enumeration_requires_prime_dimension():
    with pytest.raises(ValueError):
        enumerate_stabilizer_states(4)


def _flat(exps, d):
    """The flat state sqrt(eta)^(e_m) / sqrt(D), e_0 = 0."""
    return np.exp(1j * np.pi * np.array((0, *exps)) / d) / math.sqrt(d)


@given(st.sampled_from([2, 3, 5, 7]), st.data())
@settings(max_examples=60, deadline=None)
def test_torus_exponents_give_the_plus_one_eigenstate(d, data):
    x, z = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                     .filter(any))
    # P^D = 1 fixes the parity of the phase: phase = z x (D-1) mod 2
    phase = 2 * data.draw(st.integers(0, d - 1)) + z * x * (d - 1) % 2
    p = PauliOp(1, d, phase, (x,), (z,))
    assert p.order_divides_dim()
    z_exps, x_exps = (torus_exponents(p.row, d, c) for c in ("Z", "X"))
    assert (z_exps is None) == (x == 0) and (x_exps is None) == (z == 0)
    states = []
    if z_exps is not None:
        states.append(_flat(z_exps, d))
    if x_exps is not None:
        states.append(fourier_matrix(d) @ _flat(x_exps, d))
    for psi in states:
        assert _dev(p.dense() @ psi, psi) < 1e-12


def test_torus_exponents_refuse_a_row_without_a_plus_one_eigenstate():
    # sqrt(eta) X at D=3 cubes to -1
    with pytest.raises(ValueError, match=r"\[1, 0, 1\] needs order"):
        torus_exponents([1, 0, 1], 3)


@pytest.mark.parametrize("d", [3, 5])
def test_flat_states_with_nonnegative_wigner_function_are_the_phase_group(d):
    # Discrete Hudson theorem (Gross, quant-ph/0602001): of the D^(D-1)
    # flat states with D-th-root phases, entry 0 pinned, exactly the D^2
    # stabilizer states have W(q, p) >= 0, with
    # W(q, p) = (1/D) sum_y eta^(-2py) psi(q+y) conj(psi(q-y)).
    a = np.array(list(itertools.product(range(d), repeat=d - 1)), dtype=int)
    psi = _eta(d, np.concatenate([np.zeros((len(a), 1), int), a], axis=1))
    q, y = np.ogrid[:d, :d]
    pairs = psi[:, (q + y) % d] * psi[:, (q - y) % d].conj()
    wigner = pairs @ _eta(d, -2 * np.outer(np.arange(d), np.arange(d))) / d
    assert _dev(wigner.imag, 0) < 1e-12
    positive = (wigner.real >= -1e-12).all(axis=(1, 2))
    assert positive.sum() == d * d
    assert ({tuple(Fraction(int(v), d) for v in row) for row in a[positive]}
            == set(phase_group(d)["elements"]))


# ---------------------------------------------------------------------------
# Phase groups of the flat states

def test_qutrit_phase_group_is_three_by_three():
    g = phase_group(3)
    assert g["order"] == 9
    assert g["closed"]
    assert g["factors"] == [3, 3]


def test_qubit_phase_group_is_cyclic_four():
    g = phase_group(2)
    assert g["order"] == 4
    assert g["closed"]
    assert g["factors"] == [4]


def test_phase_group_elements_are_exact_fractions():
    for d in (5, 7):
        g = phase_group(d)
        assert g["closed"]
        assert g["order"] == d * d and g["factors"] == [d, d]
        for el in g["elements"]:
            assert all(isinstance(f, Fraction) for f in el)


def test_phase_group_does_not_load_numpy_ma():
    # np.unique(axis=0) imports numpy.ma on its first call, which took
    # most of a first phase_group(3); a fresh process shows the import.
    code = ("import sys\n"
            "from quditzx.stabilizer import phase_group\n"
            "assert phase_group(3)['factors'] == [3, 3]\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(quditzx.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_phase_group_refuses_a_closure_array_above_its_cap(monkeypatch):
    # The closure check sums every pair of the D^2 exponent rows, D^4 (D-1)
    # entries: the cap admits D=17 and refuses D=19. With the cap lowered
    # to the D=3 size, D=5 is refused before any row is built.
    assert 17 ** 4 * 16 <= stabilizer._PHASE_GROUP_CAP < 19 ** 4 * 18
    monkeypatch.setattr(stabilizer, "_PHASE_GROUP_CAP", 3 ** 4 * 2)
    rows = stabilizer._stabilizer_rows

    def unreachable(dim):
        raise AssertionError(f"rows built for D={dim}")

    monkeypatch.setattr(stabilizer, "_stabilizer_rows", unreachable)
    with pytest.raises(ValueError) as refused:
        phase_group(5)
    assert str(refused.value) == (
        "phase_group refuses D=5: its closure check needs 2500 entries "
        "(D^4 (D-1)), above its cap of 162")
    monkeypatch.setattr(stabilizer, "_stabilizer_rows", rows)
    assert phase_group(3)["factors"] == [3, 3]
