"""Phase synthesis: steering states onto basis rays with X-type phase maps.

The oracle for every solve is direct: multiply the produced matrix into
the input state and measure the distance to the target ray.
"""

import cmath
import math

import numpy as np
import pytest

from quditzx.phases import PhaseVector
from quditzx.semantics import fourier_matrix, lambda_matrix
from quditzx.synthesis import (
    MAX_DIM,
    DegenerateStateError,
    fourier_coefficients,
    residual_to_target,
    synth_xj,
    synth_zj,
    verify_decompositions,
)


def _random_state(dim, rng):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


# ---------------------------------------------------------------------------
# Fourier coefficients

def test_fourier_coefficients_against_direct_sum():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        b = _random_state(d, rng)
        beta = fourier_coefficients(b)
        for k in range(d):
            want = sum(b[c] * np.exp(-2j * np.pi * c * k / d)
                       for c in range(d))
            assert abs(beta[k] - want) < 1e-12


def test_fourier_coefficients_are_scaled_fourier_overlaps():
    # beta_k / sqrt(D) is the amplitude of b on the k-th Fourier state.
    d = 4
    b = _random_state(d, np.random.default_rng(8))
    beta = fourier_coefficients(b)
    overlaps = fourier_matrix(d).conj().T @ b
    assert np.max(np.abs(beta / math.sqrt(d) - overlaps)) < 1e-12


# ---------------------------------------------------------------------------
# residual_to_target

def test_residual_is_zero_on_the_ray_and_large_off_it():
    e1 = np.zeros(3)
    e1[1] = 1.0
    assert residual_to_target(np.eye(3), 5j * e1, 1) < 1e-12
    assert residual_to_target(np.eye(3), np.ones(3), 1) > 0.5
    assert residual_to_target(np.zeros((3, 3)), e1, 1) == math.inf


# ---------------------------------------------------------------------------
# Solving for Z-basis targets

def test_flat_input_needs_no_phases():
    result = synth_zj(0, np.array([1.0, 0.0, 0.0]))
    assert result.unitary
    assert result.phase_vector.is_zero
    assert np.max(np.abs(result.alpha)) < 1e-12
    assert result.residual < 1e-12


def test_basis_targets_reached_for_random_states():
    rng = np.random.default_rng(123)
    for d in (2, 3, 5):
        for _ in range(10):
            b = _random_state(d, rng)
            for j in range(d):
                result = synth_zj(j, b)
                assert result.residual < 1e-8
                # Independent re-check of the produced matrix.
                assert residual_to_target(result.matrix, b, j) < 1e-8
                assert result.dim == d and result.target == j
                assert result.route == "beta"


def test_solution_matrix_is_an_x_type_phase_map():
    # The returned matrix must be Lambda_X of the returned exponents:
    # a circulant diagonalized by the Fourier basis.
    b = _random_state(3, np.random.default_rng(7))
    result = synth_zj(1, b)
    assert np.max(np.abs(result.matrix - lambda_matrix("X", result.alpha,
                                                       3))) < 1e-12
    f = fourier_matrix(3)
    diag = f.conj().T @ result.matrix @ f
    off = diag - np.diag(np.diag(diag))
    assert np.max(np.abs(off)) < 1e-10


def test_alpha_zero_is_always_pinned():
    rng = np.random.default_rng(42)
    for _ in range(5):
        result = synth_zj(2, _random_state(4, rng))
        assert result.alpha[0] == 0


def test_generic_complex_states_give_non_unitary_solutions():
    # A random complex state has Fourier magnitudes that differ, so the
    # solving exponents acquire imaginary parts and no phase vector is
    # reported.
    rng = np.random.default_rng(11)
    saw_non_unitary = False
    for _ in range(10):
        result = synth_zj(0, _random_state(3, rng))
        if not result.unitary:
            saw_non_unitary = True
            assert result.phase_vector is None
            assert np.max(np.abs(result.alpha.imag)) > 1e-9
    assert saw_non_unitary


def test_phase_only_states_give_unitary_solutions():
    # States with flat Fourier magnitudes are steered unitarily.
    d = 3
    rng = np.random.default_rng(3)
    for _ in range(5):
        angles = rng.uniform(0, 2 * np.pi, d)
        b = fourier_matrix(d) @ np.exp(1j * angles) / math.sqrt(d)
        result = synth_zj(1, b)
        assert result.unitary
        assert result.residual < 1e-9
        lam = lambda_matrix("X", result.phase_vector)
        assert np.max(np.abs(lam.conj().T @ lam - np.eye(d))) < 1e-9


# ---------------------------------------------------------------------------
# Degenerate inputs

def test_zero_vector_is_degenerate():
    with pytest.raises(DegenerateStateError):
        synth_zj(0, np.zeros(3))


def test_fourier_basis_states_are_degenerate():
    # A Fourier state has a single nonzero beta, so every other ratio
    # divides by zero: these are exactly the unreachable inputs.
    d = 3
    f = fourier_matrix(d)
    for k in range(d):
        with pytest.raises(DegenerateStateError):
            synth_zj(0, f[:, k])


def test_near_degenerate_states_are_refused_not_mis_solved():
    # beta_1 almost vanishes: the ratio leaves the solvable window.
    d = 3
    f = fourier_matrix(d)
    b = f[:, 0] + 1e-9 * f[:, 1] + 1e-9 * f[:, 2]
    with pytest.raises(DegenerateStateError):
        synth_zj(0, b)


def test_argument_validation():
    with pytest.raises(ValueError):
        synth_zj(3, np.ones(3))
    with pytest.raises(ValueError):
        synth_zj(-1, np.ones(3))
    with pytest.raises(ValueError):
        synth_zj(0, np.ones(4), route="qutrit")
    with pytest.raises(ValueError):
        synth_zj(0, np.ones(3), route="newton")
    with pytest.raises(ValueError):
        synth_zj(0, np.array([1.0]))


# ---------------------------------------------------------------------------
# The explicit three-level closed forms

def test_qutrit_route_agrees_with_beta_route():
    rng = np.random.default_rng(77)
    for trial in range(30):
        b = _random_state(3, rng)
        for j in range(3):
            via_beta = synth_zj(j, b, route="beta")
            via_closed = synth_zj(j, b, route="qutrit")
            assert via_closed.route == "qutrit"
            assert via_closed.residual < 1e-8, (trial, j)
            # Same map: the exponentials agree entrywise (alpha_0 = 0
            # pins the gauge).
            ua = np.exp(1j * via_beta.alpha)
            ub = np.exp(1j * via_closed.alpha)
            assert np.max(np.abs(ua - ub)) < 1e-8, (trial, j)


def test_qutrit_route_rejects_degenerates_too():
    f = fourier_matrix(3)
    for j in range(3):
        with pytest.raises(DegenerateStateError):
            synth_zj(j, f[:, 1], route="qutrit")


# ---------------------------------------------------------------------------
# Eigenphase targets

def test_synth_xj_sets_one_fourier_eigenvalue():
    d = 4
    f = fourier_matrix(d)
    phi = 0.9
    for j in range(1, d):
        pv = synth_xj(j, phi, d)
        lam = lambda_matrix("X", pv)
        for k in range(d):
            want = cmath.exp(1j * phi) if k == j else 1.0
            got = f[:, k].conj() @ lam @ f[:, k]
            assert abs(got - want) < 1e-10


def test_synth_xj_j_zero_works_up_to_global_phase():
    d = 3
    f = fourier_matrix(d)
    phi = 1.3
    pv = synth_xj(0, phi, d)
    lam = lambda_matrix("X", pv)
    eigs = [f[:, k].conj() @ lam @ f[:, k] for k in range(d)]
    # Relative to the k >= 1 eigenvalues, |+_0> is scaled by exp(i phi).
    for k in range(1, d):
        assert abs(eigs[0] / eigs[k] - cmath.exp(1j * phi)) < 1e-10


def test_synth_xj_validates_j():
    with pytest.raises(ValueError):
        synth_xj(3, 0.1, 3)
    with pytest.raises(ValueError):
        synth_xj(-1, 0.1, 3)


def test_both_targets_refuse_d_above_the_cap():
    assert synth_xj(1, 0.5, MAX_DIM).dim == MAX_DIM
    message = f"synthesis at D={MAX_DIM + 1} is above its cap of D={MAX_DIM}"
    with pytest.raises(ValueError) as err:
        synth_xj(1, 0.5, MAX_DIM + 1)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        synth_zj(0, np.ones(MAX_DIM + 1))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Gate factorizations

@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_two_qudit_gate_decompositions(dim):
    report = verify_decompositions(dim)
    assert report["passed"]
    assert report["swapDeviation"] < 1e-9
    assert report["cpDeviation"] < 1e-9
