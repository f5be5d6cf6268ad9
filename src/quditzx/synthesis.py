"""Phase-map synthesis: steering an arbitrary state onto a basis state.

Lambda_X(alpha) = F Lambda_Z(alpha) F^dagger acts on the Fourier
coefficients beta_k = sum_c b_c eta^(-ck) of a state b by multiplying
each with exp(i*alpha_k). Sending b to the computational basis state
e_j therefore needs

    exp(i*alpha_k) = (beta_0 / beta_k) * eta^(-jk),

which pins alpha exactly (alpha_0 = 0 comes out automatically). The
alpha_k are real precisely when all |beta_k| agree; otherwise they pick
up imaginary parts and the phase map is not unitary, but the equation
still holds and Lambda_X(alpha) b = beta_0 e_j exactly.

A state with some beta_k = 0 (for example any Fourier basis state) has
no solution; synth_zj refuses it rather than returning noise.

For D = 3 the module also carries the closed-form expressions for the
three targets as explicit rational functions of (b0, b1, b2); they
agree with the ratio route wherever both are defined and tests hold
them together.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .phases import PhaseVector
from .semantics import lambda_matrix

_RATIO_WINDOW = 1e6

# Largest D that synth_zj and synth_xj accept. synth_zj builds D x D
# complex matrices (the Fourier sum and the X phase map): at this D that
# takes about 0.7 s and 170 MiB with one BLAS thread, and each doubling of
# D costs about four times as much.
MAX_DIM = 2048


class DegenerateStateError(ValueError):
    """The target equations have no solution for this state."""


@dataclass
class SynthesisResult:
    dim: int
    target: int
    alpha: np.ndarray            # complex alpha_0..alpha_{D-1}, alpha_0 = 0
    phase_vector: PhaseVector | None   # set when alpha is real
    beta: np.ndarray
    matrix: np.ndarray
    residual: float
    route: str

    @property
    def unitary(self) -> bool:
        return self.phase_vector is not None


def check_dim(dim: int) -> None:
    """Refuse a D above MAX_DIM, before anything of size D is built."""
    if dim > MAX_DIM:
        raise ValueError(f"synthesis at D={dim} is above its cap of "
                         f"D={MAX_DIM}")


def fourier_coefficients(b) -> np.ndarray:
    """beta_k = sum_c b_c eta^(-ck)."""
    b = np.asarray(b, dtype=complex).ravel()
    d = b.shape[0]
    k = np.arange(d)
    return np.exp(-2j * np.pi * np.outer(k, k) / d) @ b


def residual_to_target(matrix: np.ndarray, b, j: int) -> float:
    """Distance of matrix @ b from the ray through e_j, after
    normalizing the output."""
    b = np.asarray(b, dtype=complex).ravel()
    v = matrix @ b
    norm = np.linalg.norm(v)
    if norm < 1e-300:
        return math.inf
    v = v / norm
    if abs(v[j]) < 1e-12:
        return float(np.linalg.norm(v))
    target = np.zeros_like(v)
    target[j] = v[j] / abs(v[j])
    return float(np.linalg.norm(v - target))


def synth_zj(j: int, b, route: str = "beta") -> SynthesisResult:
    """Phases alpha with Lambda_X(alpha) b proportional to e_j.

    route "beta" works in any dimension; route "qutrit" uses the
    explicit D = 3 closed forms.
    """
    check_dim(np.size(b))
    b = np.asarray(b, dtype=complex).ravel()
    d = b.shape[0]
    if d < 2:
        raise ValueError("need a state of dimension at least 2")
    if not 0 <= j < d:
        raise ValueError(f"target index must be in 0..{d - 1}, got {j}")
    if not np.all(np.isfinite(b)):
        raise ValueError(f"state amplitudes must be finite, got {b.tolist()}")
    norm = np.linalg.norm(b)
    if norm == 0:
        raise DegenerateStateError("the zero vector has no target")
    b = b / norm

    beta = fourier_coefficients(b)
    if abs(beta[0]) == 0.0:
        raise DegenerateStateError("beta_0 vanishes; e_j is unreachable")
    ratios = np.empty(d, dtype=complex)
    for k in range(d):
        if abs(beta[k]) == 0.0:
            raise DegenerateStateError(
                f"beta_{k} vanishes; the phase equations have no solution")
        ratios[k] = beta[0] / beta[k]
        mag = abs(ratios[k])
        if not (1.0 / _RATIO_WINDOW <= mag <= _RATIO_WINDOW):
            raise DegenerateStateError(
                f"|beta_0/beta_{k}| = {mag:.3g} is outside the solvable window")

    if route == "beta":
        alpha = np.zeros(d, dtype=complex)
        for k in range(1, d):
            u = ratios[k] * np.exp(-2j * np.pi * j * k / d)
            alpha[k] = -1j * cmath.log(u)
    elif route == "qutrit":
        if d != 3:
            raise ValueError("route 'qutrit' needs a 3-dimensional state")
        alpha = _qutrit_alpha(j, b)
    else:
        raise ValueError(f"route must be 'beta' or 'qutrit', got {route!r}")

    matrix = lambda_matrix("X", alpha, d)
    res = residual_to_target(matrix, b, j)
    pv = None
    if np.max(np.abs(alpha.imag)) < 1e-9:
        pv = PhaseVector.from_radians(d, list(alpha.real[1:]))
    return SynthesisResult(d, j, alpha, pv, beta, matrix, res, route)


def _qutrit_alpha(j: int, b) -> np.ndarray:
    """The D = 3 closed forms, transcribed term by term."""
    b0, b1, b2 = (complex(v) for v in b)
    eta = cmath.exp(2j * cmath.pi / 3)
    s = b0 + b1 + b2
    if j == 0:
        den = eta * (b0 * b0 * (-eta) * (eta + 1) - b0 * (b1 + b2)
                     + b1 * b1 + b1 * b2 * eta * (eta + 1) + b2 * b2)
        _deny(den)
        a1 = -1j * cmath.log(s * (b0 * eta - b1 * (eta + 1) + b2) / den)
        a2 = -1j * cmath.log(s * (b0 * eta + b1 - b2 * (eta + 1)) / den)
    elif j == 1:
        den = eta * (b0 * b0 + b0 * (b2 * eta * (eta + 1) - b1)
                     - (b1 * eta + b1 - b2) * (b1 * eta + b2))
        _deny(den)
        a1 = -1j * cmath.log(s * (b0 + b1 * eta - b2 * (eta + 1)) / den)
        a2 = -1j * cmath.log(-s * (b0 * eta + b0 - b1 * eta - b2) / den)
    elif j == 2:
        den = eta * (b0 * b0 + b0 * (b1 * eta * (eta + 1) - b2)
                     + (b1 + b2 * eta) * (b1 - b2 * (eta + 1)))
        _deny(den)
        a1 = -1j * cmath.log(-s * (b0 * eta + b0 - b1 - b2 * eta) / den)
        a2 = -1j * cmath.log(s * (b0 - b1 * (eta + 1) + b2 * eta) / den)
    else:
        raise ValueError("qutrit targets are 0, 1, 2")
    return np.array([0.0, a1, a2], dtype=complex)


def _deny(den: complex):
    if abs(den) == 0.0:
        raise DegenerateStateError("closed-form denominator vanishes")


def synth_xj(j: int, phi: float, dim: int) -> PhaseVector:
    """Phases whose X phase map scales the Fourier state |+_j> by
    exp(i*phi) and fixes the other Fourier states, up to a global phase.

    Lambda_X(alpha) has eigenvalue exp(i*alpha_k) on |+_k>. alpha_0 is
    pinned to zero, so the j = 0 target is met by shifting every other
    eigenvalue down by phi instead, which is the same map up to the
    global phase exp(i*phi).
    """
    check_dim(dim)
    if not 0 <= j < dim:
        raise ValueError(f"target index must be in 0..{dim - 1}, got {j}")
    if not math.isfinite(phi):
        raise ValueError(f"eigenphase phi must be finite, got {phi}")
    if j == 0:
        return PhaseVector.from_radians(dim, [-phi] * (dim - 1))
    rads = [0.0] * (dim - 1)
    rads[j - 1] = phi
    return PhaseVector.from_radians(dim, rads)


# ---------------------------------------------------------------------------
# Two-qudit gate decompositions

def verify_decompositions(dim: int) -> dict:
    """Check SWAP and CP against their CNOT-and-Fourier factorizations.

    SWAP_ab = CNOT_ab CNOT_ba^dagger CNOT_ab (F_a^2 (x) I_b)
    CP_ab   = (I_a (x) F_b)^dagger CNOT_ab (I_a (x) F_b)
    """
    from .stabilizer import gate_matrix

    d = dim
    eye = np.eye(d, dtype=complex)
    f = gate_matrix("F", d)
    cnot = gate_matrix("CNOT", d)
    swap = gate_matrix("SWAP", d)
    cp = gate_matrix("CP", d)
    cnot_ba = swap @ cnot @ swap

    swap_built = cnot @ cnot_ba.conj().T @ cnot @ np.kron(f @ f, eye)
    cp_built = np.kron(eye, f).conj().T @ cnot @ np.kron(eye, f)

    swap_dev = float(np.max(np.abs(swap_built - swap)))
    cp_dev = float(np.max(np.abs(cp_built - cp)))
    return {
        "dim": d,
        "swapDeviation": swap_dev,
        "cpDeviation": cp_dev,
        "passed": max(swap_dev, cp_dev) < 1e-9,
    }
