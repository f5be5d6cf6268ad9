"""Qudit stabilizer simulator with a dense matrix oracle.

Weyl operator conventions, with eta = exp(2*pi*i/D) and the square root
sqrt(eta) = exp(pi*i/D):

* X is the down shift X|m> = |m-1>, Z = diag(eta^m), so XZ = eta ZX.
* A Pauli word is sqrt(eta)^phase * tensor_k X^{x_k} Z^{z_k} with phase
  tracked mod 2D, which closes the group under multiplication for every
  D including D = 2.

The tableau tracks n independent commuting generators of the stabilizer
group of a pure state. Clifford updates are the hand-derived symplectic
rules; measurement follows the usual pivot argument over Z_D, which is
why the tableau requires prime D. The dense oracle and the tableau share
only the gate definitions. F, CNOT and SWAP are the matrices of the
semantics module's generator table, and powers of eta and sqrt(eta) come
from semantics.omega.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _modp
from .phases import PhaseVector, Turn, cyclic_vector
from .semantics import fourier_matrix, generator_matrix, omega

# The number of wires each circuit step takes; GATES is its unitary part.
_STEP_WIRES = {"F": 1, "Sq": 1, "CNOT": 2, "CP": 2, "SWAP": 2, "measure": 1}
GATES = tuple(g for g in _STEP_WIRES if g != "measure")


@dataclass(frozen=True)
class PauliOp:
    """sqrt(eta)^phase * X^x Z^z on n qudits; phase lives mod 2D."""

    n: int
    dim: int
    phase: int
    x: tuple
    z: tuple

    def __post_init__(self):
        if len(self.x) != self.n or len(self.z) != self.n:
            raise ValueError("x and z must each have one entry per qudit")
        object.__setattr__(self, "phase", self.phase % (2 * self.dim))
        object.__setattr__(self, "x", tuple(v % self.dim for v in self.x))
        object.__setattr__(self, "z", tuple(v % self.dim for v in self.z))

    @classmethod
    def identity(cls, n: int, dim: int) -> "PauliOp":
        return cls(n, dim, 0, (0,) * n, (0,) * n)

    @classmethod
    def single(cls, n: int, dim: int, wire: int, x: int = 0, z: int = 0,
               phase: int = 0) -> "PauliOp":
        xs = [0] * n
        zs = [0] * n
        xs[wire] = x
        zs[wire] = z
        return cls(n, dim, phase, tuple(xs), tuple(zs))

    def mul(self, other: "PauliOp") -> "PauliOp":
        """Product self * other; reordering Z past X costs eta^(-z.x')."""
        if (self.n, self.dim) != (other.n, other.dim):
            raise ValueError("operands act on different systems")
        cross = sum(a * b for a, b in zip(self.z, other.x))
        return PauliOp(
            self.n, self.dim,
            self.phase + other.phase - 2 * cross,
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.z, other.z)),
        )

    def pow(self, k: int) -> "PauliOp":
        if k < 0:
            raise ValueError("negative powers are not supported")
        out = PauliOp.identity(self.n, self.dim)
        for _ in range(k):
            out = out.mul(self)
        return out

    def scaled(self, half_eta_power: int) -> "PauliOp":
        return PauliOp(self.n, self.dim, self.phase + half_eta_power,
                       self.x, self.z)

    def commutation_exponent(self, other: "PauliOp") -> int:
        """c with self other = eta^c other self."""
        c = sum(xa * zb - za * xb for xa, za, xb, zb
                in zip(self.x, self.z, other.x, other.z))
        return c % self.dim

    @property
    def is_identity_word(self) -> bool:
        return all(v == 0 for v in self.x) and all(v == 0 for v in self.z)

    def order_divides_dim(self) -> bool:
        """Whether self**D is the identity (not a phase times it)."""
        d = self.dim
        zx = sum(a * b for a, b in zip(self.z, self.x))
        if d % 2 == 1:
            return self.phase % 2 == 0
        return (self.phase + zx) % 2 == 0

    def dense(self) -> np.ndarray:
        d = self.dim
        xmat = np.zeros((d, d), dtype=complex)
        for m in range(d):
            xmat[(m - 1) % d, m] = 1.0
        zmat = np.diag([omega(d, m) for m in range(d)])
        out = np.array([[1.0 + 0j]])
        for xk, zk in zip(self.x, self.z):
            w = np.linalg.matrix_power(xmat, xk) @ np.linalg.matrix_power(zmat, zk)
            out = np.kron(out, w)
        return omega(2 * d, self.phase) * out

    def __str__(self) -> str:
        parts = []
        for k, (xk, zk) in enumerate(zip(self.x, self.z)):
            if xk or zk:
                term = ""
                if xk:
                    term += f"X{xk if xk > 1 else ''}"
                if zk:
                    term += f"Z{zk if zk > 1 else ''}"
                parts.append(f"{term}[{k}]")
        body = " ".join(parts) if parts else "I"
        return f"w^{self.phase} {body}" if self.phase else body


# ---------------------------------------------------------------------------
# Gates

def gate_matrix(name: str, dim: int, q: int | None = None) -> np.ndarray:
    """Dense matrix of one generator gate (D x D or D^2 x D^2).

    CNOT is the subtractive form |j,m> -> |j, m-j>. Sq is the monomial
    sum_j |j><jq| and needs gcd(q, D) = 1.
    """
    d = dim
    if name == "F":
        return fourier_matrix(d)
    if name == "Sq":
        if q is None or math.gcd(q, d) != 1:
            raise ValueError(f"Sq needs a unit q mod {d}, got {q}")
        m = np.zeros((d, d), dtype=complex)
        for j in range(d):
            m[j, (j * q) % d] = 1.0
        return m
    if name == "CNOT":
        return generator_matrix("cnot", d).matrix
    if name == "CP":
        diag = [omega(d, j * k) for j in range(d) for k in range(d)]
        return np.diag(diag)
    if name == "SWAP":
        return generator_matrix("swap", d).matrix
    raise ValueError(f"unknown gate {name!r}; choose from {GATES}")


def conjugate_pauli(p: PauliOp, gate: str, wires, q: int | None = None
                    ) -> PauliOp:
    """U p U^dagger for a generator gate U, by symplectic update."""
    d = p.dim
    x = list(p.x)
    z = list(p.z)
    phase = p.phase
    if gate == "F":
        (a,) = wires
        x[a], z[a] = z[a] % d, (-x[a]) % d
        phase += 2 * p.x[a] * p.z[a]
    elif gate == "Sq":
        (a,) = wires
        if q is None or math.gcd(q, d) != 1:
            raise ValueError(f"Sq needs a unit q mod {d}, got {q}")
        qbar = pow(q, -1, d)
        x[a] = (x[a] * qbar) % d
        z[a] = (z[a] * q) % d
    elif gate == "CNOT":
        a, b = wires
        z[a] = (z[a] + z[b]) % d
        x[b] = (x[b] - x[a]) % d
    elif gate == "CP":
        a, b = wires
        z[a] = (z[a] - x[b]) % d
        z[b] = (z[b] - x[a]) % d
        phase += 2 * p.x[a] * p.x[b]
    elif gate == "SWAP":
        a, b = wires
        x[a], x[b] = x[b], x[a]
        z[a], z[b] = z[b], z[a]
    else:
        raise ValueError(f"unknown gate {gate!r}")
    return PauliOp(p.n, d, phase, tuple(x), tuple(z))


# ---------------------------------------------------------------------------
# Tableau simulator

class Tableau:
    """Stabilizer state of n qudits of prime dimension D, as n generators."""

    def __init__(self, n: int, dim: int, generators):
        if not _modp.is_prime(dim):
            raise ValueError(f"tableau needs prime dimension, got {dim}")
        gens = list(generators)
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        for g in gens:
            if (g.n, g.dim) != (n, dim):
                raise ValueError("generator acts on the wrong system")
            if not g.order_divides_dim():
                raise ValueError(f"generator {g} does not have order dividing D")
        for i, g in enumerate(gens):
            for h in gens[i + 1:]:
                if g.commutation_exponent(h) != 0:
                    raise ValueError(f"generators {g} and {h} do not commute")
        mat = np.array([list(g.x) + list(g.z) for g in gens], dtype=np.int64)
        if _modp.rank_mod(mat, dim) != n:
            raise ValueError("generators are not independent")
        self.n = n
        self.dim = dim
        self.generators = gens

    @classmethod
    def zero_state(cls, n: int, dim: int) -> "Tableau":
        gens = [PauliOp.single(n, dim, k, z=1) for k in range(n)]
        return cls(n, dim, gens)

    def copy(self) -> "Tableau":
        t = object.__new__(Tableau)
        t.n, t.dim = self.n, self.dim
        t.generators = list(self.generators)
        return t

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        self.generators = [conjugate_pauli(g, gate, wires, q)
                           for g in self.generators]

    # -- measurement ------------------------------------------------------

    def outcome_distribution(self, obs: PauliOp) -> list:
        """Born probabilities for the eigenvalues eta^k, k = 0..D-1."""
        det = self._deterministic_outcome(obs)
        if det is None:
            return [Fraction(1, self.dim)] * self.dim
        probs = [Fraction(0)] * self.dim
        probs[det] = Fraction(1)
        return probs

    def _commutation_vector(self, obs: PauliOp) -> list:
        return [obs.commutation_exponent(g) for g in self.generators]

    def _deterministic_outcome(self, obs: PauliOp) -> int | None:
        d = self.dim
        if any(self._commutation_vector(obs)):
            return None
        # obs commutes with the whole group, so its word is a combination
        # of the generators; recover the exponents over Z_D.
        mat = np.array([list(g.x) + list(g.z) for g in self.generators],
                       dtype=np.int64).T
        target = np.array(list(obs.x) + list(obs.z), dtype=np.int64)
        coeffs = _modp.solve_mod(mat, target, d)
        if coeffs is None:
            raise AssertionError("commuting observable outside a full tableau")
        word = PauliOp.identity(self.n, d)
        for g, a in zip(self.generators, coeffs):
            word = word.mul(g.pow(int(a)))
        diff = (obs.phase - word.phase) % (2 * d)
        if diff % 2:
            raise AssertionError("inconsistent phase parity in measurement")
        return (diff // 2) % d

    def measure(self, obs: PauliOp, rng: random.Random) -> tuple:
        """Measure obs (which must satisfy obs^D = 1); returns
        (outcome k, deterministic flag). Collapses the tableau."""
        if (obs.n, obs.dim) != (self.n, self.dim):
            raise ValueError("observable acts on the wrong system")
        if not obs.order_divides_dim():
            raise ValueError("observable must have order dividing D")
        if obs.is_identity_word:
            raise ValueError("cannot measure a scalar")
        d = self.dim
        c = self._commutation_vector(obs)
        det = self._deterministic_outcome(obs) if not any(c) else None
        if det is not None:
            return det, True
        pivot = next(i for i, ci in enumerate(c) if ci)
        cp_inv = _modp.inv_mod(c[pivot], d)
        k = rng.randrange(d)
        new_gens = []
        for i, g in enumerate(self.generators):
            if i == pivot:
                new_gens.append(obs.scaled(-2 * k))
            elif c[i]:
                m = (-c[i] * cp_inv) % d
                new_gens.append(g.mul(self.generators[pivot].pow(m)))
            else:
                new_gens.append(g)
        self.generators = new_gens
        return k, False

    # -- dense reconstruction ---------------------------------------------

    def dense_state(self) -> np.ndarray:
        """The stabilized state vector, for small n (oracle use only)."""
        d, n = self.dim, self.n
        size = d ** n
        proj = np.eye(size, dtype=complex)
        for g in self.generators:
            gd = g.dense()
            acc = np.zeros_like(proj)
            term = np.eye(size, dtype=complex)
            for _ in range(d):
                acc += term
                term = term @ gd
            proj = proj @ (acc / d)
        for col in range(size):
            v = proj[:, col]
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                return v / norm
        raise AssertionError("projector annihilated every basis vector")


# ---------------------------------------------------------------------------
# Dense oracle

def _apply_dense(psi: np.ndarray, gate: np.ndarray, wires, n: int,
                 dim: int) -> np.ndarray:
    full = psi.reshape((dim,) * n)
    k = len(wires)
    g = gate.reshape((dim,) * (2 * k))
    moved = np.tensordot(g, full, axes=(list(range(k, 2 * k)), list(wires)))
    # tensordot puts the acted-on axes first; put them back.
    moved = np.moveaxis(moved, list(range(k)), list(wires))
    return moved.reshape(psi.shape)


class DenseSimulator:
    """Literal state-vector simulation; the oracle for the tableau."""

    def __init__(self, n: int, dim: int):
        self.n = n
        self.dim = dim
        self.psi = np.zeros(dim ** n, dtype=complex)
        self.psi[0] = 1.0

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        self.psi = _apply_dense(self.psi, gate_matrix(gate, self.dim, q),
                                wires, self.n, self.dim)

    def born_probabilities(self, obs: PauliOp) -> list:
        d = self.dim
        od = obs.dense()
        projs = []
        for k in range(d):
            acc = np.zeros((d ** self.n, d ** self.n), dtype=complex)
            term = np.eye(d ** self.n, dtype=complex)
            for m in range(d):
                acc += term * omega(d, -k * m)
                term = term @ od
            projs.append(acc / d)
        return [float(np.real(self.psi.conj() @ (pk @ self.psi)))
                for pk in projs]

    def collapse(self, obs: PauliOp, outcome: int) -> None:
        d = self.dim
        od = obs.dense()
        acc = np.zeros((d ** self.n, d ** self.n), dtype=complex)
        term = np.eye(d ** self.n, dtype=complex)
        for m in range(d):
            acc += term * omega(d, -outcome * m)
            term = term @ od
        v = (acc / d) @ self.psi
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError(f"collapse onto an impossible outcome {outcome}")
        self.psi = v / norm


# ---------------------------------------------------------------------------
# Circuits

def measurement_observable(basis: str, wire: int, n: int, dim: int) -> PauliOp:
    if basis == "Z":
        return PauliOp.single(n, dim, wire, z=1)
    if basis == "X":
        return PauliOp.single(n, dim, wire, x=1)
    raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def _circuit_step(i: int, step, n: int) -> tuple:
    """The gate name and wires of circuit step i, checked against n qudits."""
    name = step.get("gate") if isinstance(step, dict) else None
    if name not in _STEP_WIRES:
        raise ValueError(f"bad circuit step {i}: unknown gate {name!r}; "
                         f"choose from {tuple(_STEP_WIRES)}")
    wires = step.get("wires", [])
    arity = _STEP_WIRES[name]
    if not isinstance(wires, (list, tuple)) or len(wires) != arity:
        raise ValueError(f"bad circuit step {i}: {name} takes {arity} "
                         f"wire(s), got {wires!r}")
    if not all(isinstance(w, (int, np.integer)) and 0 <= w < n
               for w in wires):
        raise ValueError(f"bad circuit step {i}: wires must lie in "
                         f"0..{n - 1}, got {wires!r}")
    if len(set(wires)) != arity:
        raise ValueError(f"bad circuit step {i}: {name} needs distinct "
                         f"wires, got {wires!r}")
    if name == "Sq" and not isinstance(step.get("q"), (int, np.integer)):
        raise ValueError(f"bad circuit step {i}: Sq needs an integer q, "
                         f"got {step.get('q')!r}")
    return name, list(wires)


def run_circuit(circuit, n: int, dim: int, seed: int = 0,
                oracle: bool = False) -> dict:
    """Execute a circuit on the tableau; with oracle=True also run the
    dense simulator and compare every measurement distribution.

    Circuit steps are dicts: {"gate": name, "wires": [...]} with "q" for
    Sq, or {"gate": "measure", "wires": [w], "basis": "Z"|"X"}. A step
    with an unknown gate, the wrong number of wires, a repeated wire, a
    wire outside 0..n-1 or a non-integer q raises ValueError naming the
    step.
    """
    if n < 1 or not _modp.is_prime(dim):
        raise ValueError(f"a circuit needs n >= 1 qudits of prime dimension, "
                         f"got n={n}, dim={dim}")
    rng = random.Random(seed)
    tab = Tableau.zero_state(n, dim)
    dense = DenseSimulator(n, dim) if oracle else None
    outcomes = []
    max_dev = 0.0
    for i, step in enumerate(circuit):
        name, wires = _circuit_step(i, step, n)
        if name == "measure":
            obs = measurement_observable(step.get("basis", "Z"), wires[0],
                                         n, dim)
            probs = tab.outcome_distribution(obs)
            if dense is not None:
                born = dense.born_probabilities(obs)
                dev = max(abs(float(p) - q) for p, q in zip(probs, born))
                max_dev = max(max_dev, dev)
            k, deterministic = tab.measure(obs, rng)
            if dense is not None:
                dense.collapse(obs, k)
            outcomes.append({"wire": wires[0], "basis": step.get("basis", "Z"),
                             "outcome": k, "deterministic": deterministic})
        else:
            q = step.get("q")
            tab.apply(name, wires, q)
            if dense is not None:
                dense.apply(name, wires, q)
    return {
        "n": n,
        "dim": dim,
        "seed": seed,
        "outcomes": outcomes,
        "oracle": oracle,
        "maxProbabilityDeviation": max_dev,
    }


def random_circuit(n: int, dim: int, rng: random.Random,
                   depth: int = 12, measurements: int = 2) -> list:
    steps = []
    for _ in range(depth):
        name = rng.choice(GATES)
        if name in ("F", "Sq"):
            step = {"gate": name, "wires": [rng.randrange(n)]}
            if name == "Sq":
                step["q"] = rng.randrange(1, dim)
            steps.append(step)
        else:
            if n < 2:
                continue
            a, b = rng.sample(range(n), 2)
            steps.append({"gate": name, "wires": [a, b]})
    for _ in range(measurements):
        pos = rng.randrange(len(steps) + 1)
        steps.insert(pos, {"gate": "measure", "wires": [rng.randrange(n)],
                           "basis": rng.choice(("Z", "X"))})
    return steps


# ---------------------------------------------------------------------------
# Single-qudit stabilizer states and their phase coordinates

@dataclass
class StabState:
    """One single-qudit stabilizer state with exact phase coordinates.

    family is "Z" for the computational basis or an integer t for the
    eigenbasis of (up-shift X) Z^t. half_exponents holds the 2D-th turn
    exponents e_m of the amplitudes sqrt(eta)^{e_m}/sqrt(D) when the
    state is flat in the computational basis.
    """

    dim: int
    family: object
    index: int
    vector: np.ndarray
    z_phases: PhaseVector | None
    x_phases: PhaseVector | None

    @property
    def unbiased_z(self) -> bool:
        return self.z_phases is not None

    @property
    def unbiased_x(self) -> bool:
        return self.x_phases is not None


def _snap_turns(values: np.ndarray, grid: int) -> list | None:
    """Snap angles (radians) to multiples of 1/grid turn, or None."""
    turns = []
    for v in values:
        t = (v / (2 * np.pi)) % 1.0
        num = round(t * grid)
        if abs(t * grid - num) > grid * 1e-10:
            return None
        turns.append(Turn.exact(int(num) % grid, grid))
    return turns


def enumerate_stabilizer_states(dim: int) -> list:
    """All D(D+1) single-qudit stabilizer states for prime D.

    The D+1 bases are the computational basis and, for t = 0..D-1, the
    eigenbasis of M_t = (up-shift X) Z^t. The M_t eigenvectors have the
    closed form psi_m = sqrt(eta)^(e_m)/sqrt(D) with
    e_m = -k'm + t m(m-1) mod 2D, where the eigenvalue is sqrt(eta)^(k')
    and k' must match t(D-1) mod 2.
    """
    if not _modp.is_prime(dim):
        raise ValueError(f"stabilizer state enumeration needs prime D, got {dim}")
    d = dim
    fmat = gate_matrix("F", d)
    states = []

    for idx in range(d):
        vec = np.zeros(d, dtype=complex)
        vec[idx] = 1.0
        x_ph = cyclic_vector(d, (d - idx) % d)
        states.append(StabState(d, "Z", idx, vec, None, x_ph))

    x_up = np.zeros((d, d), dtype=complex)
    for m in range(d):
        x_up[(m + 1) % d, m] = 1.0
    zmat = np.diag([omega(d, m) for m in range(d)])

    for t in range(d):
        m_t = x_up @ np.linalg.matrix_power(zmat, t)
        parity = (t * (d - 1)) % 2
        for j in range(d):
            kp = parity + 2 * j
            exps = [(-kp * m + t * m * (m - 1)) % (2 * d) for m in range(d)]
            vec = np.array([omega(2 * d, e) for e in exps]) / math.sqrt(d)
            assert np.allclose(m_t @ vec, omega(2 * d, kp) * vec, atol=1e-10)
            z_ph = PhaseVector(d, [Turn.exact(e, 2 * d) for e in exps[1:]])
            x_ph = None
            fvec = fmat.conj().T @ vec
            mags = np.abs(fvec)
            if np.max(np.abs(mags - 1 / math.sqrt(d))) < 1e-10:
                rel = np.angle(fvec[1:] / fvec[0])
                snapped = _snap_turns(rel, 2 * d)
                if snapped is None:
                    raise AssertionError(
                        "Fourier phases fell off the exact grid")
                x_ph = PhaseVector(d, snapped)
            states.append(StabState(d, t, j, vec, z_ph, x_ph))
    return states


def _abelian_candidates(n: int) -> list:
    """All abelian groups of order n, as sorted factor lists."""
    def prime_partitions(a):
        if a == 0:
            return [[]]
        out = []
        def rec(rest, maxpart, acc):
            if rest == 0:
                out.append(list(acc))
                return
            for part in range(min(rest, maxpart), 0, -1):
                rec(rest - part, part, acc + [part])
        rec(a, a, [])
        return out

    factors = {}
    m = n
    p = 2
    while m > 1:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    groups = [[]]
    for prime, a in factors.items():
        new = []
        for partition in prime_partitions(a):
            for g in groups:
                new.append(g + [prime ** part for part in partition])
        groups = new
    return [sorted(g) for g in groups]


def phase_group(dim: int) -> dict:
    """The group of phase vectors realized by flat stabilizer states.

    Collects the exact Z-phase coordinates of every computational-basis
    unbiased stabilizer state, verifies closure under addition, and
    matches the divisor profile against every abelian group of that
    order to name the isomorphism class.
    """
    states = enumerate_stabilizer_states(dim)
    elements = set()
    for st in states:
        if st.z_phases is not None:
            elements.add(tuple(t.fraction for t in st.z_phases))
    closed = True
    for a in elements:
        for b in elements:
            summed = tuple((fa + fb) % 1 for fa, fb in zip(a, b))
            if summed not in elements:
                closed = False
    n = len(elements)
    profile = {}
    for m in range(1, n + 1):
        if n % m:
            continue
        profile[m] = sum(
            1 for el in elements
            if all((m * f) % 1 == 0 for f in el))
    match = None
    for cand in _abelian_candidates(n):
        ok = all(
            profile[m] == math.prod(math.gcd(c, m) for c in cand)
            for m in profile)
        if ok:
            match = cand
            break
    return {
        "dim": dim,
        "order": n,
        "closed": closed,
        "factors": match,
        "elements": sorted(elements),
    }
