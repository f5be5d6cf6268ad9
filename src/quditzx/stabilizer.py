"""Qudit stabilizer simulator with a dense matrix oracle.

Weyl operator conventions, with eta = exp(2*pi*i/D) and the square root
sqrt(eta) = exp(pi*i/D):

* X is the down shift X|m> = |m-1>, Z = diag(eta^m), so XZ = eta ZX.
* A Pauli word is sqrt(eta)^phase * tensor_k X^{x_k} Z^{z_k} with phase
  tracked mod 2D, which closes the group under multiplication for every
  D including D = 2. It is stored as one int64 row [x | z | phase]
  (Aaronson-Gottesman in Stim's layout), and the Pauli algebra is stated
  once, on rows (`_row_*`). PauliOp is the tuple face of one row.

The tableau is a 2n x (2n+1) array: n destabilizer rows, then the n
commuting generators of a pure state's stabilizer group, destabilizer i
failing to commute with generator i alone (Aaronson-Gottesman,
quant-ph/0406196; de Beaudrap, arXiv:1102.3354, for qudits). Each gate
is a column operation on all 2n rows. A measurement costs O(n^2) and no
elimination: a deterministic outcome is the product of the generators
that the destabilizers' commutation exponents name, and a random one
replaces a pivot generator, which divides by a commutation exponent mod
D, so D must be prime. Rows are int64, so every entry that takes D
refuses a system whose arithmetic could leave int64 (`_check_int64`:
D < 2^20 and 2 n D^2 < 2^63) before it tests D for primality, and a
tableau refuses more than MAX_TABLEAU_QUDITS qudits before it allocates.

The dense oracle shares only the gate definitions with it (F, CNOT and
SWAP from semantics' generator table, eta from semantics.omega) and
applies a Pauli word as the monomial it is (PauliOp.act: amplitudes
permuted and multiplied by phases), building no D^n x D^n projector.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _modp
from .phases import PhaseVector, Turn, cyclic_vector, is_json_int
from .semantics import fourier_matrix, generator_matrix, omega

# The number of wires each circuit step takes; GATES is its unitary part.
_STEP_WIRES = {"F": 1, "Sq": 1, "CNOT": 2, "CP": 2, "SWAP": 2, "measure": 1}
GATES = tuple(g for g in _STEP_WIRES if g != "measure")

# The dense oracle refuses a state of more amplitudes than this, a
# two-qudit gate matrix of more than MAX_DENSE_GATE_ENTRIES entries (16 MiB
# as complex), and a Born distribution of more than MAX_DENSE_WORK amplitude
# updates: D outcomes each apply the observable D - 1 times to D^n
# amplitudes, about D^(n+2) updates (n=1, D=401 takes about 3 s).
MAX_DENSE_AMPLITUDES = 2 ** 20
MAX_DENSE_GATE_ENTRIES = 2 ** 20
MAX_DENSE_WORK = 2 ** 26

# The tableau refuses more qudits than this; its 2n x (2n+1) int64 table
# takes 512 MiB at the cap.
MAX_TABLEAU_QUDITS = 2 ** 12


def _check_int64(n: int, dim: int) -> None:
    """Refuse n qudits of dimension D whose row arithmetic could leave
    int64. Row entries lie below 2D; the largest intermediates are
    _row_pow's zx k (k-1) with zx and k reduced mod 2D, below 8 D^3, and
    n-term sums of products below D^2 (in _row_pow, _row_mul, each row of
    Tableau._commutation's phase sum) or 2n-term ones (_row_commutation),
    below 2 n D^2. So D < 2^20, and n < 2^62 / D^2."""
    if max(8 * dim ** 3, 2 * n * dim ** 2) >= 2 ** 63:
        raise ValueError(f"stabilizer rows refuse n={n}, D={dim}: their "
                         "int64 arithmetic needs 8 D^3 and 2 n D^2 below "
                         "2^63")


# ---------------------------------------------------------------------------
# Pauli rows [x | z | phase]; leading axes broadcast

def _row_mul(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Rows of a * b; reordering Z past X costs eta^(-z.x')."""
    n = a.shape[-1] // 2
    out = a + b
    out[..., :-1] %= dim
    out[..., -1] -= 2 * np.sum(a[..., n:-1] * b[..., :n], axis=-1)
    out[..., -1] %= 2 * dim
    return out


def _row_pow(rows: np.ndarray, k, dim: int) -> np.ndarray:
    """rows^k for k >= 0, which broadcasts against the leading axes:
    x and z scale by k and the phase becomes k*phase - (z.x) k(k-1)."""
    n = rows.shape[-1] // 2
    k = np.asarray(k, dtype=np.int64) % (2 * dim)  # every word has g^(2D) = 1
    out = rows * k[..., None]
    out[..., :-1] %= dim
    zx = np.sum(rows[..., n:-1] * rows[..., :n], axis=-1) % (2 * dim)
    out[..., -1] = (k * rows[..., -1] - zx * k * (k - 1)) % (2 * dim)
    return out


def _row_commutation(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """c with a b = eta^c b a: a number, a vector or a matrix of pairs.
    Only the columns of b where some a is nonzero are read."""
    n = a.shape[-1] // 2
    a_dual = np.concatenate([-a[..., n:-1], a[..., :n]], axis=-1)
    cols = np.flatnonzero(a_dual.any(axis=tuple(range(a_dual.ndim - 1))))
    return (a_dual[..., cols] @ b[..., cols].T) % dim


def _check_unit(q, dim: int) -> None:
    """Sq's parameter q must be a unit mod D."""
    if q is None or math.gcd(q, dim) != 1:
        raise ValueError(f"Sq needs a unit q mod {dim}, got {q}")


def _row_conjugate(rows: np.ndarray, gate: str, wires, q: int | None,
                   dim: int) -> None:
    """U P U^dagger in place for every row P and a generator gate U."""
    d = dim
    n = rows.shape[-1] // 2
    x, z, phase = rows[..., :n], rows[..., n:-1], rows[..., -1]
    if gate == "F":
        (a,) = wires
        phase += 2 * x[..., a] * z[..., a]
        x[..., a], z[..., a] = z[..., a], -x[..., a]
    elif gate == "Sq":
        (a,) = wires
        _check_unit(q, d)
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
    else:
        raise ValueError(f"unknown gate {gate!r}")
    touched = list(wires) + [n + w for w in wires]
    rows[..., touched] %= d
    phase %= 2 * d


@dataclass(frozen=True)
class PauliOp:
    """sqrt(eta)^phase * X^x Z^z on n qudits; phase lives mod 2D."""

    n: int
    dim: int
    phase: int
    x: tuple
    z: tuple

    def __post_init__(self):
        _check_int64(self.n, self.dim)
        if len(self.x) != self.n or len(self.z) != self.n:
            raise ValueError("x and z must each have one entry per qudit")
        object.__setattr__(self, "phase", self.phase % (2 * self.dim))
        object.__setattr__(self, "x", tuple(int(v) % self.dim for v in self.x))
        object.__setattr__(self, "z", tuple(int(v) % self.dim for v in self.z))

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

    @classmethod
    def from_row(cls, dim: int, row) -> "PauliOp":
        n = len(row) // 2
        return cls(n, dim, int(row[-1]), tuple(row[:n]), tuple(row[n:-1]))

    @property
    def row(self) -> np.ndarray:
        """This word as the int64 row [x | z | phase]."""
        return np.array(self.x + self.z + (self.phase,), dtype=np.int64)

    def mul(self, other: "PauliOp") -> "PauliOp":
        """Product self * other."""
        if (self.n, self.dim) != (other.n, other.dim):
            raise ValueError("operands act on different systems")
        return PauliOp.from_row(self.dim,
                                _row_mul(self.row, other.row, self.dim))

    def pow(self, k: int) -> "PauliOp":
        if k < 0:
            raise ValueError("negative powers are not supported")
        return PauliOp.from_row(self.dim, _row_pow(self.row, k, self.dim))

    def scaled(self, half_eta_power: int) -> "PauliOp":
        return PauliOp(self.n, self.dim, self.phase + half_eta_power,
                       self.x, self.z)

    def commutation_exponent(self, other: "PauliOp") -> int:
        """c with self other = eta^c other self."""
        return int(_row_commutation(self.row, other.row, self.dim))

    def order_divides_dim(self) -> bool:
        """Whether self**D is the identity (not a phase times it)."""
        return not _row_pow(self.row, self.dim, self.dim).any()

    def act(self, psi: np.ndarray) -> np.ndarray:
        """This word applied to psi, whose first axis has length D^n (any
        further axes are carried along). The word is a monomial: it
        multiplies amplitude m by eta^(z.m) and moves it to m - x."""
        d, n = self.dim, self.n
        psi = np.asarray(psi, dtype=complex)
        out = psi.reshape((d,) * n + psi.shape[1:])
        for k, (xk, zk) in enumerate(zip(self.x, self.z)):
            if zk:
                phases = omega(d, zk * np.arange(d))
                out = out * phases.reshape((d,) + (1,) * (out.ndim - k - 1))
            if xk:
                out = np.roll(out, -xk, axis=k)
        return omega(2 * d, self.phase) * out.reshape(psi.shape)

    def dense(self) -> np.ndarray:
        return self.act(np.eye(self.dim ** self.n, dtype=complex))

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


def _eigenprojection(obs: PauliOp, psi: np.ndarray, k: int) -> np.ndarray:
    """P_k psi = (1/D) sum_m eta^(-km) obs^m psi: the part of psi in the
    eta^k eigenspace of obs, which must satisfy obs^D = 1."""
    d = obs.dim
    acc = np.asarray(psi, dtype=complex)
    term = acc
    for m in range(1, d):
        term = obs.act(term)
        acc = acc + omega(d, -k * m) * term
    return acc / d


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
        _check_unit(q, d)
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
    row = p.row
    _row_conjugate(row, gate, wires, q, p.dim)
    return PauliOp.from_row(p.dim, row)


# ---------------------------------------------------------------------------
# Tableau simulator

def _check_system(n: int, dim: int) -> None:
    """What both tableau constructors check, cheapest first: the int64
    bound, the size cap, then that D is prime."""
    _check_int64(n, dim)
    if n > MAX_TABLEAU_QUDITS:
        raise ValueError(f"tableau refuses n={n} qudits of D={dim}: its "
                         f"2n x (2n+1) table is above the cap of "
                         f"{MAX_TABLEAU_QUDITS} qudits")
    if not _modp.is_prime(dim):
        raise ValueError(f"tableau needs prime dimension, got {dim}")


class Tableau:
    """Stabilizer state of n qudits of prime dimension D, one Pauli row
    [x | z | phase] per generator in a 2n x (2n+1) table: n destabilizers
    (`destab`) first, then the n stabilizers (`rows`). Destabilizer i
    has commutation exponent 1 with stabilizer i and 0 with the others;
    destabilizer phases are never read."""

    def __init__(self, n: int, dim: int, generators):
        _check_system(n, dim)
        gens = list(generators)
        if len(gens) != n:
            raise ValueError(f"need exactly {n} generators, got {len(gens)}")
        for g in gens:
            if (g.n, g.dim) != (n, dim):
                raise ValueError("generator acts on the wrong system")
            if not g.order_divides_dim():
                raise ValueError(f"generator {g} does not have order dividing D")
        rows = np.array([g.row for g in gens], np.int64).reshape(n, 2 * n + 1)
        clash = np.argwhere(np.triu(_row_commutation(rows, rows, dim), 1))
        if len(clash):
            i, j = clash[0]
            raise ValueError(f"generators {gens[i]} and {gens[j]} do not "
                             "commute")
        # Elimination takes [rows_dual | I] to [E rows_dual | E], and E
        # rows_dual is the identity on the pivot columns. So destabilizers
        # that hold E's columns there and zeros elsewhere commute with
        # the rows as destab @ rows_dual.T = I; a pivot among the last n
        # columns means the rows are dependent.
        rows_dual = np.concatenate([rows[:, n:-1], -rows[:, :n]], axis=1)
        reduced, pivots = _modp.rref_mod(
            np.concatenate([rows_dual, np.eye(n, dtype=np.int64)], axis=1),
            dim)
        if any(col >= 2 * n for col in pivots):
            raise ValueError("generators are not independent")
        table = np.zeros((2 * n, 2 * n + 1), np.int64)
        table[:n, pivots] = reduced[:, 2 * n:].T
        table[n:] = rows
        self._set(n, dim, table)

    def _set(self, n: int, dim: int, table: np.ndarray) -> None:
        self.n, self.dim, self.table = n, dim, table
        self.destab, self.rows = table[:n], table[n:]

    @classmethod
    def zero_state(cls, n: int, dim: int) -> "Tableau":
        """|0...0>: destabilizers X_k, stabilizers Z_k."""
        _check_system(n, dim)
        tab = cls.__new__(cls)
        tab._set(n, dim, np.eye(2 * n, 2 * n + 1, dtype=np.int64))
        return tab

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        _row_conjugate(self.table, gate, wires, q, self.dim)

    # -- measurement ------------------------------------------------------

    def _commutation(self, obs: PauliOp) -> tuple:
        """Check obs (this system, obs^D = 1); return its row, its
        commutation exponents c with all 2n rows, and its eigenvalue
        exponent k, or None if a stabilizer fails to commute with it. A
        commuting obs is prod_i rows[i]^-c[i] (i < n), so k is O(n^2)."""
        if (obs.n, obs.dim) != (self.n, self.dim):
            raise ValueError("observable acts on the wrong system")
        d, n, row = self.dim, self.n, obs.row
        if _row_pow(row, d, d).any():
            raise ValueError("observable must have order dividing D")
        c = _row_commutation(row, self.table, d)
        if c[n:].any():
            return row, c, None
        coeffs = -c[:n] % d
        used = np.flatnonzero(coeffs)
        powered = _row_pow(self.rows[used], coeffs[used], d)
        if ((powered[:, :-1].sum(axis=0) - row[:-1]) % d).any():
            raise AssertionError("commuting observable outside a full tableau")
        # The phase of powered[0] * powered[1] * ...: reordering each z
        # past the x of every later factor costs eta^(-z.x).
        z, x = powered[:, n:-1], powered[:, :n]
        z_before = (np.cumsum(z, axis=0) - z) % d
        zx = np.sum(z_before * x, axis=1) % d
        phase = powered[:, -1].sum() - 2 * zx.sum()
        diff = (row[-1] - phase) % (2 * d)
        if diff % 2:
            raise AssertionError("inconsistent phase parity in measurement")
        return row, c, int(diff // 2) % d

    def outcome_distribution(self, obs: PauliOp) -> list:
        """Born probabilities for the eigenvalues eta^k, k = 0..D-1, of an
        observable with obs^D = 1."""
        k = self._commutation(obs)[2]
        if k is None:
            return [Fraction(1, self.dim)] * self.dim
        return [Fraction(int(j == k)) for j in range(self.dim)]

    def measure(self, obs: PauliOp, rng: random.Random) -> tuple:
        """Measure obs (which must satisfy obs^D = 1); returns
        (outcome k, deterministic flag). Collapses the tableau."""
        row, c, k = self._commutation(obs)
        if not row[:-1].any():
            raise ValueError("cannot measure a scalar")
        if k is not None:
            return k, True
        # The first non-commuting stabilizer is the pivot p; multiplying
        # by powers of it makes every other row commute with obs. The
        # old rows[p] becomes destab[p] and obs takes its place.
        d, n = self.dim, self.n
        pivot = n + np.flatnonzero(c[n:])[0]
        fix = np.flatnonzero(c)
        fix = fix[(fix != pivot) & (fix != pivot - n)]
        inv = pow(int(c[pivot]), -1, d)
        m = (-c[fix] * inv) % d
        k = rng.randrange(d)
        table, old = self.table, self.table[pivot].copy()
        table[fix] = _row_mul(table[fix], _row_pow(old, m, d), d)
        table[pivot - n] = _row_pow(old, -inv % d, d)
        table[pivot] = row
        table[pivot, -1] = (row[-1] - 2 * k) % (2 * d)
        return k, False

    # -- dense reconstruction ---------------------------------------------

    def dense_state(self) -> np.ndarray:
        """The stabilized state vector, for small n (oracle use only)."""
        size = self.dim ** self.n
        gens = [PauliOp.from_row(self.dim, r) for r in self.rows]
        for col in range(size):
            v = np.eye(1, size, col, dtype=complex)[0]
            for g in gens:
                v = _eigenprojection(g, v, 0)
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
        def check(power: int, what: str, cap: int) -> None:
            # Sizes are compared as exponents first: D >= 2 with a power
            # past the cap's bit length is above the cap, and D^power is
            # only built for smaller powers. A size of 15 or more digits
            # is named as D^power, not written out.
            if dim > 1 and power > cap.bit_length() or dim ** power > cap:
                size = (dim ** power if power * math.log10(dim) < 15
                        else f"{dim}^{power}")
                raise ValueError(f"dense oracle refuses D={dim}, n={n}: "
                                 f"{what.format(size)}, above its cap of "
                                 f"{cap}")

        check(n, "D^n = {} amplitudes", MAX_DENSE_AMPLITUDES)
        if n > 1:
            check(4, "D^4 = {} entries in a two-qudit gate matrix",
                  MAX_DENSE_GATE_ENTRIES)
        check(n + 2, "D^(n+2) = {} updates per Born distribution",
              MAX_DENSE_WORK)
        self.n = n
        self.dim = dim
        self.psi = np.zeros(dim ** n, dtype=complex)
        self.psi[0] = 1.0

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        self.psi = _apply_dense(self.psi, gate_matrix(gate, self.dim, q),
                                wires, self.n, self.dim)

    def born_probabilities(self, obs: PauliOp) -> list:
        return [float(np.real(np.vdot(self.psi,
                                      _eigenprojection(obs, self.psi, k))))
                for k in range(self.dim)]

    def collapse(self, obs: PauliOp, outcome: int) -> None:
        v = _eigenprojection(obs, self.psi, outcome)
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


def _circuit_step(i: int, step, n: int, dim: int) -> tuple:
    """The gate name, wires and parameter of circuit step i, checked
    against n qudits of dimension dim; the parameter is q for Sq, the
    basis for a measurement and None otherwise."""
    try:
        name = step.get("gate") if isinstance(step, dict) else None
        if name not in _STEP_WIRES:
            raise ValueError(f"unknown gate {name!r}; choose from "
                             f"{tuple(_STEP_WIRES)}")
        wires = step.get("wires", [])
        arity = _STEP_WIRES[name]
        if not isinstance(wires, (list, tuple)) or len(wires) != arity:
            raise ValueError(f"{name} takes {arity} wire(s), got {wires!r}")
        if not all(is_json_int(w) and 0 <= w < n for w in wires):
            raise ValueError(f"wires must be integers in 0..{n - 1}, got "
                             f"{wires!r}")
        if len(set(wires)) != arity:
            raise ValueError(f"{name} needs distinct wires, got {wires!r}")
        param = None
        if name == "Sq":
            param = step.get("q")
            if not is_json_int(param):
                raise ValueError(f"Sq needs an integer q, got {param!r}")
            _check_unit(param, dim)
        elif name == "measure":
            param = step.get("basis", "Z")
            if param not in ("Z", "X"):
                raise ValueError(f"basis must be 'Z' or 'X', got {param!r}")
    except ValueError as err:
        raise ValueError(f"bad circuit step {i}: {err}") from None
    return name, list(wires), param


def run_circuit(circuit, n: int, dim: int, seed: int = 0,
                oracle: bool = False) -> dict:
    """Execute a circuit on the tableau; with oracle=True also run the
    dense simulator and compare every measurement distribution.

    Circuit steps are dicts: {"gate": name, "wires": [...]} with "q" for
    Sq, or {"gate": "measure", "wires": [w], "basis": "Z"|"X"}. A step
    with an unknown gate, the wrong number of wires, a repeated wire, a
    wire that is not an integer in 0..n-1, a q that is not an integer
    unit mod dim or another basis raises ValueError naming the step.
    """
    _check_int64(n, dim)
    if n < 1 or not _modp.is_prime(dim):
        raise ValueError(f"a circuit needs n >= 1 qudits of prime dimension, "
                         f"got n={n}, dim={dim}")
    _check_system(n, dim)       # the tableau's qudit cap, before the oracle
    dense = DenseSimulator(n, dim) if oracle else None
    rng = random.Random(seed)
    tab = Tableau.zero_state(n, dim)
    outcomes = []
    max_dev = 0.0
    for i, step in enumerate(circuit):
        name, wires, param = _circuit_step(i, step, n, dim)
        if name == "measure":
            obs = measurement_observable(param, wires[0], n, dim)
            if dense is not None:
                probs = tab.outcome_distribution(obs)
                born = dense.born_probabilities(obs)
                dev = max(abs(float(p) - q) for p, q in zip(probs, born))
                max_dev = max(max_dev, dev)
            k, deterministic = tab.measure(obs, rng)
            if dense is not None:
                dense.collapse(obs, k)
            outcomes.append({"wire": wires[0], "basis": param,
                             "outcome": k, "deterministic": deterministic})
        else:
            tab.apply(name, wires, param)
            if dense is not None:
                dense.apply(name, wires, param)
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
    _check_int64(1, dim)
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

    for t in range(d):
        m_t = PauliOp(1, d, 0, (d - 1,), (t,)).dense()  # (up-shift X) Z^t
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


def _partitions(a: int, cap: int) -> list:
    """The partitions of a into parts of at most cap, largest part first."""
    if a == 0:
        return [[]]
    return [[part] + rest for part in range(min(a, cap), 0, -1)
            for rest in _partitions(a - part, part)]


def _abelian_candidates(n: int) -> list:
    """All abelian groups of order n, as sorted factor lists."""
    groups = [[]]
    for prime in range(2, n + 1):
        a = 0
        while n % prime == 0:
            n, a = n // prime, a + 1
        if a:
            groups = [g + [prime ** part for part in partition]
                      for partition in _partitions(a, a) for g in groups]
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
    closed = all(tuple((fa + fb) % 1 for fa, fb in zip(a, b)) in elements
                 for a in elements for b in elements)
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
