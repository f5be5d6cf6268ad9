"""Qudit stabilizer simulator with a dense matrix oracle.

Weyl operator conventions, with eta = exp(2*pi*i/D) and the square root
sqrt(eta) = exp(pi*i/D):

* X is the down shift X|m> = |m-1>, Z = diag(eta^m), so XZ = eta ZX.
* A Pauli word is sqrt(eta)^phase * tensor_k X^{x_k} Z^{z_k} with phase
  tracked mod 2D, which closes the group under multiplication for every
  D including D = 2. It is stored as one int64 row [x | z | phase]
  (Aaronson-Gottesman in Stim's layout), and the Pauli algebra is stated
  once, on rows (`_row_*`). PauliOp is row-first: each word reduces one
  row once, keeps it read-only, and reads its x, z and phase tuples off
  it; its `row` is a fresh copy.

The tableau is a 2n x (2n+1) array: n destabilizer rows, then the n
commuting generators of a pure state's stabilizer group, destabilizer i
failing to commute with generator i alone (Aaronson-Gottesman,
quant-ph/0406196; de Beaudrap, arXiv:1102.3354, for qudits). Each gate
is a column operation on all 2n rows. A measurement costs O(n^2) and no
elimination: a deterministic outcome is the product of the generators
that the destabilizers' commutation exponents name, and a random one
replaces a pivot generator, which divides by a commutation exponent mod
D, so D must be prime. Either takes a fixed number of array operations
over the rows it uses, after one commutation pass over all 2n: the
product's x|z is one k @ rows product and its phase one prefix pass,
O(|used| n); a random outcome is one affine update of the rows that do
not commute with the observable. Rows are int64, so every entry that
takes D refuses a system whose arithmetic could leave int64
(`_check_int64`: D < 2^20 and 2 n D^2 < 2^63) before it tests D for
primality, and a tableau refuses more than MAX_TABLEAU_QUDITS qudits
before it allocates.

A single-qudit stabilizer state is the +1 eigenstate of one Pauli row,
and its points on the Z and X phase tori are read from that row in
closed form, in integers (torus_exponents), which the state enumeration
and phase_group share.

The dense oracle shares only the gate definitions with it (F, CNOT and
SWAP from semantics' generator table, eta^j from semantics.omega_powers)
and applies a Pauli word as the monomial it is (PauliOp.act: amplitudes
permuted and multiplied by phases), building no D^n x D^n projector.
Each gate matrix is built once per (gate, D, q) and kept read-only, and
collapse reuses the eigenprojections that the Born distribution of the
same observable on the same state built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _modp
from .phases import PhaseVector, Turn, check_size, is_json_int
from .semantics import fourier_matrix, generator_matrix, omega_powers

# The number of wires each circuit step takes; GATES is its unitary part.
_STEP_WIRES = {"F": 1, "Sq": 1, "CNOT": 2, "CP": 2, "SWAP": 2, "measure": 1}
GATES = tuple(g for g in _STEP_WIRES if g != "measure")

# The dense oracle refuses a state of more amplitudes than this, a
# two-qudit gate matrix of more than MAX_DENSE_GATE_ENTRIES entries (16 MiB
# as complex), and a Born distribution of more than MAX_DENSE_WORK amplitude
# updates: the observable is applied D - 1 times in all, and each of the D
# outcomes sums the D powers obs^m psi of D^n amplitudes, about D^(n+2)
# updates (n=1, D=401 takes about 0.2 s). The powers held meanwhile are
# (D - 1) D^n amplitudes, about 79 MB for DenseSimulator(7, 7). The D
# projections are kept for collapse when their D^(n+1) amplitudes are
# within MAX_DENSE_AMPLITUDES, and the kept gate matrices hold at most
# MAX_DENSE_GATE_ENTRIES entries in all.
MAX_DENSE_AMPLITUDES = 2 ** 20
MAX_DENSE_GATE_ENTRIES = 2 ** 20
MAX_DENSE_WORK = 2 ** 26
_gate_store: dict = {}         # (gate, D, q) -> read-only gate matrix
_gate_store_entries = 0        # entries of the matrices the store holds

# The tableau refuses more qudits than this; its 2n x (2n+1) int64 table
# takes 512 MiB at the cap.
MAX_TABLEAU_QUDITS = 2 ** 12


def _check_int64(n: int, dim: int) -> None:
    """Refuse n qudits of dimension D whose row arithmetic could leave
    int64. Row entries lie below 2D, and the intermediates below 8 D^3 or
    2 n D^2:
    - products of a few reduced entries: _row_pow's zx k (k-1) with zx
      and k reduced mod 2D, below 8 D^3, and Tableau.measure's phase
      gain m (p - zx (m-1) - 2 (z.x mod D)), below 2 D^3;
    - n-term sums of products of two entries below D: z.x in _row_pow,
      _row_mul, _order_divides_dim and measure, and each used row's z.x
      and x.s with the prefix s reduced mod D in Tableau._commutation,
      below n D^2; that prefix itself, at most n terms k_i z_i below D^2,
      also below n D^2;
    - sums of at most 2n products of an entry below D with one below 2D:
      _row_commutation, and _commutation's k @ rows[used] and its phase
      sum k @ w with w reduced mod 2D, below 2 n D^2.
    So D < 2^20, and n < 2^62 / D^2."""
    if max(8 * dim ** 3, 2 * n * dim ** 2) >= 2 ** 63:
        raise ValueError(f"stabilizer rows refuse n={n}, D={dim}: their "
                         "int64 arithmetic needs 8 D^3 and 2 n D^2 below "
                         "2^63")


# ---------------------------------------------------------------------------
# Pauli rows [x | z | phase]; leading axes broadcast

def _reduce(rows: np.ndarray, dim: int) -> np.ndarray:
    """rows with x and z reduced mod D and the phase mod 2D, in place."""
    rows[..., :-1] %= dim
    rows[..., -1] %= 2 * dim
    return rows


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


def _order_divides_dim(row: np.ndarray, dim: int) -> bool:
    """Whether row^D is the identity, not a phase times it. By _row_pow
    at k = D, its x and z are 0 mod D and its phase is D phase - (z.x)
    D(D-1) mod 2D, which is 0 exactly when phase - (D-1) z.x is even:
    when the phase is even, for odd D."""
    if dim % 2:
        return not row[-1] % 2
    n = row.shape[-1] // 2
    return not (row[-1] - row[n:-1] @ row[:n]) % 2


def _row_commutation(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """c with a b = eta^c b a: a number, a vector or a matrix of pairs.
    Only the columns of b where some a is nonzero are read."""
    n = a.shape[-1] // 2
    a_dual = np.concatenate([-a[..., n:-1], a[..., :n]], axis=-1)
    live = a_dual if a.ndim == 1 else a_dual.any(axis=tuple(range(a.ndim - 1)))
    cols = live.nonzero()[0]
    return (a_dual[..., cols] @ b[..., cols].T) % dim


def _check_observable(obs: "PauliOp", n: int, dim: int) -> None:
    """An observable must act on this system and have obs^D = 1."""
    if (obs.n, obs.dim) != (n, dim):
        raise ValueError("observable acts on the wrong system")
    if not _order_divides_dim(obs._row, dim):
        raise ValueError("observable must have order dividing D")


def _check_unit(q, dim: int) -> None:
    """Sq's parameter q must be a unit mod D."""
    if q is None or math.gcd(q, dim) != 1:
        raise ValueError(f"Sq needs a unit q mod {dim}, got {q}")


def _row_conjugate(rows: np.ndarray, gate: str, wires, q: int | None,
                   dim: int) -> None:
    """U P U^dagger in place for every reduced row P and a generator gate
    U. Only the columns the gate changes are reduced mod D, and the phase
    mod 2D only where F or CP changes it; SWAP moves entries alone."""
    d = dim
    n = rows.shape[-1] // 2
    x, z, phase = rows[..., :n], rows[..., n:-1], rows[..., -1]
    if gate == "F":
        (a,) = wires
        phase += 2 * x[..., a] * z[..., a]
        phase %= 2 * d
        x[..., a], z[..., a] = z[..., a], -x[..., a] % d
    elif gate == "Sq":
        (a,) = wires
        _check_unit(q, d)
        x[..., a] = x[..., a] * pow(int(q), -1, d) % d
        z[..., a] = z[..., a] * (int(q) % d) % d
    elif gate == "CNOT":
        a, b = wires
        z[..., a] = (z[..., a] + z[..., b]) % d
        x[..., b] = (x[..., b] - x[..., a]) % d
    elif gate == "CP":
        a, b = wires
        phase += 2 * x[..., a] * x[..., b]
        phase %= 2 * d
        z[..., a] = (z[..., a] - x[..., b]) % d
        z[..., b] = (z[..., b] - x[..., a]) % d
    elif gate == "SWAP":
        a, b = wires
        rows[..., [a, b, n + a, n + b]] = rows[..., [b, a, n + b, n + a]]
    else:
        raise ValueError(f"unknown gate {gate!r}")


@dataclass(frozen=True)
class PauliOp:
    """sqrt(eta)^phase * X^x Z^z on n qudits; phase lives mod 2D.

    Each word holds its reduced int64 row [x | z | phase], read-only, and
    x, z and phase are read off it."""

    n: int
    dim: int
    phase: int
    x: tuple
    z: tuple
    _row: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_int64(self.n, self.dim)
        if len(self.x) != self.n or len(self.z) != self.n:
            raise ValueError("x and z must each have one entry per qudit")
        row = np.array([*self.x, *self.z, self.phase], dtype=np.int64)
        self._adopt(_reduce(row, self.dim))

    def _adopt(self, row: np.ndarray) -> None:
        """Keep a reduced row that no one else holds, read-only, as this
        word's row, and read x, z and phase off it."""
        n = self.n
        row.flags.writeable = False
        entries = row.tolist()
        object.__setattr__(self, "x", tuple(entries[:n]))
        object.__setattr__(self, "z", tuple(entries[n:-1]))
        object.__setattr__(self, "phase", entries[-1])
        object.__setattr__(self, "_row", row)

    @classmethod
    def _of_row(cls, dim: int, row: np.ndarray) -> "PauliOp":
        """The word of a reduced int64 row that no one else holds, on a
        system that _check_int64 has passed."""
        op = object.__new__(cls)
        object.__setattr__(op, "n", len(row) // 2)
        object.__setattr__(op, "dim", dim)
        op._adopt(row)
        return op

    @classmethod
    def identity(cls, n: int, dim: int) -> "PauliOp":
        return cls(n, dim, 0, (0,) * n, (0,) * n)

    @classmethod
    def single(cls, n: int, dim: int, wire: int, x: int = 0, z: int = 0,
               phase: int = 0) -> "PauliOp":
        _check_int64(n, dim)
        row = np.zeros(2 * n + 1, dtype=np.int64)
        wire = range(n)[wire]
        row[wire], row[n + wire] = x % dim, z % dim
        row[-1] = phase % (2 * dim)
        return cls._of_row(dim, row)

    @classmethod
    def from_row(cls, dim: int, row) -> "PauliOp":
        _check_int64(len(row) // 2, dim)
        return cls._of_row(dim, _reduce(np.array(row, dtype=np.int64), dim))

    @property
    def row(self) -> np.ndarray:
        """This word as the int64 row [x | z | phase], a fresh copy."""
        return self._row.copy()

    def mul(self, other: "PauliOp") -> "PauliOp":
        """Product self * other."""
        if (self.n, self.dim) != (other.n, other.dim):
            raise ValueError("operands act on different systems")
        return PauliOp._of_row(self.dim,
                               _row_mul(self._row, other._row, self.dim))

    def pow(self, k: int) -> "PauliOp":
        if k < 0:
            raise ValueError("negative powers are not supported")
        return PauliOp._of_row(self.dim, _row_pow(self._row, k, self.dim))

    def scaled(self, half_eta_power: int) -> "PauliOp":
        return PauliOp(self.n, self.dim, self.phase + half_eta_power,
                       self.x, self.z)

    def commutation_exponent(self, other: "PauliOp") -> int:
        """c with self other = eta^c other self."""
        return int(_row_commutation(self._row, other._row, self.dim))

    def order_divides_dim(self) -> bool:
        """Whether self**D is the identity (not a phase times it)."""
        return _order_divides_dim(self._row, self.dim)

    def act(self, psi: np.ndarray) -> np.ndarray:
        """This word applied to psi, whose first axis has length D^n (any
        further axes are carried along). The word is a monomial: it
        multiplies amplitude m by eta^(z.m) and moves it to m - x."""
        d, n = self.dim, self.n
        psi = np.asarray(psi, dtype=complex)
        out = psi.reshape((d,) * n + psi.shape[1:])
        digits, roots = np.arange(d), omega_powers(d)
        for k, (xk, zk) in enumerate(zip(self.x, self.z)):
            if zk:
                phases = roots[zk * digits % d]
                out = out * phases.reshape((d,) + (1,) * (out.ndim - k - 1))
            if xk:
                out = out.take((digits + xk) % d, axis=k)
        return omega_powers(2 * d)[self.phase] * out.reshape(psi.shape)

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


def _powers_applied(obs: PauliOp, psi: np.ndarray) -> list:
    """[psi, obs psi, ..., obs^(D-1) psi]: obs applied D - 1 times."""
    powers = [np.asarray(psi, dtype=complex)]
    for _ in range(1, obs.dim):
        powers.append(obs.act(powers[-1]))
    return powers


def _eigenprojection(powers: list, k: int) -> np.ndarray:
    """P_k psi = (1/D) sum_m eta^(-km) obs^m psi from the D powers of
    _powers_applied(obs, psi): the part of psi in the eta^k eigenspace of
    obs, which must satisfy obs^D = 1."""
    d = len(powers)
    roots = omega_powers(d)
    acc = powers[0].copy()
    for m in range(1, d):
        acc += roots[-k * m % d] * powers[m]
    acc /= d
    return acc


# ---------------------------------------------------------------------------
# Gates

def gate_matrix(name: str, dim: int, q: int | None = None) -> np.ndarray:
    """Dense matrix of one generator gate (D x D or D^2 x D^2), read-only.

    CNOT is the subtractive form |j,m> -> |j, m-j>. Sq is the monomial
    sum_j |j><jq| and needs gcd(q, D) = 1. Each matrix is built once per
    (gate, D, q) and kept while the store holds at most
    MAX_DENSE_GATE_ENTRIES entries; one that would pass it is built per
    call.
    """
    global _gate_store_entries
    key = (name, dim, q if name == "Sq" else None)
    m = _gate_store.get(key)
    if m is None:
        m = _build_gate_matrix(name, dim, q)
        m.setflags(write=False)
        if _gate_store_entries + m.size <= MAX_DENSE_GATE_ENTRIES:
            _gate_store[key] = m
            _gate_store_entries += m.size
    return m


def _build_gate_matrix(name: str, dim: int, q: int | None) -> np.ndarray:
    d = dim
    if name == "F":
        return fourier_matrix(d)
    if name == "Sq":
        _check_unit(q, d)
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(d), np.arange(d) * (q % d) % d] = 1.0
        return m
    if name == "CNOT":
        return generator_matrix("cnot", d).matrix
    if name == "CP":
        j = np.arange(d)
        return np.diag(omega_powers(d)[np.outer(j, j).ravel() % d])
    if name == "SWAP":
        return generator_matrix("swap", d).matrix
    raise ValueError(f"unknown gate {name!r}; choose from {GATES}")


def conjugate_pauli(p: PauliOp, gate: str, wires, q: int | None = None
                    ) -> PauliOp:
    """U p U^dagger for a generator gate U, by symplectic update."""
    row = p.row
    _row_conjugate(row, gate, wires, q, p.dim)
    return PauliOp._of_row(p.dim, row)


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
    destabilizer phases are never read.

    _commutation keeps what it finds for the last observable, tagged
    with that PauliOp object, so that measure after outcome_distribution
    on the same observable reads it instead of commuting again. apply
    and a random measurement, which change the rows, drop it."""

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
        rows = np.array([g._row for g in gens], np.int64).reshape(n, 2 * n + 1)
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
        self._kept = None       # (obs, its _commutation) for these rows

    @classmethod
    def zero_state(cls, n: int, dim: int) -> "Tableau":
        """|0...0>: destabilizers X_k, stabilizers Z_k."""
        _check_system(n, dim)
        tab = cls.__new__(cls)
        tab._set(n, dim, np.eye(2 * n, 2 * n + 1, dtype=np.int64))
        return tab

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        self._kept = None
        _row_conjugate(self.table, gate, wires, q, self.dim)

    # -- measurement ------------------------------------------------------

    def _commutation(self, obs: PauliOp) -> tuple:
        """Check obs (this system, obs^D = 1); return its row, its
        commutation exponents c with all 2n rows, the indices where c is
        nonzero (none exactly when obs is a scalar, as the rows span all
        words) and its eigenvalue exponent k, or None if a stabilizer
        fails to commute with it. A commuting obs is prod_i rows[i]^-c[i]
        (i < n), so k is O(n^2). What it finds is kept for obs until the
        rows change."""
        kept = self._kept
        if kept is not None and kept[0] is obs:
            return kept[1]
        found = self._find_commutation(obs)
        self._kept = (obs, found)
        return found

    def _find_commutation(self, obs: PauliOp) -> tuple:
        _check_observable(obs, self.n, self.dim)
        d, n, row = self.dim, self.n, obs._row
        c = _row_commutation(row, self.table, d)
        used = c.nonzero()[0]
        if used.size and used[-1] >= n:
            return row, c, used, None
        k, rows = d - c[used], self.rows[used]
        # The product g_0^k_0 g_1^k_1 ... of the used rows g_i: its x|z
        # is k @ rows mod D, and its phase sums each factor's power,
        # k p - (z.x) k(k-1), and the cost eta^(-z.x') of moving the z of
        # each factor past the x of every later one. With the inclusive
        # prefix s_j = sum_(i<=j) k_i z_i, those costs are
        # sum_j k_j x_j.s_j - k_j^2 z_j.x_j, so the phase is
        # k.p + sum_j (z_j.x_j) k_j(k_j+1) - 2 k_j x_j.s_j mod 2D.
        total = k @ rows
        if ((total[:-1] - row[:-1]) % d).any():
            raise AssertionError("commuting observable outside a full tableau")
        x, z = rows[:, :n], rows[:, n:-1]
        prefix = z * k[:, None]
        np.add.accumulate(prefix, axis=0, out=prefix)
        prefix %= d
        zx = np.einsum("ij,ij->i", z, x) % d
        later = np.einsum("ij,ij->i", x, prefix) % d
        phase = int(total[-1]) + int(k @ ((zx * (k + 1) - 2 * later)
                                          % (2 * d)))
        diff = (int(row[-1]) - phase) % (2 * d)
        if diff % 2:
            raise AssertionError("inconsistent phase parity in measurement")
        return row, c, used, diff // 2 % d

    def outcome_distribution(self, obs: PauliOp) -> list:
        """Born probabilities for the eigenvalues eta^k, k = 0..D-1, of an
        observable with obs^D = 1."""
        k = self._commutation(obs)[3]
        if k is None:
            return [Fraction(1, self.dim)] * self.dim
        return [Fraction(int(j == k)) for j in range(self.dim)]

    def measure(self, obs: PauliOp, rng: random.Random) -> tuple:
        """Measure obs (which must satisfy obs^D = 1); returns
        (outcome k, deterministic flag). Collapses the tableau."""
        row, c, used, k = self._commutation(obs)
        if not used.size:
            raise ValueError("cannot measure a scalar")
        if k is not None:
            return k, True
        self._kept = None       # the rows change below
        # The first non-commuting stabilizer is the pivot p; multiplying
        # by powers of it makes every other row commute with obs. The
        # old rows[p] becomes destab[p] and obs takes its place.
        d, n = self.dim, self.n
        pivot = int(used[np.searchsorted(used, n)])
        inv = pow(int(c[pivot]), -1, d)
        k = rng.randrange(d)
        table, old = self.table, self.table[pivot].copy()
        # Every row r with c_r != 0 becomes r old^m, m = -c_r / c_p, and
        # destab[p] becomes old^(-1/c_p), which is the same update of a
        # zero row: x|z gain m old, and the phase gains old^m's,
        # m p - (z.x) m(m-1), and the cost eta^(-z.x') of moving r's z
        # past old^m's x.
        m = c * (d - inv) % d
        m[pivot - n], m[pivot] = d - inv, 0
        table[pivot - n] = 0
        fix = m.nonzero()[0]
        m, upd = m[fix], table[fix]
        zx_old = int(old[n:-1] @ old[:n]) % d
        upd[:, -1] += m * (old[-1] - zx_old * (m - 1)
                           - 2 * (upd[:, n:-1] @ old[:n] % d))
        upd[:, -1] %= 2 * d
        upd[:, :-1] += np.multiply.outer(m, old[:-1])
        upd[:, :-1] %= d
        table[fix] = upd
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
                v = _eigenprojection(_powers_applied(g, v), 0)
            norm = np.linalg.norm(v)
            if norm > 1e-8:
                return v / norm
        raise AssertionError("projector annihilated every basis vector")


# ---------------------------------------------------------------------------
# Dense oracle

def _apply_dense(psi: np.ndarray, gate: np.ndarray, wires, n: int,
                 dim: int) -> np.ndarray:
    # np.tensordot's own steps, without its per-call checks: the acted-on
    # axes first, one product with the gate matrix, one transpose back.
    axes = list(wires) + [a for a in range(n) if a not in wires]
    full = psi.reshape((dim,) * n).transpose(axes)
    moved = np.dot(gate, full.reshape(len(gate), -1)).reshape((dim,) * n)
    return moved.transpose(sorted(range(n), key=axes.__getitem__)
                           ).reshape(psi.shape)


class DenseSimulator:
    """Literal state-vector simulation; the oracle for the tableau.

    born_probabilities keeps the D eigenprojections it builds, tagged
    with the observable and the state, when their D^(n+1) amplitudes are
    within MAX_DENSE_AMPLITUDES; collapse onto the same observable of the
    same state takes its projection from them. apply and collapse drop
    them, and the states the simulator makes are read-only, so none of
    them changes under a kept projection."""

    def __init__(self, n: int, dim: int):
        refusal = ("dense oracle refuses D={base}, n={0}: {1} = {size} {2}, "
                   "above its cap of {cap}")
        check_size(dim, n, MAX_DENSE_AMPLITUDES, refusal, n, "D^n",
                   "amplitudes")
        if n > 1:
            check_size(dim, 4, MAX_DENSE_GATE_ENTRIES, refusal, n, "D^4",
                       "entries in a two-qudit gate matrix")
        check_size(dim, n + 2, MAX_DENSE_WORK, refusal, n, "D^(n+2)",
                   "updates per Born distribution")
        self.n = n
        self.dim = dim
        psi = np.zeros(dim ** n, dtype=complex)
        psi[0] = 1.0
        self._set(psi)
        self._keep = dim ** (n + 1) <= MAX_DENSE_AMPLITUDES

    def _set(self, psi: np.ndarray) -> None:
        psi.setflags(write=False)
        self.psi = psi
        self._kept = None       # (obs, psi, the D projections) from Born

    def apply(self, gate: str, wires, q: int | None = None) -> None:
        self._set(_apply_dense(self.psi, gate_matrix(gate, self.dim, q),
                               wires, self.n, self.dim))

    def born_probabilities(self, obs: PauliOp) -> list:
        _check_observable(obs, self.n, self.dim)
        psi = self.psi
        powers = _powers_applied(obs, psi)
        probs, projections = [], []
        for k in range(self.dim):
            v = _eigenprojection(powers, k)
            probs.append(float(np.real(np.vdot(psi, v))))
            if self._keep:
                projections.append(v)
        self._kept = (obs, psi, projections) if self._keep else None
        return probs

    def collapse(self, obs: PauliOp, outcome: int) -> None:
        d = self.dim
        if (isinstance(outcome, bool)
                or not isinstance(outcome, (int, np.integer))
                or not 0 <= outcome < d):
            raise ValueError(f"collapse outcome must be an integer in "
                             f"0..{d - 1}, got {outcome!r}")
        kept = self._kept
        if kept is not None and kept[0] is obs and kept[1] is self.psi:
            v = kept[2][outcome]
        else:
            _check_observable(obs, self.n, d)
            v = _eigenprojection(_powers_applied(obs, self.psi), outcome)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            raise ValueError(f"collapse onto an impossible outcome {outcome}")
        self._set(v / norm)


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
        arity = _STEP_WIRES.get(name) if isinstance(name, str) else None
        if arity is None:
            raise ValueError(f"unknown gate {name!r}; choose from "
                             f"{tuple(_STEP_WIRES)}")
        wires = step.get("wires", [])
        if not isinstance(wires, (list, tuple)) or len(wires) != arity:
            raise ValueError(f"{name} takes {arity} wire(s), got {wires!r}")
        for w in wires:
            # A plain int in range passes on the first test alone.
            if not (type(w) is int or is_json_int(w)) or not 0 <= w < n:
                raise ValueError(f"wires must be integers in 0..{n - 1}, "
                                 f"got {wires!r}")
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
    eigenbasis of (up-shift X) Z^t. z_phases holds the 2D-th turn
    exponents e_m of the amplitudes sqrt(eta)^{e_m}/sqrt(D) when the
    state is flat in the computational basis, and x_phases those of its
    preimage under F when that is flat.
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


def torus_exponents(row, dim: int, color: str = "Z") -> tuple | None:
    """The point on the colour's D-torus of the +1 eigenstate of a
    single-qudit Pauli row [x, z, phase] whose D-th power is 1: the
    exponents e_1..e_(D-1) mod 2D of psi_m = sqrt(eta)^(e_m) / sqrt(D),
    e_0 = 0, or None when the state is not flat there (x = 0 in the row
    the torus reads). x must be 0 or a unit mod D.

    P psi = psi reads e_(m+x) = e_m - phase - 2z(m+x), so along the orbit
    m = kx, e_(kx) = -(k phase + z x k(k+1)) mod 2D. The X torus holds
    the Z coordinates of F^dagger psi, which is F psi at -m (F^2 is the
    parity), and F psi is the +1 eigenstate of F P F^dagger."""
    row = [int(v) for v in row]
    reduced = _reduce(np.array(row, dtype=np.int64), dim)
    if color == "X":
        _row_conjugate(reduced, "F", [0], None, dim)
    x, z, phase = (int(v) for v in reduced)
    if (not _order_divides_dim(reduced, dim)
            or math.gcd(x, dim) not in (1, dim)):
        raise ValueError(f"Pauli row {row} needs order dividing D={dim} "
                         "and x a unit or 0 mod D")
    if x == 0:
        return None
    exps = [0] * dim
    for k in range(dim):
        exps[k * x % dim] = -(k * phase + z * x * k * (k + 1)) % (2 * dim)
    return tuple(exps[:0:-1] if color == "X" else exps[1:])


def _stabilizer_rows(dim: int) -> list:
    """(family, index, Pauli row) of each single-qudit stabilizer state
    of prime D, the state being the row's +1 eigenstate: |j> for Z^j's
    eta^j, and state j of family t for the eigenvalue sqrt(eta)^k' of
    M_t = (up-shift X) Z^t, k' = 2j + t(D-1) mod 2 (Z's parity)."""
    _check_int64(1, dim)
    if not _modp.is_prime(dim):
        raise ValueError(f"stabilizer state enumeration needs prime D, got "
                         f"{dim}")
    d = dim
    return ([("Z", j, [0, 1, -2 * j]) for j in range(d)]
            + [(t, j, [d - 1, t, -(2 * j + t * (d - 1) % 2)])
               for t in range(d) for j in range(d)])


def enumerate_stabilizer_states(dim: int) -> list:
    """All D(D+1) single-qudit stabilizer states for prime D: the
    computational basis and, for t = 0..D-1, the eigenbasis of
    M_t = (up-shift X) Z^t, with both tori's coordinates read from each
    state's Pauli row by torus_exponents."""
    d = dim
    states = []
    for family, index, row in _stabilizer_rows(d):
        z_exps, x_exps = (torus_exponents(row, d, c) for c in ("Z", "X"))
        if z_exps is None:
            vec = np.zeros(d, dtype=complex)
            vec[index] = 1.0
        else:
            vec = omega_powers(2 * d)[[0, *z_exps]]
            vec /= math.sqrt(d)
        z_ph, x_ph = (e if e is None else PhaseVector(
            d, [Turn.exact(v, 2 * d) for v in e])
            for e in (z_exps, x_exps))
        states.append(StabState(d, family, index, vec, z_ph, x_ph))
    return states


# phase_group's closure check sums every pair of the D^2 exponent rows,
# a D^4 x (D-1) int64 array: 1,336,336 entries (10 MiB) at D=17, the
# largest prime it accepts; D=19 would need 2,345,778.
_PHASE_GROUP_CAP = 2 ** 21


def phase_group(dim: int) -> dict:
    """The group of phase vectors realized by flat stabilizer states.

    Stacks the Z-torus exponents (mod 2D) of every Z-unbiased stabilizer
    state, checks closure under addition with one broadcast sum, and
    names the isomorphism class from the divisor profile: profile[m]
    counts the elements e with m e = 0, which for a product of cyclic
    groups Z_c is prod gcd(c, m), so profile[p^j] / profile[p^(j-1)] is p
    to the number of factors divisible by p^j. The factors so read are
    checked against the whole profile, and are None if it disagrees.

    Raises ValueError, before building anything, when the closure array
    (D^4 (D-1) entries) is above _PHASE_GROUP_CAP.
    """
    check_size(dim, 4, _PHASE_GROUP_CAP, "phase_group refuses D={base}: its "
               "closure check needs {size} entries (D^4 (D-1)), above its cap "
               "of {cap}", times=dim - 1)
    d2 = 2 * dim
    # Python int tuples for the distinct rows and the closure test:
    # np.unique(axis=0) would import numpy.ma on its first call.
    exps = sorted({e for _, _, row in _stabilizer_rows(dim)
                   if (e := torus_exponents(row, dim)) is not None})
    rows = np.array(exps)
    sums = (rows[:, None] + rows[None]).reshape(-1, dim - 1) % d2
    closed = set(map(tuple, sums.tolist())) <= set(exps)
    n = len(exps)
    profile = {m: int((m * rows % d2 == 0).all(axis=1).sum())
               for m in range(1, n + 1) if n % m == 0}
    factors = []
    for p in filter(_modp.is_prime, profile):
        # above[j - 1]: the number of factors divisible by p^j
        above = [round(math.log(profile[p ** j] / profile[p ** (j - 1)], p))
                 for j in range(1, n.bit_length()) if p ** j in profile] + [0]
        factors += [p ** j for j in range(1, len(above))
                    for _ in range(above[j - 1] - above[j])]
    if any(profile[m] != math.prod(math.gcd(c, m) for c in factors)
           for m in profile):
        factors = None
    return {
        "dim": dim,
        "order": n,
        "closed": closed,
        "factors": None if factors is None else sorted(factors),
        "elements": [tuple(Fraction(e, d2) for e in el) for el in exps],
    }
