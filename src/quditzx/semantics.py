"""Matrix semantics for diagrams.

Spider tensor conventions, with eta = exp(2*pi*i/D):

* A Z spider with phases alpha has an entry only when every leg carries
  the same digit j; the entry is exp(i*alpha_j). Orientation blind.
* An X spider of degree k has entry (1/sqrt(D))^k * c_m(alpha) where
  m = (sum of output-leg digits - sum of input-leg digits) mod D and
  c_m(alpha) = sum_j exp(i*alpha_j) * eta^(m*j).
* The F box is the unitary DFT (1/sqrt(D)) * eta^(jk) from its input
  leg to its output leg; Fdag is its adjoint.

Basis ordering is big endian: the boundary at position 0 is the most
significant digit of the row/column index.

evaluate() offers two independently written paths. "reference" sums a
weight over every joint edge assignment, one factor per node; it is the
semantic definition, transcribed. "fast" contracts the tensor network
pairwise, greedily: a heap yields the pair with the smallest merged
tensor, ties going to the oldest pair. They share nothing beyond the
node tensor helper, and tests hold them to each other at 1e-10. What
"fast" has left once no pair shares a leg, the disconnected parts of
the output, is folded into the output smallest part first, by one
broadcasting multiply per part with its axes at their boundary
positions: no outer product of the parts, and no transposed copy of
one, is built. equal_up_to_scalar and compare_scalar_exact read their
matrices in fixed blocks of _COMPARE_BLOCK entries, so a comparison
builds no temporary of the matrices' size.

"fast" builds each spider's tensor without its self-loops: a loop's
factor is one for both colours (the loop_remove rule), so a spider whose
legs are all loops is its degree-0 scalar. A box's self-loop is traced.
Node tensors of at most _CACHE_ELEMS entries whose phases are exact (or
absent, for boxes) are built once per (kind, phase, leg signs, D) and
shared read-only between calls; approximate phases are never cached.
"reference" builds every tensor afresh, self-loop legs included.

Each path refuses with a one-line ValueError before it allocates past
its cap: "reference" a diagram of more than _REFERENCE_CAP joint edge
assignments (D^E) or a node tensor of more than _REFERENCE_CAP entries
(a self-loop's two legs count), "fast" any node tensor, merged pair or
output matrix of more than _FAST_CAP entries; a refused node tensor
names its node.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from .phases import PhaseVector

_REFERENCE_CAP = 2_000_000     # joint edge assignments, D^E
_FAST_CAP = 2 ** 24            # elements of any one fast-path tensor
_CACHE_ELEMS = 4096            # elements of the largest cached node tensor
_CACHE_TENSORS = 1024          # node tensors cached; once full, no more
_COMPARE_BLOCK = 8192          # entries per block of a matrix comparison
_node_tensor_cache: dict = {}


@dataclass(frozen=True)
class DenseOperator:
    """A complex matrix tagged with its qudit type: D^n_out by D^n_in."""

    dim: int
    n_in: int
    n_out: int
    matrix: np.ndarray

    def __post_init__(self):
        expect = (self.dim ** self.n_out, self.dim ** self.n_in)
        if self.matrix.shape != expect:
            raise ValueError(f"matrix shape {self.matrix.shape}, "
                             f"expected {expect}")

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim or self.n_in != other.n_out:
            raise ValueError("operator types do not compose")
        return DenseOperator(self.dim, other.n_in, self.n_out,
                             self.matrix @ other.matrix)

    def tensor(self, other: "DenseOperator") -> "DenseOperator":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return DenseOperator(self.dim, self.n_in + other.n_in,
                             self.n_out + other.n_out,
                             np.kron(self.matrix, other.matrix))

    def dagger(self) -> "DenseOperator":
        return DenseOperator(self.dim, self.n_out, self.n_in,
                             self.matrix.conj().T)


def omega(dim: int, power: int = 1) -> complex:
    """eta^power = exp(2*pi*i*power/dim)."""
    return np.exp(2j * np.pi * (power % dim) / dim)


def _phase_exponentials(alpha, dim: int | None = None) -> np.ndarray:
    """exp(i*alpha_j) for j = 0..D-1 from a PhaseVector or raw angles.

    A PhaseVector carries D; raw input needs dim. It may be a length D-1
    or length D sequence (leading alpha_0) and may be complex, which
    synthesis uses for non-unitary phase maps.
    """
    if isinstance(alpha, PhaseVector):
        if dim is not None and alpha.dim != dim:
            raise ValueError(f"phase vector dimension {alpha.dim} != {dim}")
        angles = np.array(alpha.radians_full(), dtype=complex)
    elif dim is None:
        raise ValueError("dim is required when alpha is not a PhaseVector")
    else:
        arr = np.asarray(alpha, dtype=complex).ravel()
        if arr.shape[0] == dim - 1:
            angles = np.concatenate(([0.0 + 0.0j], arr))
        elif arr.shape[0] == dim:
            angles = arr
        else:
            raise ValueError(f"need {dim - 1} or {dim} angles, got {arr.shape[0]}")
    return np.exp(1j * angles)


def c_coefficients(alpha, dim: int | None = None) -> np.ndarray:
    """c_m(alpha) = sum_j exp(i*alpha_j) eta^(m*j), the X-spider weights."""
    u = _phase_exponentials(alpha, dim)
    j = np.arange(len(u))
    eta_table = np.exp(2j * np.pi * np.outer(j, j) / len(u))
    return eta_table @ u


def lambda_matrix(color: str, alpha, dim: int | None = None) -> np.ndarray:
    """The one-legged phase map: diag(exp(i*alpha_j)) for Z, its Fourier
    twin for X (a circulant with entries c_(r-c)/D)."""
    if color == dg.Z:
        return np.diag(_phase_exponentials(alpha, dim))
    if color == dg.X:
        c = c_coefficients(alpha, dim)
        j = np.arange(len(c))
        return c[(j[:, None] - j[None, :]) % len(c)] / len(c)
    raise ValueError(f"color must be 'Z' or 'X', got {color!r}")


def fourier_matrix(dim: int) -> np.ndarray:
    j = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(j, j) / dim) / math.sqrt(dim)


def phased_state(color: str, alpha, dim: int | None = None) -> np.ndarray:
    """The vector |{alpha}_Z> (entries exp(i*alpha_j)/sqrt(D)) or its
    Fourier transform |{alpha}_X> for color X."""
    u = _phase_exponentials(alpha, dim)
    dim = len(u)
    u = u / math.sqrt(dim)
    if color == dg.Z:
        return u
    if color == dg.X:
        return fourier_matrix(dim) @ u
    raise ValueError(f"color must be 'Z' or 'X', got {color!r}")


# ---------------------------------------------------------------------------
# Generators

def generator_matrix(name: str, dim: int) -> DenseOperator:
    d = dim
    rt = math.sqrt(d)
    eye = np.eye(d, dtype=complex)
    if name == "id":
        return DenseOperator(d, 1, 1, eye)
    if name == "swap":
        m = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            for k in range(d):
                m[k * d + j, j * d + k] = 1.0
        return DenseOperator(d, 2, 2, m)
    if name == "fourier":
        return DenseOperator(d, 1, 1, fourier_matrix(d))
    if name == "fourier_dag":
        return DenseOperator(d, 1, 1, fourier_matrix(d).conj().T)
    if name == "ket0":
        m = np.zeros((d, 1), dtype=complex)
        m[0, 0] = rt
        return DenseOperator(d, 0, 1, m)
    if name == "ketplus":
        return DenseOperator(d, 0, 1, np.ones((d, 1), dtype=complex))
    if name == "eps_x":
        m = np.zeros((1, d), dtype=complex)
        m[0, 0] = 1.0
        return DenseOperator(d, 1, 0, m)
    if name == "eps_z":
        return DenseOperator(d, 1, 0, np.ones((1, d), dtype=complex))
    if name == "delta_z":
        m = np.zeros((d * d, d), dtype=complex)
        for j in range(d):
            m[j * d + j, j] = 1.0
        return DenseOperator(d, 1, 2, m)
    if name == "delta_x":
        m = np.zeros((d * d, d), dtype=complex)
        for j in range(d):
            for mm in range(d):
                m[j * d + ((mm - j) % d), mm] = 1.0
        return DenseOperator(d, 1, 2, m)
    if name == "cnot":
        m = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            for mm in range(d):
                m[j * d + ((mm - j) % d), j * d + mm] = 1.0
        return DenseOperator(d, 2, 2, m)
    raise ValueError(f"unknown generator {name!r}; choose from {dg.GENERATORS}")


# ---------------------------------------------------------------------------
# Node tensors

def _node_tensor(d: dg.Diagram, v: int, legs: tuple):
    """Tensor for node v with axes in the order of `legs`.

    Each leg is (edge_index, sign) with sign +1 when v is the edge's
    source (an output leg of v) and -1 when v is its target. Returns a
    complex scalar for degree-0 spiders.
    """
    dim = d.dimension
    n = d.node(v)
    k = len(legs)
    if n.kind == dg.Z:
        u = _phase_exponentials(n.phase, dim)
        if k == 0:
            return complex(u.sum())
        t = np.zeros((dim,) * k, dtype=complex)
        for j in range(dim):
            t[(j,) * k] = u[j]
        return t
    if n.kind == dg.X:
        c = c_coefficients(n.phase, dim)
        if k == 0:
            return complex(c[0])
        # Signed digit sum, one broadcast sign * arange(D) per axis.
        total = sum((sign * np.arange(dim)).reshape((dim,) + (1,) * (k - 1 - a))
                    for a, (_, sign) in enumerate(legs))
        # In place: one int and one complex array of the result's shape.
        t = c[np.remainder(total, dim, out=total)]
        t *= dim ** (-0.5 * k)
        return t
    if n.kind in dg.BOX_KINDS:
        f = fourier_matrix(dim)
        if n.kind == dg.FDAG:
            f = f.conj().T
        # Axis order must follow `legs`: f[out_digit, in_digit].
        if legs[0][1] == 1:
            return f
        return f.T
    raise ValueError(f"node {v} ({n.kind}) has no tensor")


def _boundary_order(d: dg.Diagram):
    """For each boundary node, its single edge index; in position order."""
    out_ids = d.boundary_ids(dg.OUT)
    in_ids = d.boundary_ids(dg.IN)
    out_edges = [d.in_edges(v)[0] for v in out_ids]
    in_edges = [d.out_edges(v)[0] for v in in_ids]
    return out_ids, in_ids, out_edges, in_edges


# ---------------------------------------------------------------------------
# Reference path: the semantics transcribed as a sum over edge assignments

def _evaluate_reference(d: dg.Diagram) -> DenseOperator:
    dim = d.dimension
    n_e = len(d.edges)
    if dim ** n_e > _REFERENCE_CAP:
        raise ValueError(f"reference path refuses D={dim}, E={n_e}: D^E = "
                         f"{dim ** n_e} assignments, above its cap of "
                         f"{_REFERENCE_CAP}; use method='fast'")
    out_ids, in_ids, out_edges, in_edges = _boundary_order(d)
    n_out, n_in = len(out_ids), len(in_ids)

    # digits[a, e] = value carried by edge e under joint assignment a.
    count = dim ** n_e
    if n_e:
        powers = dim ** np.arange(n_e - 1, -1, -1, dtype=np.int64)
        digits = (np.arange(count)[:, None] // powers) % dim
    else:
        digits = np.zeros((1, 0), dtype=np.int64)

    weight = np.full(count, d.scalar, dtype=complex)
    boundary = set(out_ids) | set(in_ids)
    for v in sorted(d.nodes):
        if v in boundary:
            continue
        legs = d.legs(v)
        if dim ** len(legs) > _REFERENCE_CAP:
            raise ValueError(f"reference path refuses D={dim}: node {v} "
                             f"({d.node(v).kind}, {len(legs)} legs) needs a "
                             f"tensor of {dim ** len(legs)} entries, above "
                             f"its cap of {_REFERENCE_CAP}; use method='fast'")
        tensor = _node_tensor(d, v, legs)
        if len(legs) == 0:
            weight *= tensor
            continue
        idx = tuple(digits[:, e] for e, _ in legs)
        weight *= np.asarray(tensor)[idx]

    rows = np.zeros(count, dtype=np.int64)
    for e in out_edges:
        rows = rows * dim + digits[:, e]
    cols = np.zeros(count, dtype=np.int64)
    for e in in_edges:
        cols = cols * dim + digits[:, e]

    matrix = np.zeros((dim ** n_out, dim ** n_in), dtype=complex)
    np.add.at(matrix, (rows, cols), weight)
    return DenseOperator(dim, n_in, n_out, matrix)


# ---------------------------------------------------------------------------
# Fast path: pairwise tensor network contraction

def _check_cap(dim: int, rank: int, what: str = "") -> None:
    """Refuse a fast-path tensor of dim^rank elements above _FAST_CAP;
    `what` names its node, if it is one."""
    if dim ** rank > _FAST_CAP:
        raise ValueError(f"fast path refuses D={dim}: a tensor of {dim}^{rank}"
                         f" = {dim ** rank} elements{what} is above its cap "
                         f"of {_FAST_CAP}")


def _shared_node_tensor(d: dg.Diagram, v: int, legs: tuple) -> np.ndarray:
    """_node_tensor as an array; a small one with an exact phase, or a
    box's, is built once per (kind, phase, leg signs, D), all it depends
    on, and shared read-only."""
    n, dim = d.node(v), d.dimension
    if dim ** len(legs) > _CACHE_ELEMS or not (n.phase is None
                                               or n.phase.is_exact):
        return np.asarray(_node_tensor(d, v, legs))
    key = (n.kind, n.phase, tuple(sign for _, sign in legs), dim)
    t = _node_tensor_cache.get(key)
    if t is None:
        t = np.asarray(_node_tensor(d, v, legs))
        if len(_node_tensor_cache) < _CACHE_TENSORS:
            t.setflags(write=False)
            _node_tensor_cache[key] = t
    return t


def _evaluate_fast(d: dg.Diagram) -> DenseOperator:
    dim = d.dimension
    out_ids, in_ids, out_edges, in_edges = _boundary_order(d)
    boundary = set(out_ids) | set(in_ids)
    want = [("out", v) for v in out_ids] + [("in", v) for v in in_ids]
    # The disconnected parts' outer product is the output matrix.
    _check_cap(dim, len(want))

    # Open labels of each boundary edge; one with two is a bare wire.
    ends = {}
    for lab, e in zip(want, out_edges + in_edges):
        ends.setdefault(e, []).append(lab)

    # tensors: creation number -> (array, labels), in creation order;
    # holders: label -> live tensors carrying it; heap: (merged rank,
    # older, newer) for each pair sharing a label when the newer was made.
    scalar = complex(d.scalar)
    tensors, holders, heap = {}, {}, []
    created = itertools.count()

    def add(arr, labels):
        nonlocal scalar
        if not labels:
            scalar *= complex(arr)
            return
        c = next(created)
        shared = {}     # live tensor -> labels it shares with this one
        for lab in labels:
            held = holders.setdefault(lab, [])
            for h in held:
                shared[h] = shared.get(h, 0) + 1
            held.append(c)
        for h, n in shared.items():
            rank = len(labels) + len(tensors[h][1]) - 2 * n
            heapq.heappush(heap, (rank, h, c))
        tensors[c] = (arr, labels)

    for v in sorted(d.nodes):
        if v in boundary:
            continue
        kind, legs = d.node(v).kind, d.legs(v)
        if kind in dg.SPIDER_KINDS:
            # A spider self-loop's factor is one: its legs are never built.
            legs = tuple(leg for leg in legs if d.edges[leg[0]] != (v, v))
        _check_cap(dim, len(legs), f" for node {v} ({kind}, {len(legs)} "
                                   f"loop-free legs)")
        arr = _shared_node_tensor(d, v, legs)
        labels = [ends[e][0] if e in ends else ("e", e) for e, _ in legs]
        if len(labels) == 2 and labels[0] == labels[1]:   # a box self-loop
            arr, labels = np.trace(arr), []
        add(arr, labels)
    for labs in ends.values():
        if len(labs) == 2:
            add(np.eye(dim, dtype=complex), labs)

    # Contract greedily: smallest merged tensor first, ties to the oldest
    # pair. A popped pair whose tensor is gone is stale.
    while heap:
        rank, i, j = heapq.heappop(heap)
        if i not in tensors or j not in tensors:
            continue
        _check_cap(dim, rank)
        (a, la), (b, lb) = tensors.pop(i), tensors.pop(j)
        for c, labs in ((i, la), (j, lb)):
            for lab in labs:
                holders[lab].remove(c)
        shared = [lab for lab in la if lab in lb]
        merged = np.tensordot(a, b, axes=([la.index(x) for x in shared],
                                          [lb.index(x) for x in shared]))
        add(merged, [x for x in la + lb if x not in shared])

    matrix = _assemble(list(tensors.values()), want, scalar)
    return DenseOperator(dim, len(in_ids), len(out_ids), matrix.reshape(
        dim ** len(out_ids), dim ** len(in_ids)))


def _assemble(parts: list, want: list, scalar: complex) -> np.ndarray:
    """The output tensor, axes in `want` order, of the disconnected
    remainder `parts`, (array, labels) pairs whose labels make up `want`,
    times the scalar.

    Smallest part first, each part's axes go to their positions in `want`,
    with size-1 axes for the others, and one broadcasting multiply per
    further part writes the output: no outer product and no transposed
    copy of it is built. The scalar multiplies last, in place when the
    fold made the array; a lone part is a view of a tensor that may be
    cached, so it is scaled into a new array.
    """
    parts = sorted(parts, key=lambda part: part[0].size)
    labels = [lab for _, labs in parts for lab in labs]
    if sorted(labels) != sorted(want):
        raise AssertionError(f"contraction lost track of legs: {labels}")
    position = {lab: i for i, lab in enumerate(want)}
    matrix = np.array(1.0, dtype=complex)
    for k, (arr, labs) in enumerate(parts):
        perm = sorted(range(len(labs)), key=lambda a: position[labs[a]])
        shape = [1] * len(want)
        for a in perm:
            shape[position[labs[a]]] = arr.shape[a]
        part = np.transpose(arr, perm).reshape(shape)
        matrix = part if k == 0 else np.multiply(part, matrix, order="C")
    if len(parts) > 1:
        matrix *= scalar
        return matrix
    return np.multiply(matrix, scalar, order="C")


def evaluate(d: dg.Diagram, method: str = "fast") -> DenseOperator:
    """Matrix of a diagram; method is 'fast' or 'reference'."""
    if method == "fast":
        return _evaluate_fast(d)
    if method == "reference":
        return _evaluate_reference(d)
    raise ValueError(f"method must be fast or reference, got {method!r}")


def _blocks(*arrays):
    """Aligned slices of _COMPARE_BLOCK entries of equal-size arrays, read
    flat, so that a comparison's temporaries stay one block large."""
    flat = [x.reshape(-1) for x in arrays]
    for i in range(0, flat[0].size, _COMPARE_BLOCK):
        yield [x[i:i + _COMPARE_BLOCK] for x in flat]


def _pivot(b: np.ndarray) -> int:
    """Flat index of b's first entry of largest modulus, or of its first
    NaN modulus, as np.argmax(np.abs(b)) picks it."""
    best, top = 0, -1.0
    for i, (blk,) in enumerate(_blocks(b)):
        mags = np.abs(blk)
        k = int(np.argmax(mags))
        if np.isnan(mags[k]):
            return i * _COMPARE_BLOCK + k
        if mags[k] > top:
            best, top = i * _COMPARE_BLOCK + k, mags[k]
    return best


def _blockwise_max(f, *arrays):
    """np.max(f(*arrays)) taken block by block, and 0.0 for empty arrays;
    np.maximum lets a NaN propagate."""
    m = 0.0
    for blks in _blocks(*arrays):
        m = np.maximum(m, np.max(f(*blks)))
    return m


def _max_deviation(a: np.ndarray, b: np.ndarray, s: complex):
    """max|a - s*b| over all entries."""
    return _blockwise_max(lambda x, y: np.abs(x - s * y), a, b)


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray,
                       tol: float = 1e-9) -> complex | None:
    """The s with a == s*b entrywise within tol, or None.

    Two all-zero matrices compare equal with s = 1. The pivot is b's
    largest entry, so a zero a against a nonzero b returns None via the
    entrywise check, not a division blowup. Both matrices are read in
    blocks, so no temporary of their size is built.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None
    if a.size == 0:
        return 1.0 + 0.0j
    a, b = a.reshape(-1), b.reshape(-1)
    pivot = _pivot(b)
    if abs(b[pivot]) < tol:
        return (1.0 + 0.0j) if _blockwise_max(np.abs, a) < tol else None
    s = a[pivot] / b[pivot]
    if abs(s) <= tol:
        # a vanishes while b does not: refuse the zero scalar.
        return None
    if _max_deviation(a, b, s) <= tol * max(1.0, _blockwise_max(np.abs, a)):
        return complex(s)
    return None


def compare_scalar_exact(a: np.ndarray, b: np.ndarray,
                         tol: float = 1e-9) -> tuple:
    """(s, deviation, passed) for a against s*b, with s from
    equal_up_to_scalar and deviation max|a - s*b|.

    passed holds only when both the deviation and |s - 1| are within tol,
    as a scalar-exact rewrite requires. Matrices that are not proportional
    give (None, inf, False).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    s = equal_up_to_scalar(a, b, tol)
    if s is None:
        return None, math.inf, False
    deviation = float(_max_deviation(a, b, s))
    return s, deviation, deviation <= tol and abs(s - 1.0) <= tol


# ---------------------------------------------------------------------------
# Structure checks: the algebraic laws the generators satisfy

@dataclass
class CheckReport:
    check_id: str
    dim: int
    passed: bool
    deviation: float
    note: str = ""


def _g(name, dim):
    return generator_matrix(name, dim)


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _frobenius_family(dim: int, col: str) -> list:
    d = dim
    eye = np.eye(d, dtype=complex)
    delta = _g("delta_z" if col == dg.Z else "delta_x", d).matrix
    eps = _g("eps_z" if col == dg.Z else "eps_x", d).matrix
    mu = delta.conj().T
    swap = _g("swap", d).matrix
    checks = []
    coassoc = _dev(np.kron(delta, eye) @ delta, np.kron(eye, delta) @ delta)
    checks.append(("coassoc", coassoc))
    checks.append(("cocommute", _dev(swap @ delta, delta)))
    checks.append(("counit_l", _dev(np.kron(eps, eye) @ delta, eye)))
    checks.append(("counit_r", _dev(np.kron(eye, eps) @ delta, eye)))
    frob_l = np.kron(mu, eye) @ np.kron(eye, delta)
    frob_r = delta @ mu
    checks.append(("frobenius", _dev(frob_l, frob_r)))
    special = mu @ delta
    target = eye if col == dg.Z else d * eye
    checks.append(("special", _dev(special, target)))
    return checks


def structure_check(check_id: str, dim: int) -> CheckReport:
    d = dim
    eye = np.eye(d, dtype=complex)
    fmat = fourier_matrix(d)

    if check_id in ("frobenius_z", "frobenius_x"):
        col = dg.Z if check_id.endswith("z") else dg.X
        checks = _frobenius_family(d, col)
        dev = max(v for _, v in checks)
        worst = max(checks, key=lambda kv: kv[1])[0]
        return CheckReport(check_id, d, dev < 1e-10, dev,
                           f"worst law: {worst}")

    if check_id == "classical_copy":
        # The Z family copies the computational basis points |t> and the
        # X family copies the Fourier points sqrt(D)|+_k>, both exactly,
        # with counit 1 on each point.
        delta_x = _g("delta_x", d).matrix
        eps_x = _g("eps_x", d).matrix
        dev = 0.0
        for k in range(d):
            s = math.sqrt(d) * fmat[:, k]
            dev = max(dev, _dev(delta_x @ s, np.kron(s, s)))
            dev = max(dev, _dev(eps_x @ s, np.array([1.0])))
        delta_z = _g("delta_z", d).matrix
        eps_z = _g("eps_z", d).matrix
        for t in range(d):
            s = np.zeros(d, dtype=complex)
            s[t] = 1.0
            dev = max(dev, _dev(delta_z @ s, np.kron(s, s)))
            dev = max(dev, _dev(eps_z @ s, np.array([1.0])))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    if check_id == "unbiased_points":
        # mu(s (x) s_dual) lands on eps^dagger for any state that is flat
        # for the family: the algebraic form of unbiasedness. The Z dual
        # is the entrywise conjugate; the X dual flips the group element
        # (s_dual[b] = conj(s[-b])) and the law holds up to the norm D.
        rng = np.random.default_rng(11)
        dev = 0.0
        mu_z = _g("delta_z", d).matrix.conj().T
        eps_z_dag = _g("eps_z", d).matrix.conj().T.ravel()
        mu_x = _g("delta_x", d).matrix.conj().T
        eps_x_dag = _g("eps_x", d).matrix.conj().T.ravel()
        for trial in range(12):
            alpha = rng.uniform(0, 2 * np.pi, size=d - 1)
            s = _phase_exponentials(alpha, d)
            dev = max(dev, _dev(mu_z @ np.kron(s, s.conj()), eps_z_dag))
            sx = fmat @ s
            sx_dual = np.array([sx[(-b) % d] for b in range(d)]).conj()
            dev = max(dev, _dev(mu_x @ np.kron(sx, sx_dual), d * eps_x_dag))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    if check_id == "bialgebra_units":
        # The four unit coherence laws between the two families, each up
        # to a scalar: each family's unit is a classical point of the
        # other family.
        delta_z = _g("delta_z", d).matrix
        delta_x = _g("delta_x", d).matrix
        eps_z = _g("eps_z", d).matrix
        eps_x = _g("eps_x", d).matrix
        ket0 = _g("ket0", d).matrix
        ketplus = _g("ketplus", d).matrix
        pairs = [
            (delta_z @ ket0, np.kron(ket0, ket0)),
            (delta_x @ ketplus, np.kron(ketplus, ketplus)),
            (eps_z @ ket0, np.array([[1.0]])),
            (eps_x @ ketplus, np.array([[1.0]])),
        ]
        dev = max(compare_scalar_exact(a, b)[1] for a, b in pairs)
        return CheckReport(check_id, d, dev < 1e-10, dev,
                           "up to scalar")

    if check_id == "hopf":
        # mu_X (S (x) id) delta_Z = eps_X^dagger eps_Z with the antipode
        # S|j> = |-j>; exact, scalar one.
        delta_z = _g("delta_z", d).matrix
        mu_x = _g("delta_x", d).matrix.conj().T
        eps_z = _g("eps_z", d).matrix
        eps_x_dag = _g("eps_x", d).matrix.conj().T
        anti = np.zeros((d, d), dtype=complex)
        for j in range(d):
            anti[(-j) % d, j] = 1.0
        lhs = mu_x @ np.kron(anti, eye) @ delta_z
        rhs = eps_x_dag @ eps_z
        return CheckReport(check_id, d, _dev(lhs, rhs) < 1e-10, _dev(lhs, rhs))

    if check_id == "strong_complementarity":
        delta_x = _g("delta_x", d).matrix
        mu_z = _g("delta_z", d).matrix.conj().T
        swap = _g("swap", d).matrix
        lhs = delta_x @ mu_z
        mid = np.kron(np.kron(eye, swap), eye)
        rhs = np.kron(mu_z, mu_z) @ mid @ np.kron(delta_x, delta_x)
        dev = _dev(lhs, rhs)
        return CheckReport(check_id, d, dev < 1e-10, dev, "exact, scalar one")

    if check_id == "dualizer":
        # Bending a wire with the X cup then the Z cap gives the
        # negation permutation, which is unitary.
        s = _dualizer(d)
        anti = np.zeros((d, d), dtype=complex)
        for j in range(d):
            anti[(-j) % d, j] = 1.0
        dev = _dev(s, anti)
        unit = _dev(s.conj().T @ s, eye)
        return CheckReport(check_id, d, max(dev, unit) < 1e-10,
                           max(dev, unit), "negation matrix, unitary")

    if check_id == "dim_independence":
        # Both families' circle scalars equal D.
        cup_z = _g("delta_z", d).matrix @ _g("ketplus", d).matrix
        cup_x = _g("delta_x", d).matrix @ _g("ket0", d).matrix / math.sqrt(d)
        dev = max(abs(cup_z.conj().T @ cup_z - d).max(),
                  abs(cup_x.conj().T @ cup_x - d).max())
        return CheckReport(check_id, d, dev < 1e-10, float(dev))

    if check_id == "cyclic_points":
        # The X-family classical points, read as Z phases, form Z_D under
        # phase addition: matrix-level closure of cyclic_vector.
        from .phases import cyclic_vector, phase_add
        dev = 0.0
        for a in range(d):
            for b in range(d):
                lhs = lambda_matrix(dg.Z, phase_add(cyclic_vector(d, a),
                                                    cyclic_vector(d, b)), d)
                rhs = lambda_matrix(dg.Z, cyclic_vector(d, (a + b) % d), d)
                dev = max(dev, _dev(lhs, rhs))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    if check_id == "cup_mismatch":
        # The two families' cups sum |jj> and |j,-j>; they agree at D=2
        # and differ for D>=3.
        cup_z = (_g("delta_z", d).matrix @ _g("ketplus", d).matrix).ravel()
        cup_x = (_g("delta_x", d).matrix @ _g("ket0", d).matrix
                 / math.sqrt(d)).ravel()
        same = _dev(cup_z, cup_x) < 1e-10
        expect_same = (d == 2)
        return CheckReport(check_id, d, same == expect_same,
                           _dev(cup_z, cup_x),
                           "equal exactly when D = 2")

    if check_id == "fourier_delta":
        # (F (x) F) delta_Z F^dagger = sqrt(D) * (X-spider delta), i.e.
        # Fourier conjugation reproduces delta_x up to 1/sqrt(D).
        delta_z = _g("delta_z", d).matrix
        delta_x = _g("delta_x", d).matrix
        lhs = np.kron(fmat, fmat) @ delta_z @ fmat.conj().T
        dev = _dev(lhs * math.sqrt(d), delta_x)
        return CheckReport(check_id, d, dev < 1e-10, dev,
                           "equal up to sqrt(D)")

    if check_id == "fourier_phase_state":
        # F|{a}_Z> = |{a}_X> exactly, on a fixed grid of test phases.
        rng = np.random.default_rng(7)
        dev = 0.0
        for _ in range(20):
            alpha = rng.uniform(0, 2 * np.pi, size=d - 1)
            dev = max(dev, _dev(fmat @ phased_state(dg.Z, alpha, d),
                                phased_state(dg.X, alpha, d)))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    raise ValueError(f"unknown structure check {check_id!r}")


def _dualizer(d: int) -> np.ndarray:
    """(cap_Z (x) id)(id (x) cup_X) as a matrix."""
    cup_x = (generator_matrix("delta_x", d).matrix
             @ generator_matrix("ket0", d).matrix / math.sqrt(d)).reshape(d, d)
    cap_z = (generator_matrix("eps_z", d).matrix
             @ generator_matrix("delta_z", d).matrix.conj().T).reshape(d, d)
    # s[j, k] = sum_m cap[m, j] cup[m, k] with cup |m,k> amplitudes.
    return np.einsum("mj,mk->jk", cap_z, cup_x)


STRUCTURE_CHECKS = (
    "frobenius_z", "frobenius_x", "classical_copy", "unbiased_points",
    "bialgebra_units", "hopf", "strong_complementarity", "dualizer",
    "dim_independence", "cyclic_points", "cup_mismatch", "fourier_delta",
    "fourier_phase_state",
)


def run_structure_checks(dim: int) -> list:
    return [structure_check(c, dim) for c in STRUCTURE_CHECKS]
