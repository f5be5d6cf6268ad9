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
pairwise, greedily, the pair with the smallest merged tensor first and
ties to the oldest pair. They share nothing beyond the node tensor
helper, and tests hold them to each other at 1e-10. "fast" plans, then
runs. _plan reads only the diagram's structure (D, each node's kind and
boundary position in id order, the edges) and returns the whole
schedule in the form the run reads: per leaf its node id, the signs of
the legs its tensor is built from and whether it is traced; the number
of bare wires; per step its two slots and tensordot's axes as a pair of
tuples; and the layout of what is left. The run fetches each leaf's
tensor by its kept sign tuple, calls np.tensordot once per step and
folds each closed tensor into the scalar in the order it is made, so a
plan never changes a contraction or a byte of the result, and a warm
evaluation reads no legs and decodes nothing. Plans are kept under the
structure's int16 bytes (_structure_key), read through the one
boundary pass that every evaluation makes. Kept plans share each equal
tuple, one copy held in _shared (_share), so a structure whose plan
equals a kept one adds only its key. The cache charges a plan its key's
bytes and those of each tuple it adds, plus a dict slot for each
(_plan_charge), holds at most _PLAN_BUDGET charged bytes, fills as the
node-tensor cache does and never evicts. A kept plan is run only while
D to its largest checked rank is within _FAST_CAP; past it the diagram
is planned, and refused, afresh; _CACHE_ELEMS is read on every fetch.
What "fast" has left once no pair shares a leg, the disconnected parts
of the output, is folded into the output smallest part first, by one
broadcasting multiply per part with its axes at their boundary
positions: no outer product of the parts, and no transposed copy of
one, is built; a lone part is scaled into a new array by one multiply.
equal_up_to_scalar and compare_scalar_exact read their matrices in fixed
blocks of _COMPARE_BLOCK entries, so a comparison builds no temporary of
the matrices' size. Small matrices, the common case, fill one block, so
each block loop runs once, and a block's largest modulus is read at its
argmax; a deviation within tol passes without reading |a| for the bound.

"fast" builds each spider's tensor without its self-loops: a loop's
factor is one for both colours (the loop_remove rule), so a spider whose
legs are all loops is its degree-0 scalar. A box's self-loop is traced.
Node tensors of at most _CACHE_ELEMS entries whose phases are exact (or
absent, for boxes) are built once per (kind, D, phase, leg signs), the
phase keyed by its exact (num, den) ints, and shared read-only between
calls; approximate phases are never cached. The cache charges each
tensor it stores its entries plus 64 + 16*D for its key
(_cache_charge), and holds at most _CACHE_ENTRIES charged entries:
it fills until a tensor would pass that budget, refuses that one, still
stores a later one that fits, and never evicts. "fast" labels each leg
by an int: edge e by e, and the k-th open wire by ~k, outputs by
position first, then inputs. Both paths sort boundaries and inner nodes
out in one pass (_boundary_order). "reference" builds every tensor
afresh, self-loop legs included. Both read the D x D table eta^(m*j)
behind c_coefficients and fourier_matrix from a read-only copy, built
once per D and kept when it holds at most _ETA_KEEP entries; the
stabilizer oracle reads eta^j from omega_powers, the vector of D roots
that omega builds, kept under the same bound.

Each path refuses with a one-line ValueError before it allocates past
its cap: "reference" a diagram of more than _REFERENCE_CAP joint edge
assignments (D^E) or a node tensor of more than _REFERENCE_CAP entries
(a self-loop's two legs count), "fast" any node tensor, merged pair or
output matrix of more than _FAST_CAP entries, and either path an X
spider whose D x D eta table would pass _FAST_CAP entries; a refused node
tensor or table names its node. "fast" runs all its checks in _plan,
before it builds any tensor: the output matrix, then each node's tensor
and eta table in id order, then each merge in turn.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from .laws import LAWS, Law, Model, check, contract
from .phases import PhaseVector, check_size, cyclic_vector

_REFERENCE_CAP = 2_000_000     # joint edge assignments, D^E
_FAST_CAP = 2 ** 24            # elements of any one fast-path tensor
_CACHE_ELEMS = 4096            # elements of the largest cached node tensor
_CACHE_ENTRIES = 2 ** 20       # entries (16 MiB) charged to the cache in all
_ETA_KEEP = 2 ** 16            # entries (1 MiB) of the largest kept eta table
_COMPARE_BLOCK = 8192          # entries per block of a matrix comparison
_PLAN_BUDGET = 9 * 2 ** 17     # bytes (1.125 MiB) charged to kept plans in all
_node_tensor_cache: dict = {}
_cache_charged = 0             # entries charged to what the cache holds
_plan_cache: dict = {}         # structure key -> fast-path plan
_shared: dict = {}             # each tuple kept plans hold, keyed by itself
_plan_charged = 0              # bytes charged to what the plan cache holds


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
    """eta^power = exp(2*pi*i*power/dim). power may be an int array. The
    angle is a float, so an int power and the same power in an array give
    the same bits: numpy's complex division by dim multiplies by 1/dim."""
    return np.exp(1j * (2 * np.pi * (power % dim) / dim))


def omega_powers(dim: int) -> np.ndarray:
    """omega(dim, j) for j = 0..D-1, read-only, from one omega call. A
    vector of at most _ETA_KEEP entries is built once per D, and those of
    the eight dimensions used last are kept; a larger one is built per
    call."""
    if dim > _ETA_KEEP:
        return _build_omega_powers(dim)
    return _kept_omega_powers(dim)


def _build_omega_powers(dim: int) -> np.ndarray:
    roots = omega(dim, np.arange(dim))
    roots.setflags(write=False)
    return roots


_kept_omega_powers = functools.lru_cache(maxsize=8)(_build_omega_powers)


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


def _eta_table(dim: int) -> np.ndarray:
    """eta^(m*j) for m, j = 0..D-1, read-only. A table of at most
    _ETA_KEEP entries is built once per D, and those of the eight
    dimensions used last are kept; a larger one is built per call."""
    if dim * dim > _ETA_KEEP:
        return _build_eta_table(dim)
    return _kept_eta_table(dim)


def _build_eta_table(dim: int) -> np.ndarray:
    j = np.arange(dim)
    table = np.exp(2j * np.pi * np.outer(j, j) / dim)
    table.setflags(write=False)
    return table


_kept_eta_table = functools.lru_cache(maxsize=8)(_build_eta_table)


def c_coefficients(alpha, dim: int | None = None) -> np.ndarray:
    """c_m(alpha) = sum_j exp(i*alpha_j) eta^(m*j), the X-spider weights."""
    u = _phase_exponentials(alpha, dim)
    return _eta_table(len(u)) @ u


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
    return _eta_table(dim) / math.sqrt(dim)


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

def _node_tensor(d: dg.Diagram, v: int, signs):
    """Tensor for node v with one axis per entry of `signs`, in order.

    Each sign is +1 for an output leg of v (v is the edge's source) and
    -1 for an input leg (v is its target). Returns a complex scalar for
    degree-0 spiders.
    """
    dim = d.dimension
    n = d.node(v)
    k = len(signs)
    if n.kind == dg.Z:
        u = _phase_exponentials(n.phase, dim)
        if k == 0:
            return complex(u.sum())
        # Flat, the diagonal entry (j,)*k sits at j * sum_{a<k} D^a.
        t = np.zeros(dim ** k, dtype=complex)
        t[::(dim ** k - 1) // (dim - 1)] = u
        return t.reshape((dim,) * k)
    if n.kind == dg.X:
        _check_eta_table(dim, v)
        c = c_coefficients(n.phase, dim)
        if k == 0:
            return complex(c[0])
        # Signed digit sum, one outer sum or difference with arange(D)
        # per further axis.
        r = np.arange(dim)
        total = r if signs[0] == 1 else -r
        for sign in signs[1:]:
            total = (np.add if sign == 1 else np.subtract).outer(total, r)
        # In place: one int and one complex array of the result's shape.
        t = c[np.remainder(total, dim, out=total)]
        t *= dim ** (-0.5 * k)
        return t
    if n.kind in dg.BOX_KINDS:
        f = fourier_matrix(dim)
        if n.kind == dg.FDAG:
            f = f.conj().T
        # Axis order must follow the legs: f[out_digit, in_digit].
        if signs[0] == 1:
            return f
        return f.T
    raise ValueError(f"node {v} ({n.kind}) has no tensor")


def _check_eta_table(dim: int, v: int) -> None:
    """Refuse X spider v whose D x D eta table would pass _FAST_CAP."""
    check_size(dim, 2, _FAST_CAP, "evaluation refuses D={base}: node {0} (X) "
               "needs an eta table of {base}^{power} = {size} entries, above "
               "its cap of {cap}", v)


def _boundary_order(d: dg.Diagram):
    """One pass over the nodes in id order: the outputs' and the inputs'
    single edges, each in position order, and the inner nodes as
    (id, kind)."""
    outs, ins, inner = [], [], []
    for v, n in sorted(d.nodes.items()):
        kind = n.kind
        if kind == dg.OUT:
            outs.append((n.position, d.in_edges(v)[0]))
        elif kind == dg.IN:
            ins.append((n.position, d.out_edges(v)[0]))
        else:
            inner.append((v, kind))
    # Positions of each kind are distinct in a valid diagram.
    outs.sort()
    ins.sort()
    return [e for _, e in outs], [e for _, e in ins], inner


# ---------------------------------------------------------------------------
# Reference path: the semantics transcribed as a sum over edge assignments

def _evaluate_reference(d: dg.Diagram) -> DenseOperator:
    dim = d.dimension
    n_e = len(d.edges)
    check_size(dim, n_e, _REFERENCE_CAP, "reference path refuses D={base}, "
               "E={power}: D^E = {size} assignments, above its cap of {cap}; "
               "use method='fast'")
    out_edges, in_edges, inner = _boundary_order(d)
    n_out, n_in = len(out_edges), len(in_edges)

    # digits[a, e] = value carried by edge e under joint assignment a.
    count = dim ** n_e
    if n_e:
        powers = dim ** np.arange(n_e - 1, -1, -1, dtype=np.int64)
        digits = (np.arange(count)[:, None] // powers) % dim
    else:
        digits = np.zeros((1, 0), dtype=np.int64)

    weight = np.full(count, d.scalar, dtype=complex)
    for v, kind in inner:
        legs = d.legs(v)
        check_size(dim, len(legs), _REFERENCE_CAP, "reference path refuses "
                   "D={base}: node {0} ({1}, {power} legs) needs a tensor of "
                   "{size} entries, above its cap of {cap}; use method='fast'",
                   v, kind)
        tensor = _node_tensor(d, v, [sign for _, sign in legs])
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

# The fast path's refusals of a tensor above _FAST_CAP, and of a node's.
_FAST_REFUSAL = ("fast path refuses D={base}: a tensor of {base}^{power} = "
                 "{size} elements is above its cap of {cap}")
_NODE_REFUSAL = ("fast path refuses D={base}: a tensor of {base}^{power} = "
                 "{size} elements for node {0} ({1}, {power} loop-free legs) "
                 "is above its cap of {cap}")


def _cache_charge(size: int, dim: int) -> int:
    """Entries charged for caching a tensor of `size` entries at dimension
    D: its own, plus 64 + 16*D (1 KiB + 256 B per D) for its key, the
    key's 2(D-1) phase ints, the array's header and the dict's slot,
    which measure about 0.3 KiB + 61 B per Turn. So a budget of
    2^20 entries holds about 16 MiB at most, in at most 2^20 / 97
    (10,810) keys."""
    return size + 64 + 16 * dim


def _shared_node_tensor(d: dg.Diagram, v: int, signs: tuple) -> np.ndarray:
    """_node_tensor as an array; a small one with an exact phase, or a
    box's, is built once per (kind, D, phase, leg signs), all it depends
    on, and shared read-only while the cache has room for it. The key
    holds the phase as its exact ints (PhaseVector.exact_ints) and the
    sign tuple as given, which a kept plan shares."""
    global _cache_charged
    n, dim = d.node(v), d.dimension
    if dim ** len(signs) > _CACHE_ELEMS:
        return np.asarray(_node_tensor(d, v, signs))
    phase = () if n.phase is None else n.phase.exact_ints()
    if phase is None:       # an approximate phase is never cached
        return np.asarray(_node_tensor(d, v, signs))
    key = (n.kind, dim, phase, signs)
    t = _node_tensor_cache.get(key)
    if t is None:
        t = np.asarray(_node_tensor(d, v, signs))
        charge = _cache_charge(t.size, dim)
        if _cache_charged + charge <= _CACHE_ENTRIES:
            t.setflags(write=False)
            _node_tensor_cache[key] = t
            _cache_charged += charge
    return t


def _evaluate_fast(d: dg.Diagram) -> DenseOperator:
    """Run d's plan (_plan): build its leaves' tensors, contract each
    step's pair with np.tensordot and place what is left in the output."""
    dim = d.dimension
    _, n_in, n_out, leaves, n_wires, steps, layout = _cached_plan(d)
    scalar = d.scalar
    # Tensors in creation order: a closed one folds into the scalar and
    # takes no slot, and a contracted one leaves its slot empty.
    slots = []
    for v, signs, traced in leaves:
        arr = _shared_node_tensor(d, v, signs)
        if traced:
            arr = np.trace(arr)
        if arr.ndim:
            slots.append(arr)
        else:
            scalar *= complex(arr)
    for _ in range(n_wires):
        slots.append(np.eye(dim, dtype=complex))
    it = iter(steps)
    for i, j, axes in zip(it, it, it):
        merged = np.tensordot(slots[i], slots[j], axes=axes)
        slots[i] = slots[j] = None
        if merged.ndim:
            slots.append(merged)
        else:
            scalar *= complex(merged)
    matrix = _place(slots, layout, scalar)
    return DenseOperator(dim, n_in, n_out, matrix.reshape(
        dim ** n_out, dim ** n_in))


def _loop_free_legs(d: dg.Diagram, v: int) -> tuple:
    edges = d.edges
    return tuple(leg for leg in d.legs(v) if edges[leg[0]] != (v, v))


def _plan(d: dg.Diagram) -> tuple:
    """The fast path's schedule for d, in the form _evaluate_fast runs
    it, from all that it depends on: the dimension, each node's kind and
    boundary position in id order, and the edges. Phases and the scalar
    play no part.

    A tuple of:
    * the largest rank it checks against _FAST_CAP (2 for an eta table),
      n_in and n_out;
    * the leaves, one per inner node in id order: its id, the signs of
      the legs its tensor is built from (all of a node's legs, or a
      spider's less its self-loops, each a factor of one) and whether
      the tensor is traced (a box's, over its self-loop);
    * the number of bare wires;
    * the steps, each the slots i and j it contracts and np.tensordot's
      axes, a pair of tuples;
    * the layout of the parts left over (_layout).
    Each leaf's tensor, then an identity per bare wire, then each step's
    result takes the next slot, unless it has no legs; then it folds into
    the scalar.

    The order is greedy, smallest merged tensor first with ties to the
    oldest pair, from a heap of (merged rank, older, newer) for each pair
    sharing a label when the newer was made. Each leg is labelled by an
    int: edge e by e, and the k-th open wire by ~k, outputs by position
    first, then inputs. Every size check runs here, in this order: the
    output matrix, then each node's tensor and eta table in id order,
    then each merge in turn.
    """
    dim = d.dimension
    out_edges, in_edges, inner = _boundary_order(d)
    n_out, n_in = len(out_edges), len(in_edges)
    # The disconnected parts' outer product is the output matrix.
    check_size(dim, n_out + n_in, _FAST_CAP, _FAST_REFUSAL)
    top = n_out + n_in

    # Open labels of each boundary edge; an edge with two is a bare wire.
    ends = {}
    for k, e in enumerate(out_edges + in_edges):
        ends.setdefault(e, []).append(~k)

    # live: slot -> labels, in creation order; holders: label -> live
    # slots carrying it.
    live, holders, heap = {}, {}, []
    created = itertools.count()

    def add(labels):
        if not labels:
            return
        c = next(created)
        shared = {}     # live slot -> labels it shares with this one
        for lab in labels:
            held = holders.setdefault(lab, [])
            for h in held:
                shared[h] = shared.get(h, 0) + 1
            held.append(c)
        for h, n in shared.items():
            rank = len(labels) + len(live[h]) - 2 * n
            heapq.heappush(heap, (rank, h, c))
        live[c] = labels

    leaves = []
    looped = {s for s, t in d.edges if s == t}
    for v, kind in inner:
        legs = d.legs(v)
        if kind in dg.SPIDER_KINDS and v in looped:
            legs = _loop_free_legs(d, v)
        check_size(dim, len(legs), _FAST_CAP, _NODE_REFUSAL, v, kind)
        top = max(top, len(legs))
        if kind == dg.X:
            _check_eta_table(dim, v)
            top = max(top, 2)
        labels = [ends[e][0] if e in ends else e for e, _ in legs]
        traced = len(labels) == 2 and labels[0] == labels[1]  # a box loop
        leaves.append((v, tuple([sign for _, sign in legs]), traced))
        add([] if traced else labels)
    wires = [labs for labs in ends.values() if len(labs) == 2]
    for labs in wires:
        add(labs)

    # A popped pair whose tensor is gone is stale.
    steps = []
    while heap:
        rank, i, j = heapq.heappop(heap)
        if i not in live or j not in live:
            continue
        check_size(dim, rank, _FAST_CAP, _FAST_REFUSAL)
        top = max(top, rank)
        la, lb = live.pop(i), live.pop(j)
        for c, labs in ((i, la), (j, lb)):
            for lab in labs:
                holders[lab].remove(c)
        shared = [lab for lab in la if lab in lb]
        steps += (i, j, (tuple([la.index(x) for x in shared]),
                         tuple([lb.index(x) for x in shared])))
        add([x for x in la + lb if x not in shared])

    layout = _layout([(c, (dim,) * len(labs), labs)
                      for c, labs in live.items()],
                     [~k for k in range(n_out + n_in)])
    return (top, n_in, n_out, tuple(leaves), len(wires), tuple(steps),
            layout)


def _layout(parts: list, want: list) -> tuple:
    """How _place puts `parts`, (id, shape, labels) triples whose labels
    make up `want`, in the output: per part, smallest first, its id and
    the order of its axes in the output and, unless it is the only part,
    the shape it takes there, its axes at their output positions and size
    1 at the others."""
    labels = [lab for _, _, labs in parts for lab in labs]
    if sorted(labels) != sorted(want):
        raise AssertionError(f"contraction lost track of legs: {labels}")
    position = {lab: i for i, lab in enumerate(want)}
    layout = []
    for k, shape, labs in sorted(parts, key=lambda part: math.prod(part[1])):
        perm = tuple(sorted(range(len(labs)), key=lambda a: position[labs[a]]))
        if len(parts) == 1:
            layout.append((k, perm))
            continue
        placed = [1] * len(want)
        for a in perm:
            placed[position[labs[a]]] = shape[a]
        layout.append((k, perm, tuple(placed)))
    return tuple(layout)


def _place(arrays: list, layout: tuple, scalar: complex) -> np.ndarray:
    """The output tensor that `layout` (from _layout) builds from
    `arrays`, times the scalar.

    Smallest part first, each part's axes go to their positions in the
    output, with size-1 axes for the others, and one broadcasting
    multiply per further part writes the output: no outer product and no
    transposed copy of it is built. The scalar multiplies last, in place.
    A lone part is a view of a tensor that may be cached, so one multiply
    scales its transpose into a new array.
    """
    if len(layout) == 1:
        (k, perm), = layout
        return np.multiply(arrays[k].transpose(perm), scalar, order="C")
    matrix = np.array(1.0, dtype=complex)
    for n, (k, perm, shape) in enumerate(layout):
        part = np.transpose(arrays[k], perm).reshape(shape)
        matrix = part if n == 0 else np.multiply(part, matrix, order="C")
    matrix *= scalar
    return matrix


def _assemble(parts: list, want: list, scalar: complex) -> np.ndarray:
    """The output tensor, axes in `want` order, of the disconnected
    remainder `parts`, (array, labels) pairs whose labels make up `want`,
    times the scalar: _place, by _layout."""
    layout = _layout([(k, arr.shape, labs)
                      for k, (arr, labs) in enumerate(parts)], want)
    return _place([arr for arr, _ in parts], layout, scalar)


# An inner node's kind in a structure key.
_KIND_CODES = {dg.Z: 0, dg.X: 1, dg.F: 2, dg.FDAG: 3}


def _structure_key(d: dg.Diagram) -> bytes | None:
    """All that _plan reads of d, as int16 bytes: D, the boundary edges by
    position (outputs, then inputs), the inner nodes' ids and kinds
    (_KIND_CODES) in id order, and the edges' endpoints; these fix each
    node's kind and boundary position. None when an int does not fit.
    The edges are read into the array straight from d.edges."""
    out_edges, in_edges, inner = _boundary_order(d)
    try:
        key = array("h", [
            d.dimension, len(out_edges), len(in_edges), len(inner),
            *out_edges, *in_edges,
            *[x for v, kind in inner for x in (v, _KIND_CODES[kind])]])
        key.extend(itertools.chain.from_iterable(d.edges))
    except OverflowError:
        return None
    return key.tobytes()


def _share(x, new: dict):
    """x, a plan or a part of one, with each tuple in it, and x itself if
    it is a tuple, replaced by the equal tuple that kept plans hold; a
    tuple that none holds yet goes into `new`, keyed by itself."""
    if type(x) is not tuple:
        return x
    x = tuple([_share(y, new) for y in x])
    kept = _shared.get(x)
    return new.setdefault(x, x) if kept is None else kept


def _plan_charge(key: bytes, new: dict) -> int:
    """Bytes charged for keeping a plan: sys.getsizeof of its key, of
    each tuple it adds to _shared (_share) and of each int above 256 in
    one (Python keeps one copy of each smaller int), plus 128 for each of
    their dict slots, which is what a slot takes at most, 4 x 24 B right
    after its dict grows, and its index. A plan equal to a kept one adds
    no tuple."""
    return sys.getsizeof(key) + 128 + sum(
        sys.getsizeof(t) + 128 + sum(sys.getsizeof(x) for x in t
                                     if type(x) is int and x > 256)
        for t in new)


def _cached_plan(d: dg.Diagram) -> tuple:
    """_plan(d), kept under d's structure key while the plan cache has
    room: it fills until a plan would pass _PLAN_BUDGET charged bytes,
    refuses that one, still stores a later one that fits, and never
    evicts. Kept plans share their equal tuples (_share). A kept plan is
    used only while D to its largest checked rank is within _FAST_CAP;
    past it, _plan refuses afresh, as it would have with no cache."""
    global _plan_charged
    key = _structure_key(d)
    plan = _plan_cache.get(key)
    if plan is not None and d.dimension ** plan[0] <= _FAST_CAP:
        return plan
    plan = _plan(d)
    if key is not None:
        new = {}
        kept = _share(plan, new)
        charge = _plan_charge(key, new)
        if _plan_charged + charge <= _PLAN_BUDGET:
            _shared.update(new)
            _plan_cache[key] = kept
            _plan_charged += charge
    return plan


def evaluate(d: dg.Diagram, method: str = "fast") -> DenseOperator:
    """Matrix of a diagram; method is 'fast' or 'reference'."""
    if method == "fast":
        return _evaluate_fast(d)
    if method == "reference":
        return _evaluate_reference(d)
    raise ValueError(f"method must be fast or reference, got {method!r}")


def _pivot(b: np.ndarray) -> int:
    """Index of flat b's first entry of largest modulus, or of its first
    NaN modulus, as np.argmax(np.abs(b)) picks it; b is read in blocks of
    _COMPARE_BLOCK entries, so that a comparison's temporaries stay one
    block large."""
    pivot, top = 0, -1.0
    for i in range(0, b.size, _COMPARE_BLOCK):
        mags = np.abs(b[i:i + _COMPARE_BLOCK])
        k = int(mags.argmax())
        m = mags[k]
        if m != m:          # NaN
            return i + k
        if m > top:
            pivot, top = i + k, m
    return pivot


def _fold_max(m, mags: np.ndarray):
    """np.maximum.reduce(mags, initial=m) for moduli, and m >= 0 or NaN:
    the entry argmax picks, the first largest or first NaN, unless m is
    NaN or at least as large."""
    v = mags[mags.argmax()]
    return m if m != m or v <= m else v


def _max_abs(a: np.ndarray):
    """max|a| over flat a, block by block as in _pivot, and 0.0 for an
    empty a; a NaN propagates."""
    m = 0.0
    for i in range(0, a.size, _COMPARE_BLOCK):
        m = _fold_max(m, np.abs(a[i:i + _COMPARE_BLOCK]))
    return m


def _max_deviation(a: np.ndarray, b: np.ndarray, s: complex):
    """max|a - s*b| over all entries of flat a and b, as _max_abs."""
    m = 0.0
    for i in range(0, a.size, _COMPARE_BLOCK):
        m = _fold_max(m, np.abs(a[i:i + _COMPARE_BLOCK]
                                - s * b[i:i + _COMPARE_BLOCK]))
    return m


def _fit_scalar(a: np.ndarray, b: np.ndarray, tol: float) -> tuple:
    """(s, max|a - s*b|) for the s with a == s*b entrywise within tol, or
    (None, inf).

    Two all-zero matrices compare equal with s = 1. The pivot is b's
    largest entry, so a zero a against a nonzero b gives None via the
    entrywise check, not a division blowup. Both matrices are read in
    blocks, so no temporary of their size is built.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return None, math.inf
    if a.size == 0:
        return 1.0 + 0.0j, 0.0
    a, b = a.reshape(-1), b.reshape(-1)
    pivot = _pivot(b)
    if abs(b[pivot]) < tol:
        if not _max_abs(a) < tol:
            return None, math.inf
        return 1.0 + 0.0j, float(_max_deviation(a, b, 1.0 + 0.0j))
    s = a[pivot] / b[pivot]
    if abs(s) <= tol:
        # a vanishes while b does not: refuse the zero scalar.
        return None, math.inf
    # The bound is tol * max(1, max|a|) >= tol: a deviation within tol
    # passes without reading |a|.
    deviation = float(_max_deviation(a, b, s))
    if deviation <= tol or deviation <= tol * max(
            1.0, _max_abs(a)):
        return complex(s), deviation
    return None, math.inf


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray,
                       tol: float = 1e-9) -> complex | None:
    """The s with a == s*b entrywise within tol, or None (_fit_scalar)."""
    return _fit_scalar(a, b, tol)[0]


def compare_scalar_exact(a: np.ndarray, b: np.ndarray,
                         tol: float = 1e-9) -> tuple:
    """(s, deviation, passed) for a against s*b, with s from
    equal_up_to_scalar and deviation max|a - s*b|.

    passed holds only when both the deviation and |s - 1| are within tol,
    as a scalar-exact rewrite requires. Matrices that are not proportional
    give (None, inf, False).
    """
    s, deviation = _fit_scalar(a, b, tol)
    if s is None:
        return None, math.inf, False
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


# The Frobenius laws in the order a frobenius row compares them, each with
# its name in the row's note, which names the first law of largest
# deviation.
_FROBENIUS = (("coassociativity", "coassoc"), ("cocommutativity", "cocommute"),
              ("counit_left", "counit_l"), ("counit_right", "counit_r"),
              ("frobenius", "frobenius"), ("special", "special"))

# The laws that the battery checks: the shared ones, and those that hold
# in Hilbert space only: the dualizer s[k, a] = (cap_Z x 1)(1 x cup_X) is
# the antipode S, and S^dagger s = 1; both circles cup^dagger cup equal
# D; and Fourier conjugation turns delta_Z into delta_X.
_DUALIZER = ("delta_z*", "eps_z", "delta_x", "eps_x*")
_LAWS = {
    **LAWS,
    "dualizer": Law(0, (("amu,u,mkv,v->ka", _DUALIZER),
                        ("ka->ka", ("antipode",)))),
    "dualizer_unitary": Law(0, (("jk,amu,u,mjv,v->ka",
                                 ("antipode*",) + _DUALIZER),
                                ("ka->ka", ("id",)))),
    **{f"circle_{c}": Law(1, (("abu,u,abv,v->", (f"delta_{c}*", f"eps_{c}",
                                                 f"delta_{c}", f"eps_{c}*")),
                              ("->", ())))
       for c in "zx"},
    "fourier_delta": Law(-0.5, (("ai,bj,iju,vu->abv",
                                 ("fourier", "fourier", "delta_z",
                                  "fourier*")),
                                ("abv->abv", ("delta_x",)))),
}

# Check id -> (the laws it checks, its note).
_LAW_ROWS = {
    **{f"frobenius_{c}": ([f"{law}_{c}" for law, _ in _FROBENIUS], "")
       for c in "zx"},
    "classical_copy": ([f"classical_{k}_{c}" for c in "zx"
                        for k in ("copy", "delete", "conjugate")], ""),
    "unbiased_points": (["unbiased_points_z", "unbiased_points_x"], ""),
    "bialgebra_units": (["coherence_z", "coherence_x", "counit_scalar"],
                        "up to scalar"),
    "hopf": (["hopf"], ""),
    "strong_complementarity": (["strong_complementarity"],
                               "exact, scalar one"),
    "dualizer": (["dualizer", "dualizer_unitary"],
                 "negation matrix, unitary"),
    "dim_independence": (["circle_z", "circle_x"], ""),
    "fourier_delta": (["fourier_delta"], "equal up to sqrt(D)"),
}


def _law_model(d: int) -> Model:
    """Hilbert space as a model of `laws.LAWS`: the generators' complex
    views, the classical points |t> and sqrt(D)|+_k>, and twelve seeded
    random unbiased points per colour, |{alpha}_Z> and its Fourier
    transform, each unnormalised."""
    ops = {name: generator_matrix(name, d) for name in
           ("delta_z", "delta_x", "eps_z", "eps_x", "id", "fourier")}
    views = {name: op.matrix.reshape((d,) * (op.n_out + op.n_in))
             for name, op in ops.items()}
    views["antipode"] = np.eye(d)[-np.arange(d) % d]     # |j> -> |-j>
    fmat = fourier_matrix(d)
    rng = np.random.default_rng(11)
    flat = np.array([_phase_exponentials(rng.uniform(0, 2 * np.pi, d - 1), d)
                     for _ in range(12)])
    points = {"classical_z": np.eye(d), "classical_x": math.sqrt(d) * fmat.T,
              "unbiased_z": flat, "unbiased_x": flat @ fmat.T}
    return Model(views, points, contract=contract,
                 compare=functools.partial(_law_deviation, d))


def _law_deviation(d: int, scale, results: list) -> float:
    """max|first - D**scale * other| over the other results, or
    compare_scalar_exact's deviation when the scale is None."""
    first, rest = results[0], results[1:]
    if scale is None:
        return max(compare_scalar_exact(first, r)[1] for r in rest)
    return max(_dev(first, d ** scale * r) for r in rest)


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def structure_check(check_id: str, dim: int) -> CheckReport:
    return _structure_check(check_id, dim, _law_model(dim))


def _structure_check(check_id: str, d: int, model: Model) -> CheckReport:
    """One row of the battery, its laws checked in the given law model."""
    if check_id in _LAW_ROWS:
        names, note = _LAW_ROWS[check_id]
        devs = [check(model, _LAWS[name]) for name in names]
        dev = max(devs)
        if check_id.startswith("frobenius"):
            note = f"worst law: {_FROBENIUS[devs.index(dev)][1]}"
        return CheckReport(check_id, d, dev < 1e-10, dev, note)

    if check_id == "cyclic_points":
        # The X-family classical points are the Z phased states of the
        # cyclic vectors: |{cyclic_vector(D, t)}_Z> is column t of F.
        fmat = fourier_matrix(d)
        dev = max(_dev(phased_state(dg.Z, cyclic_vector(d, t)), fmat.T[t])
                  for t in range(d))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    if check_id == "cup_mismatch":
        # The two families' cups delta eps^dagger sum |jj> and |j,-j>; they
        # agree at D=2 and differ for D>=3.
        cup_z, cup_x = (model.contract("abu,u->ab", [
            model.views[f"delta_{c}"], model.views[f"eps_{c}"].conj()])
            for c in "zx")
        dev = _dev(cup_z, cup_x)
        return CheckReport(check_id, d, (dev < 1e-10) == (d == 2), dev,
                           "equal exactly when D = 2")

    if check_id == "fourier_phase_state":
        # F|{a}_Z> = |{a}_X> exactly, on a fixed grid of test phases: the
        # F box on the one-legged Z spider against the X spider.
        fmat = fourier_matrix(d)
        rng = np.random.default_rng(7)
        dev = 0.0
        for _ in range(20):
            alpha = PhaseVector.from_radians(
                d, rng.uniform(0, 2 * np.pi, size=d - 1))
            z_state, x_state = (
                evaluate(dg.spider_diagram(d, color, 0, 1, alpha)).matrix
                for color in (dg.Z, dg.X))
            dev = max(dev, _dev(fmat @ z_state, x_state))
        return CheckReport(check_id, d, dev < 1e-10, dev)

    raise ValueError(f"unknown structure check {check_id!r}")


STRUCTURE_CHECKS = (
    "frobenius_z", "frobenius_x", "classical_copy", "unbiased_points",
    "bialgebra_units", "hopf", "strong_complementarity", "dualizer",
    "dim_independence", "cyclic_points", "cup_mismatch", "fourier_delta",
    "fourier_phase_state",
)


def run_structure_checks(dim: int) -> list:
    """Every row of the battery, over one law model built once."""
    model = _law_model(dim)
    return [_structure_check(c, dim, model) for c in STRUCTURE_CHECKS]
