"""Relational toy theory for dits.

A single system is the set of D^2 ontic states, labelled 1..D^2; the label
x*D + p + 1 encodes the coordinate pair (x, p) with x, p in 0..D-1.  An
n-system object is the n-fold Cartesian product, flattened 1-based with
system 0 most significant (matching Kronecker order).  Morphisms are plain
relations, stored as dense boolean matrices of shape (D^2)^n x (D^2)^m
(target arity n rows, source arity m columns); arity 0 is the one-element
set I.

The two observable structures live on the coordinate fibrations:

    delta_Z : u ~ (y, z)  iff  u_x = y_x = z_x  and  u_p = y_p + z_p (mod D)
    eps_Z   : {(x, 0) : x}  ~  *
    delta_X : u ~ (y, z)  iff  u_p = y_p = z_p  and  u_x = y_x + z_x (mod D)
    eps_X   : {(0, p) : p}  ~  *

delta_X is the conjugate of delta_Z under the coordinate transpose
(x, p) -> (p, x).  `rel_structure_check` runs the shared laws of
`laws.LAWS` (Frobenius laws, counits, specialness, classical and unbiased
points, coherence, strong complementarity, Hopf with full negation as
antipode) in the toy model: each law's networks are contractions of the
relations' float32 tensor views, planned once by `laws.plan`, compared
after a `> 0` test.  It adds the toy theory's own checks (the cap and
snake, the transpose, the phase groups, Latin-square grids, maximal
knowledge) and, as a negative control, the shared laws with a corrupted
delta_Z, which must fail.

The compact cap is computed honestly from its definition, bell =
delta_Z . converse(eps_Z), which gives the p-twisted pair relation
{* ~ ((x, q), (x, -q))} rather than the strict diagonal; that twist is what
makes cap-induced conjugation (p-negation) satisfy the unbiasedness law.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .laws import FROBENIUS, LAWS, Law, Model, check, contract
from .phases import check_size, json_field, json_int, json_int_list, json_list

__all__ = [
    "Rel",
    "or_and",
    "Permutation",
    "ontic_label",
    "ontic_coords",
    "tuple_label",
    "label_tuple",
    "spek_generator",
    "transpose_permutation",
    "negation_permutation",
    "classical_point",
    "phase_state",
    "phase_map",
    "phase_maps",
    "phase_group_law",
    "cap_conjugate",
    "delta_grid",
    "rel_structure_check",
]


# ---------------------------------------------------------------------------
# ontic labels


def ontic_label(D: int, x: int, p: int) -> int:
    """1-based label of the ontic state with coordinates (x, p)."""
    return (x % D) * D + (p % D) + 1


def ontic_coords(D: int, label: int) -> tuple:
    """Inverse of ontic_label."""
    if not 1 <= label <= D * D:
        raise ValueError(f"label {label} out of range 1..{D * D}")
    return ((label - 1) // D, (label - 1) % D)


def tuple_label(D: int, labels: Sequence[int]) -> int:
    """Flatten per-system 1-based labels to one 1-based index (system 0
    most significant)."""
    size = D * D
    flat = 0
    for lab in labels:
        if not 1 <= lab <= size:
            raise ValueError(f"label {lab} out of range 1..{size}")
        flat = flat * size + (lab - 1)
    return flat + 1


def label_tuple(D: int, arity: int, flat: int) -> tuple:
    """Inverse of tuple_label for a given arity."""
    size = D * D
    if not 1 <= flat <= size ** arity:
        raise ValueError(f"label {flat} out of range 1..{size}^{arity}")
    rest = flat - 1
    out = []
    for _ in range(arity):
        out.append(rest % size + 1)
        rest //= size
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# relations


def or_and(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """OR-AND product of boolean matrices, broadcast over leading axes as
    `@` is: relational composition, one matrix or a whole stack at once.

    float32 takes numpy's BLAS path, which integer products lack.  The
    `> 0` test stays exact: an entry is a sum of non-negative 0/1
    products, and such a sum cannot round to zero."""
    return np.matmul(a, b, dtype=np.float32) > 0


class Rel:
    """A relation between finite powers of the D^2-element ontic set.

    m is the source arity, n the target arity; the boolean matrix has
    shape ((D^2)^n, (D^2)^m).  Composition is OR-AND matrix product,
    `tensor` is Kronecker product, `converse` is transposition.
    """

    __slots__ = ("D", "m", "n", "matrix")

    def __init__(self, D: int, m: int, n: int, matrix: np.ndarray):
        if D < 2:
            raise ValueError("D must be at least 2")
        if m < 0 or n < 0:
            raise ValueError("arities must be nonnegative")
        size = D * D
        want = (size ** n, size ** m)
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.shape != want:
            raise ValueError(
                f"matrix shape {matrix.shape} does not match arities "
                f"(expected {want})")
        self.D = D
        self.m = m
        self.n = n
        self.matrix = matrix

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, D: int, m: int, n: int) -> "Rel":
        size = D * D
        return cls(D, m, n, np.zeros((size ** n, size ** m), dtype=bool))

    @classmethod
    def identity(cls, D: int, arity: int = 1) -> "Rel":
        size = D * D
        return cls(D, arity, arity, np.eye(size ** arity, dtype=bool))

    @classmethod
    def from_pairs(cls, D: int, m: int, n: int,
                   pairs: Iterable[Sequence[int]]) -> "Rel":
        """Build from 1-based [source, target] index pairs."""
        r = cls.empty(D, m, n)
        rows, cols = r.matrix.shape
        for src, dst in pairs:
            if not (1 <= src <= cols and 1 <= dst <= rows):
                raise ValueError(f"pair ({src}, {dst}) out of range")
            r.matrix[dst - 1, src - 1] = True
        return r

    @classmethod
    def state(cls, D: int, support: Iterable[int], arity: int = 1) -> "Rel":
        """Relation I -> A^arity with the given 1-based support."""
        r = cls.empty(D, 0, arity)
        rows = r.matrix.shape[0]
        for lab in support:
            if not 1 <= lab <= rows:
                raise ValueError(f"label {lab} out of range 1..{rows}")
            r.matrix[lab - 1, 0] = True
        return r

    @classmethod
    def permutation(cls, D: int,
                    mapping: Mapping[int, int] | Callable[[int], int]
                    ) -> "Rel":
        """Single-system relation from a bijection on 1..D^2."""
        size = D * D
        if callable(mapping):
            images = [mapping(lab) for lab in range(1, size + 1)]
        else:
            images = [mapping[lab] for lab in range(1, size + 1)]
        return Permutation(D, tuple(images)).to_rel()

    # -- algebra --------------------------------------------------------

    def compose(self, other: "Rel") -> "Rel":
        """self . other (apply `other` first)."""
        if self.D != other.D:
            raise ValueError("dimension mismatch in composition")
        if self.m != other.n:
            raise ValueError(
                f"arity mismatch: composing {self.m}-source with "
                f"{other.n}-target")
        return Rel(self.D, other.m, self.n, or_and(self.matrix, other.matrix))

    def __matmul__(self, other: "Rel") -> "Rel":
        return self.compose(other)

    def tensor(self, other: "Rel") -> "Rel":
        if self.D != other.D:
            raise ValueError("dimension mismatch in tensor product")
        # the Kronecker product of boolean matrices as one broadcast AND:
        # entry ((i, k), (j, l)) is a[i, j] & b[k, l], in a fresh array
        a, b = self.matrix, other.matrix
        return Rel(self.D, self.m + other.m, self.n + other.n,
                   (a[:, None, :, None] & b[None, :, None, :]).reshape(
                       a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]))

    def converse(self) -> "Rel":
        return Rel(self.D, self.n, self.m, self.matrix.T.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rel):
            return NotImplemented
        return (self.D == other.D and self.m == other.m
                and self.n == other.n
                and bool(np.array_equal(self.matrix, other.matrix)))

    def __hash__(self):
        return hash((self.D, self.m, self.n, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return (f"Rel(D={self.D}, {self.m}->{self.n}, "
                f"{int(self.matrix.sum())} pairs)")

    # -- views ----------------------------------------------------------

    def pairs(self) -> list:
        """Sorted 1-based [source, target] pairs."""
        rows, cols = np.nonzero(self.matrix)
        out = [[int(c) + 1, int(r) + 1] for r, c in zip(rows, cols)]
        out.sort()
        return out

    def support(self) -> frozenset:
        """Support of a state (source arity 0) as 1-based flat labels."""
        if self.m != 0:
            raise ValueError("support() is only defined for states")
        return frozenset(int(i) + 1 for i in np.nonzero(self.matrix[:, 0])[0])

    def scalar_true(self) -> bool:
        """Value of an I -> I relation."""
        if self.m != 0 or self.n != 0:
            raise ValueError("scalar_true() needs arity 0 -> 0")
        return bool(self.matrix[0, 0])

    def tensor_view(self) -> np.ndarray:
        """Boolean tensor with one axis per system, target axes first."""
        size = self.D * self.D
        return self.matrix.reshape((size,) * (self.n + self.m))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"D": self.D, "m": self.m, "n": self.n, "pairs": self.pairs()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Rel":
        D, m, n = (json_int(json_field(obj, k, "relation JSON"), k)
                   for k in ("D", "m", "n"))
        pairs = [json_int_list(p, "pair") for p in json_list(
            json_field(obj, "pairs", "relation JSON"), "pairs")]
        return cls.from_pairs(D, m, n, pairs)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Rel":
        return cls.from_json_dict(json.loads(text))


@dataclass(frozen=True)
class Permutation:
    """A bijection on the 1..D^2 label set, applied lazily."""

    D: int
    images: tuple

    def __post_init__(self):
        size = self.D * self.D
        if sorted(self.images) != list(range(1, size + 1)):
            raise ValueError("images must be a bijection on 1..D^2")

    def __call__(self, label: int) -> int:
        if not 1 <= label <= len(self.images):
            raise ValueError(
                f"label {label} out of range 1..{len(self.images)}")
        return self.images[label - 1]

    def inverse(self) -> "Permutation":
        return Permutation(self.D,
                           tuple((np.argsort(self.images) + 1).tolist()))

    def to_rel(self) -> Rel:
        r = Rel.empty(self.D, 1, 1)
        r.matrix[np.array(self.images) - 1, np.arange(len(self.images))] = True
        return r


# ---------------------------------------------------------------------------
# generators


def _coordinate_permutation(D: int, image: Callable) -> Permutation:
    """The permutation (x, p) -> image(x, p), from coordinate arrays."""
    x, p = np.indices((D, D))
    return Permutation(D, tuple(ontic_label(D, *image(x, p)).ravel().tolist()))


def transpose_permutation(D: int) -> Permutation:
    """The coordinate transpose (x, p) -> (p, x)."""
    return _coordinate_permutation(D, lambda x, p: (p, x))


def negation_permutation(D: int) -> Permutation:
    """Full coordinate negation (x, p) -> (-x, -p); the Hopf antipode."""
    return _coordinate_permutation(D, lambda x, p: (-x, -p))


def _delta(D: int, fibre: str) -> Rel:
    """Copying relation: u ~ (y, z) iff the fibre coordinate agrees on all
    three and the other coordinate adds, u_other = y_other + z_other."""
    ux, up, a = np.indices((D, D, D))
    if fibre == "x":
        y, z = ontic_label(D, ux, a), ontic_label(D, ux, up - a)
    else:
        y, z = ontic_label(D, a, up), ontic_label(D, ux - a, up)
    r = Rel.empty(D, 1, 2)
    r.matrix[(y - 1) * D * D + z - 1, ontic_label(D, ux, up) - 1] = True
    return r


@functools.lru_cache(maxsize=None)
def spek_generator(name: str, D: int) -> Rel:
    """The generating relations of the toy theory.

    delta_z / eps_z and delta_x / eps_x are the two observable structures;
    bell is computed from its definition delta_z . converse(eps_z); mixed
    is the maximally mixed state (full support).

    Each result is built once per (name, D) and shared by every caller, so
    its matrix is read-only; compose, tensor and converse return new,
    writable matrices.
    """
    if D < 2:
        raise ValueError("D must be at least 2")
    if name == "delta_z":
        gen = _delta(D, "x")
    elif name == "delta_x":
        gen = _delta(D, "p")
    elif name == "eps_z":
        gen = classical_point("X", D, 0).converse()
    elif name == "eps_x":
        gen = classical_point("Z", D, 0).converse()
    elif name == "bell":
        gen = (spek_generator("delta_z", D)
               @ spek_generator("eps_z", D).converse())
    elif name == "mixed":
        gen = Rel.state(D, range(1, D * D + 1))
    else:
        raise ValueError(f"unknown generator {name!r}")
    gen.matrix.setflags(write=False)
    return gen


def classical_point(color: str, D: int, t: int) -> Rel:
    """The t-th classical point: a full fibre of the copied coordinate.

    Z-classical points fix x = t (the z_t states), X-classical points fix
    p = t (the x_t states).
    """
    t %= D
    if color == "Z":
        support = [ontic_label(D, t, p) for p in range(D)]
    elif color == "X":
        support = [ontic_label(D, x, t) for x in range(D)]
    else:
        raise ValueError("color must be 'Z' or 'X'")
    return Rel.state(D, support)


def phase_state(color: str, D: int, sigma: int, t: int) -> Rel:
    """Unbiased point of the color's phase group, indexed by (sigma, t).

    Z-unbiased states are graphs p = t - sigma*x; X-unbiased states are
    graphs x = t - sigma*p.  (sigma, t) = (0, 0) is the counit's adjoint.
    """
    if color == "Z":
        support = [ontic_label(D, x, t - sigma * x) for x in range(D)]
    elif color == "X":
        support = [ontic_label(D, t - sigma * p, p) for p in range(D)]
    else:
        raise ValueError("color must be 'Z' or 'X'")
    return Rel.state(D, support)


def phase_map(color: str, D: int, sigma: int, t: int) -> Rel:
    """The phase map of an unbiased point, computed from its definition
    mu . (psi x id)."""
    delta = spek_generator("delta_z" if color == "Z" else "delta_x", D)
    psi = phase_state(color, D, sigma, t)
    return delta.converse() @ psi.tensor(Rel.identity(D))


def phase_maps(color: str, D: int) -> dict:
    """The color's D^2 phase maps, keyed by (sigma, t)."""
    return {(s, t): phase_map(color, D, s, t)
            for s in range(D) for t in range(D)}


def phase_group_law(maps: dict) -> bool:
    """Whether the D^2 phase maps `maps` (as from `phase_maps`) form the
    group (Z_D)^2: each is a permutation, (0, 0) is the identity, and
    composition adds indices, map(s1, t1) . map(s2, t2) = map(s1 + s2,
    t1 + t2).

    The maps are stacked in (sigma, t) order and, once each is known to be
    a permutation, read as index arrays: all D^4 products are one gather,
    compared with the table of index sums in one `array_equal`."""
    D = maps[0, 0].D
    stack = np.stack([maps[s, t].matrix for s in range(D) for t in range(D)])
    if not ((stack.sum(axis=1) == 1).all() and (stack.sum(axis=2) == 1).all()
            and np.array_equal(stack[0], np.eye(D * D, dtype=bool))):
        return False
    image = stack.argmax(axis=1)            # image[k, u]: where map k sends u
    s, t = np.divmod(np.arange(D * D), D)
    table = (s[:, None] + s) % D * D + (t[:, None] + t) % D
    return bool(np.array_equal(image[:, image], image[table]))


def cap_conjugate(color: str, D: int, psi: Rel) -> Rel:
    """Conjugate a state through the color's own compact cap,
    (psi^dagger x id) . (delta . eps^dagger)."""
    tag = color.lower()
    cap = (spek_generator(f"delta_{tag}", D)
           @ spek_generator(f"eps_{tag}", D).converse())
    return psi.converse().tensor(Rel.identity(D)) @ cap


def delta_grid(color: str, D: int) -> np.ndarray:
    """The copy relation as a (D^2 x D^2) grid: cell (y, z) holds the label
    u with u ~ (y, z), or 0 where the relation is empty."""
    delta = spek_generator("delta_z" if color == "Z" else "delta_x", D)
    size = D * D
    if (delta.matrix.sum(axis=1) > 1).any():
        raise AssertionError("copy grid cell is not single-valued")
    return (delta.matrix @ np.arange(1, size + 1)).reshape(size, size)


# ---------------------------------------------------------------------------
# law battery

# The laws that the battery checks: the shared ones, and those of the toy
# theory only: the Z cap (bell) is symmetric and satisfies the snake
# equation, and the coordinate transpose conjugates delta_X into delta_Z.
_LAWS = {
    **LAWS,
    "cap_symmetric": Law(0, (("ba->ab", ("bell",)), ("ab->ab", ("bell",)))),
    "snake": Law(0, (("ab,bc->ca", ("bell", "bell")), ("ca->ca", ("id",)))),
    "transpose_involution": Law(0, (
        ("ay,bz,yzv,vu->abu", ("transpose", "transpose", "delta_x",
                               "transpose")),
        ("abu->abu", ("delta_z",)))),
}


def _same(scale, results) -> bool:
    """Whether each later result equals the first, as `np.array_equal`
    gives it: the same shape, then one `==` reduction.  A relation is
    nonzero or not, so the scale is ignored."""
    first = results[0]
    return all(r.shape == first.shape and bool((r == first).all())
               for r in results[1:])


def _law_model(D: int) -> Model:
    """The toy theory as a model of `laws.LAWS`: each relation's float32
    tensor view, contracted by `laws.contract` and tested `> 0`, which
    stays exact for the reason `or_and` gives."""
    rels = {name: spek_generator(name, D)
            for name in ("delta_z", "delta_x", "eps_z", "eps_x", "bell")}
    rels.update(antipode=negation_permutation(D).to_rel(),
                transpose=transpose_permutation(D).to_rel(),
                id=Rel.identity(D))
    points = {}
    for color in ("Z", "X"):
        tag = color.lower()
        points[f"classical_{tag}"] = [classical_point(color, D, t)
                                      for t in range(D)]
        points[f"unbiased_{tag}"] = [phase_state(color, D, sigma, t)
                                     for sigma in range(D) for t in range(D)]

    def view(rel):
        return rel.tensor_view().astype(np.float32)

    return Model(
        views={name: view(rel) for name, rel in rels.items()},
        points={name: np.stack([view(rel) for rel in family])
                for name, family in points.items()},
        contract=lambda spec, views: contract(spec, views) > 0,
        compare=_same)


def _check(checks: list, check_id: str, passed: bool, detail: str = ""):
    checks.append({"id": check_id, "passed": bool(passed), "detail": detail})


# The battery's largest tensors, the four-wire sides of the
# coassociativity, Frobenius and strong-complementarity laws, have
# (D^2)^4 = D^8 entries.  Above the D=7 size it refuses: D=8 would need
# 16,777,216 entries per side and about 6.9e10 multiply-adds for the
# strong-complementarity square.
_LAW_BATTERY_CAP = 7 ** 8


def rel_structure_check(D: int) -> dict:
    """Verify the shared laws `laws.LAWS` in the toy theory as boolean
    tensor equations, plus the phase groups, the cap, the transpose, grid
    shape invariants, maximal knowledge and a negative control.

    Raises ValueError, before building anything, when the largest tensor
    (D^8 entries) exceeds the D=7 size."""
    if D > 1:
        check_size(D, 8, _LAW_BATTERY_CAP, "law battery at D={base} needs a "
                   "{size}-entry relation (D^8), above the cap of {cap} "
                   "entries (D=7)")
    checks: list = []
    model = _law_model(D)

    def row(check_id, *names):
        _check(checks, check_id, all(check(model, _LAWS[n]) for n in names))

    maps = {color: phase_maps(color, D) for color in ("Z", "X")}
    for color in ("Z", "X"):
        tag = color.lower()
        for law in FROBENIUS:
            row(f"{law}_{tag}", f"{law}_{tag}")
        row(f"classical_points_{tag}", *(f"classical_{k}_{tag}" for k in
                                         ("copy", "delete", "conjugate")))
        row(f"unbiased_points_{tag}", f"unbiased_points_{tag}")
        _check(checks, f"phase_group_{tag}", phase_group_law(maps[color]),
               f"(Z_{D} x Z_{D}) composition table")
    row("coherence", "coherence_z", "coherence_x", "counit_scalar")
    row("strong_complementarity", "strong_complementarity")
    row("hopf_antipode", "hopf")
    row("cap_snake", "cap_symmetric", "snake")
    row("transpose_involution", "transpose_involution")

    # each diagonal block of the Z grid is a Latin square on its own D
    # symbols, and the off-diagonal blocks are empty
    blocks = delta_grid("Z", D).reshape(D, D, D, D).transpose(0, 2, 1, 3)
    diag = blocks[np.arange(D), np.arange(D)]          # [block, row, col]
    symbols = np.arange(D)[:, None] * D + np.arange(1, D + 1)
    ok = ((np.sort(diag, axis=2) == symbols[:, None, :]).all()
          and (np.sort(diag, axis=1) == symbols[:, :, None]).all()
          and not blocks[~np.eye(D, dtype=bool)].any())
    _check(checks, "latin_squares", ok)

    # maximal-knowledge preservation: generators keep support at D^arity.
    # points[t] holds the classical points z_t and x_t as two columns; both
    # copy maps take all 2D of them, and the Z phase maps at t take those
    # at t, in two stacked products
    points = np.stack([np.hstack([classical_point(c, D, t).matrix
                                  for c in ("Z", "X")]) for t in range(D)])
    copies = or_and(np.stack([spek_generator(f"delta_{c}", D).matrix
                              for c in ("z", "x")])[:, None], points)
    phased = or_and(np.stack([[maps["Z"][s, t].matrix for s in range(D)]
                              for t in range(D)]), points[:, None])
    ok = ((copies.sum(axis=-2) == D * D).all()
          and (phased.sum(axis=-2) == D).all()
          and len(spek_generator("bell", D).support()) == D * D)
    _check(checks, "maximal_knowledge", ok)

    # negative control: the shared laws must fail once delta_Z has its pair
    # (0, 0) ~ ((0, 0), (0, 0)) moved to the source (0, 1)
    bad = model.views["delta_z"].copy()
    bad[0, 0, 0], bad[0, 0, 1] = 0, 1
    bad_model = dataclasses.replace(model,
                                    views={**model.views, "delta_z": bad})
    _check(checks, "negative_control",
           not all(check(bad_model, law) for law in LAWS.values()),
           "corrupted copy map fails the laws")

    return {
        "dim": D,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
