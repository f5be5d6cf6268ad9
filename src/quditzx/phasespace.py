"""Epistemically restricted classical theory on the discrete phase space
(Z_d)^{2n}.

Points are interleaved coordinate tuples (x_1, p_1, ..., x_n, p_n).  Dual
vectors are canonical variables F = a_1 X_1 + b_1 P_1 + ... stored as the
coefficient tuple (a_1, b_1, ...).  The symplectic form is

    {F, G} = sum_j (a_j d_j - b_j c_j) = F^T J G,
    J = direct sum of [[0, 1], [-1, 0]] blocks,

so that {X_1, P_1} = +1, matching the finite-difference Poisson bracket on
functional tables.  An epistemic state is an isotropic set of known
variables V plus a valuation, stored as one representative point; its
distribution is uniform over the coset V-perp + v_rep with exact rational
weights.  Valid transformations are affine symplectic maps m -> Sm + a.

Whole grids are numpy int64 arrays: a functional's table has one axis per
coordinate (`linear_table`), `bracket_table` takes the finite-difference
bracket at every point at once, and a coset is an array with one row per
point.  Random symplectic maps are products of transvections.

`encode_ontic` bridges phase-space points to the 1-based ontic labels of
the relational model, in `toyrel`'s encoding (x*d + p + 1 per system,
mixed-radix for up to three systems).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import toyrel as tr
from ._modp import is_prime, nullspace_mod
from .phases import check_size, json_field, json_int, json_int_list, json_list

__all__ = [
    "OnticPoint",
    "DualVector",
    "EpistemicState",
    "SymplecticAffine",
    "symplectic_form",
    "symplectic_product",
    "linear_table",
    "bracket_table",
    "poisson_bracket",
    "orthocomplement",
    "apply_transform",
    "basis_indicators",
    "measure_probabilities",
    "encode_ontic",
    "decode_ontic",
    "random_symplectic",
    "all_maximal_states",
    "phase_space_report",
]

_BRIDGE_ARITY = 3


def _reduced(values: Sequence[int], d: int) -> tuple:
    return tuple(int(v) % d for v in values)


@dataclass(frozen=True)
class OnticPoint:
    """A phase-space point (x_1, p_1, ..., x_n, p_n) over Z_d."""

    d: int
    coords: tuple

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if len(self.coords) % 2 != 0 or not self.coords:
            raise ValueError("coordinates must have even positive length")
        object.__setattr__(self, "coords", _reduced(self.coords, self.d))

    @property
    def n(self) -> int:
        return len(self.coords) // 2

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class DualVector:
    """A canonical variable a_1 X_1 + b_1 P_1 + ... over Z_d."""

    d: int
    coeffs: tuple

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be at least 2")
        if len(self.coeffs) % 2 != 0 or not self.coeffs:
            raise ValueError("coefficients must have even positive length")
        object.__setattr__(self, "coeffs", _reduced(self.coeffs, self.d))

    @property
    def n(self) -> int:
        return len(self.coeffs) // 2

    def __call__(self, m) -> int:
        coords = m.coords if isinstance(m, OnticPoint) else tuple(m)
        if len(coords) != len(self.coeffs):
            raise ValueError("point and variable sizes differ")
        return sum(a * int(x) for a, x in zip(self.coeffs, coords)) % self.d

    def __iter__(self):
        return iter(self.coeffs)


def _coerce_dual(F, d: int, n: int) -> DualVector:
    if isinstance(F, DualVector):
        if F.d != d or F.n != n:
            raise ValueError("dual vector has mismatched d or n")
        return F
    return DualVector(d, tuple(F))


def symplectic_form(n: int, d: int) -> np.ndarray:
    """The 2n x 2n matrix J with {F, G} = F^T J G."""
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for j in range(n):
        J[2 * j, 2 * j + 1] = 1
        J[2 * j + 1, 2 * j] = d - 1
    return J


def symplectic_product(F, G, d: int | None = None) -> int:
    """{F, G} = sum_j (a_j d_j - b_j c_j) mod d."""
    if isinstance(F, DualVector):
        d = F.d
    if d is None:
        raise ValueError("dimension required for raw coefficient input")
    fc = tuple(F.coeffs if isinstance(F, DualVector) else F)
    gc = tuple(G.coeffs if isinstance(G, DualVector) else G)
    if len(fc) != len(gc) or len(fc) % 2 != 0:
        raise ValueError("dual vector sizes differ or are odd")
    total = 0
    for j in range(0, len(fc), 2):
        total += fc[j] * gc[j + 1] - fc[j + 1] * gc[j]
    return total % d


def linear_table(F: DualVector) -> np.ndarray:
    """Full table of a linear functional, shape (d,) * 2n."""
    grid = np.indices((F.d,) * len(F.coeffs))
    return np.tensordot(np.array(F.coeffs, dtype=np.int64), grid, 1) % F.d


def bracket_table(F_table: np.ndarray, G_table: np.ndarray,
                  d: int) -> np.ndarray:
    """Finite-difference Poisson bracket of two functional tables at every
    point: sum_j (D_xj F D_pj G - D_pj F D_xj G) mod d, where D_i f is the
    forward difference f(m + e_i) - f(m), taken cyclically."""
    F_table = np.asarray(F_table, dtype=np.int64)
    G_table = np.asarray(G_table, dtype=np.int64)
    if F_table.shape != G_table.shape or F_table.ndim % 2:
        raise ValueError("functional tables need one shape with an even "
                         "number of axes")

    def diff(table, axis):
        return np.roll(table, -1, axis) - table

    total = np.zeros_like(F_table)
    for x in range(0, F_table.ndim, 2):
        total += (diff(F_table, x) * diff(G_table, x + 1)
                  - diff(F_table, x + 1) * diff(G_table, x))
    return total % d


def poisson_bracket(F_table: np.ndarray, G_table: np.ndarray, m,
                    d: int) -> int:
    """Finite-difference Poisson bracket of two functional tables at m:
    `bracket_table` read at one point."""
    coords = tuple(m.coords if isinstance(m, OnticPoint) else m)
    if len(coords) != np.ndim(F_table):
        raise ValueError("point size does not match table arity")
    return int(bracket_table(F_table, G_table, d)[coords])


def orthocomplement(V: Sequence, d: int, n: int) -> list:
    """Basis of {m : F^T m = 0 for all F in V} over prime d."""
    if not is_prime(d):
        raise ValueError("orthocomplement needs prime d")
    rows = [_coerce_dual(F, d, n).coeffs for F in V]
    basis = nullspace_mod(np.reshape(rows, (len(rows), 2 * n)), d)
    return list(map(tuple, basis.tolist()))


class EpistemicState:
    """Knowledge of an isotropic set of canonical variables.

    V is the list of known variables; the valuation is carried by one
    representative point v_rep with F(v_rep) = v(F).  The constructor
    rejects non-commuting V (classical complementarity).
    """

    __slots__ = ("d", "n", "V", "v_rep", "_coset")

    def __init__(self, d: int, n: int, V: Sequence, v_rep):
        if not is_prime(d):
            raise ValueError("epistemic states need prime d")
        if n < 1:
            raise ValueError("n must be at least 1")
        duals = tuple(_coerce_dual(F, d, n) for F in V)
        for i, F in enumerate(duals):
            for G in duals[i + 1:]:
                if symplectic_product(F, G) != 0:
                    raise ValueError(
                        "V is not isotropic: variables "
                        f"{F.coeffs} and {G.coeffs} have nonzero bracket")
        point = (v_rep if isinstance(v_rep, OnticPoint)
                 else OnticPoint(d, tuple(v_rep)))
        if point.n != n:
            raise ValueError("v_rep has the wrong number of systems")
        self.d = d
        self.n = n
        self.V = duals
        self.v_rep = point
        self._coset = None

    def valuation(self, F) -> int:
        return _coerce_dual(F, self.d, self.n)(self.v_rep)

    def _points(self) -> np.ndarray:
        """The coset V-perp + v_rep as an int64 array, one row per point,
        rows in lexicographic order; built on first use and then shared."""
        if self._coset is None:
            basis = np.array(orthocomplement(self.V, self.d, self.n))
            combos = np.indices((self.d,) * len(basis)).reshape(len(basis),
                                                                -1)
            rows = (combos.T @ basis + self.v_rep.coords) % self.d
            self._coset = rows[np.lexsort(rows.T[::-1])]
        return self._coset

    def support(self) -> list:
        """All consistent points, sorted: the coset V-perp + v_rep."""
        return list(map(tuple, self._points().tolist()))

    def distribution(self) -> dict:
        """Uniform exact distribution over the support."""
        points = self.support()
        weight = Fraction(1, len(points))
        return {m: weight for m in points}

    def labels(self) -> frozenset:
        """Support as 1-based ontic labels (bridge encoding)."""
        return frozenset(encode_ontic(OnticPoint(self.d, m), self.n)
                         for m in self.support())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpistemicState):
            return NotImplemented
        return (self.d == other.d and self.n == other.n
                and np.array_equal(self._points(), other._points()))

    def __repr__(self) -> str:
        known = ", ".join(str(F.coeffs) for F in self.V)
        return (f"EpistemicState(d={self.d}, n={self.n}, V=[{known}], "
                f"v_rep={self.v_rep.coords})")

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "V": [list(F.coeffs) for F in self.V],
            "v_rep": list(self.v_rep.coords),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EpistemicState":
        V, d, n, v_rep = (json_field(obj, key, "state JSON")
                          for key in ("V", "d", "n", "v_rep"))
        V = [json_int_list(F, "V row") for F in json_list(V, "V")]
        return cls(json_int(d, "d"), json_int(n, "n"), V,
                   json_int_list(v_rep, "v_rep"))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EpistemicState":
        return cls.from_json_dict(json.loads(text))


class SymplecticAffine:
    """An affine symplectic map m -> Sm + a on (Z_d)^{2n}."""

    __slots__ = ("d", "n", "S", "a")

    def __init__(self, d: int, S, a=None):
        S = np.asarray(S, dtype=np.int64) % d
        if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] % 2 != 0:
            raise ValueError("S must be a square matrix of even size")
        n = S.shape[0] // 2
        J = symplectic_form(n, d)
        if not np.array_equal((S.T @ J @ S) % d, J):
            raise ValueError("S is not symplectic: S^T J S != J")
        if a is None:
            a = np.zeros(2 * n, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64) % d
        if a.shape != (2 * n,):
            raise ValueError("translation vector has the wrong size")
        self.d = d
        self.n = n
        self.S = S
        self.a = a

    @classmethod
    def identity(cls, d: int, n: int) -> "SymplecticAffine":
        return cls(d, np.eye(2 * n, dtype=np.int64))

    def __call__(self, m):
        coords = np.asarray(
            m.coords if isinstance(m, OnticPoint) else tuple(m),
            dtype=np.int64)
        out = (self.S @ coords + self.a) % self.d
        return tuple(int(v) for v in out)

    def compose(self, other: "SymplecticAffine") -> "SymplecticAffine":
        """self after other: m -> self(other(m))."""
        if self.d != other.d or self.n != other.n:
            raise ValueError("transform sizes differ")
        return SymplecticAffine(self.d, (self.S @ other.S) % self.d,
                                (self.S @ other.a + self.a) % self.d)

    def __repr__(self) -> str:
        return f"SymplecticAffine(d={self.d}, n={self.n})"


def apply_transform(s: EpistemicState, t: SymplecticAffine
                    ) -> EpistemicState:
    """Push an epistemic state through an affine symplectic map: the new
    known variables are S^{-T} V and the support maps pointwise."""
    if s.d != t.d or s.n != t.n:
        raise ValueError("state and transform sizes differ")
    d = s.d
    J = symplectic_form(s.n, d)
    # for symplectic S the inverse transpose is J S J^{-1} = -J S J mod d
    s_inv_t = (-(J @ t.S @ J)) % d
    new_V = [DualVector(d, tuple(int(v) for v in (s_inv_t @ F.coeffs) % d))
             for F in s.V]
    out = EpistemicState(d, s.n, new_V, t(s.v_rep))
    image = (s._points() @ t.S.T + t.a) % d
    assert np.array_equal(image[np.lexsort(image.T[::-1])], out._points()), \
        "transformed coset does not match pointwise image"
    return out


def basis_indicators(F, d: int, n: int) -> list:
    """The d indicator tables of measuring one canonical variable."""
    dual = _coerce_dual(F, d, n)
    table = linear_table(dual)
    return [(table == k).astype(np.int64) for k in range(d)]


def _outcome_hits(indicators, points, batch: int = 0) -> np.ndarray:
    """Indicator tables read at phase-space points, after checking them.

    indicators has shape (*B, K, *grid) with len(B) == batch: the K
    outcome tables of each of B measurements, which must be 0/1 valued
    and sum to the all-ones table over their K outcomes.  points holds one
    point's coordinates per row (or in the last axis).  Returns hits of
    shape (*B, K, P) for the P points, in order."""
    if len(indicators) == 0:
        raise ValueError("at least one indicator required")
    if len({np.shape(x) for x in indicators}) > 1:
        raise ValueError("indicator tables have different shapes")
    stack = np.asarray(indicators, dtype=np.int64)
    if not ((stack == 0) | (stack == 1)).all():
        raise ValueError("indicators must be 0/1 valued")
    if not (stack.sum(axis=batch) == 1).all():
        raise ValueError("indicators do not partition phase space")
    coords = np.asarray(points, dtype=np.int64).reshape(
        -1, stack.ndim - batch - 1)
    return stack[(..., *coords.T)]


def measure_probabilities(mu, indicators: Sequence[np.ndarray]) -> list:
    """Outcome probabilities p_k = sum_m mu(m) xi_k(m), exact.

    mu is a mapping point-tuple -> Fraction (as produced by
    EpistemicState.distribution); indicators are 0/1 tables that must sum
    to the all-ones table.  The weights are summed as integer numerators
    over their common denominator, at the distribution's points only.
    """
    hits = _outcome_hits(indicators, [tuple(m) for m in mu])
    nums, den = _common_numerators([Fraction(w) for w in mu.values()])
    # a 0/1 selection of the numerators stays below their absolute sum
    exact = np.int64 if sum(map(abs, nums)) < 2 ** 63 else object
    counts = hits.astype(exact) @ np.array(nums, dtype=exact)
    if sum(map(int, counts)) != den:
        raise AssertionError("measurement probabilities do not sum to 1")
    return [Fraction(int(c), den) for c in counts]


def _common_numerators(weights: list) -> tuple:
    """(nums, den): exact weights, Fractions or ints, as integer numerators
    over their least common denominator, in order."""
    den = math.lcm(*{w.denominator for w in weights})
    return [w.numerator * (den // w.denominator) for w in weights], den


def _sums_to_one(mu) -> bool:
    """Whether the exact weights of a distribution (as produced by
    EpistemicState.distribution) add up to 1, summed as integer
    numerators over their common denominator."""
    nums, den = _common_numerators(list(mu.values()))
    return sum(nums) == den


def encode_ontic(m, n: int = 1) -> int:
    """1-based ontic label of a point: x*d + p + 1 per system, mixed-radix
    with system 1 most significant; bridge supports n <= 3."""
    if not isinstance(m, OnticPoint):
        raise TypeError("encode_ontic expects an OnticPoint")
    if m.n != n:
        raise ValueError("point has the wrong number of systems")
    if n > _BRIDGE_ARITY:
        raise ValueError(f"bridge supports at most {_BRIDGE_ARITY} systems")
    c = m.coords
    return tr.tuple_label(m.d, [tr.ontic_label(m.d, c[2 * j], c[2 * j + 1])
                                for j in range(n)])


def decode_ontic(label: int, d: int, n: int = 1) -> OnticPoint:
    """Inverse of encode_ontic."""
    if n > _BRIDGE_ARITY:
        raise ValueError(f"bridge supports at most {_BRIDGE_ARITY} systems")
    return OnticPoint(d, tuple(c for lab in tr.label_tuple(d, n, label)
                               for c in tr.ontic_coords(d, lab)))


def random_symplectic(d: int, n: int, rng: random.Random
                      ) -> SymplecticAffine:
    """A random affine symplectic map: a product of 12 random symplectic
    transvections m -> m + {m, v} v, which generate Sp(2n, Z_d) for prime
    d, and a random shift (validated by the constructor)."""
    size = 2 * n
    draws = np.array(rng.choices(range(d), k=13 * size),
                     dtype=np.int64).reshape(13, size)
    v = draws[:12]
    # transvection by v is I + v (J v)^T; pair the 12 factors up twice
    T = (np.eye(size, dtype=np.int64)
         + v[:, :, None] * (v @ symplectic_form(n, d).T)[:, None, :]) % d
    for _ in range(2):
        T = T[0::2] @ T[1::2] % d
    return SymplecticAffine(d, T[0] @ T[1] % d @ T[2] % d, draws[12])


def all_maximal_states(d: int) -> list:
    """All single-system states of maximal knowledge: one known variable
    (d + 1 directions) with each of its d valuations."""
    if not is_prime(d):
        raise ValueError("state enumeration needs prime d")
    directions = [(0, 1)] + [(1, b) for b in range(d)]
    states = []
    for a, b in directions:
        F = DualVector(d, (a, b))
        for t in range(d):
            # pick any representative with F(v) = t
            if a != 0:
                v_rep = (t * pow(a, -1, d) % d, 0)
            else:
                v_rep = (0, t * pow(b, -1, d) % d)
            states.append(EpistemicState(d, 1, [F], v_rep))
    return states


# Work of phase_space_report, in point evaluations: each case costs its
# d^(2n) grid points plus _CASE_COST for its draws, transforms and states,
# so the cap keeps a run within about 1.5 s at either extreme.
_CASE_COST = 64
_PHASE_SPACE_CAP = 2 ** 18


def phase_space_report(d: int, n: int, seed: int = 0, cases: int = 25
                       ) -> dict:
    """Seeded property battery: exact normalization of epistemic
    distributions, rejection of a non-isotropic known set, symplectic
    bracket preservation, and the finite-difference bracket of linear
    functionals against F^T J G.  Returns {"checks": [...], "passed": ...}
    with one {"id", "passed", "detail"} entry per property.

    Raises ValueError, before drawing anything, when
    cases*d^(2n) + _CASE_COST*cases is above _PHASE_SPACE_CAP, by
    phases.check_size, so d^(2n) is not built for a 2n past the cap's bit
    length; a d, n or cases of 15 or more digits is refused without
    being printed."""
    def shown(x: int) -> str:
        # Python refuses to print an int of more than 4300 digits
        return str(x) if abs(x) < 10 ** 14 else "(15 or more digits)"

    def bad() -> ValueError:
        return ValueError("the phase-space battery needs prime d, n >= 1 and "
                          f"cases >= 1; got d={shown(d)}, n={shown(n)}, "
                          f"cases={shown(cases)}")

    if d < 2 or n < 1 or cases < 1:
        raise bad()
    battery = "the phase-space battery" + (f" at d={d}" if d < 10 ** 14
                                           else "")
    for what, x in (("an n", n), ("a number of cases", cases), ("a d", d)):
        if x >= 10 ** 14:
            # cases*d^(2n) is past any cap, and x may not print
            raise ValueError(f"{battery} refuses {what} of 15 or more "
                             "digits: cases*d^(2n) point evaluations are "
                             f"above its cap of {_PHASE_SPACE_CAP}")
    check_size(d, 2 * n, _PHASE_SPACE_CAP, "the phase-space battery at "
               "d={base}, n={0}, cases={1} needs cases*d^(2n) + {2}*cases = "
               "{1}*{base}^{power} + {2}*{1} point evaluations, above its cap "
               "of {cap}", n, cases, _CASE_COST, times=cases, plus=_CASE_COST)
    if not is_prime(d):
        raise bad()
    rng = random.Random(seed)

    def draw() -> tuple:
        return tuple(rng.randrange(d) for _ in range(2 * n))

    def unit(k: int) -> tuple:
        return tuple(1 if i == k else 0 for i in range(2 * n))

    checks = []
    states = []
    for _ in range(cases):
        V = [unit(2 * j) for j in range(rng.randrange(n + 1))]
        state = EpistemicState(d, n, V, draw())
        states += [state, apply_transform(state, random_symplectic(d, n, rng))]
    checks.append({"id": "distributions_sum_to_one",
                   "passed": all(_sums_to_one(s.distribution())
                                 for s in states),
                   "detail": f"{len(states)} states"})

    # classical complementarity: a conjugate pair cannot be jointly known
    try:
        EpistemicState(d, n, [unit(0), unit(1)], (0,) * (2 * n))
        rejected = False
    except ValueError:
        rejected = True
    checks.append({"id": "isotropy_rejection", "passed": rejected,
                   "detail": "X_1, P_1 jointly known is rejected"})

    ok = True
    for _ in range(cases):
        S = np.asarray(random_symplectic(d, n, rng).S)
        u, v = draw(), draw()
        if symplectic_product(tuple(S @ u % d), tuple(S @ v % d), d) != \
                symplectic_product(u, v, d):
            ok = False
    checks.append({"id": "bracket_preservation", "passed": ok,
                   "detail": f"{cases} random transforms"})

    ok = True
    for _ in range(cases):
        F, G = DualVector(d, draw()), DualVector(d, draw())
        table = bracket_table(linear_table(F), linear_table(G), d)
        ok = ok and bool((table == symplectic_product(F, G)).all())
    checks.append({"id": "bracket_equals_symplectic_product", "passed": ok,
                   "detail": f"{cases} random pairs, all points"})

    return {"d": d, "n": n, "seed": seed, "cases": cases, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
