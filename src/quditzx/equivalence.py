"""Executable equivalence check between the trit toy theory and qutrit
stabilizer theory.

Both sides are built independently.  The toy side runs on relations and
phase-space cosets, a probability being an integer count of coset points
over the coset's size; the quantum side runs on exact integer arrays over
Z[eta] (eta = exp(2*pi*i/3), eta^2 = -1 - eta), so every comparison below
is zero-tolerance.  A trailing axis holds (a, b) of a + b*eta, and all
brakets and phase-map images are a few array products; `Cyclotomic` is
the scalar type of the ring and the kernel's exact oracle.

The twelve single-trit states of maximal knowledge are matched to the
twelve qutrit stabilizer states by the unique dictionary that is a group
homomorphism on both phase tori.  `_phi` derives it on unbiased-point
indices (sigma, t): the point's line has a canonical variable (alpha,
beta), and its image is the torus point of the eta^t eigenstate of the
Weyl row eta^(-alpha beta / 2) X^beta Z^alpha, read by
`stabilizer.torus_exponents`.  Each state's color, phases and ket are
derived from `_phi` and from `toyrel`'s unbiased points, which gives:

    z_t      <->  X-spider state, red phases  t * (2/3, 1/3)   (|t>)
    x_a      <->  Z-spider state, green phases a * (1/3, 2/3)
    (xz)_t   <->  Z-spider state, green phases (1/3, 1/3) + t * (1/3, 2/3)
    (xz^2)_t <->  Z-spider state, green phases (2/3, 2/3) + t * (1/3, 2/3)

`run_equivalence_checks` verifies, exhaustively: possibilistic agreement of
all 144 state/effect pairs (toy composite relation nonempty iff quantum
inner product nonzero), exact measurement probabilities (all values in
{0, 1/3, 1}, toy coset counting vs quantum Born rule), both phase groups
equal to Z_3 x Z_3 with the dictionary a group isomorphism, and
equivariance of the dictionary under all 18 phase maps.  The toy side of
all 144 pairs is one stacked relational product of the twelve states, and
the 216 toy images are one stacked product of the 18 maps with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from . import phasespace as ps
from . import toyrel as tr
from .phases import PhaseVector, Turn
from .stabilizer import phase_group, torus_exponents

__all__ = [
    "STATE_NAMES",
    "FAMILIES",
    "Cyclotomic",
    "StateEntry",
    "build_3spek_states",
    "build_dictionary",
    "run_equivalence_checks",
]

STATE_NAMES = ("z_0", "z_1", "z_2", "x_0", "x_1", "x_2",
               "xz_0", "xz_1", "xz_2", "xz2_0", "xz2_1", "xz2_2")

# family name -> canonical variable whose level sets are the supports
FAMILIES = {
    "z": (1, 0),
    "x": (0, 1),
    "xz": (1, 1),
    "xz2": (2, 1),
}

_KET_NAMES = {
    "z_0": "0", "z_1": "1", "z_2": "2",
    "x_0": "plus", "x_1": "top", "x_2": "bot",
    "xz_0": "times", "xz_1": "ltimes", "xz_2": "rtimes",
    "xz2_0": "minus", "xz2_1": "vdash", "xz2_2": "dashv",
}


class Cyclotomic:
    """Exact arithmetic in Q(eta), eta = exp(2*pi*i/3), as a + b*eta.

    Integer coefficients stay `int`s, so values in Z[eta] never touch
    `Fraction`; any other coefficient is converted to `Fraction`."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = a if isinstance(a, int) else Fraction(a)
        self.b = b if isinstance(b, int) else Fraction(b)

    @classmethod
    def eta_power(cls, k: int) -> "Cyclotomic":
        k %= 3
        if k == 0:
            return cls(1, 0)
        if k == 1:
            return cls(0, 1)
        return cls(-1, -1)

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        return Cyclotomic(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        return Cyclotomic(self.a - other.a, self.b - other.b)

    def __mul__(self, other: "Cyclotomic") -> "Cyclotomic":
        # (a1 + b1 e)(a2 + b2 e) with e^2 = -1 - e
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return Cyclotomic(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def conj(self) -> "Cyclotomic":
        return Cyclotomic(self.a - self.b, -self.b)

    def norm2(self) -> int | Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __complex__(self) -> complex:
        import cmath
        return complex(self.a) + complex(self.b) * cmath.exp(2j * cmath.pi / 3)

    def __repr__(self) -> str:
        return f"({self.a} + {self.b}*eta)"


# ---------------------------------------------------------------------------
# Z[eta] on int64 arrays: a trailing axis holds (a, b) of a + b*eta

_ETA = np.array([(x.a, x.b) for x in map(Cyclotomic.eta_power, range(3))],
                dtype=np.int64)


def _zmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) product; (a1 + b1 e)(a2 + b2 e) with
    e^2 = -1 - e."""
    a1, b1, a2, b2 = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack((a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2), axis=-1)


def _zconj(x: np.ndarray) -> np.ndarray:
    return np.stack((x[..., 0] - x[..., 1], -x[..., 1]), axis=-1)


def _znorm2(x: np.ndarray) -> np.ndarray:
    a, b = x[..., 0], x[..., 1]
    return a * a - a * b + b * b


def _braket_table(kets: np.ndarray) -> np.ndarray:
    """<e|s> = sum_j conj(e_j) s_j for every pair of rows of an (n, 3, 2)
    ket array, as an (n, n, 2) array indexed [e, s]."""
    return _zmul(_zconj(kets)[:, None], kets[None]).sum(axis=2)


def _apply_arrays(matrices: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """Every (3, 3, 2) matrix of a stack applied to every (3, 2) ket: an
    (..., n, 3, 2) array indexed [matrix, ket]."""
    return _zmul(matrices[..., None, :, :, :], kets[:, None]).sum(axis=-2)


@dataclass(frozen=True)
class StateEntry:
    """One dictionary row: a toy support matched to a spider state."""

    name: str
    family: str
    index: int
    support: frozenset
    color: str          # spider color of the quantum state
    phases: PhaseVector  # exact phase vector of that spider
    ket: tuple          # unnormalized exact ket in Z[eta]
    norm2: int          # squared norm of the ket
    ket_name: str


def _printed_supports() -> dict:
    """The twelve single-trit supports (1-based ontic labels)."""
    return {
        "z_0": frozenset({1, 2, 3}),
        "z_1": frozenset({4, 5, 6}),
        "z_2": frozenset({7, 8, 9}),
        "x_0": frozenset({1, 4, 7}),
        "x_1": frozenset({2, 5, 8}),
        "x_2": frozenset({3, 6, 9}),
        "xz_0": frozenset({1, 6, 8}),
        "xz_1": frozenset({2, 4, 9}),
        "xz_2": frozenset({3, 5, 7}),
        "xz2_0": frozenset({1, 5, 9}),
        "xz2_1": frozenset({2, 6, 7}),
        "xz2_2": frozenset({3, 4, 8}),
    }


def _phasespace_state(name: str) -> ps.EpistemicState:
    family, idx = name.rsplit("_", 1)
    t = int(idx)
    a, b = FAMILIES[family]
    F = ps.DualVector(3, (a, b))
    for point in product(range(3), repeat=2):
        if F(point) == t:
            return ps.EpistemicState(3, 1, [F], point)
    raise AssertionError("canonical variable has no level-t point")


def _epistemic_states() -> dict:
    """Name -> phase-space state for the twelve toy states, each built
    once: its coset gives both its support and its distribution."""
    return {name: _phasespace_state(name) for name in STATE_NAMES}


def _checked_supports(states: dict) -> dict:
    """The literal support table, checked against the states' supports
    and against the enumeration of all maximal-knowledge states."""
    literal = _printed_supports()
    derived = {name: s.labels() for name, s in states.items()}
    if derived != literal:
        raise AssertionError("phase-space derivation disagrees with the "
                             "literal support table")
    # labels are one-to-one on cosets, so the enumeration has the literal
    # supports iff it has the named states' cosets
    enumerated = {tuple(s.support()) for s in ps.all_maximal_states(3)}
    if enumerated != {tuple(s.support()) for s in states.values()}:
        raise AssertionError("maximal-state enumeration disagrees with the "
                             "support table")
    return literal


def build_3spek_states() -> dict:
    """Name -> support for the twelve toy states, derived from the
    epistemic restriction and cross-checked against the literal lists."""
    return _checked_supports(_epistemic_states())


def _unbiased_points(supports: dict) -> dict:
    """color -> {name: (sigma, t)}: the named states that are the color's
    unbiased points, found by looking up each point's support."""
    by_support = {support: name for name, support in supports.items()}
    points = {}
    for color in ("Z", "X"):
        found = {by_support.get(tr.phase_state(color, 3, *idx).support()): idx
                 for idx in product(range(3), repeat=2)}
        if None in found or len(found) != 9:
            raise AssertionError(f"the {color} unbiased points are not nine "
                                 "distinct named states")
        points[color] = found
    return points


def build_dictionary() -> list:
    """The twelve matched state pairs, in STATE_NAMES order.

    A state is Z-colored when it is Z-unbiased, otherwise X-colored; its
    phases are `_phi` of its unbiased-point index, and its ket is its
    color's phase map applied to the phase-zero state of that color."""
    return _dictionary(build_3spek_states())


def _dictionary(supports: dict) -> list:
    points = _unbiased_points(supports)
    zero = {"Z": np.array([_ETA[0]] * 3),
            "X": np.array([_ETA[0], (0, 0), (0, 0)])}
    entries = []
    for name in STATE_NAMES:
        family, idx = name.rsplit("_", 1)
        color = "Z" if name in points["Z"] else "X"
        u, v = _phi(color, *points[color][name])
        ket = _apply_arrays(_phase_array(color, u, v), zero[color][None])[0]
        entries.append(StateEntry(
            name=name,
            family=family,
            index=int(idx),
            support=supports[name],
            color=color,
            phases=PhaseVector(3, [Turn.exact(u, 3), Turn.exact(v, 3)]),
            ket=tuple(Cyclotomic(int(a), int(b)) for a, b in ket),
            norm2=int(_znorm2(ket).sum()),
            ket_name=_KET_NAMES[name],
        ))
    return entries


# ---------------------------------------------------------------------------
# phase maps on both sides


def _phi(color: str, sigma: int, t: int) -> tuple:
    """Dictionary image of the (sigma, t) unbiased point, as integer
    thirds on the matching torus. The Z point is the line sigma x + p = t
    and the X point the line x + sigma p = t; for that line's canonical
    variable (alpha, beta), the image is the torus point of the eta^t
    eigenstate of the Weyl operator eta^(-alpha beta / 2) X^beta Z^alpha,
    the +1 eigenstate of the Pauli row below (1/2 = 2 mod 3, so its
    sqrt(eta) exponent is -4 alpha beta - 2t)."""
    alpha, beta = (sigma, 1) if color == "Z" else (1, sigma)
    exps = torus_exponents([beta, alpha, -4 * alpha * beta - 2 * t], 3, color)
    return tuple(e // 2 for e in exps)


def _phase_array(color: str, u: int, v: int) -> np.ndarray:
    """Exact 3x3 matrix of the phase map with phases (u, v) thirds, as a
    (3, 3, 2) array; the X matrix carries a harmless overall factor of 3."""
    gamma = np.array((0, u, v))
    if color == "Z":
        return np.eye(3, dtype=np.int64)[..., None] * _ETA[gamma][:, None]
    j, m, k = np.ogrid[:3, :3, :3]
    return _ETA[((j - m) * k + gamma[k]) % 3].sum(axis=2)


# ---------------------------------------------------------------------------
# the check battery


def run_equivalence_checks() -> dict:
    states = _epistemic_states()
    entries = _dictionary(_checked_supports(states))
    kets = np.array([[(x.a, x.b) for x in e.ket] for e in entries],
                    dtype=np.int64)
    # |<e|s>|^2 for all 144 pairs, indexed [e, s]
    braket2 = _znorm2(_braket_table(kets))
    report: dict = {"dim": 3}

    # 1. possibilistic agreement on all 144 pairs, toy side computed as the
    # relational composites effect . state of the stacked states, S^T . S
    supports = np.hstack([tr.Rel.state(3, e.support).matrix for e in entries])
    # a column's support is looked up by its bitmask, one int
    bits = 1 << np.arange(9)
    by_support = {c: i for i, c in enumerate((bits @ supports).tolist())}
    possible = tr.or_and(supports.T, supports)
    failures = [{"effect": entries[i].name, "state": entries[j].name,
                 "toy": bool(possible[i, j]),
                 "quantum": bool(braket2[i, j] != 0)}
                for i, j in np.argwhere(possible != (braket2 != 0)).tolist()]
    report["possibilistic"] = {"pairs": 144, "failures": failures}

    # 2. exact probabilities: toy coset counting vs quantum Born rule, in
    # integers. Outcome k of a family on state s has toy probability
    # count / |coset|, count being the coset points where the family's
    # variable is k, and quantum probability |<e|s>|^2 / (N_e N_s) for its
    # effect e; each is a [numerator, denominator] pair indexed [family,
    # state, outcome], compared by cross-multiplication
    cosets = np.stack([states[s.name]._points() for s in entries])
    size = cosets.shape[1]
    indicators = [ps.basis_indicators(coeffs, 3, 1)
                  for coeffs in FAMILIES.values()]
    counts = ps._outcome_hits(indicators, cosets, batch=1).reshape(
        len(FAMILIES), 3, len(entries), size).sum(axis=3).transpose(0, 2, 1)
    effects = np.array([[STATE_NAMES.index(f"{family}_{k}")
                         for k in range(3)] for family in FAMILIES])
    norms = np.array([e.norm2 for e in entries])
    toy = np.stack((counts, np.full_like(counts, size)))
    quantum = np.stack((
        braket2[effects[:, None], np.arange(len(entries))[:, None]],
        norms[effects][:, None] * norms[:, None]))
    failing = ((toy[0] * quantum[1] != quantum[0] * toy[1])
               | ~((counts == 0) | (3 * counts == size) | (counts == size)))
    prob_failures = [{"effect": STATE_NAMES[effects[f, k]],
                      "state": entries[j].name,
                      "toy": str(Fraction(*toy[:, f, j, k].tolist())),
                      "quantum": str(Fraction(*quantum[:, f, j, k].tolist()))}
                     for f, j, k in np.argwhere(failing).tolist()]
    # one Fraction per distinct value: the pairs reduced to lowest terms
    pairs = np.hstack((toy.reshape(2, -1), quantum.reshape(2, -1)))
    pairs //= np.gcd(*pairs)
    report["probabilities"] = {
        "pairs": 144,
        "failures": prob_failures,
        "valuesSeen": sorted(str(Fraction(n, d))
                             for n, d in set(zip(*pairs.tolist()))),
    }

    # 3. phase groups: toy (Z_3)^2 composition tables, quantum divisor
    # profile, and the dictionary a homomorphism on each torus
    colors = ("Z", "X")
    maps = {color: tr.phase_maps(color, 3) for color in colors}
    group_ok = all(tr.phase_group_law(m) for m in maps.values())
    # phi[c, sigma, t] is _phi's image of the unbiased point (sigma, t)
    phi = np.array([[[_phi(c, sigma, t) for t in range(3)]
                     for sigma in range(3)] for c in colors])
    # phi(a + b) against phi(a) + phi(b), indexed [c, a1, a2, b1, b2]
    total = (np.arange(3)[:, None] + np.arange(3)) % 3
    homomorphism_ok = bool(
        (phi[:, total[:, None, :, None], total[None, :, None, :]]
         == (phi[:, :, :, None, None] + phi[:, None, None]) % 3).all())
    quantum_group = phase_group(3)
    report["phaseGroups"] = {
        "toyGroupLaw": group_ok,
        "toyFactors": [3, 3],
        "quantumFactors": quantum_group["factors"],
        "dictionaryHomomorphism": homomorphism_ok,
        "isomorphic": (group_ok and homomorphism_ok
                       and quantum_group["factors"] == [3, 3]),
    }

    # 4. equivariance of the dictionary under all 18 phase maps: the toy
    # image of each state, one stacked product of the maps with the states,
    # names a target, and the quantum image of its ket must be parallel to
    # the target's ket
    keyed = [(color, key, toy_map) for color in colors
             for key, toy_map in maps[color].items()]
    toy_images = tr.or_and(np.stack([m.matrix for _, _, m in keyed]),
                           supports)
    targets = [[by_support.get(c) for c in row]
               for row in (bits @ toy_images).tolist()]
    images = _apply_arrays(np.array([_phase_array(color, *phi[c][key])
                                     for c, color in enumerate(colors)
                                     for key in maps[color]]), kets)
    wanted = kets[[[0 if t is None else t for t in row] for row in targets]]
    # two nonzero vectors are parallel iff all their 2x2 minors vanish
    minors = (_zmul(images[..., :, None, :], wanted[..., None, :, :])
              - _zmul(images[..., None, :, :], wanted[..., :, None, :]))
    parallel = ((minors == 0).all(axis=(2, 3, 4))
                & (images != 0).any(axis=(2, 3))
                & (wanted != 0).any(axis=(2, 3)))
    found = np.array([[t is not None for t in row] for row in targets])
    equiv_failures = []
    for m, j in np.argwhere(~(found & parallel)).tolist():
        color, (sigma, t), _ = keyed[m]
        failure = {"color": color, "map": [sigma, t],
                   "state": entries[j].name}
        if targets[m][j] is None:
            failure["reason"] = "image not a state"
        else:
            failure.update(target=entries[targets[m][j]].name,
                           reason="kets not parallel")
        equiv_failures.append(failure)
    report["equivariance"] = {"maps": 18, "stateChecks": len(keyed) * 12,
                              "failures": equiv_failures}

    report["passed"] = (not failures and not prob_failures
                        and report["phaseGroups"]["isomorphic"]
                        and not equiv_failures)
    return report
