"""Exact and approximate phase arithmetic for spider decorations.

A phase is a point on the circle, stored either as an exact fraction of a
full turn, held as a reduced pair of ints (a Fraction is built only when
asked for), or as a float in radians. A spider in dimension D carries a
vector of D-1 phases (alpha_1 .. alpha_{D-1}); alpha_0 is fixed to zero
and is never stored.

Exactness is contagious downward only: combining two exact phases stays
exact, combining anything with an approximate phase yields an approximate
phase. Rule matching that must recognize special angles (classical
points) only ever fires on exact values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Sequence, Union

TAU = 2.0 * math.pi

# Snap width used only when canonicalizing float angles onto [0, 2*pi).
_WRAP_EPS = 1e-12


def is_json_int(x) -> bool:
    """An integer as JSON gives it: an int that is not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def json_int(x, what: str) -> int:
    """x if it is a JSON integer; a float, string or bool is refused with
    a one-line ValueError naming what, not truncated."""
    if not is_json_int(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_field(rec, key: str, where: str):
    """rec[key] of a JSON object; a record that is not an object, or lacks
    the key, is refused with a one-line ValueError naming where."""
    if not isinstance(rec, dict):
        raise ValueError(f"{where} must be an object, got {rec!r}")
    if key not in rec:
        raise ValueError(f"{where} has no {key!r} field")
    return rec[key]


def json_list(x, what: str) -> list:
    """x if it is a JSON list; anything else is refused with a one-line
    ValueError naming what."""
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def json_int_list(x, what: str) -> list:
    """x if it is a JSON list of integers, refused as json_list and
    json_int refuse otherwise."""
    return [json_int(v, f"{what} entry") for v in json_list(x, what)]


def check_size(base: int, power: int, cap: int, refusal: str, *fields,
               times: int = 1, plus: int = 0) -> None:
    """Refuse, with a one-line ValueError, a size of times*(base^power +
    plus) above cap, for times >= 1 and plus >= 0. A base of 2 or more
    with a power past cap's bit length is above it, so base^power is only
    built for smaller powers.

    refusal is formatted only when it refuses, with fields by position
    and base, power, size and cap by name. A size of 15 or more digits
    is named as times*(base^power + plus), without the parts that are 1
    or 0, and a template's own "{base}^{power} = " before it is dropped,
    so no power is printed twice."""
    if (power > cap.bit_length() and base > 1
            or times * (base ** power + plus) > cap):
        size = (times * (base ** power + plus)
                if base < 2 or (base.bit_length() - 1) * power < 47
                else 10 ** 14)
        if size >= 10 ** 14:
            size = f"{base}^{power}" if power != 1 else f"{base}"
            size = f"({size} + {plus})" if plus else size
            size = size if times == 1 else f"{times}*{size}"
            refusal = refusal.replace("{base}^{power} = {size}", "{size}")
        raise ValueError(refusal.format(*fields, base=base, power=power,
                                        size=size, cap=cap))


def is_json_number(x) -> bool:
    """A finite number as JSON gives it: a float, or an int that is not a
    bool and fits a float."""
    return ((isinstance(x, float) or is_json_int(x) and abs(x) <= 2 ** 1023)
            and math.isfinite(x))


def json_turn(obj, where: str):
    """A JSON phase entry, checked, as the key a Turn is built from
    (Turn.from_key): the ints (numerator, denominator) of {"exact": [n, d]},
    or the float radians of {"approx": r}. Anything else is refused with
    a one-line ValueError; a malformed exact pair is named by where."""
    if not isinstance(obj, dict):
        raise ValueError(f"phase entry must be an object, got {obj!r}")
    if "exact" in obj:
        pair = obj["exact"]
        parts = [json_int(k, "an exact phase part")
                 for k in (pair if isinstance(pair, list) else ())]
        if len(parts) != 2:
            raise ValueError(f"{where}: an exact phase must be a "
                             f"[numerator, denominator] pair of integers, "
                             f"got {pair!r}")
        if parts[1] == 0:
            raise ValueError(f"exact phase has a zero denominator: {obj!r}")
        return tuple(parts)
    if "approx" in obj:
        rad = obj["approx"]
        if not is_json_number(rad):
            raise ValueError(f"approximate phase is not finite or not a "
                             f"number: {obj!r}")
        return float(rad)
    raise ValueError(f"phase entry needs 'exact' or 'approx': {obj!r}")


class Turn:
    """An angle: an exact fraction num/den of a turn in [0,1), held as a
    reduced pair of ints with den > 0, or float radians in [0,2*pi)."""

    __slots__ = ("_num", "_den", "_rad")

    def __init__(self, num: int | None, den: int | None, rad: float | None):
        """Unchecked; build a Turn with the classmethods."""
        self._num, self._den, self._rad = num, den, rad

    @classmethod
    def exact(cls, numerator: int, denominator: int = 1) -> "Turn":
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        numerator %= denominator
        g = math.gcd(numerator, denominator)
        return cls(numerator // g, denominator // g, None)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Turn":
        f = Fraction(f)
        return cls.exact(f.numerator, f.denominator)

    @classmethod
    def approx(cls, radians: float) -> "Turn":
        r = math.fmod(float(radians), TAU)
        if r < 0.0:
            r += TAU
        if r < _WRAP_EPS or TAU - r < _WRAP_EPS:
            r = 0.0
        return cls(None, None, r)

    @classmethod
    def zero(cls) -> "Turn":
        return cls(0, 1, None)

    @property
    def is_exact(self) -> bool:
        return self._den is not None

    @property
    def fraction(self) -> Fraction:
        """Exact value in turns; raises on approximate phases."""
        if self._den is None:
            raise ValueError("approximate phase has no exact fraction")
        return Fraction(self._num, self._den)

    @property
    def radians(self) -> float:
        if self._den is not None:
            return self._num / self._den * TAU
        return self._rad

    @property
    def is_zero(self) -> bool:
        if self._den is not None:
            return self._num == 0
        return self._rad == 0.0

    def __add__(self, other: "Turn") -> "Turn":
        if not isinstance(other, Turn):
            return NotImplemented
        if self._den is not None and other._den is not None:
            return Turn.exact(self._num * other._den + other._num * self._den,
                              self._den * other._den)
        return Turn.approx(self.radians + other.radians)

    def __sub__(self, other: "Turn") -> "Turn":
        if not isinstance(other, Turn):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Turn":
        if self._den is not None:
            return Turn((-self._num) % self._den, self._den, None)
        return Turn.approx(-self._rad)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Turn):
            return NotImplemented
        if self._den is None or other._den is None:
            return self._rad == other._rad
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den, self._rad))

    def __repr__(self) -> str:
        if self._den is not None:
            return f"Turn.exact({self._num}, {self._den})"
        return f"Turn.approx({self._rad!r})"

    def __str__(self) -> str:
        if self._den is not None:
            return f"{self._num}/{self._den}" if self._num else "0"
        return f"{self._rad:.6g}rad"

    def to_json(self) -> dict:
        if self._den is not None:
            return {"exact": [self._num, self._den]}
        return {"approx": self._rad}

    def json_text(self) -> str:
        """The canonical JSON text of to_json(), as json.dumps writes it
        with sorted keys and no spaces."""
        if self._den is not None:
            return f'{{"exact":[{self._num},{self._den}]}}'
        return f'{{"approx":{self._rad!r}}}'

    @classmethod
    def from_key(cls, key) -> "Turn":
        """The Turn of a key that json_turn returned."""
        if type(key) is float:
            return cls.approx(key)
        return cls.exact(*key)

    @classmethod
    def from_json(cls, obj: dict) -> "Turn":
        return cls.from_key(json_turn(obj, "phase entry"))


TurnLike = Union[Turn, Fraction, int, float]


def _coerce_turn(value: TurnLike) -> Turn:
    if isinstance(value, Turn):
        return value
    if isinstance(value, (Fraction, int)):
        return Turn.from_fraction(Fraction(value))
    if isinstance(value, float):
        return Turn.approx(value * TAU)
    raise TypeError(f"cannot interpret {value!r} as a Turn")


class PhaseVector:
    """The D-1 phases alpha_1..alpha_{D-1} decorating a spider of dimension D."""

    __slots__ = ("_dim", "_entries")

    def __init__(self, dim: int, entries: Sequence[TurnLike]):
        if dim < 2:
            raise ValueError(f"dimension must be >= 2, got {dim}")
        turns = tuple(_coerce_turn(e) for e in entries)
        if len(turns) != dim - 1:
            raise ValueError(
                f"phase vector for dimension {dim} needs {dim - 1} entries, "
                f"got {len(turns)}"
            )
        self._dim = dim
        self._entries = turns

    @classmethod
    def zero(cls, dim: int) -> "PhaseVector":
        return cls(dim, [Turn.zero()] * (dim - 1))

    @classmethod
    def from_radians(cls, dim: int, radians: Sequence[float]) -> "PhaseVector":
        return cls(dim, [Turn.approx(r) for r in radians])

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> tuple:
        return self._entries

    @property
    def is_exact(self) -> bool:
        return all(t.is_exact for t in self._entries)

    @property
    def is_zero(self) -> bool:
        return all(t.is_zero for t in self._entries)

    def exact_ints(self) -> tuple | None:
        """(num_1, den_1, ..., num_{D-1}, den_{D-1}), the reduced exact
        entries as one flat tuple of ints, or None when one is
        approximate."""
        ints = []
        for t in self._entries:
            if t._den is None:
                return None
            ints += (t._num, t._den)
        return tuple(ints)

    def alpha(self, k: int) -> Turn:
        """alpha_k for k in 0..D-1, with alpha_0 = 0 by convention."""
        k %= self._dim
        if k == 0:
            return Turn.zero()
        return self._entries[k - 1]

    def radians_full(self) -> list:
        """All D angles [alpha_0=0, alpha_1, ..., alpha_{D-1}] in radians."""
        return [0.0] + [t.radians for t in self._entries]

    def __iter__(self) -> Iterator[Turn]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseVector):
            return NotImplemented
        return self._dim == other._dim and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self._dim, self._entries))

    def __add__(self, other: "PhaseVector") -> "PhaseVector":
        return phase_add(self, other)

    def __neg__(self) -> "PhaseVector":
        return phase_invert(self)

    def __repr__(self) -> str:
        return f"PhaseVector({self._dim}, [{', '.join(map(str, self._entries))}])"

    def to_json(self) -> list:
        return [t.to_json() for t in self._entries]

    def json_text(self) -> str:
        """The canonical JSON text of to_json()."""
        return "[" + ",".join([t.json_text() for t in self._entries]) + "]"

    @classmethod
    def from_json(cls, dim: int, obj: list) -> "PhaseVector":
        return cls(dim, [Turn.from_json(t) for t in json_list(obj, "phase")])


def phase_add(a: PhaseVector, b: PhaseVector) -> PhaseVector:
    """Componentwise sum mod a full turn. The phase-torus group operation."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return PhaseVector(a.dim, [x + y for x, y in zip(a, b)])


def phase_invert(a: PhaseVector) -> PhaseVector:
    """Componentwise negation mod a full turn (group inverse)."""
    return PhaseVector(a.dim, [-t for t in a])


def phase_neg_transform(a: PhaseVector, k: int) -> PhaseVector:
    """The cyclic difference vector with entries alpha_{(k+i) mod D} - alpha_k.

    This is the transformation a degree-k classical point induces on the
    phase of a spider it commutes past (rule K2). k = 0 is the identity.
    Composing the transforms for k and l gives the transform for k+l mod D,
    so the D transforms realize an action of Z_D on phase vectors.
    """
    d = a.dim
    if not 0 <= k <= d - 1:
        raise ValueError(f"k must be in 0..{d - 1}, got {k}")
    if k == 0:
        return a
    ak = a.alpha(k)
    return PhaseVector(d, [a.alpha((k + i) % d) - ak for i in range(1, d)])


def cyclic_vector(dim: int, t: int) -> PhaseVector:
    """The exact phase vector with entries t*j/dim turns, j = 1..dim-1.

    These D vectors form the Z_D subgroup of the phase torus realized by
    classical points; t = 0 is the zero vector.
    """
    t %= dim
    return PhaseVector(dim, [Turn.exact(t * j, dim) for j in range(1, dim)])


def cyclic_value(pv: PhaseVector) -> int | None:
    """Inverse of cyclic_vector: the t with pv == cyclic_vector(dim, t), or None.

    Only exact phase vectors are ever recognized. Entry 1 is t/dim turns,
    which names t; entry j must then be t*j/dim, checked in integers.
    """
    d = pv.dim
    num, den = pv._entries[0]._num, pv._entries[0]._den
    if den is None or d % den:
        return None
    t = num * (d // den)
    for j, turn in enumerate(pv._entries, 1):
        if turn._den is None or turn._num * d != t * j % d * turn._den:
            return None
    return t
