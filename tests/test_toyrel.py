"""The relational toy theory over pairs (x, p) in Z_D x Z_D.

Oracles: relation algebra is re-derived from pair enumeration inline,
and the structural laws are checked through the module's own battery
plus independent spot checks of supports and grids.
"""

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditzx import laws, toyrel
from quditzx.laws import LAWS, results
from quditzx.toyrel import (
    Permutation,
    Rel,
    cap_conjugate,
    classical_point,
    delta_grid,
    label_tuple,
    negation_permutation,
    ontic_coords,
    ontic_label,
    phase_group_law,
    phase_map,
    phase_maps,
    phase_state,
    rel_structure_check,
    spek_generator,
    transpose_permutation,
    tuple_label,
)

CHECK_IDS = (
    "coassociativity_z", "coassociativity_x",
    "cocommutativity_z", "cocommutativity_x",
    "counit_left_z", "counit_left_x",
    "counit_right_z", "counit_right_x",
    "special_z", "special_x",
    "frobenius_z", "frobenius_x",
    "classical_points_z", "classical_points_x",
    "unbiased_points_z", "unbiased_points_x",
    "phase_group_z", "phase_group_x",
    "coherence",
    "strong_complementarity",
    "hopf_antipode",
    "cap_snake",
    "transpose_involution",
    "latin_squares",
    "maximal_knowledge",
    "negative_control",
)


# ---------------------------------------------------------------------------
# Labels

def test_ontic_labels_enumerate_row_by_row():
    D = 3
    assert ontic_label(D, 0, 0) == 1
    assert ontic_label(D, 0, 2) == 3
    assert ontic_label(D, 1, 0) == 4
    assert ontic_label(D, 2, 2) == 9
    # Coordinates wrap mod D.
    assert ontic_label(D, 3, -1) == ontic_label(D, 0, 2)
    for lab in range(1, 10):
        assert ontic_label(D, *ontic_coords(D, lab)) == lab


def test_tuple_labels_are_big_endian():
    D = 2
    size = D * D
    assert tuple_label(D, (1, 1)) == 1
    assert tuple_label(D, (1, 2)) == 2
    assert tuple_label(D, (2, 1)) == size + 1
    assert label_tuple(D, 2, 7) == (2, 3)
    for flat in range(1, size ** 2 + 1):
        assert tuple_label(D, label_tuple(D, 2, flat)) == flat


# ---------------------------------------------------------------------------
# Relation algebra

def test_relation_shapes_and_constructors():
    r = Rel.from_pairs(2, 1, 1, [[1, 2], [3, 3]])
    assert r.pairs() == [[1, 2], [3, 3]]
    assert Rel.identity(2).pairs() == [[k, k] for k in range(1, 5)]
    s = Rel.state(2, [2, 4])
    assert s.support() == frozenset({2, 4})
    with pytest.raises(ValueError):
        Rel.from_pairs(2, 1, 1, [[0, 1]])
    # Label 0 would read index -1, the last state.
    for bad in (0, -1, 10):
        with pytest.raises(ValueError, match="out of range 1..9"):
            Rel.state(3, [bad])
    assert Rel.state(3, [81], arity=2).support() == {81}
    with pytest.raises(ValueError, match="out of range 1..81"):
        Rel.state(3, [82], arity=2)
    with pytest.raises(ValueError):
        Rel(2, 1, 1, np.zeros((3, 4), dtype=bool))
    with pytest.raises(ValueError):
        Rel.identity(2).support()


def test_composition_is_relational_and_applies_right_factor_first():
    # r: 1 -> {1, 2};  s: 1 -> 3, 2 -> 3.  s . r relates 1 to 3 once.
    r = Rel.from_pairs(2, 1, 1, [[1, 1], [1, 2]])
    s = Rel.from_pairs(2, 1, 1, [[1, 3], [2, 3]])
    sr = s @ r
    assert sr.pairs() == [[1, 3]]
    assert (s @ r) == s.compose(r)
    with pytest.raises(ValueError):
        Rel.state(2, [1]) @ Rel.state(2, [1])  # arity mismatch
    st = s @ Rel.state(2, [1])
    assert st.support() == {3}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2), st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_composition_agrees_with_pair_chasing(D, m, k, n, density, seed):
    # a @ b against the pair-set oracle
    # {(s, t) : exists j with (s, j) in b and (j, t) in a}.
    size = D * D
    rng = np.random.default_rng(seed)
    b = Rel(D, m, k, rng.random((size ** k, size ** m)) < density)
    a = Rel(D, k, n, rng.random((size ** n, size ** k)) < density)
    images = {}
    for mid, dst in a.pairs():
        images.setdefault(mid, set()).add(dst)
    want = {(src, dst) for src, mid in b.pairs()
            for dst in images.get(mid, ())}
    got = a @ b
    assert got.matrix.dtype == bool
    assert set(map(tuple, got.pairs())) == want


def test_composition_is_associative():
    rng = np.random.default_rng(1)
    size = 4
    for _ in range(10):
        a, b, c = (Rel(2, 1, 1, rng.random((size, size)) < 0.4)
                   for _ in range(3))
        assert (c @ b) @ a == c @ (b @ a)


def test_tensor_and_converse():
    a = Rel.from_pairs(2, 1, 1, [[1, 2]])
    b = Rel.from_pairs(2, 1, 1, [[3, 4]])
    t = a.tensor(b)
    assert t.m == 2 and t.n == 2
    assert t.pairs() == [[tuple_label(2, (1, 3)), tuple_label(2, (2, 4))]]
    assert a.converse().pairs() == [[2, 1]]
    assert a.converse().converse() == a
    # Converse is an anti-homomorphism.
    c = Rel.from_pairs(2, 1, 1, [[2, 3]])
    assert (c @ a).converse() == a.converse() @ c.converse()


# The most entries of a drawn tensor product: 16^5, which keeps D=4 to
# five systems in all and D=3 to six, and leaves D=2 at arity 2 a side.
_TENSOR_ENTRIES = 16 ** 5


@st.composite
def _tensor_operands(draw):
    """Two relations at one D = 2..4, each of arities 0..2 on each side
    while the product stays under _TENSOR_ENTRIES, each empty, full or
    random, and laid out in C or Fortran order, writable or not."""
    D = draw(st.integers(2, 4))
    size = D * D
    budget, rels = _TENSOR_ENTRIES, []
    for _ in range(2):
        arities = []
        for _ in range(2):
            top = max(k for k in range(3) if size ** k <= budget)
            arities.append(draw(st.integers(0, top)))
            budget //= size ** arities[-1]
        m, n = arities
        shape = (size ** n, size ** m)
        kind = draw(st.sampled_from(["empty", "full", "random"]))
        if kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            matrix = rng.random(shape) < draw(st.floats(0.0, 1.0))
        else:
            matrix = np.full(shape, kind == "full")
        if draw(st.booleans()):
            matrix = np.asfortranarray(matrix)
        if draw(st.booleans()):
            matrix.setflags(write=False)
        rels.append(Rel(D, m, n, matrix))
    return tuple(rels)


@settings(max_examples=150, deadline=None)
@given(_tensor_operands())
def test_tensor_is_the_kronecker_product(operands):
    # The Kronecker product, the form tensor once called, is the oracle.
    a, b = operands
    t = a.tensor(b)
    assert (t.D, t.m, t.n) == (a.D, a.m + b.m, a.n + b.n)
    want = np.kron(a.matrix, b.matrix)
    assert t.matrix.dtype == bool and t.matrix.shape == want.shape
    assert np.array_equal(t.matrix, want)
    # a new matrix: writable, and sharing no memory with either operand
    assert t.matrix.flags.writeable
    assert not np.shares_memory(t.matrix, a.matrix)
    assert not np.shares_memory(t.matrix, b.matrix)
    t.matrix[0, 0] = not t.matrix[0, 0]
    assert t.matrix[0, 0] != want[0, 0]


def test_scalar_relations():
    yes = Rel(2, 0, 0, np.ones((1, 1), dtype=bool))
    no = Rel.empty(2, 0, 0)
    assert yes.scalar_true() and not no.scalar_true()
    with pytest.raises(ValueError):
        Rel.identity(2).scalar_true()


def test_rel_json_round_trip():
    r = spek_generator("delta_z", 3)
    back = Rel.from_json(r.to_json())
    assert back == r
    obj = json.loads(r.to_json())
    assert set(obj) == {"D", "m", "n", "pairs"}
    assert obj["pairs"] == sorted(obj["pairs"])


@pytest.mark.parametrize("field, value, message", [
    ("D", 2.9, "D must be an integer, got 2.9"),
    ("m", True, "m must be an integer, got True"),
    ("n", "1", "n must be an integer, got '1'"),
    ("pairs", 5, "pairs must be a list, got 5"),
    ("pairs", [5], "pair must be a list, got 5"),
    ("pairs", [[1.5, 2]], "pair entry must be an integer, got 1.5"),
    # field None: value is the whole object
    (None, {"D": 3}, "relation JSON has no 'm' field"),
    (None, 5, "relation JSON must be an object, got 5"),
])
def test_rel_json_refuses_bad_fields(field, value, message):
    # A float or bool is refused, not truncated, and a missing field or a
    # record that is not an object is refused, each with one line naming
    # the field.
    obj = json.loads(Rel.identity(2).to_json())
    if field is None:
        obj = value
    else:
        obj[field] = value
    with pytest.raises(ValueError) as err:
        Rel.from_json_dict(obj)
    assert str(err.value) == message


def test_special_law_and_identity_tensor():
    d3 = spek_generator("delta_z", 3)
    assert d3.converse().converse() == d3
    # Copying then merging along the same observable is the identity
    # (the special law).
    assert d3.converse().compose(d3) == Rel.identity(3)
    assert Rel.identity(3).tensor(Rel.identity(3)) == Rel.identity(3, arity=2)


def test_permutation_class():
    p = transpose_permutation(3)
    assert p(2) == 4  # (0,1) -> (1,0)
    assert p.inverse()(4) == 2
    assert p.to_rel().pairs() == sorted([[lab, p(lab)]
                                         for lab in range(1, 10)])
    with pytest.raises(ValueError):
        Permutation(2, (1, 1, 2, 3))
    for bad in (0, -1, 10):
        with pytest.raises(ValueError, match="out of range 1..9"):
            p(bad)


# ---------------------------------------------------------------------------
# Generators: supports and grids

def test_counit_supports():
    assert spek_generator("eps_z", 3).converse().support() == {1, 4, 7}
    assert spek_generator("eps_x", 3).converse().support() == {1, 2, 3}
    assert spek_generator("eps_z", 2).converse().support() == {1, 3}
    assert spek_generator("eps_x", 2).converse().support() == {1, 2}


def test_classical_point_supports():
    # z_t is the x = t fibre; x_a is the p = a fibre.
    assert classical_point("Z", 3, 0).support() == {1, 2, 3}
    assert classical_point("Z", 3, 1).support() == {4, 5, 6}
    assert classical_point("Z", 3, 2).support() == {7, 8, 9}
    assert classical_point("X", 3, 0).support() == {1, 4, 7}
    assert classical_point("X", 3, 1).support() == {2, 5, 8}
    assert classical_point("X", 3, 2).support() == {3, 6, 9}
    with pytest.raises(ValueError):
        classical_point("Y", 3, 0)


def test_phase_state_supports():
    # sigma = 0 reproduces the opposite color's classical points.
    for t in range(3):
        assert phase_state("Z", 3, 0, t).support() \
            == classical_point("X", 3, t).support()
        assert phase_state("X", 3, 0, t).support() \
            == classical_point("Z", 3, t).support()
    # The sigma = 1 family: p = t - x graphs.
    assert phase_state("Z", 3, 1, 0).support() == {1, 6, 8}
    assert phase_state("Z", 3, 1, 1).support() == {2, 4, 9}
    assert phase_state("Z", 3, 1, 2).support() == {3, 5, 7}
    # The sigma = 2 family: p = t - 2x = t + x graphs.
    assert phase_state("Z", 3, 2, 0).support() == {1, 5, 9}
    assert phase_state("Z", 3, 2, 1).support() == {2, 6, 7}
    assert phase_state("Z", 3, 2, 2).support() == {3, 4, 8}


def test_delta_z_grid_cells():
    # u ~ (y, z) iff all three share x and u_p = y_p + z_p. Cells are
    # indexed by (y, z) and hold u, 0 where undefined.
    g = delta_grid("Z", 3)
    assert g[0, 0] == 1           # (0,0), (0,0) -> (0,0)
    assert g[1, 2] == 1           # (0,1), (0,2) -> (0,0)
    assert g[1, 1] == 3           # (0,1), (0,1) -> (0,2)
    assert g[4, 5] == 4           # (1,1), (1,2) -> (1,0)
    assert g[0, 3] == 0           # x-blocks differ: undefined
    # Each D x D block on the diagonal is a Latin square; off-diagonal
    # blocks are empty.
    for by in range(3):
        for bz in range(3):
            block = g[3 * by:3 * by + 3, 3 * bz:3 * bz + 3]
            if by == bz:
                assert set(block.ravel()) == {3 * by + 1, 3 * by + 2,
                                              3 * by + 3}
            else:
                assert not block.any()


def test_delta_x_grid_is_the_transpose_conjugate_of_delta_z():
    # Conjugating the Z copy map by the coordinate transpose on every
    # leg gives the X copy map.
    for D in (2, 3, 4):
        sigma = transpose_permutation(D).to_rel()
        dz = spek_generator("delta_z", D)
        dx = spek_generator("delta_x", D)
        assert sigma.tensor(sigma) @ dz @ sigma.converse() == dx


def test_delta_x_grid_cells():
    g = delta_grid("X", 3)
    assert g[0, 0] == 1           # (0,0), (0,0) -> (0,0)
    assert g[0, 3] == 4           # (0,0), (1,0) -> (1,0)
    assert g[3, 6] == 1           # (1,0), (2,0) -> (0,0)
    assert g[1, 0] == 0           # p-fibres differ: undefined


def test_grids_are_single_valued_and_total_where_defined():
    for color in ("Z", "X"):
        g = delta_grid(color, 3)
        assert int((g > 0).sum()) == 27  # 3 blocks of 9 defined cells


# ---------------------------------------------------------------------------
# The Bell state and the twisted cap

def test_bell_state_is_diagonal_only_for_qubits():
    # delta_z . eps_z^dagger relates * to ((x, q), (x, -q)): negation is
    # invisible at D = 2, so the qubit cap is the diagonal.
    bell2 = spek_generator("bell", 2)
    diag2 = Rel.state(2, [tuple_label(2, (lab, lab))
                          for lab in range(1, 5)], arity=2)
    assert bell2 == diag2

    bell3 = spek_generator("bell", 3)
    twisted = set()
    for x in range(3):
        for q in range(3):
            twisted.add(tuple_label(3, (ontic_label(3, x, q),
                                        ontic_label(3, x, -q))))
    assert bell3.support() == twisted
    diag3 = Rel.state(3, [tuple_label(3, (lab, lab))
                          for lab in range(1, 10)], arity=2)
    assert bell3 != diag3


def test_cap_conjugation_inverts_the_phase_group():
    # Bending an unbiased state through its color's cap flips the
    # uncopied coordinate, which sends the graph (sigma, t) to
    # (-sigma, -t): exactly the group inverse the unbiasedness law needs.
    D = 3
    for color in ("Z", "X"):
        for sigma in range(D):
            for t in range(D):
                psi = phase_state(color, D, sigma, t)
                bent = cap_conjugate(color, D, psi)
                assert bent.support() == phase_state(
                    color, D, -sigma % D, -t % D).support()


def test_hopf_negation_permutation():
    neg = negation_permutation(3)
    assert neg(1) == 1            # (0,0) is fixed
    assert neg(2) == 3            # (0,1) -> (0,2)
    assert neg(4) == 7            # (1,0) -> (2,0)
    r = neg.to_rel()
    assert r @ r == Rel.identity(3)


# ---------------------------------------------------------------------------
# Phase maps

def test_phase_maps_act_on_classical_points_as_shifts():
    # The (sigma, t) Z-phase map sends z_a to z_a (x untouched) and the
    # (0, t) X-phase map shifts z_a to z_{a+t}.
    D = 3
    for t in range(D):
        m = phase_map("X", D, 0, t)
        for a in range(D):
            moved = m @ classical_point("Z", D, a)
            assert moved.support() == classical_point("Z", D,
                                                      (a + t) % D).support()


def test_phase_maps_compose_as_the_phase_group():
    D = 3
    for color in ("Z", "X"):
        for s1, t1, s2, t2 in [(0, 1, 0, 2), (1, 0, 1, 1), (2, 1, 1, 2),
                               (1, 2, 2, 2)]:
            lhs = phase_map(color, D, s1, t1) @ phase_map(color, D, s2, t2)
            rhs = phase_map(color, D, (s1 + s2) % D, (t1 + t2) % D)
            assert lhs == rhs


def test_phase_map_of_zero_is_identity():
    for color in ("Z", "X"):
        assert phase_map(color, 3, 0, 0) == Rel.identity(3)


def test_phase_group_law_fails_for_a_map_that_is_not_a_permutation(
        monkeypatch):
    D = 3
    for color in ("Z", "X"):
        assert phase_group_law(phase_maps(color, D))
    honest = toyrel.phase_map

    def corrupted(color, D, sigma, t):
        m = honest(color, D, sigma, t)
        if (sigma, t) == (1, 2):
            m = Rel(D, 1, 1, m.matrix.copy())
            m.matrix[0, :] = True
        return m

    monkeypatch.setattr(toyrel, "phase_map", corrupted)
    for color in ("Z", "X"):
        assert not phase_group_law(phase_maps(color, D))


def _per_pair_phase_group_law(maps):
    """The phase-group law one Rel.compose and one Rel.__eq__ per pair:
    each map a permutation, (0, 0) the identity, and map(s1, t1) .
    map(s2, t2) = map(s1 + s2, t1 + t2)."""
    D = maps[0, 0].D
    return (all((m.matrix.sum(axis=0) == 1).all()
                and (m.matrix.sum(axis=1) == 1).all() for m in maps.values())
            and maps[0, 0] == Rel.identity(D)
            and all(m1 @ m2 == maps[(s1 + s2) % D, (t1 + t2) % D]
                    for (s1, t1), m1 in maps.items()
                    for (s2, t2), m2 in maps.items()))


@functools.lru_cache(maxsize=None)
def _honest_maps(color, D):
    return phase_maps(color, D)


@st.composite
def _phase_map_dicts(draw):
    """A color's honest phase maps at D = 2..5, or a corrupted copy: one
    entry flipped, a row filled, two maps swapped, a non-identity (0, 0),
    or every index negated (an automorphism, so the law still holds)."""
    color = draw(st.sampled_from(["Z", "X"]))
    D = draw(st.integers(2, 5))
    maps = dict(_honest_maps(color, D))
    keys = sorted(maps)
    size = D * D
    kind = draw(st.sampled_from(["honest", "flip", "fill_row", "swap",
                                 "non_identity", "negate"]))
    if kind in ("flip", "fill_row"):
        key = draw(st.sampled_from(keys))
        matrix = maps[key].matrix.copy()
        i = draw(st.integers(0, size - 1))
        if kind == "flip":
            j = draw(st.integers(0, size - 1))
            matrix[i, j] = not matrix[i, j]
        else:
            matrix[i, :] = True
        maps[key] = Rel(D, 1, 1, matrix)
    elif kind == "swap":
        a, b = draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2,
                             unique=True))
        maps[a], maps[b] = maps[b], maps[a]
    elif kind == "non_identity":
        images = draw(st.permutations(range(1, size + 1)))
        if list(images) == list(range(1, size + 1)):
            images = images[1:] + images[:1]
        maps[0, 0] = Permutation(D, tuple(images)).to_rel()
    elif kind == "negate":
        maps = {(s, t): maps[-s % D, -t % D] for s, t in keys}
    return kind, maps


@settings(max_examples=120, deadline=None)
@given(_phase_map_dicts())
def test_stacked_phase_group_law_matches_the_per_pair_law(drawn):
    # The gather over the stacked maps against one Rel.compose per pair,
    # on honest and corrupted map dicts at D = 2..5.
    kind, maps = drawn
    want = _per_pair_phase_group_law(maps)
    assert phase_group_law(maps) is want
    if kind in ("honest", "negate"):
        assert want is True
    if kind in ("flip", "fill_row", "non_identity"):
        assert want is False


# ---------------------------------------------------------------------------
# The law battery

# sha256 of each report's sorted JSON: ids, order, verdicts and details.
REPORT_DIGESTS = {
    2: "551d4ff77cdf9598383eb21c3656a0001a316399dfc3b996a2fd3c6ad9c91133",
    3: "2ad67f02f9ddd40d2268da3f5710535d58d77ae9f5dd91554d3a1361b01d7644",
    4: "08a4887c54f95ac655dc06c3c10f4e71dbb22c1e0f0f17ed14f98946a26a83e1",
    5: "5f5eae42158eb32a8a362a4071acab93446a5e1e8bb651ca49b98c10f9670445",
    6: "a9ac2a5677a7ace2a68a95d49aae279fb0cdd0740e8cd3930431b08837ed119f",
    7: "b07a5fe73b6d3103b1bdd1970c20b71783b59cba6ab91df3e3437eb829d3c360",
}


def _report_digest(report):
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("D", [2, 3, 4, 5, 6])
def test_structure_battery_passes(D):
    report = rel_structure_check(D)
    assert report["dim"] == D
    assert report["passed"]
    by_id = {c["id"]: c for c in report["checks"]}
    assert set(by_id) == set(CHECK_IDS)
    for cid, c in by_id.items():
        assert c["passed"], (D, cid, c.get("detail"))
    assert _report_digest(report) == REPORT_DIGESTS[D]


def test_maximal_knowledge_pairs_each_z_phase_map_with_the_points_at_its_t(
        monkeypatch):
    # The Z phase map (sigma, t) = (0, 1) loses the images of (1, p), p != 0:
    # it still keeps z_0, x_0 and x_1 at D labels, but not z_1. Maximal
    # knowledge applies each map to the classical points at its own t, so
    # it must fail, and the phase group with it; every other check holds.
    D = 3
    honest = toyrel.phase_map

    def lossy(color, D, sigma, t):
        m = honest(color, D, sigma, t)
        if (color, sigma, t) == ("Z", 0, 1):
            m = Rel(D, 1, 1, m.matrix.copy())
            m.matrix[:, [ontic_label(D, 1, p) - 1 for p in range(1, D)]] = 0
        return m

    monkeypatch.setattr(toyrel, "phase_map", lossy)
    report = rel_structure_check(D)
    assert {c["id"] for c in report["checks"] if not c["passed"]} == {
        "phase_group_z", "maximal_knowledge"}


def test_negative_control_is_exercised():
    # The battery plants a deliberate corruption and must detect it.
    report = rel_structure_check(3)
    control = next(c for c in report["checks"]
                   if c["id"] == "negative_control")
    assert control["passed"]
    assert control["detail"]


def test_battery_refuses_above_the_d7_size_before_building(monkeypatch):
    def unreachable(name, D):
        raise AssertionError("the battery built a generator")

    monkeypatch.setattr(toyrel, "spek_generator", unreachable)
    with pytest.raises(ValueError) as exc:
        rel_structure_check(8)
    message = str(exc.value)
    assert "\n" not in message
    assert "D=8" in message
    assert str(8 ** 8) in message and str(7 ** 8) in message


def test_strong_complementarity_directly_at_d2():
    # Independent dense check of the bialgebra square at D = 2, without
    # the battery's einsum shortcut.
    D = 2
    dz = spek_generator("delta_z", D)
    dx = spek_generator("delta_x", D)
    mu_z = dz.converse()
    swap_mid = Rel.identity(D).tensor(_swap2(D)).tensor(Rel.identity(D))
    lhs = dx @ mu_z
    rhs = mu_z.tensor(mu_z).compose(swap_mid).compose(dx.tensor(dx))
    assert lhs == rhs


def test_battery_passes_at_d7():
    report = rel_structure_check(7)
    assert sorted(c["id"] for c in report["checks"]) == sorted(CHECK_IDS)
    assert report["passed"]
    assert _report_digest(report) == REPORT_DIGESTS[7]


def test_battery_builds_no_relation_above_d8_entries(monkeypatch):
    # The laws are contracted from the generators' views: the whiskered
    # composites' D^10 operands, such as delta x 1, are never built as
    # relations, and no step of a contraction returns more than the D^8
    # entries of a four-wire side, which the largest laws reach.
    sizes, outputs = [], []
    init, step = Rel.__init__, laws._step

    def spy(self, D, m, n, matrix):
        sizes.append(np.size(matrix))
        init(self, D, m, n, matrix)

    def step_spy(*args):
        out = step(*args)
        outputs.append(np.size(out))
        return out

    monkeypatch.setattr(Rel, "__init__", spy)
    monkeypatch.setattr(laws, "_step", step_spy)
    assert rel_structure_check(4)["passed"]
    assert sizes and max(sizes) <= 4 ** 8
    assert max(outputs) == 4 ** 8


# ---------------------------------------------------------------------------
# The battery's contractions against the relation algebra they replace

def _corrupted_copy(D):
    """The negative control's copy map: delta_z with its pair
    (0, 0) ~ ((0, 0), (0, 0)) moved to the source (0, 1)."""
    bad = Rel(D, 1, 2, spek_generator("delta_z", D).matrix.copy())
    u = ontic_label(D, 0, 0)
    row = tuple_label(D, (u, u))
    bad.matrix[row - 1, u - 1] = False
    bad.matrix[row - 1, ontic_label(D, 0, 1) - 1] = True
    return bad


def _check_whiskered_composites(delta):
    """Each contracted composite, the coassociativity law's two networks
    and the Frobenius law's two whiskered ones in the toy model with delta
    as delta_z, equals its kron + compose form; returns whether delta is
    coassociative."""
    ident = Rel.identity(delta.D)
    mu = delta.converse()
    dense = [delta.tensor(ident) @ delta,
             ident.tensor(delta) @ delta,
             ident.tensor(mu) @ delta.tensor(ident),
             mu.tensor(ident) @ ident.tensor(delta)]
    model = toyrel._law_model(delta.D)
    model = dataclasses.replace(model, views={
        **model.views, "delta_z": delta.tensor_view().astype(np.float32)})
    got = (results(model, LAWS["coassociativity_z"])
           + results(model, LAWS["frobenius_z"])[:2])
    for contracted, rel in zip(got, dense):
        assert contracted.dtype == bool
        assert np.array_equal(contracted, rel.tensor_view())
    return dense[0] == dense[1]


@pytest.mark.parametrize("D", [2, 3, 4])
def test_whiskered_contractions_match_the_relation_algebra(D):
    for name in ("delta_z", "delta_x"):
        assert _check_whiskered_composites(spek_generator(name, D))
    assert not _check_whiskered_composites(_corrupted_copy(D))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3]), st.floats(0.0, 1.0),
       st.integers(0, 2 ** 32 - 1))
def test_whiskered_contractions_on_random_copy_relations(D, density, seed):
    size = D * D
    rng = np.random.default_rng(seed)
    _check_whiskered_composites(
        Rel(D, 1, 2, rng.random((size * size, size)) < density))


def test_law_model_compare_refuses_results_of_different_shapes():
    # As np.array_equal did: results of different shapes are unequal, also
    # where they would broadcast to equal arrays or not broadcast at all.
    compare = toyrel._law_model(2).compare
    full = np.ones((4, 4), dtype=bool)
    assert compare(0, [full, full.copy()]) is True
    assert compare(None, [full, full.copy(), full.copy()]) is True
    assert compare(0, [full, ~full]) is False
    for other in (np.ones(4, dtype=bool), np.ones((1, 4, 4), dtype=bool),
                  np.ones((4, 1), dtype=bool), np.ones((2, 8), dtype=bool)):
        assert compare(0, [full, other]) is False
        assert compare(0, [full, full.copy(), other]) is False


# ---------------------------------------------------------------------------
# The array-built generators against their definitions, label by label

@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_array_builders_match_their_definitions(D):
    size = D * D
    coords = [ontic_coords(D, lab) for lab in range(1, size + 1)]
    # delta_Z: u ~ (y, z) iff u_x = y_x = z_x and u_p = y_p + z_p;
    # delta_X swaps the roles of x and p.
    for name, fibre in (("delta_z", 0), ("delta_x", 1)):
        other = 1 - fibre
        want = set()
        for u, cu in enumerate(coords, start=1):
            for y, cy in enumerate(coords, start=1):
                for z, cz in enumerate(coords, start=1):
                    if (cu[fibre] == cy[fibre] == cz[fibre]
                            and cu[other] == (cy[other] + cz[other]) % D):
                        want.add((u, tuple_label(D, (y, z))))
        assert set(map(tuple, spek_generator(name, D).pairs())) == want

    for perm, image in ((transpose_permutation(D), lambda x, p: (p, x)),
                        (negation_permutation(D), lambda x, p: (-x, -p))):
        assert perm.images == tuple(ontic_label(D, *image(x, p))
                                    for x, p in coords)
        assert perm.to_rel().pairs() == [[lab, perm(lab)]
                                         for lab in range(1, size + 1)]
        inverse = perm.inverse()
        assert all(inverse(perm(lab)) == lab for lab in range(1, size + 1))

    for color in ("Z", "X"):
        want = np.zeros((size, size), dtype=np.int64)
        delta = spek_generator(f"delta_{color.lower()}", D)
        for u, row in delta.pairs():
            y, z = label_tuple(D, 2, row)
            assert want[y - 1, z - 1] == 0
            want[y - 1, z - 1] = u
        got = delta_grid(color, D)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("D", [2, 3])
def test_cached_generators_are_read_only_and_results_stay_writable(D):
    # The uncached definitions: each generator's own body, and the caps
    # from fresh copies of the copy maps and counits.
    fresh = spek_generator.__wrapped__
    caps = {color: fresh(f"delta_{color.lower()}", D)
            @ fresh(f"eps_{color.lower()}", D).converse()
            for color in ("Z", "X")}
    for name in ("delta_z", "delta_x", "eps_z", "eps_x", "bell", "mixed"):
        gen = spek_generator(name, D)
        with pytest.raises(ValueError):
            gen.matrix[0, 0] = not gen.matrix[0, 0]
        want = caps["Z"] if name == "bell" else fresh(name, D)
        again = spek_generator(name, D)
        assert again == want
        assert again.matrix.dtype == bool
    for color in ("Z", "X"):
        psi = phase_state(color, D, 1, 1)
        assert cap_conjugate(color, D, psi) == (
            psi.converse().tensor(Rel.identity(D)) @ caps[color])

    dz = spek_generator("delta_z", D)
    eps = spek_generator("eps_z", D)
    psi = phase_state("Z", D, 1, 1)
    for built in (dz @ eps.converse(), dz.tensor(eps), dz.converse(),
                  cap_conjugate("X", D, psi), phase_map("Z", D, 1, 0)):
        built.matrix[0, 0] = not built.matrix[0, 0]


def _swap2(D):
    size = D * D
    mat = np.zeros((size * size, size * size), dtype=bool)
    for a in range(1, size + 1):
        for b in range(1, size + 1):
            mat[tuple_label(D, (b, a)) - 1, tuple_label(D, (a, b)) - 1] = True
    return Rel(D, 2, 2, mat)
