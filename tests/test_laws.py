"""The shared law list and its two models.

Oracle: every network of every law is rebuilt here with `tensor`,
composition and the dagger (`Rel.converse`, `DenseOperator.dagger`), and
must equal its einsum contraction, on each model's generators and on
random ones. The law list is then shown not to be vacuous: each law fails
in each model once one generator is corrupted.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quditzx import laws as lw
from quditzx import semantics as sem
from quditzx import toyrel
from quditzx.semantics import DenseOperator, generator_matrix
from quditzx.toyrel import Rel

# (source wires, target wires) of each generator; the rest are 1 -> 1.
ARITY = {"delta_z": (1, 2), "delta_x": (1, 2), "eps_z": (1, 0),
         "eps_x": (1, 0), "bell": (0, 2)}


def _algebra(kind, D, views):
    """The generators behind `views` as relations ("toy") or matrices
    ("hilbert"), with the identity, swap, dagger and the empty diagram."""
    if kind == "toy":
        size = D * D
        a, b = np.indices((size, size))
        swap = Rel.empty(D, 2, 2)
        swap.matrix[b * size + a, a * size + b] = True

        def build(m, n, view):
            return Rel(D, m, n, view.reshape(size ** n, size ** m) > 0)

        alg = SimpleNamespace(dag=Rel.converse, swap=swap,
                              one=Rel.identity(D, 0), view=Rel.tensor_view)
    else:
        def build(m, n, view):
            return DenseOperator(D, m, n, view.reshape(D ** n, D ** m))

        alg = SimpleNamespace(
            dag=DenseOperator.dagger, swap=generator_matrix("swap", D),
            one=DenseOperator(D, 0, 0, np.ones((1, 1))),
            view=lambda op: op.matrix.reshape((D,) * (op.n_out + op.n_in)))
    alg.g = {name: build(*ARITY.get(name, (1, 1)), view)
             for name, view in views.items()}
    alg.id = alg.g["id"]
    alg.point = lambda view: build(0, 1, view)
    return alg


def _colour_oracles(c):
    def d(A):
        return A.g[f"delta_{c}"]

    def e(A):
        return A.g[f"eps_{c}"]

    def mu(A):
        return A.dag(d(A))

    def conj(A, k):
        return A.dag(k).tensor(A.id) @ (d(A) @ A.dag(e(A)))

    return {
        f"coassociativity_{c}": lambda A, k: (d(A).tensor(A.id) @ d(A),
                                              A.id.tensor(d(A)) @ d(A)),
        f"cocommutativity_{c}": lambda A, k: (A.swap @ d(A), d(A)),
        f"counit_left_{c}": lambda A, k: (e(A).tensor(A.id) @ d(A), A.id),
        f"counit_right_{c}": lambda A, k: (A.id.tensor(e(A)) @ d(A), A.id),
        f"special_{c}": lambda A, k: (mu(A) @ d(A), A.id),
        f"frobenius_{c}": lambda A, k: (
            A.id.tensor(mu(A)) @ d(A).tensor(A.id),
            mu(A).tensor(A.id) @ A.id.tensor(d(A)), d(A) @ mu(A)),
        f"classical_copy_{c}": lambda A, k: (d(A) @ k, k.tensor(k)),
        f"classical_delete_{c}": lambda A, k: (e(A) @ k, A.one),
        f"classical_conjugate_{c}": lambda A, k: (conj(A, k), k),
        f"unbiased_points_{c}": lambda A, k: (
            mu(A) @ k.tensor(conj(A, k)), A.dag(e(A))),
    }


def _cup(A, c):
    return A.g[f"delta_{c}"] @ A.dag(A.g[f"eps_{c}"])


def _dualizer(A):
    cap_z = A.g["eps_z"] @ A.dag(A.g["delta_z"])
    return cap_z.tensor(A.id) @ A.id.tensor(_cup(A, "x"))


ORACLES = {
    **_colour_oracles("z"),
    **_colour_oracles("x"),
    "coherence_z": lambda A, k: (A.g["delta_z"] @ A.dag(A.g["eps_x"]),
                                 A.dag(A.g["eps_x"]).tensor(
                                     A.dag(A.g["eps_x"]))),
    "coherence_x": lambda A, k: (A.g["delta_x"] @ A.dag(A.g["eps_z"]),
                                 A.dag(A.g["eps_z"]).tensor(
                                     A.dag(A.g["eps_z"]))),
    "counit_scalar": lambda A, k: (A.g["eps_z"] @ A.dag(A.g["eps_x"]),
                                   A.one),
    "strong_complementarity": lambda A, k: (
        A.g["delta_x"] @ A.dag(A.g["delta_z"]),
        A.dag(A.g["delta_z"]).tensor(A.dag(A.g["delta_z"]))
        @ A.id.tensor(A.swap).tensor(A.id)
        @ A.g["delta_x"].tensor(A.g["delta_x"])),
    "hopf": lambda A, k: (
        A.dag(A.g["delta_x"]) @ A.g["antipode"].tensor(A.id)
        @ A.g["delta_z"], A.dag(A.g["eps_x"]) @ A.g["eps_z"]),
    # the toy model's own laws
    "cap_symmetric": lambda A, k: (A.swap @ A.g["bell"], A.g["bell"]),
    "snake": lambda A, k: (
        A.dag(A.g["bell"]).tensor(A.id) @ A.id.tensor(A.g["bell"]), A.id),
    "transpose_involution": lambda A, k: (
        A.g["transpose"].tensor(A.g["transpose"]) @ A.g["delta_x"]
        @ A.g["transpose"], A.g["delta_z"]),
    # the Hilbert model's own laws
    "dualizer": lambda A, k: (_dualizer(A), A.g["antipode"]),
    "dualizer_unitary": lambda A, k: (A.dag(A.g["antipode"]) @ _dualizer(A),
                                A.id),
    "circle_z": lambda A, k: (A.dag(_cup(A, "z")) @ _cup(A, "z"),
                                        A.one),
    "circle_x": lambda A, k: (A.dag(_cup(A, "x")) @ _cup(A, "x"),
                                        A.one),
    "fourier_delta": lambda A, k: (
        A.g["fourier"].tensor(A.g["fourier"]) @ A.g["delta_z"]
        @ A.dag(A.g["fourier"]), A.g["delta_x"]),
}


def _laws(kind):
    """Every law a model's battery checks: the shared ones and its own."""
    laws = (toyrel if kind == "toy" else sem)._LAWS
    assert laws.items() >= lw.LAWS.items()
    return laws


def _model(kind, D):
    return (toyrel if kind == "toy" else sem)._law_model(D)


def _equal(kind, got, want):
    if kind == "toy":
        return got.dtype == bool and np.array_equal(got, want)
    return got.shape == want.shape and np.allclose(got, want, rtol=1e-12,
                                                   atol=1e-12)


def _assert_networks_match_their_oracles(kind, D, model):
    alg = _algebra(kind, D, model.views)
    for key, law in _laws(kind).items():
        assert len(law.networks) >= 2, key
        for spec, _ in law.networks:
            # Without "->", einsum orders the output axes alphabetically.
            assert "->" in spec, (key, spec)
        got = lw.results(model, law)
        if not law.family:
            want = ORACLES[key](alg, None)
            assert len(want) == len(got), key
            for i, (r, w) in enumerate(zip(got, want)):
                assert _equal(kind, r, alg.view(w)), (key, i)
            continue
        for j, point in enumerate(model.points[law.family]):
            want = ORACLES[key](alg, alg.point(point))
            assert len(want) == len(got), key
            for i, (r, w) in enumerate(zip(got, want)):
                assert _equal(kind, r[j], alg.view(w)), (key, i, j)


def _random_model(kind, model, rng, density):
    """The model with every generator but the identity, and every point,
    replaced by a random one of the same shape."""
    def fresh(view):
        if kind == "toy":
            return (rng.random(view.shape) < density).astype(np.float32)
        return rng.normal(size=view.shape) + 1j * rng.normal(size=view.shape)

    views = {name: view if name == "id" else fresh(view)
             for name, view in model.views.items()}
    points = {name: fresh(family) for name, family in model.points.items()}
    return dataclasses.replace(model, views=views, points=points)


# The toy oracles build (D^2)^8-entry relations, so they run at D=2.
@pytest.mark.parametrize("kind, D", [("toy", 2), ("hilbert", 2),
                                     ("hilbert", 3), ("hilbert", 4),
                                     ("hilbert", 5)])
def test_every_network_matches_its_oracle(kind, D):
    _assert_networks_match_their_oracles(kind, D, _model(kind, D))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([("toy", 2), ("hilbert", 2), ("hilbert", 3)]),
       st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_every_network_matches_its_oracle_on_random_generators(
        case, density, seed):
    kind, D = case
    model = _random_model(kind, _model(kind, D),
                          np.random.default_rng(seed), density)
    _assert_networks_match_their_oracles(kind, D, model)


def test_every_network_is_total_over_the_models():
    # Each model binds every generator its laws name, and every law has
    # an oracle above.
    for kind in ("toy", "hilbert"):
        model = _model(kind, 3)
        for key, law in _laws(kind).items():
            assert key in ORACLES
            for _, names in law.networks:
                for name in names:
                    base = name.rstrip("*")
                    assert base == "point" or base in model.views, (kind,
                                                                    name)
            assert law.family is None or law.family in model.points


# ---------------------------------------------------------------------------
# Not vacuous: each law fails once a generator is corrupted

def _paired(view, to, keep=False):
    """A copy map's view with its entry for (0, 0) ~ ((0, 0), (0, 0))
    also set at index `to`, and cleared unless `keep`: to (0, 0, 1) it is
    the negative control's pair moved to the source (0, 1), which no
    longer copies (0, 0); to (0, 1, 0) it breaks the symmetry of the copy;
    kept, it gives one target pair two sources."""
    bad = view.copy()
    bad[0, 0, 0], bad[to] = keep, 1
    return bad


def _flipped(view):
    bad = view.copy()
    bad[0] = 1 - bad[0]
    return bad


CORRUPTIONS = {"identity antipode": lambda v: {"antipode": v["id"]}}
for _c in "zx":
    for _what, _to, _keep in (("moved to source 1", (0, 0, 1), False),
                              ("moved to target (0, 1)", (0, 1, 0), False),
                              ("copied to source 1", (0, 0, 1), True)):
        CORRUPTIONS[f"delta_{_c} pair {_what}"] = (
            lambda v, c=_c, to=_to, keep=_keep: {
                f"delta_{c}": _paired(v[f"delta_{c}"], to, keep)})
    CORRUPTIONS[f"eps_{_c} entry 0 flipped"] = (
        lambda v, c=_c: {f"eps_{c}": _flipped(v[f"eps_{c}"])})


def _holds(kind, verdict):
    return verdict is True if kind == "toy" else verdict <= 1e-10


@pytest.mark.parametrize("kind", ["toy", "hilbert"])
@pytest.mark.parametrize("D", [3, 4])
def test_each_law_fails_under_some_corruption(kind, D):
    model = _model(kind, D)
    for name, law in lw.LAWS.items():
        assert _holds(kind, lw.check(model, law)), (kind, name)
        broken = [what for what, corrupt in CORRUPTIONS.items()
                  if not _holds(kind, lw.check(dataclasses.replace(
                      model, views={**model.views,
                                    **corrupt(model.views)}), law))]
        assert broken, (kind, D, name)


# ---------------------------------------------------------------------------
# The planner: laws.contract against plain einsum

LETTERS = "abcdef"


@st.composite
def _networks(draw):
    """A spec over one to five operands of letters a-f, with repeated
    letters (diagonals), letters read by one operand only, and sometimes
    a batch axis P shared by some operands and the output."""
    terms = [draw(st.text(LETTERS, max_size=3))
             for _ in range(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        batched = draw(st.lists(st.integers(0, len(terms) - 1), min_size=1,
                                unique=True))
        terms = ["P" + t if k in batched else t for k, t in enumerate(terms)]
    used = sorted(set("".join(terms)))
    output = "".join(draw(st.lists(st.sampled_from(used), unique=True))
                     if used else [])
    if "P" in used and "P" not in output:
        output = "P" + output
    return ",".join(terms) + "->" + output


@settings(max_examples=150, deadline=None)
@given(_networks(), st.integers(2, 5), st.integers(1, 4), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example("->", 2, 1, True, 0)
@example("->", 3, 1, False, 0)
@example("aab,bc,Pc->Pa", 3, 2, True, 1)
def test_contract_matches_einsum(spec, D, points, boolean, seed):
    rng = np.random.default_rng(seed)
    terms = spec.split("->")[0].split(",")
    shapes = [tuple(points if c == "P" else D for c in t) for t in terms]
    if boolean:
        ops = [(rng.random(s) < 0.5).astype(np.float32) for s in shapes]
        got = lw.contract(spec, ops) > 0
        assert got.dtype == bool
        assert np.array_equal(got, np.einsum(spec, *ops) > 0)
    else:
        ops = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
        got, want = lw.contract(spec, ops), np.einsum(spec, *ops)
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_each_network_is_planned_once(monkeypatch):
    # After one pass, a second pass of both batteries finds every plan in
    # the cache, and numpy's path search does not run again.
    toyrel.rel_structure_check(3)
    sem.run_structure_checks(3)
    searches = []
    einsum_path = np.einsum_path
    monkeypatch.setattr(np, "einsum_path",
                        lambda *a, **k: searches.append(a[0])
                        or einsum_path(*a, **k))
    misses = lw.plan.cache_info().misses
    assert toyrel.rel_structure_check(3)["passed"]
    assert all(r.passed for r in sem.run_structure_checks(3))
    assert lw.plan.cache_info().misses == misses
    assert searches == []
