"""The laws of a mutually unbiased qudit theory, each stated once.

Qudit stabilizer quantum mechanics and the Spekkens-Schreiber toy theory
are two models of one list of laws (Coecke & Duncan, arXiv:0906.4725;
Coecke, Edwards & Spekkens, arXiv:1003.5005): two Frobenius algebras,
their classical and unbiased points, unit coherence, the Hopf law and
strong complementarity. `LAWS` states each law once, as phase-free
string diagrams; `semantics` and `toyrel` each supply a `Model` in which
`check` compares them.

A network is an einsum spec and the names of the generators it joins. A
generator's view has one axis per wire, its target wires first, so a
spec is a diagram: each letter is a wire, a letter shared by two views
joins them, and the output letters are the open wires, targets first. A
converse is the same view with its letters read the other way round; a
name ending in "*" also conjugates the view, which makes it the dagger.
"id" is the identity wire and a network with no generators is the empty
diagram, the scalar one.

A law whose `family` names a family of points holds at every point of
it. The model binds "point" to the whole family, stacked along a first
axis that the specs write as the capital P, so one contraction covers
every point; a network that does not mention P is read as the same at
every point.

In Hilbert space a law holds with the first network equal to
D**scale times each other one, or up to a nonzero scalar when `scale`
is None. A relation is nonzero or not, so the toy model ignores the
scale.

Both models evaluate a network with `contract`. `plan` finds its
pairwise path once per spec and operand shapes (Smith & Gray,
"opt_einsum", JOSS 3(26):753, 2018): numpy's greedy path, the one an
optimizing `einsum` takes, read off zero-stride stand-ins for the
operands and kept as one `np.matmul` per pair, so a repeated network
pays for its contractions only.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import prod
from typing import Callable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class Law:
    """Two or more networks that must be equal."""

    scale: float | None
    networks: tuple            # ((spec, generator names), ...)
    family: str | None = None  # the points that "point" ranges over


@dataclass(frozen=True)
class Model:
    """A model of the laws: its generators' views, its point families
    (each stacked along a first axis), how it evaluates a network,
    `contract(spec, views)`, and how it compares a law's results,
    `compare(scale, results)`, the first against each other one."""

    views: dict
    points: dict
    contract: Callable
    compare: Callable


def check(model: Model, law: Law):
    """The law's verdict in the model."""
    return model.compare(law.scale, results(model, law))


def results(model: Model, law: Law) -> list:
    """The law's networks contracted in the model, in order; a family
    law's results are broadcast to one shape, point axis first."""
    points = model.points[law.family] if law.family else None
    out = [model.contract(spec, [_view(model, name, points)
                                 for name in names] or [np.ones(())])
           for spec, names in law.networks]
    return np.broadcast_arrays(*out) if law.family else out


def _view(model: Model, name: str, points):
    base = name.rstrip("*")
    view = points if base == "point" else model.views[base]
    return np.conj(view) if name.endswith("*") else view


class Step(NamedTuple):
    """One pairwise contraction of a plan: operands `pair` (i < j) leave
    the operand list and their product joins its end. Each side first
    takes its own diagonals and sums the letters that no one else reads,
    by the one-operand einsum spec `reduce` where it needs one, then is
    permuted to (batch, free, summed) or (batch, summed, free) and
    reshaped to `shapes[0]` or `shapes[1]` for one np.matmul, whose
    result is reshaped to `shapes[2]`, axes batch, free of i, free of j."""

    pair: tuple
    reduce: tuple    # (spec or None, spec or None)
    perms: tuple     # (axes of i, axes of j)
    shapes: tuple    # (i's matmul shape, j's, the result's)


@functools.lru_cache(maxsize=1024)
def plan(spec: str, shapes: tuple) -> tuple:
    """The steps that contract a network of two or more operands of
    these shapes, and the final permutation of the last product's axes
    to the spec's output letters."""
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    size = {c: n for term, shape in zip(terms, shapes)
            for c, n in zip(term, shape)}
    stand_ins = [np.broadcast_to(np.zeros(()), shape) for shape in shapes]
    path = np.einsum_path(spec, *stand_ins, optimize="greedy")[0][1:]
    # each operand's and product's id, in operand-list order
    ids, fresh = list(range(len(terms))), itertools.count(len(terms))
    steps = []
    for group in path:
        # numpy leaves a network with nothing to sum as one group of all
        # its operands; it is taken a pair at a time, like any other
        cur, *rest = [ids[k] for k in group]
        for other in rest:
            i, j = sorted((ids.index(cur), ids.index(other)))
            a, b = terms[i], terms[j]
            others = terms[:i] + terms[i + 1:j] + terms[j + 1:]
            keep = set(output).union(*others)
            a2, b2 = ("".join(c for c in dict.fromkeys(t)
                              if c in u or c in keep)
                      for t, u in ((a, b), (b, a)))
            batch = [c for c in a2 if c in b2 and c in keep]
            summed = [c for c in a2 if c in b2 and c not in keep]
            free_a = [c for c in a2 if c not in b2]
            free_b = [c for c in b2 if c not in a2]
            n = [prod(size[c] for c in cs)
                 for cs in (batch, free_a, summed, free_b)]
            steps.append(Step(
                (i, j),
                tuple(None if t == t2 else f"{t}->{t2}"
                      for t, t2 in ((a, a2), (b, b2))),
                (tuple(a2.index(c) for c in batch + free_a + summed),
                 tuple(b2.index(c) for c in batch + summed + free_b)),
                ((n[0], n[1], n[2]), (n[0], n[2], n[3]),
                 tuple(size[c] for c in batch + free_a + free_b))))
            del terms[j], terms[i], ids[j], ids[i]
            terms.append("".join(batch + free_a + free_b))
            cur = next(fresh)
            ids.append(cur)
    return tuple(steps), tuple(terms[0].index(c) for c in output)


def _step(step: Step, a, b):
    """One step's product of its operands a and b."""
    (reduce_a, reduce_b), (perm_a, perm_b), (shape_a, shape_b, shape) = (
        step.reduce, step.perms, step.shapes)
    if reduce_a:
        a = np.einsum(reduce_a, a)
    if reduce_b:
        b = np.einsum(reduce_b, b)
    return np.matmul(a.transpose(perm_a).reshape(shape_a),
                     b.transpose(perm_b).reshape(shape_b)).reshape(shape)


def contract(spec: str, views) -> np.ndarray:
    """The network's value, as `np.einsum(spec, *views)` gives it: a
    network of two or more operands runs its plan, one of fewer runs
    einsum itself."""
    if len(views) < 2:
        return np.einsum(spec, *views)
    steps, perm = plan(spec, tuple(np.shape(v) for v in views))
    ops = list(views)
    for step in steps:
        i, j = step.pair
        b, a = ops.pop(j), ops.pop(i)
        ops.append(_step(step, a, b))
    return ops[0].transpose(perm)


# The six Frobenius-algebra laws of one colour, in report order.
FROBENIUS = ("coassociativity", "cocommutativity", "counit_left",
             "counit_right", "special", "frobenius")


def _colour_laws(c: str) -> dict:
    """The laws of colour c's copy map delta[y, z, u] (u copied to y, z)
    and counit eps[u]. In Hilbert space the X algebra is the group
    algebra of Z_D, unnormalised, so its special and unbiased-point laws
    carry a factor D."""
    d, e = f"delta_{c}", f"eps_{c}"
    dag, edag = d + "*", e + "*"
    x = int(c == "x")
    return {
        f"coassociativity_{c}": Law(0, (("yzu,uws->yzws", (d, d)),
                                        ("zwu,yus->yzws", (d, d)))),
        f"cocommutativity_{c}": Law(0, (("zyu->yzu", (d,)),
                                        ("yzu->yzu", (d,)))),
        f"counit_left_{c}": Law(0, (("yzu,y->zu", (d, e)),
                                    ("zu->zu", ("id",)))),
        f"counit_right_{c}": Law(0, (("yzu,z->yu", (d, e)),
                                     ("yu->yu", ("id",)))),
        f"special_{c}": Law(x, (("yzv,yzu->vu", (dag, d)),
                                ("vu->vu", ("id",)))),
        # (1 x mu)(delta x 1) = (mu x 1)(1 x delta) = delta mu
        f"frobenius_{c}": Law(0, (("azu,zwb->abuw", (d, dag)),
                                  ("upa,pbw->abuw", (dag, d)),
                                  ("abv,uwv->abuw", (d, dag)))),
        # A classical point is copied, deleted, and its own conjugate
        # through the cap delta eps^dagger.
        f"classical_copy_{c}": Law(0, (("yzu,Pu->Pyz", (d, "point")),
                                       ("Py,Pz->Pyz", ("point", "point"))),
                                   f"classical_{c}"),
        f"classical_delete_{c}": Law(0, (("u,Pu->P", (e, "point")),
                                         ("->", ())), f"classical_{c}"),
        f"classical_conjugate_{c}": Law(0, (("Pa,azb,b->Pz",
                                             ("point*", d, edag)),
                                            ("Pz->Pz", ("point",))),
                                        f"classical_{c}"),
        # An unbiased point psi: mu(psi x psi*) = eps^dagger, with psi*
        # psi's conjugate through the cap.
        f"unbiased_points_{c}": Law(x, (("yzu,Py,Pa,azb,b->Pu",
                                          (dag, "point", "point*", d, edag)),
                                         ("u->u", (edag,))),
                                    f"unbiased_{c}"),
    }


LAWS = {
    **_colour_laws("z"),
    **_colour_laws("x"),
    # Unit coherence: each colour copies the other's unit, and the two
    # counits pair to a nonzero scalar.
    "coherence_z": Law(None, (("yzu,u->yz", ("delta_z", "eps_x*")),
                              ("y,z->yz", ("eps_x*", "eps_x*")))),
    "coherence_x": Law(None, (("yzu,u->yz", ("delta_x", "eps_z*")),
                              ("y,z->yz", ("eps_z*", "eps_z*")))),
    "counit_scalar": Law(None, (("u,u->", ("eps_z", "eps_x*")),
                                ("->", ()))),
    # delta_X mu_Z = (mu_Z x mu_Z)(1 x swap x 1)(delta_X x delta_X)
    "strong_complementarity": Law(0, (
        ("efu,abu->efab", ("delta_x", "delta_z*")),
        ("ija,klb,ike,jlf->efab",
         ("delta_x", "delta_x", "delta_z*", "delta_z*")))),
    # mu_X (S x 1) delta_Z = eps_X^dagger eps_Z, S the antipode
    "hopf": Law(0, (("yzu,sy,sza->au", ("delta_z", "antipode", "delta_x*")),
                    ("a,u->au", ("eps_x*", "eps_z")))),
}
