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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
