"""Verified rewrite rules on diagrams.

Every rule is scalar exact: applying it multiplies the diagram scalar by
the precise factor that keeps the matrix semantics unchanged, not merely
proportional. soundness_report() is the machine check, comparing the
matrix before and after on randomized instantiations.

Public rules:

* S_fuse        merge two adjacent same-color spiders, adding phases.
* D_identity    drop a phaseless degree-2 spider with one leg each way.
* B_copy        push a classical point through a phaseless opposite-color
                spider, one copy per remaining leg.
* B_bialgebra   collapse a complete 2x2 bipartite square of phaseless
                degree-3 spiders to a merge-split pair.
* K2_commute    commute a classical permutation gate through an
                opposite-color spider, transforming its phases.
* F1_color      strip Fourier boxes from every leg of a spider, flipping
                its color.
* F2_cancel     cancel an adjacent F / Fdag pair.

One auxiliary step, loop_remove, erases a spider self-loop (factor one
for either color); simplify() uses it to keep fused diagrams tidy.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import diagram as dg
from .phases import (PhaseVector, Turn, check_size, cyclic_value,
                     cyclic_vector, is_json_int as _is_id, phase_add,
                     phase_invert, phase_neg_transform)


class RuleMatchError(ValueError):
    """The given site does not match the rule's pattern."""


def _require(cond: bool, msg: str):
    if not cond:
        raise RuleMatchError(msg)


def _is_spider(d: dg.DiagramBuilder, v: int) -> bool:
    return v in d and d.node(v).kind in dg.SPIDER_KINDS


def _opposite(color: str) -> str:
    return dg.X if color == dg.Z else dg.Z


def _self_loops(d: dg.DiagramBuilder, v: int) -> list:
    return [i for i, sign in d.legs(v) if sign == 1 and d.edges[i] == (v, v)]


def _joining(d: dg.DiagramBuilder, a: int, b: int) -> list:
    """Ids of the edges between distinct nodes a and b, either way, in
    edge order; read from the shorter of the two leg lists."""
    if len(d.legs(b)) < len(d.legs(a)):
        a, b = b, a
    return [i for i, _ in d.legs(a) if b in d.edges[i]]


def _random_phase(dim: int, rng: random.Random) -> PhaseVector:
    if rng.random() < 0.7:
        return PhaseVector(
            dim, [Turn.exact(rng.randrange(dim), dim) for _ in range(dim - 1)])
    return PhaseVector.from_radians(
        dim, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim - 1)])


# ---------------------------------------------------------------------------
# Matchers. Everything about a rule is its _RULES record. Its check is the
# rule's pattern, and nothing else. Its keys are the one statement of the
# rule's candidate condition, a cheap necessary one, over the edges and
# nodes it is given: find_matches sorts the keys of the whole graph, and
# simplify's worklist those of what a step touched. Its site turns a key
# into a site, keys sorting as their sites do, and a site is a match when
# the check accepts it (_fits). The applier runs the same check on the site
# it is given, and edits the graph in place: it cuts legs (edge, sign) and
# re-links their far ends with add_leg, so a sign fixes an edge's direction
# in far_end and add_leg alone. Checks, keys and appliers all read a
# DiagramBuilder; a site names an edge by its position in the finished
# diagram's edge list, which edge_at maps to the builder's serial, and rank
# back. Its draw builds a random instance of the rule, for the soundness
# battery, and returns the site of its one match.

def _fits(d: dg.DiagramBuilder, check, site) -> bool:
    """Whether check accepts the site."""
    try:
        check(d, site)
    except RuleMatchError:
        return False
    return True


def _check_s_fuse(d, site):
    a, b = site["keep"], site["absorb"]
    _require(_is_spider(d, a) and _is_spider(d, b), "both nodes must be spiders")
    _require(a != b, "cannot fuse a spider with itself")
    _require(d.node(a).kind == d.node(b).kind, "colors differ")
    conn = _joining(d, a, b)
    _require(bool(conn), "spiders are not adjacent")
    return a, b, conn


def _apply_s_fuse(d, site):
    a, absorbed, conn = _check_s_fuse(d, site)
    na, nb = d.node(a), d.node(absorbed)
    d.set_node(a, dg.Node(na.kind, phase=phase_add(na.phase, nb.phase)))
    # The first joining edge is spent on the fusion. The absorbed legs move
    # to a, so the other joining edges become self-loops of a.
    d.remove_edges([conn[0]])
    for i in d.incident(absorbed):
        s, t = d.edges[i]
        d.move_edge(i, a if s == absorbed else s, a if t == absorbed else t)
    d.remove_node(absorbed)


def _draw_s_fuse(b, ctx, dim, rng):
    color = rng.choice((dg.Z, dg.X))
    a = b.add_spider(color, _random_phase(dim, rng))
    c = b.add_spider(color, _random_phase(dim, rng))
    for _ in range(rng.randint(1, 3)):
        b.add_leg(a, c, 1 if rng.random() < 0.5 else -1)
    ctx.attach_random(a, rng.randint(0, 3), rng)
    ctx.attach_random(c, rng.randint(0, 3), rng)
    return {"keep": min(a, c), "absorb": max(a, c), "color": color}


def _check_d_identity(d, site):
    v = site["node"]
    _require(_is_spider(d, v), "node must be a spider")
    _require(d.node(v).phase.is_zero, "phase must be zero")
    ins, outs = d.in_edges(v), d.out_edges(v)
    _require(len(ins) == 1 and len(outs) == 1 and ins[0] != outs[0],
             "need exactly one edge in and one out")
    return v, ins[0], outs[0]


def _apply_d_identity(d, site):
    v, e_in, e_out = _check_d_identity(d, site)
    u, w = d.far_end(e_in, -1), d.far_end(e_out, 1)
    d.remove_edges([e_in, e_out])
    d.add_edge(u, w)
    d.remove_node(v)


def _draw_d_identity(b, ctx, dim, rng):
    color = rng.choice((dg.Z, dg.X))
    v = b.add_spider(color, PhaseVector.zero(dim))
    ctx.attach(v, -1)
    ctx.attach(v, 1)
    return {"node": v}


def _check_loop_remove(d, site):
    v, e = site["node"], site["edge"]
    _require(_is_spider(d, v), "node must be a spider")
    e = d.edge_at(e)
    _require(e is not None and d.edges[e] == (v, v),
             "edge must be a self-loop on the node")
    return v, e


def _apply_loop_remove(d, site):
    _v, e = _check_loop_remove(d, site)
    d.remove_edges([e])


def _draw_loop_remove(b, ctx, dim, rng):
    color = rng.choice((dg.Z, dg.X))
    v = b.add_spider(color, _random_phase(dim, rng))
    e = b.add_edge(v, v)
    ctx.attach_random(v, rng.randint(0, 3), rng)
    return {"node": v, "edge": e}


def _check_f2_cancel(d, site):
    a, b = site["boxes"]
    _require(a in d and b in d and a != b, "boxes must be two distinct nodes")
    _require({d.node(a).kind, d.node(b).kind} == {dg.F, dg.FDAG},
             "need one F and one Fdag")
    conn = _joining(d, a, b)
    _require(len(conn) in (1, 2), "boxes must be adjacent")
    return a, b, conn


def _apply_f2_cancel(d, site):
    a, b, conn = _check_f2_cancel(d, site)
    if len(conn) == 2:
        # A closed F/Fdag cycle traces to the scalar D.
        d.remove_edges(conn)
        d.remove_node(a)
        d.remove_node(b)
        d.scalar *= d.dimension
        return
    mid = conn[0]
    first, second = d.edges[mid]
    e_in = next(i for i in d.in_edges(first) if i != mid)
    e_out = next(i for i in d.out_edges(second) if i != mid)
    u, w = d.far_end(e_in, -1), d.far_end(e_out, 1)
    d.remove_edges([e_in, mid, e_out])
    d.add_edge(u, w)
    d.remove_node(a)
    d.remove_node(b)


def _draw_f2_cancel(b, ctx, dim, rng):
    kinds = rng.choice(((dg.F, dg.FDAG), (dg.FDAG, dg.F)))
    b1 = b.add_box(kinds[0])
    b2 = b.add_box(kinds[1])
    if rng.random() < 0.25:
        b.add_edge(b1, b2)
        b.add_edge(b2, b1)
    else:
        b.add_edge(b1, b2)
        ctx.attach(b1, -1)
        ctx.attach(b2, 1)
    return {"boxes": sorted((b1, b2))}


def _f1_wanted_box(color: str, sign: int) -> str:
    if color == dg.Z:
        return dg.F if sign == 1 else dg.FDAG
    return dg.FDAG if sign == 1 else dg.F


def _check_f1_color(d, site):
    v = site["spider"]
    _require(_is_spider(d, v), "node must be a spider")
    color = d.node(v).kind
    plan = []
    for e, sign in d.legs(v):
        box = d.far_end(e, sign)
        _require(box != v and box in d, "self-loops cannot carry boxes")
        _require(d.node(box).kind == _f1_wanted_box(color, sign),
                 f"leg {d.rank(e)} needs a {_f1_wanted_box(color, sign)} box")
        far = [i for i in d.incident(box) if i != e]
        _require(len(far) == 1, "box must have exactly one far edge")
        # The box passes v's leg on: its far leg has the same sign.
        w = d.far_end(far[0], sign)
        _require(w != v, "box wraps back onto the spider")
        plan.append((e, far[0], box, sign, w))
    return v, color, plan


def _apply_f1_color(d, site):
    v, color, plan = _check_f1_color(d, site)
    d.set_node(v, dg.Node(_opposite(color), phase=d.node(v).phase))
    d.remove_edges([i for e, far, *_ in plan for i in (e, far)])
    for _e, _far, box, sign, w in plan:
        d.remove_node(box)
        d.add_leg(v, w, sign)


def _draw_f1_color(b, ctx, dim, rng):
    color = rng.choice((dg.Z, dg.X))
    v = b.add_spider(color, _random_phase(dim, rng))
    for _ in range(rng.randint(0, 4)):
        sign = rng.choice((1, -1))
        box = b.add_box(_f1_wanted_box(color, sign))
        b.add_leg(v, box, sign)
        ctx.attach(box, sign)
    return {"spider": v}


def _check_b_copy(d, site):
    s, v, e = site["state"], site["spider"], site["edge"]
    _require(_is_spider(d, s) and _is_spider(d, v), "need two spiders")
    e = d.edge_at(e)
    _require(e is not None and d.edges[e] == (s, v),
             "edge must run from the state into the spider")
    _require(d.degree(s) == 1, "state must have exactly one leg")
    _require(d.node(s).kind != d.node(v).kind, "colors must differ")
    _require(cyclic_value(d.node(s).phase) is not None,
             "state is not a classical point")
    _require(d.node(v).phase.is_zero, "spider must be phaseless")
    _require(not _self_loops(d, v), "spider must have no self-loops")
    return s, v, e


def _apply_b_copy(d, site):
    s, v, e = _check_b_copy(d, site)
    state_color = d.node(s).kind
    ket_phase = d.node(s).phase
    bra_phase = phase_invert(ket_phase)
    other = [(i, sign) for i, sign in d.legs(v) if i != e]
    plans = [(sign, d.far_end(i, sign)) for i, sign in other]
    d.remove_edges([e] + [i for i, _ in other])
    d.remove_node(s)
    d.remove_node(v)
    for sign, w in plans:
        c = d.add_spider(state_color, ket_phase if sign == 1 else bra_phase)
        d.add_leg(c, w, sign)
    r = len(plans)
    d.scalar *= d.dimension ** (0.5 * (1 - r))


def _draw_b_copy(b, ctx, dim, rng):
    color = rng.choice((dg.Z, dg.X))
    s = b.add_spider(color, cyclic_vector(dim, rng.randrange(dim)))
    v = b.add_spider(_opposite(color), PhaseVector.zero(dim))
    e = b.add_edge(s, v)
    ctx.attach_random(v, rng.randint(0, 3), rng)
    return {"state": s, "spider": v, "edge": e}


def _check_k2_commute(d, site):
    g, v, e = site["gate"], site["spider"], site["edge"]
    _require(_is_spider(d, g) and _is_spider(d, v), "need two spiders")
    k = cyclic_value(d.node(g).phase)
    _require(k is not None and k != 0, "gate is not a nontrivial classical gate")
    ins, outs = d.in_edges(g), d.out_edges(g)
    _require(len(ins) == 1 and len(outs) == 1 and ins[0] != outs[0],
             "gate must have one leg each way")
    e = d.edge_at(e)
    _require(e in (ins[0], outs[0]), "edge does not touch the gate")
    # sign: v's leg on e, +1 when the gate sits on an output leg of v; the
    # gate passes it on to w over its far leg.
    sign, far = (1, outs[0]) if e == ins[0] else (-1, ins[0])
    _require(v != g and d.far_end(e, -sign) == v,
             "edge must join gate and spider")
    _require(d.node(v).kind != d.node(g).kind, "colors must differ")
    w = d.far_end(far, sign)
    _require(w != v, "gate is doubly attached to the spider")
    _require(not _self_loops(d, v), "spider must have no self-loops")
    return g, v, e, far, k, sign, w


def _apply_k2_commute(d, site):
    g, v, e, far, k, sign0, w = _check_k2_commute(d, site)
    dim = d.dimension
    nv = d.node(v)
    kappa = k if (sign0 == 1) == (nv.kind == dg.Z) else (dim - k) % dim

    d.set_node(v, dg.Node(nv.kind, phase=phase_neg_transform(nv.phase, kappa)))
    d.scalar *= complex(math.cos(nv.phase.alpha(kappa).radians),
                         math.sin(nv.phase.alpha(kappa).radians))

    gate_color = d.node(g).kind
    other = [(i, sign) for i, sign in d.legs(v) if i != e]
    plans = [(sign, d.far_end(i, sign),
              (dim - k) % dim if sign == sign0 else k) for i, sign in other]
    d.remove_edges([e, far] + [i for i, _ in other])
    d.remove_node(g)
    d.add_leg(v, w, sign0)
    for sign, far_node, param in plans:
        c = d.add_spider(gate_color, cyclic_vector(dim, param))
        # v's leg now runs through c. Its two edges are added in the
        # leg's direction, upstream first: that order fixes their positions.
        for a, b in ((v, c), (c, far_node))[::sign]:
            d.add_leg(a, b, sign)


def _draw_k2_commute(b, ctx, dim, rng):
    gate_color = rng.choice((dg.Z, dg.X))
    k = rng.randrange(1, dim)
    g = b.add_spider(gate_color, cyclic_vector(dim, k))
    v = b.add_spider(_opposite(gate_color), _random_phase(dim, rng))
    sign = 1 if rng.random() < 0.5 else -1  # the gate's far leg
    e = b.add_leg(g, v, -sign)
    ctx.attach(g, sign)
    ctx.attach_random(v, rng.randint(0, 3), rng)
    return {"gate": g, "spider": v, "edge": e}


def _check_b_bialgebra(d, site):
    p1, p2 = site["first"]
    q1, q2 = site["second"]
    quad = [p1, p2, q1, q2]
    _require(len(set(quad)) == 4, "square needs four distinct spiders")
    for v in quad:
        _require(_is_spider(d, v), f"node {v} must be a spider")
        _require(d.node(v).phase.is_zero, f"spider {v} must be phaseless")
        _require(d.degree(v) == 3, f"spider {v} must have degree 3")
        _require(not _self_loops(d, v), f"spider {v} must have no self-loops")
    pc = d.node(p1).kind
    _require(d.node(p2).kind == pc, "first pair colors differ")
    qc = d.node(q1).kind
    _require(qc == _opposite(pc) and d.node(q2).kind == qc,
             "second pair must have the opposite color")

    square = {}
    for p in (p1, p2):
        for q in (q1, q2):
            found = [i for i in d.out_edges(p) if d.edges[i][1] == q]
            _require(len(found) == 1,
                     f"need exactly one edge {p}->{q}, found {len(found)}")
            _require(not any(d.edges[i][1] == p for i in d.out_edges(q)),
                     "square edges must all point the same way")
            square[(p, q)] = found[0]

    square_set = set(square.values())
    ext = {}
    for v in quad:
        rest = [(i, sign) for i, sign in d.legs(v) if i not in square_set]
        _require(len(rest) == 1, f"spider {v} needs exactly one external leg")
        ext[v] = rest[0]
    _require(ext[p1][1] == ext[p2][1], "first-pair external legs disagree")
    _require(ext[q1][1] == ext[q2][1], "second-pair external legs disagree")
    _require(ext[p1][1] == -ext[q1][1],
             "external legs must flow through the square")
    return (p1, p2, q1, q2, pc, qc, square, ext)


def _apply_b_bialgebra(d, site):
    p1, p2, q1, q2, pc, qc, square, ext = _check_b_bialgebra(d, site)
    plans = [(v in (p1, p2), sign, d.far_end(e, sign))
             for v, (e, sign) in ext.items()]
    d.remove_edges(list(square.values()) + [e for e, _ in ext.values()])
    for v in ext:
        d.remove_node(v)
    merge = d.add_spider(qc)
    split = d.add_spider(pc)
    d.add_edge(merge, split)
    for first, sign, w in plans:
        d.add_leg(merge if first else split, w, sign)
    d.scalar *= d.dimension ** -0.5


def _draw_b_bialgebra(b, ctx, dim, rng):
    pc = rng.choice((dg.Z, dg.X))
    qc = _opposite(pc)
    p1 = b.add_spider(pc)
    p2 = b.add_spider(pc)
    q1 = b.add_spider(qc)
    q2 = b.add_spider(qc)
    for p in (p1, p2):
        for q in (q1, q2):
            b.add_edge(p, q)
    sigma = rng.choice((1, -1))
    for p in (p1, p2):
        ctx.attach(p, sigma)
    for q in (q1, q2):
        ctx.attach(q, -sigma)
    return {"first": [p1, p2], "second": [q1, q2], "color": pc}


def _keys_b_bialgebra(d: dg.DiagramBuilder, _edges, nodes):
    # The far side of a square is two common targets of the near side.
    def sources(q):
        return {d.edges[i][0] for i in d.in_edges(q)}

    for a in nodes:
        if d.degree(a) == 3:
            targets = sorted({d.edges[i][1] for i in d.out_edges(a)})
            for q1, q2 in itertools.combinations(targets, 2):
                for b in sources(q1) & sources(q2):
                    if b > a and d.degree(b) == 3:
                        yield a, b, q1, q2


def _site_b_copy(d: dg.DiagramBuilder, s: int):
    legs = d.legs(s)
    if not legs:
        return None
    e = legs[0][0]
    return {"state": s, "spider": d.edges[e][1], "edge": d.rank(e)}


def _site_loop_remove(d: dg.DiagramBuilder, v: int):
    loops = _self_loops(d, v)
    return {"node": v, "edge": d.rank(loops[0])} if loops else None


def _is_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_id, x))


def _is_color(x) -> bool:
    return isinstance(x, str) and x in dg.SPIDER_KINDS


class _Rule(NamedTuple):
    """One rewrite rule. check(d, site) is its pattern: it returns what the
    applier needs, or raises RuleMatchError. apply(d, site) edits d in
    place. keys(d, edges, nodes) yields candidate keys among some live
    edges, a map from serial to (source, target), and live nodes.
    site(d, key) is the site a key stands for, or None once its node or
    edge is gone. shape maps each site key, as a trace writes it, to a
    test of its value: a node or edge id, a pair of node ids, or a spider
    color.

    draw(b, ctx, dim, rng) adds a random instance of the rule to the
    builder b, its boundary through ctx (a _Ctx), and returns the site.
    legs is the most loop-free legs one node of a draw has, before or
    after the rule, so a draw needs no tensor above D^legs entries.
    waits_on is the site key of the node whose touch re-queues a refused
    key (the check reads that node beyond the key's condition), or None."""
    check: Callable
    apply: Callable
    keys: Callable
    site: Callable
    shape: dict
    draw: Callable
    legs: int
    waits_on: str | None = None


# Pair keys come from an edge: S_fuse when its ends have one kind and
# F2_cancel when both are boxes. D_identity keys a degree-2 node, and
# K2_commute keys (gate, far end, serial) each leg of one. B_copy keys a
# node whose one leg is an out-leg: that leg fixes the spider and edge.
# loop_remove keys a node with a self-loop, its site the node's first
# loop. F1_color keys every node, and B_bialgebra a square (a, b, q1, q2)
# of degree-3 nodes a < b with common out-targets q1 < q2.
_RULES = {
    "S_fuse": _Rule(
        _check_s_fuse, _apply_s_fuse,
        lambda d, edges, _nodes: (
            (min(s, t), max(s, t)) for s, t in edges.values()
            if d.node(s).kind == d.node(t).kind),
        lambda d, key: {"keep": key[0], "absorb": key[1],
                        "color": d.node(key[0]).kind} if key[0] in d else None,
        {"keep": _is_id, "absorb": _is_id, "color": _is_color},
        _draw_s_fuse, 6),
    "D_identity": _Rule(
        _check_d_identity, _apply_d_identity,
        lambda d, _edges, nodes: (v for v in nodes if d.degree(v) == 2),
        lambda d, v: {"node": v},
        {"node": _is_id}, _draw_d_identity, 2),
    "B_copy": _Rule(
        _check_b_copy, _apply_b_copy,
        lambda d, _edges, nodes: (
            v for v in nodes if d.degree(v) == 1 and d.legs(v)[0][1] == 1),
        _site_b_copy,
        {"state": _is_id, "spider": _is_id, "edge": _is_id},
        _draw_b_copy, 4, "spider"),
    "B_bialgebra": _Rule(
        _check_b_bialgebra, _apply_b_bialgebra, _keys_b_bialgebra,
        lambda d, key: {"first": list(key[:2]), "second": list(key[2:]),
                        "color": d.node(key[0]).kind},
        {"first": _is_pair, "second": _is_pair, "color": _is_color},
        _draw_b_bialgebra, 3),
    "K2_commute": _Rule(
        _check_k2_commute, _apply_k2_commute,
        lambda d, _edges, nodes: (
            (g, d.far_end(e, sign), e) for g in nodes if d.degree(g) == 2
            for e, sign in d.legs(g)),
        lambda d, key: {"gate": key[0], "spider": key[1],
                        "edge": d.rank(key[2])},
        {"gate": _is_id, "spider": _is_id, "edge": _is_id},
        _draw_k2_commute, 4),
    "F1_color": _Rule(
        _check_f1_color, _apply_f1_color,
        lambda d, _edges, nodes: iter(nodes),
        lambda d, v: {"spider": v},
        {"spider": _is_id}, _draw_f1_color, 4),
    "F2_cancel": _Rule(
        _check_f2_cancel, _apply_f2_cancel,
        lambda d, edges, _nodes: (
            (min(s, t), max(s, t)) for s, t in edges.values()
            if d.node(s).kind in dg.BOX_KINDS
            and d.node(t).kind in dg.BOX_KINDS),
        lambda d, key: {"boxes": list(key)},
        {"boxes": _is_pair}, _draw_f2_cancel, 2),
    "loop_remove": _Rule(
        _check_loop_remove, _apply_loop_remove,
        lambda d, _edges, nodes: (v for v in nodes if _self_loops(d, v)),
        _site_loop_remove,
        {"node": _is_id, "edge": _is_id}, _draw_loop_remove, 3),
}
# The public rules, then the auxiliary step simplify uses.
ALL_RULES = tuple(_RULES)
RULES, AUX_RULES = ALL_RULES[:-1], ALL_RULES[-1:]


def _rule(rule) -> _Rule:
    """The record of a rule; anything else is refused with one line."""
    if isinstance(rule, str) and rule in _RULES:
        return _RULES[rule]
    raise ValueError(f"unknown rule {rule!r}; choose from {ALL_RULES}")


def find_matches(d: dg.Diagram | dg.DiagramBuilder, rule: str) -> list:
    """The rule's sites in d, in order. A Diagram is read through a new
    DiagramBuilder; a DiagramBuilder is read as it is, and left as it is."""
    r = _rule(rule)
    g = dg.DiagramBuilder.from_diagram(d) if isinstance(d, dg.Diagram) else d
    keys = sorted(set(r.keys(g, g.edges, g.nodes)))
    return [site for site in (r.site(g, k) for k in keys)
            if _fits(g, r.check, site)]


def apply_rule(d, rule: str, site: dict):
    """Apply rule at site. A Diagram is left as it is and the result is a
    new Diagram; a DiagramBuilder is edited in place, as one step (its
    change log restarts), and returned."""
    apply = _rule(rule).apply
    if isinstance(d, dg.Diagram):
        g = dg.DiagramBuilder.from_diagram(d)
        apply(g, site)
        return g.finish()
    d.start_step()
    apply(d, site)
    return d


# ---------------------------------------------------------------------------
# Traces and simplification

def diagram_hash(d: dg.Diagram) -> str:
    """sha256 of d's canonical JSON, computed on the first call and kept
    on d beside the text, which cannot go stale."""
    try:
        return d._hash
    except AttributeError:
        d._hash = hashlib.sha256(dg.to_json(d).encode()).hexdigest()
        return d._hash


@dataclass
class TraceStep:
    rule: str
    site: dict
    removed: list
    added: list

    def to_json_dict(self) -> dict:
        return {"rule": self.rule, "site": self.site,
                "removed": self.removed, "added": self.added}


@dataclass
class RewriteTrace:
    initial_hash: str
    final_hash: str
    steps: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "initialHash": self.initial_hash,
            "finalHash": self.final_hash,
            "steps": [s.to_json_dict() for s in self.steps],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RewriteTrace":
        if not (isinstance(obj, dict)
                and isinstance(obj.get("initialHash"), str)
                and isinstance(obj.get("finalHash"), str)
                and isinstance(obj.get("steps"), list)):
            raise ValueError("a trace needs string 'initialHash' and "
                             "'finalHash' and a list of 'steps'")
        steps = []
        for i, s in enumerate(obj["steps"]):
            if not isinstance(s, dict) or "rule" not in s or "site" not in s:
                raise ValueError(f"trace step {i} needs a 'rule' and a 'site'")
            if "removed" not in s or "added" not in s:
                raise ValueError(f"trace step {i} needs 'removed' and 'added'")
            _check_step_shape(i, s)
            steps.append(TraceStep(s["rule"], s["site"], s["removed"],
                                   s["added"]))
        return cls(obj["initialHash"], obj["finalHash"], steps)


def _check_step_shape(i: int, step: dict):
    """Refuse, with one line naming step i, a rule that does not exist or
    a site whose keys or values do not fit the rule."""
    rule, site = step["rule"], step["site"]
    try:
        shape = _rule(rule).shape
    except ValueError as exc:
        raise ValueError(f"trace step {i}: {exc}") from None
    if not isinstance(site, dict) or site.keys() != shape.keys():
        raise ValueError(f"trace step {i} ({rule}): the site must be an "
                         f"object with keys {sorted(shape)}, got {site!r}")
    for key, fits in shape.items():
        if not fits(site[key]):
            raise ValueError(f"trace step {i} ({rule}): site key {key!r} "
                             f"has the wrong value {site[key]!r}")
    if not all(isinstance(ids, list) and all(map(_is_id, ids))
               for ids in (step["removed"], step["added"])):
        raise ValueError(f"trace step {i} ({rule}): 'removed' and 'added' "
                         "must be lists of node ids")


# simplify applies only steps that strictly reduce the edge count, which
# is the termination measure.
_SIMPLIFY_ORDER = ("loop_remove", "F2_cancel", "S_fuse", "D_identity",
                   "B_copy")


class _Worklist:
    """Candidate keys of the rules in _SIMPLIFY_ORDER, one heap per rule.

    A rule's keys are its _RULES record's, the candidate condition that
    find_matches also sorts, so a key sorts as its site does in
    find_matches (edge serials sort as the positions they stand for).
    pop() runs the rule's own check on each popped key's site, so the
    first key it accepts is find_matches' first site.

    That holds while every key that the check would accept is queued.
    feed() pushes the keys of the edges and nodes a step touched and of
    those edges' ends. A check may also read a node its key does not
    (B_copy's reads the spider's phase and self-loops): the record's
    waits_on names that site key, and a refused key waits on the node it
    names and is pushed again when that is touched. No rule here changes a
    node's kind. The keys of the rules simplify does not use are never
    built here.
    """

    def __init__(self, d: dg.DiagramBuilder):
        self.d = d
        self.heaps = {rule: [] for rule in _SIMPLIFY_ORDER}
        self.queued = {rule: set() for rule in _SIMPLIFY_ORDER}
        self.waiting = {}           # node -> refused (rule, key) pairs
        self.feed(d.edges, d.nodes)

    def _push(self, rule: str, key):
        if key not in self.queued[rule]:
            self.queued[rule].add(key)
            heapq.heappush(self.heaps[rule], key)

    def feed(self, edges, nodes):
        """Push the keys of these edges and nodes and of the edges' ends."""
        d = self.d
        edges = {e: d.edges[e] for e in edges if e in d.edges}
        nodes = set(nodes).union(*edges.values())
        for v in nodes:
            for rule, key in self.waiting.pop(v, ()):
                self._push(rule, key)
        nodes = [v for v in nodes if v in d]
        for rule in _SIMPLIFY_ORDER:
            for key in _rule(rule).keys(d, edges, nodes):
                self._push(rule, key)

    def pop(self):
        """(rule, site) of the next step, or None at the fixpoint."""
        for rule in _SIMPLIFY_ORDER:
            heap, queued = self.heaps[rule], self.queued[rule]
            r = _rule(rule)
            while heap:
                key = heapq.heappop(heap)
                queued.discard(key)
                site = r.site(self.d, key)
                if site is None:
                    continue
                if _fits(self.d, r.check, site):
                    return rule, site
                if r.waits_on:
                    self.waiting.setdefault(site[r.waits_on],
                                            set()).add((rule, key))
        return None


def simplify(d: dg.Diagram) -> tuple:
    """Fixpoint of the shrinking rules; returns (diagram, trace).

    Deterministic: at each step the first rule in the fixed order with a
    match fires at its first site. The steps edit one DiagramBuilder in
    place, and a worklist finds each next site from what the last step
    changed; the result is validated once, and it must have no site of
    any rule left.
    """
    trace = RewriteTrace(diagram_hash(d), "")
    g = dg.DiagramBuilder.from_diagram(d)
    work = _Worklist(g)
    while (found := work.pop()) is not None:
        rule, site = found
        n_edges = len(g.edges)
        g.start_step()
        try:
            _rule(rule).apply(g, site)
        except ValueError as exc:
            raise AssertionError(
                f"{rule} failed at its own match {site}: {exc}") from exc
        if len(g.edges) >= n_edges:
            raise AssertionError(
                f"{rule} did not shrink the diagram; simplify would loop")
        trace.steps.append(TraceStep(rule, site, *g.node_changes()))
        work.feed(g.touched_edges, g.touched_nodes)
    out = g.finish()
    # one copy of the result serves the five fixpoint searches
    final = dg.DiagramBuilder.from_diagram(out)
    left = [rule for rule in _SIMPLIFY_ORDER if find_matches(final, rule)]
    if left:
        raise AssertionError(f"simplify stopped with sites of {left} left")
    trace.final_hash = diagram_hash(out)
    return out, trace


def replay(d: dg.Diagram, trace: RewriteTrace) -> dg.Diagram:
    """Re-run a trace in place, verifying both endpoint hashes and, at each
    step, the ids of the nodes it removes and adds (in any order)."""
    if diagram_hash(d) != trace.initial_hash:
        raise ValueError("trace does not start at this diagram")
    g = dg.DiagramBuilder.from_diagram(d)
    for i, step in enumerate(trace.steps):
        try:
            apply_rule(g, step.rule, step.site)
        except (ValueError, KeyError, TypeError) as exc:
            # A site that lacks a key or has the wrong type is as malformed
            # as one the rule's check refuses.
            reason = (f"site has no key {exc}" if isinstance(exc, KeyError)
                      else exc)
            raise RuleMatchError(
                f"replay step {i} ({step.rule}): {reason}") from exc
        removed, added = g.node_changes()
        if (removed, added) != (sorted(step.removed), sorted(step.added)):
            raise RuleMatchError(
                f"replay step {i} ({step.rule}): removes {removed} and adds "
                f"{added}, the trace says {step.removed} and {step.added}")
    current = g.finish()
    if diagram_hash(current) != trace.final_hash:
        raise ValueError("replay diverged from the recorded final hash")
    return current


# ---------------------------------------------------------------------------
# Randomized soundness checking

class _Ctx:
    """Tracks boundary positions while building a random instance."""

    def __init__(self, b_: dg.DiagramBuilder):
        self.b = b_
        self.n_in = 0
        self.n_out = 0

    def attach(self, v: int, sign: int):
        """Give v one external leg: sign +1 adds an output beyond v."""
        if sign == 1:
            w = self.b.add_output(self.n_out)
            self.n_out += 1
        else:
            w = self.b.add_input(self.n_in)
            self.n_in += 1
        self.b.add_leg(v, w, sign)

    def attach_random(self, v: int, count: int, rng: random.Random):
        for _ in range(count):
            self.attach(v, rng.choice((1, -1)))


def random_rule_instance(rule: str, dim: int, rng: random.Random) -> tuple:
    """A small random diagram containing one match of the rule, plus the
    site, as the rule's record draws it. No node has more loop-free legs
    than the record's legs; phases mix exact multiples of 1/D with
    occasional irrational angles where the rule allows them."""
    b = dg.DiagramBuilder(dim)
    site = _rule(rule).draw(b, _Ctx(b), dim, rng)
    return b.finish(), site


# The most loop-free legs at one node of any rule's draw, before or after
# the rule: S_fuse's, whose two spiders share up to 3 legs and have up to 3
# more each. No other tensor the evaluator builds for a draw, an X spider's
# D x D eta table included, is larger.
_INSTANCE_LEGS = max(r.legs for r in _RULES.values())


def draw_work(rules, dims) -> int:
    """The tensor entries one draw of each rule at each D can need: the
    sum of D^legs over the rules' records and the dimensions."""
    return sum(dim ** _rule(rule).legs for rule in rules for dim in dims)


def check_instance_dim(dim: int) -> None:
    """Refuse, in one line that names D, a D whose D^_INSTANCE_LEGS
    tensor the evaluator would refuse."""
    from .semantics import _FAST_CAP

    check_size(dim, _INSTANCE_LEGS, _FAST_CAP, "rule soundness refuses "
               "D={base}: a random instance can need a tensor of "
               "{base}^{power} = {size} entries, above the evaluator's cap "
               "of {cap}")


def soundness_report(rule: str, dim: int, trials: int = 50,
                     seed: int = 0, tol: float = 1e-9) -> dict:
    """Random instantiations of one rule: evaluate before and after; a
    trial passes when the matrices agree entrywise and the scalar between
    them is 1 (rules carry their own scalars). A D that
    check_instance_dim refuses is refused before any instance is drawn."""
    from .semantics import compare_scalar_exact, evaluate

    check_instance_dim(dim)
    rng = random.Random(f"{rule}:{dim}:{seed}")
    failures = []
    worst = 0.0
    worst_drift = 0.0
    for trial in range(trials):
        d, site = random_rule_instance(rule, dim, rng)
        before = evaluate(d, "fast").matrix
        try:
            d2 = apply_rule(d, rule, site)
        except ValueError as exc:
            failures.append({"trial": trial, "site": site,
                             "reason": str(exc)})
            continue
        after = evaluate(d2, "fast").matrix
        s, dev, exact = compare_scalar_exact(before, after, tol)
        if s is None:
            failures.append({"trial": trial, "site": site,
                             "reason": "matrices not proportional"})
            continue
        worst = max(worst, dev)
        worst_drift = max(worst_drift, abs(s - 1.0))
        if not exact:
            failures.append({"trial": trial, "site": site, "deviation": dev,
                             "scalarDrift": abs(s - 1.0)})
    return {
        "rule": rule,
        "dim": dim,
        "trials": trials,
        "seed": seed,
        "tol": tol,
        "failures": failures,
        "maxDeviation": worst,
        "maxScalarDrift": worst_drift,
        "passed": not failures,
    }
