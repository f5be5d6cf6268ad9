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
import itertools
import math
import random
import time
from dataclasses import dataclass, field

from . import diagram as dg
from .phases import (PhaseVector, Turn, cyclic_value, cyclic_vector,
                     phase_add, phase_invert, phase_neg_transform)

RULES = ("S_fuse", "D_identity", "B_copy", "B_bialgebra", "K2_commute",
         "F1_color", "F2_cancel")
AUX_RULES = ("loop_remove",)
ALL_RULES = RULES + AUX_RULES


class RuleMatchError(ValueError):
    """The given site does not match the rule's pattern."""


def _require(cond: bool, msg: str):
    if not cond:
        raise RuleMatchError(msg)


def _is_spider(d: dg.Diagram, v: int) -> bool:
    return v in d and d.node(v).kind in dg.SPIDER_KINDS


def _opposite(color: str) -> str:
    return dg.X if color == dg.Z else dg.Z


def _self_loops(d: dg.Diagram, v: int) -> list:
    return [i for i, sign in d.legs(v) if sign == 1 and d.edges[i] == (v, v)]


def _joining(d: dg.Diagram, a: int, b: int) -> list:
    """Indices of the edges between distinct nodes a and b, either way."""
    return [i for i, _ in d.legs(a) if b in d.edges[i]]


# ---------------------------------------------------------------------------
# Matchers. A rule's pattern is its _check_*, and nothing else: a matcher
# enumerates candidate sites in the canonical order, pruned at most by a
# cheap necessary condition, and _sites keeps the candidates the check
# accepts. The applier runs the same check on the site it is given.

def _sites(d: dg.Diagram, check, candidates) -> list:
    """The candidates that check accepts, in candidate order."""
    sites = []
    for site in candidates:
        try:
            check(d, site)
        except RuleMatchError:
            continue
        sites.append(site)
    return sites


def _match_s_fuse(d: dg.Diagram) -> list:
    pairs = sorted({(min(s, t), max(s, t)) for s, t in d.edges
                    if d.node(s).kind == d.node(t).kind})
    return _sites(d, _check_s_fuse,
                  ({"keep": a, "absorb": b, "color": d.node(a).kind}
                   for a, b in pairs))


def _check_s_fuse(d, site):
    a, b = site["keep"], site["absorb"]
    _require(_is_spider(d, a) and _is_spider(d, b), "both nodes must be spiders")
    _require(a != b, "cannot fuse a spider with itself")
    _require(d.node(a).kind == d.node(b).kind, "colors differ")
    conn = _joining(d, a, b)
    _require(bool(conn), "spiders are not adjacent")
    return a, b, conn


def _apply_s_fuse(b_, d, site):
    a, absorbed, conn = _check_s_fuse(d, site)
    na, nb = d.node(a), d.node(absorbed)
    b_.nodes[a] = dg.Node(na.kind, phase=phase_add(na.phase, nb.phase))
    # Re-anchor the absorbed legs on a; the joining edges become self-loops
    # of a, and the first of them is spent on the fusion.
    for i, _ in d.legs(absorbed):
        s, t = d.edges[i]
        b_.edges[i] = (a if s == absorbed else s, a if t == absorbed else t)
    b_.remove_edges([conn[0]])
    b_.remove_node(absorbed)


def _match_d_identity(d: dg.Diagram) -> list:
    return _sites(d, _check_d_identity,
                  ({"node": v} for v in sorted(d.nodes) if d.degree(v) == 2))


def _check_d_identity(d, site):
    v = site["node"]
    _require(_is_spider(d, v), "node must be a spider")
    _require(d.node(v).phase.is_zero, "phase must be zero")
    ins, outs = d.in_edges(v), d.out_edges(v)
    _require(len(ins) == 1 and len(outs) == 1 and ins[0] != outs[0],
             "need exactly one edge in and one out")
    return v, ins[0], outs[0]


def _apply_d_identity(b_, d, site):
    v, e_in, e_out = _check_d_identity(d, site)
    u = d.edges[e_in][0]
    w = d.edges[e_out][1]
    b_.remove_edges([e_in, e_out])
    b_.add_edge(u, w)
    b_.remove_node(v)


def _match_loop_remove(d: dg.Diagram) -> list:
    first_loop = {}
    for i, (s, t) in enumerate(d.edges):
        if s == t:
            first_loop.setdefault(s, i)
    return _sites(d, _check_loop_remove,
                  ({"node": v, "edge": e} for v, e in sorted(first_loop.items())))


def _check_loop_remove(d, site):
    v, e = site["node"], site["edge"]
    _require(_is_spider(d, v), "node must be a spider")
    _require(0 <= e < len(d.edges) and d.edges[e] == (v, v),
             "edge must be a self-loop on the node")
    return v, e


def _apply_loop_remove(b_, d, site):
    _v, e = _check_loop_remove(d, site)
    b_.remove_edges([e])


def _match_f2_cancel(d: dg.Diagram) -> list:
    pairs = sorted({(min(s, t), max(s, t)) for s, t in d.edges
                    if {d.node(s).kind, d.node(t).kind} <= dg.BOX_KINDS})
    return _sites(d, _check_f2_cancel, ({"boxes": [a, b]} for a, b in pairs))


def _check_f2_cancel(d, site):
    a, b = site["boxes"]
    _require(a in d and b in d and a != b, "boxes must be two distinct nodes")
    _require({d.node(a).kind, d.node(b).kind} == {dg.F, dg.FDAG},
             "need one F and one Fdag")
    conn = _joining(d, a, b)
    _require(len(conn) in (1, 2), "boxes must be adjacent")
    return a, b, conn


def _apply_f2_cancel(b_, d, site):
    a, b, conn = _check_f2_cancel(d, site)
    if len(conn) == 2:
        # A closed F/Fdag cycle traces to the scalar D.
        b_.remove_edges(conn)
        b_.remove_node(a)
        b_.remove_node(b)
        b_.scalar *= d.dimension
        return
    mid = conn[0]
    first, second = d.edges[mid]
    e_in = next(i for i in d.in_edges(first) if i != mid)
    e_out = next(i for i in d.out_edges(second) if i != mid)
    u = d.edges[e_in][0]
    w = d.edges[e_out][1]
    b_.remove_edges([e_in, mid, e_out])
    b_.add_edge(u, w)
    b_.remove_node(a)
    b_.remove_node(b)


def _f1_wanted_box(color: str, sign: int) -> str:
    if color == dg.Z:
        return dg.F if sign == 1 else dg.FDAG
    return dg.FDAG if sign == 1 else dg.F


def _match_f1_color(d: dg.Diagram) -> list:
    return _sites(d, _check_f1_color, ({"spider": v} for v in sorted(d.nodes)))


def _check_f1_color(d, site):
    v = site["spider"]
    _require(_is_spider(d, v), "node must be a spider")
    color = d.node(v).kind
    plan = []
    for e, sign in d.legs(v):
        s, t = d.edges[e]
        other = t if sign == 1 else s
        _require(other != v and other in d, "self-loops cannot carry boxes")
        _require(d.node(other).kind == _f1_wanted_box(color, sign),
                 f"leg {e} needs a {_f1_wanted_box(color, sign)} box")
        far = [i for i in d.incident(other) if i != e]
        _require(len(far) == 1, "box must have exactly one far edge")
        fs, ft = d.edges[far[0]]
        _require(v not in (fs, ft), "box wraps back onto the spider")
        plan.append((e, sign, other, far[0]))
    return v, color, plan


def _apply_f1_color(b_, d, site):
    v, color, plan = _check_f1_color(d, site)
    n = d.node(v)
    b_.nodes[v] = dg.Node(_opposite(color), phase=n.phase)
    doomed = []
    bridges = []
    for e, sign, box, far in plan:
        doomed += [e, far]
        fs, ft = d.edges[far]
        if sign == 1:
            bridges.append((v, ft))
        else:
            bridges.append((fs, v))
        b_.remove_node(box)
    b_.remove_edges(doomed)
    for s, t in bridges:
        b_.add_edge(s, t)


def _match_b_copy(d: dg.Diagram) -> list:
    found = sorted((s, v, e) for e, (s, v) in enumerate(d.edges)
                   if d.degree(s) == 1)
    return _sites(d, _check_b_copy,
                  ({"state": s, "spider": v, "edge": e} for s, v, e in found))


def _check_b_copy(d, site):
    s, v, e = site["state"], site["spider"], site["edge"]
    _require(_is_spider(d, s) and _is_spider(d, v), "need two spiders")
    _require(0 <= e < len(d.edges) and d.edges[e] == (s, v),
             "edge must run from the state into the spider")
    _require(d.degree(s) == 1, "state must have exactly one leg")
    _require(d.node(s).kind != d.node(v).kind, "colors must differ")
    _require(cyclic_value(d.node(s).phase) is not None,
             "state is not a classical point")
    _require(d.node(v).phase.is_zero, "spider must be phaseless")
    _require(not _self_loops(d, v), "spider must have no self-loops")
    return s, v, e


def _apply_b_copy(b_, d, site):
    s, v, e = _check_b_copy(d, site)
    state_color = d.node(s).kind
    ket_phase = d.node(s).phase
    bra_phase = phase_invert(ket_phase)
    other = [(i, sign) for i, sign in d.legs(v) if i != e]
    doomed = [e] + [i for i, _ in other]
    plans = []
    for i, sign in other:
        es, et = d.edges[i]
        plans.append((sign, es if sign == -1 else et))
    b_.remove_edges(doomed)
    b_.remove_node(s)
    b_.remove_node(v)
    for sign, w in plans:
        if sign == 1:
            c = b_.add_spider(state_color, ket_phase)
            b_.add_edge(c, w)
        else:
            c = b_.add_spider(state_color, bra_phase)
            b_.add_edge(w, c)
    r = len(plans)
    b_.scalar *= d.dimension ** (0.5 * (1 - r))


def _match_k2_commute(d: dg.Diagram) -> list:
    # The far end of leg (e, sign) of g is the edge's target when g is
    # its source (sign +1), else its source.
    found = sorted((g, d.edges[e][sign == 1], e) for g in d.nodes
                   if d.degree(g) == 2 for e, sign in d.legs(g))
    return _sites(d, _check_k2_commute,
                  ({"gate": g, "spider": v, "edge": e} for g, v, e in found))


def _check_k2_commute(d, site):
    g, v, e = site["gate"], site["spider"], site["edge"]
    _require(_is_spider(d, g) and _is_spider(d, v), "need two spiders")
    k = cyclic_value(d.node(g).phase)
    _require(k is not None and k != 0, "gate is not a nontrivial classical gate")
    ins, outs = d.in_edges(g), d.out_edges(g)
    _require(len(ins) == 1 and len(outs) == 1 and ins[0] != outs[0],
             "gate must have one leg each way")
    _require(e in (ins[0], outs[0]), "edge does not touch the gate")
    s, t = d.edges[e]
    _require(v in (s, t) and g in (s, t) and v != g, "edge must join gate and spider")
    _require(d.node(v).kind != d.node(g).kind, "colors must differ")
    far = outs[0] if e == ins[0] else ins[0]
    fs, ft = d.edges[far]
    _require(v not in (fs, ft), "gate is doubly attached to the spider")
    _require(not _self_loops(d, v), "spider must have no self-loops")
    return g, v, e, far, k


def _apply_k2_commute(b_, d, site):
    g, v, e, far, k = _check_k2_commute(d, site)
    dim = d.dimension
    nv = d.node(v)
    src, _dst = d.edges[e]
    sign0 = 1 if src == v else -1  # +1: gate sits on an output leg of v.

    if nv.kind == dg.Z:
        kappa = k if sign0 == 1 else (dim - k) % dim
    else:
        kappa = k if sign0 == -1 else (dim - k) % dim

    b_.nodes[v] = dg.Node(nv.kind, phase=phase_neg_transform(nv.phase, kappa))
    b_.scalar *= complex(math.cos(nv.phase.alpha(kappa).radians),
                         math.sin(nv.phase.alpha(kappa).radians))

    gate_color = d.node(g).kind
    other = [(i, sign) for i, sign in d.legs(v) if i != e]
    doomed = [e, far] + [i for i, _ in other]
    fs, ft = d.edges[far]
    w = ft if sign0 == 1 else fs
    plans = []
    for i, sign in other:
        es, et = d.edges[i]
        plans.append((sign, es if sign == -1 else et,
                      (dim - k) % dim if sign == sign0 else k))
    b_.remove_edges(doomed)
    b_.remove_node(g)
    if sign0 == 1:
        b_.add_edge(v, w)
    else:
        b_.add_edge(w, v)
    for sign, far_node, param in plans:
        c = b_.add_spider(gate_color, cyclic_vector(dim, param))
        if sign == 1:
            b_.add_edge(v, c)
            b_.add_edge(c, far_node)
        else:
            b_.add_edge(far_node, c)
            b_.add_edge(c, v)


def _match_b_bialgebra(d: dg.Diagram) -> list:
    def targets(v):
        return {d.edges[i][1] for i in d.out_edges(v)}

    # The far side of a square is two common targets of the near side.
    cubic = [v for v in sorted(d.nodes) if d.degree(v) == 3]
    return _sites(d, _check_b_bialgebra, (
        {"first": [a, b], "second": [q1, q2], "color": d.node(a).kind}
        for a, b in itertools.combinations(cubic, 2)
        for q1, q2 in itertools.combinations(sorted(targets(a) & targets(b)),
                                             2)))


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


def _apply_b_bialgebra(b_, d, site):
    p1, p2, q1, q2, pc, qc, square, ext = _check_b_bialgebra(d, site)
    doomed = list(square.values()) + [ext[v][0] for v in (p1, p2, q1, q2)]
    plans = []
    for v in (p1, p2, q1, q2):
        e, sign = ext[v]
        es, et = d.edges[e]
        plans.append((v, sign, es if sign == -1 else et))
    b_.remove_edges(doomed)
    for v in (p1, p2, q1, q2):
        b_.remove_node(v)
    merge = b_.add_spider(qc)
    split = b_.add_spider(pc)
    b_.add_edge(merge, split)
    for v, sign, w in plans:
        target = merge if v in (p1, p2) else split
        if sign == 1:
            b_.add_edge(target, w)
        else:
            b_.add_edge(w, target)
    b_.scalar *= d.dimension ** -0.5


_MATCHERS = {
    "S_fuse": _match_s_fuse,
    "D_identity": _match_d_identity,
    "B_copy": _match_b_copy,
    "B_bialgebra": _match_b_bialgebra,
    "K2_commute": _match_k2_commute,
    "F1_color": _match_f1_color,
    "F2_cancel": _match_f2_cancel,
    "loop_remove": _match_loop_remove,
}

_APPLIERS = {
    "S_fuse": _apply_s_fuse,
    "D_identity": _apply_d_identity,
    "B_copy": _apply_b_copy,
    "B_bialgebra": _apply_b_bialgebra,
    "K2_commute": _apply_k2_commute,
    "F1_color": _apply_f1_color,
    "F2_cancel": _apply_f2_cancel,
    "loop_remove": _apply_loop_remove,
}


def find_matches(d: dg.Diagram, rule: str) -> list:
    if rule not in _MATCHERS:
        raise ValueError(f"unknown rule {rule!r}; choose from {ALL_RULES}")
    return _MATCHERS[rule](d)


def apply_rule(d: dg.Diagram, rule: str, site: dict) -> dg.Diagram:
    if rule not in _APPLIERS:
        raise ValueError(f"unknown rule {rule!r}; choose from {ALL_RULES}")
    return _rewrite(d, rule, site)


def _rewrite(d: dg.Diagram, rule: str, site: dict) -> dg.Diagram:
    b_ = dg.DiagramBuilder.from_diagram(d)
    _APPLIERS[rule](b_, d, site)
    return b_.finish()


def _node_changes(before: dg.Diagram, after: dg.Diagram) -> tuple:
    """(removed, added): the sorted ids of the nodes a step deletes and
    creates. Fresh ids exceed every id of ``before``, so no id is both."""
    return (sorted(before.nodes.keys() - after.nodes.keys()),
            sorted(after.nodes.keys() - before.nodes.keys()))


# ---------------------------------------------------------------------------
# Traces and simplification

def diagram_hash(d: dg.Diagram) -> str:
    return hashlib.sha256(dg.to_json(d).encode()).hexdigest()


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
        steps = []
        for i, s in enumerate(obj["steps"]):
            if not isinstance(s, dict) or "rule" not in s or "site" not in s:
                raise ValueError(f"trace step {i} needs a 'rule' and a 'site'")
            if "removed" not in s or "added" not in s:
                raise ValueError(f"trace step {i} needs 'removed' and 'added'")
            steps.append(TraceStep(s["rule"], s["site"], s["removed"],
                                   s["added"]))
        return cls(obj["initialHash"], obj["finalHash"], steps)


# simplify applies only steps that strictly reduce the edge count, which
# is the termination measure.
_SIMPLIFY_ORDER = ("loop_remove", "F2_cancel", "S_fuse", "D_identity",
                   "B_copy")


def simplify(d: dg.Diagram) -> tuple:
    """Fixpoint of the shrinking rules; returns (diagram, trace).

    Deterministic: at each step the first rule in the fixed order with a
    match fires at its first site.
    """
    trace = RewriteTrace(diagram_hash(d), "")
    current = d
    while True:
        fired = False
        for rule in _SIMPLIFY_ORDER:
            sites = find_matches(current, rule)
            if not sites:
                continue
            site = sites[0]
            try:
                nxt = _rewrite(current, rule, site)
            except ValueError as exc:
                raise AssertionError(
                    f"{rule} failed at its own match {site}: {exc}") from exc
            if len(nxt.edges) >= len(current.edges):
                raise AssertionError(
                    f"{rule} did not shrink the diagram; simplify would loop")
            trace.steps.append(TraceStep(rule, site,
                                         *_node_changes(current, nxt)))
            current = nxt
            fired = True
            break
        if not fired:
            break
    trace.final_hash = diagram_hash(current)
    return current, trace


def replay(d: dg.Diagram, trace: RewriteTrace) -> dg.Diagram:
    """Re-run a trace, verifying both endpoint hashes and, at each step,
    the ids of the nodes it removes and adds (in any order)."""
    if diagram_hash(d) != trace.initial_hash:
        raise ValueError("trace does not start at this diagram")
    current = d
    for i, step in enumerate(trace.steps):
        try:
            nxt = apply_rule(current, step.rule, step.site)
        except (ValueError, KeyError, TypeError) as exc:
            # A site that lacks a key or has the wrong type is as malformed
            # as one the rule's check refuses.
            reason = (f"site has no key {exc}" if isinstance(exc, KeyError)
                      else exc)
            raise RuleMatchError(
                f"replay step {i} ({step.rule}): {reason}") from exc
        removed, added = _node_changes(current, nxt)
        if (removed, added) != (sorted(step.removed), sorted(step.added)):
            raise RuleMatchError(
                f"replay step {i} ({step.rule}): removes {removed} and adds "
                f"{added}, the trace says {step.removed} and {step.added}")
        current = nxt
    if diagram_hash(current) != trace.final_hash:
        raise ValueError("replay diverged from the recorded final hash")
    return current


# ---------------------------------------------------------------------------
# Randomized soundness checking

def _random_phase(dim: int, rng: random.Random,
                  exact_only: bool = False) -> PhaseVector:
    if exact_only or rng.random() < 0.7:
        return PhaseVector(
            dim, [Turn.exact(rng.randrange(dim), dim) for _ in range(dim - 1)])
    return PhaseVector.from_radians(
        dim, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim - 1)])


class _Ctx:
    """Tracks boundary positions while building a random instance."""

    def __init__(self, b_: dg.DiagramBuilder):
        self.b = b_
        self.n_in = 0
        self.n_out = 0

    def attach(self, v: int, sign: int):
        """Give v one external leg: sign +1 adds an output beyond v."""
        if sign == 1:
            o = self.b.add_output(self.n_out)
            self.n_out += 1
            self.b.add_edge(v, o)
        else:
            i = self.b.add_input(self.n_in)
            self.n_in += 1
            self.b.add_edge(i, v)

    def attach_random(self, v: int, count: int, rng: random.Random):
        for _ in range(count):
            self.attach(v, rng.choice((1, -1)))


def random_rule_instance(rule: str, dim: int, rng: random.Random) -> tuple:
    """A small random diagram containing one match of the rule, plus the
    site. Arities stay at most 4; phases mix exact multiples of 1/D with
    occasional irrational angles where the rule allows them."""
    b_ = dg.DiagramBuilder(dim)
    ctx = _Ctx(b_)

    if rule == "S_fuse":
        color = rng.choice((dg.Z, dg.X))
        a = b_.add_spider(color, _random_phase(dim, rng))
        c = b_.add_spider(color, _random_phase(dim, rng))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                b_.add_edge(a, c)
            else:
                b_.add_edge(c, a)
        ctx.attach_random(a, rng.randint(0, 3), rng)
        ctx.attach_random(c, rng.randint(0, 3), rng)
        site = {"keep": min(a, c), "absorb": max(a, c), "color": color}
        return b_.finish(), site

    if rule == "D_identity":
        color = rng.choice((dg.Z, dg.X))
        v = b_.add_spider(color, PhaseVector.zero(dim))
        ctx.attach(v, -1)
        ctx.attach(v, 1)
        return b_.finish(), {"node": v}

    if rule == "loop_remove":
        color = rng.choice((dg.Z, dg.X))
        v = b_.add_spider(color, _random_phase(dim, rng))
        e = b_.add_edge(v, v)
        ctx.attach_random(v, rng.randint(0, 3), rng)
        return b_.finish(), {"node": v, "edge": e}

    if rule == "F2_cancel":
        kinds = rng.choice(((dg.F, dg.FDAG), (dg.FDAG, dg.F)))
        b1 = b_.add_box(kinds[0])
        b2 = b_.add_box(kinds[1])
        if rng.random() < 0.25:
            b_.add_edge(b1, b2)
            b_.add_edge(b2, b1)
        else:
            b_.add_edge(b1, b2)
            ctx.attach(b1, -1)
            ctx.attach(b2, 1)
        return b_.finish(), {"boxes": sorted((b1, b2))}

    if rule == "F1_color":
        color = rng.choice((dg.Z, dg.X))
        v = b_.add_spider(color, _random_phase(dim, rng))
        for _ in range(rng.randint(0, 4)):
            sign = rng.choice((1, -1))
            box = b_.add_box(_f1_wanted_box(color, sign))
            if sign == 1:
                b_.add_edge(v, box)
                ctx.attach(box, 1)
            else:
                b_.add_edge(box, v)
                ctx.attach(box, -1)
        return b_.finish(), {"spider": v}

    if rule == "B_copy":
        color = rng.choice((dg.Z, dg.X))
        s = b_.add_spider(color, cyclic_vector(dim, rng.randrange(dim)))
        v = b_.add_spider(_opposite(color), PhaseVector.zero(dim))
        e = b_.add_edge(s, v)
        ctx.attach_random(v, rng.randint(0, 3), rng)
        return b_.finish(), {"state": s, "spider": v, "edge": e}

    if rule == "K2_commute":
        gate_color = rng.choice((dg.Z, dg.X))
        k = rng.randrange(1, dim)
        g = b_.add_spider(gate_color, cyclic_vector(dim, k))
        v = b_.add_spider(_opposite(gate_color), _random_phase(dim, rng))
        if rng.random() < 0.5:
            e = b_.add_edge(v, g)
            ctx.attach(g, 1)
        else:
            e = b_.add_edge(g, v)
            ctx.attach(g, -1)
        ctx.attach_random(v, rng.randint(0, 3), rng)
        return b_.finish(), {"gate": g, "spider": v, "edge": e}

    if rule == "B_bialgebra":
        pc = rng.choice((dg.Z, dg.X))
        qc = _opposite(pc)
        p1 = b_.add_spider(pc)
        p2 = b_.add_spider(pc)
        q1 = b_.add_spider(qc)
        q2 = b_.add_spider(qc)
        for p in (p1, p2):
            for q in (q1, q2):
                b_.add_edge(p, q)
        sigma = rng.choice((1, -1))
        for p in (p1, p2):
            ctx.attach(p, sigma)
        for q in (q1, q2):
            ctx.attach(q, -sigma)
        return b_.finish(), {"first": [p1, p2], "second": [q1, q2],
                             "color": pc}

    raise ValueError(f"unknown rule {rule!r}; choose from {ALL_RULES}")


def soundness_report(rule: str, dim: int, trials: int = 50,
                     seed: int = 0, tol: float = 1e-9) -> dict:
    """Random instantiations of one rule: evaluate before and after; a
    trial passes when the matrices agree entrywise and the scalar between
    them is 1 (rules carry their own scalars)."""
    from .semantics import compare_scalar_exact, evaluate

    rng = random.Random(f"{rule}:{dim}:{seed}")
    t0 = time.perf_counter()
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
        "elapsed": time.perf_counter() - t0,
    }
