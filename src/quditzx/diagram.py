"""Open-graph representation of qudit ZX diagrams.

A diagram is a directed multigraph with a global complex scalar. Nodes
are Z spiders, X spiders, Fourier boxes (F and its adjoint), and
boundary markers (inputs and outputs). Edges are ordered pairs
(source, target): the source end is an output leg of its node, the
target end is an input leg. Spiders may have any number of legs in
either direction, including self-loops; boxes have exactly one leg each
way; boundaries have exactly one leg, oriented into the graph for
inputs and out of the graph for outputs.

Edge direction matters only where the Fourier-basis structure is
orientation sensitive (X spiders, boxes). Z spiders and the matrix
semantics of wires are direction blind, so reversing an edge between
two Z spiders never changes the semantics; reversing an edge incident
to an X spider generally does.
"""

from __future__ import annotations

import bisect
import cmath
import json
import operator
import types
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .phases import (PhaseVector, Turn, is_json_number, json_field, json_int,
                     json_list, json_turn)

Z = "Z"
X = "X"
F = "F"
FDAG = "Fdag"
IN = "in"
OUT = "out"

SPIDER_KINDS = frozenset({Z, X})
BOX_KINDS = frozenset({F, FDAG})
BOUNDARY_KINDS = frozenset({IN, OUT})
NODE_KINDS = SPIDER_KINDS | BOX_KINDS | BOUNDARY_KINDS


class InvalidDiagramError(ValueError):
    """Raised by validate(), so by Diagram(); one code per violation."""

    def __init__(self, violations: Sequence[tuple]):
        self.violations = tuple(violations)
        super().__init__("invalid diagram: " + "; ".join(
            f"{code}: {msg}" for code, msg in self.violations))


# Violation codes.
DANGLING_EDGE = "DanglingEdge"
BAD_BOUNDARY_DEGREE = "BadBoundaryDegree"
BAD_BOX_DEGREE = "BadBoxDegree"
PHASE_LENGTH_MISMATCH = "PhaseLengthMismatch"
NON_CONTIGUOUS_BOUNDARY = "NonContiguousBoundary"
NON_FINITE_SCALAR = "NonFiniteScalar"


class Node:
    """One vertex: a spider (kind Z/X, with phase), box, or boundary marker.

    Read-only once built, so a Diagram's cached JSON cannot go stale."""

    __slots__ = ("kind", "phase", "position")

    def __init__(self, kind: str, phase: PhaseVector | None = None,
                 position: int | None = None):
        if kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {kind!r}")
        if kind in SPIDER_KINDS and phase is None:
            raise ValueError(f"{kind} spider needs a phase vector")
        if kind not in SPIDER_KINDS and phase is not None:
            raise ValueError(f"{kind} node cannot carry a phase")
        if kind in BOUNDARY_KINDS and position is None:
            raise ValueError(f"{kind} boundary needs a position")
        if kind not in BOUNDARY_KINDS and position is not None:
            raise ValueError(f"{kind} node cannot carry a position")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "position", position)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Node is read-only; cannot set {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (self.kind == other.kind and self.phase == other.phase
                and self.position == other.position)

    def __repr__(self) -> str:
        bits = [repr(self.kind)]
        if self.phase is not None:
            bits.append(repr(self.phase))
        if self.position is not None:
            bits.append(f"position={self.position}")
        return f"Node({', '.join(bits)})"


class _Incidence:
    """Queries over legs(v), shared by Diagram and DiagramBuilder."""

    __slots__ = ()

    def degree(self, v: int) -> int:
        """Number of legs at v; a self-loop contributes two."""
        return len(self.legs(v))

    def out_edges(self, v: int) -> list:
        """Ids of edges with source v (v's output legs)."""
        return [i for i, sign in self.legs(v) if sign == 1]

    def in_edges(self, v: int) -> list:
        """Ids of edges with target v (v's input legs)."""
        return [i for i, sign in self.legs(v) if sign == -1]

    def incident(self, v: int) -> list:
        return list(dict.fromkeys(i for i, _ in self.legs(v)))

    def far_end(self, e: int, sign: int) -> int:
        """The other end of a leg (e, sign): edge e's target when the leg
        is an output (sign +1), its source when it is an input."""
        return self.edges[e][sign == 1]

    def neighbors(self, v: int) -> set:
        return {self.far_end(i, sign) for i, sign in self.legs(v)}


class Diagram(_Incidence):
    """Valid and read-only once built; use DiagramBuilder to construct.

    The constructor runs validate(), so nothing downstream checks again.
    to_json() stores the canonical JSON in _json on its first call, and
    rewrite.diagram_hash its sha256 in _hash."""

    __slots__ = ("_dimension", "_scalar", "_nodes", "_edges", "_legs",
                 "_json", "_hash")

    def __init__(self, dimension: int, nodes: Mapping[int, Node],
                 edges: Iterable[tuple], scalar: complex = 1.0):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self._dimension = int(dimension)
        self._scalar = complex(scalar)
        self._nodes = dict(nodes)
        pairs, legs = [], {}
        for i, (s, t) in enumerate(edges):
            if type(s) is not int or type(t) is not int:
                s, t = _endpoints(i, s, t)
            pairs.append((s, t))
            legs.setdefault(s, []).append((i, 1))
            legs.setdefault(t, []).append((i, -1))
        self._edges = tuple(pairs)
        self._legs = {v: tuple(vl) for v, vl in legs.items()}
        validate(self)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def scalar(self) -> complex:
        return self._scalar

    @property
    def nodes(self) -> Mapping[int, Node]:
        return types.MappingProxyType(self._nodes)

    @property
    def edges(self) -> tuple:
        return self._edges

    def node(self, v: int) -> Node:
        return self._nodes[v]

    def __contains__(self, v: int) -> bool:
        return v in self._nodes

    def legs(self, v: int) -> tuple:
        """(edge_index, sign) for each leg of v, in edge order.

        sign is +1 when v is the edge's source (an output leg of v) and -1
        when v is its target; a self-loop gives (i, +1) then (i, -1). This
        order fixes the axis order of node tensors and the ids of nodes
        that rewrites add, so it is part of the trace format.
        """
        return self._legs.get(v, ())

    def boundary_ids(self, kind: str) -> list:
        """Boundary node ids of the given kind, sorted by position."""
        found = [(n.position, v) for v, n in self._nodes.items() if n.kind == kind]
        return [v for _, v in sorted(found)]

    @property
    def n_inputs(self) -> int:
        return sum(1 for n in self._nodes.values() if n.kind == IN)

    @property
    def n_outputs(self) -> int:
        return sum(1 for n in self._nodes.values() if n.kind == OUT)

    def __repr__(self) -> str:
        return (f"<Diagram dim={self.dimension} nodes={len(self._nodes)} "
                f"edges={len(self._edges)} {self.n_inputs}->{self.n_outputs}>")


def _endpoints(i: int, s, t) -> tuple:
    """Edge i's endpoints as ints: an integer of another type, such as a
    numpy int, is taken, and a float, str or bool is refused in one line
    rather than truncated."""
    try:
        if not isinstance(s, bool) and not isinstance(t, bool):
            return operator.index(s), operator.index(t)
    except TypeError:
        pass
    raise ValueError(f"edge {i} endpoints must be integers, got ({s!r}, "
                     f"{t!r})")


def validate(d: Diagram) -> Diagram:
    """Check structural invariants; raise InvalidDiagramError listing them all."""
    nodes, legs = d._nodes, d._legs
    if not legs.keys() <= nodes.keys():
        # Degree computations below would be meaningless.
        raise InvalidDiagramError([
            (DANGLING_EDGE, f"edge {i} endpoint {v} is not a node")
            for i, edge in enumerate(d.edges) for v in edge if v not in nodes])

    bad = []
    if not cmath.isfinite(d.scalar):
        bad.append((NON_FINITE_SCALAR,
                    f"scalar must be finite, got {d.scalar!r}"))
    positions = {IN: [], OUT: []}
    for v in sorted(nodes):
        n = nodes[v]
        if n.kind in SPIDER_KINDS:
            if n.phase is None or n.phase.dim != d.dimension:
                have = "none" if n.phase is None else f"dim {n.phase.dim}"
                bad.append((PHASE_LENGTH_MISMATCH,
                            f"spider {v} needs a phase vector of dimension "
                            f"{d.dimension}, has {have}"))
            continue
        signs = [sign for _, sign in legs.get(v, ())]
        n_out, n_in = signs.count(1), signs.count(-1)
        if n.kind == IN:
            positions[IN].append(n.position)
            if n_out != 1 or n_in != 0:
                bad.append((BAD_BOUNDARY_DEGREE,
                            f"input {v} must be the source of exactly one edge "
                            f"(has {n_out} out, {n_in} in)"))
        elif n.kind == OUT:
            positions[OUT].append(n.position)
            if n_in != 1 or n_out != 0:
                bad.append((BAD_BOUNDARY_DEGREE,
                            f"output {v} must be the target of exactly one edge "
                            f"(has {n_out} out, {n_in} in)"))
        elif n_in != 1 or n_out != 1:
            bad.append((BAD_BOX_DEGREE,
                        f"box {v} needs exactly one incoming and one outgoing "
                        f"edge (has {n_in} in, {n_out} out)"))

    for kind in (IN, OUT):
        got = sorted(positions[kind])
        if got != list(range(len(got))):
            bad.append((NON_CONTIGUOUS_BOUNDARY,
                        f"{kind} positions must be 0..{len(got) - 1}, "
                        f"got {got}"))

    if bad:
        raise InvalidDiagramError(bad)
    return d


class DiagramBuilder(_Incidence):
    """The one mutable diagram: a construction buffer, and the graph that
    rewrite rules edit in place. finish() validates it into a Diagram.

    Node ids are allocated consecutively from max(existing)+1, which keeps
    rewrite traces replayable: the same sequence of operations on the same
    diagram always produces the same ids.

    Each edge has a serial that is never changed or reused. ``edges`` maps
    serial -> (source, target) in serial order, which is the edge order
    finish() writes, so an edge's position in the finished diagram is the
    rank of its serial among the live ones (rank, edge_at). legs(v) lists
    (serial, sign) in that order, as Diagram.legs does.

    Since the last start_step(), the builder logs the nodes it removed and
    added, the nodes whose record it replaced or that lost a leg, and the
    edges it added or re-anchored (whose ends gained one).
    """

    def __init__(self, dimension: int, scalar: complex = 1.0):
        self.dimension = dimension
        self.scalar = complex(scalar)
        self.nodes: dict = {}
        self.edges: dict = {}
        self._live: list = []       # the live serials, ascending
        self._legs = defaultdict(list)  # node -> [(serial, sign)], by serial
        self._next_id = 0
        self._next_edge = 0
        self.start_step()

    @classmethod
    def from_diagram(cls, d: Diagram) -> "DiagramBuilder":
        b = cls(d.dimension, d.scalar)
        b.nodes = dict(d.nodes)
        b.edges = dict(enumerate(d.edges))
        b._live = list(range(len(d.edges)))
        b._legs.update((v, list(legs)) for v, legs in d._legs.items())
        b._next_id = max(b.nodes, default=-1) + 1
        b._next_edge = len(d.edges)
        return b

    def start_step(self) -> None:
        """Clear the change log, and restart fresh ids at max(live ids)+1
        as from_diagram does, so a removed top id is used again."""
        self.removed_nodes, self.added_nodes = [], []
        self.touched_nodes, self.touched_edges = set(), set()
        while self._next_id and self._next_id - 1 not in self.nodes:
            self._next_id -= 1

    def node_changes(self) -> tuple:
        """(removed, added): the sorted ids of the nodes deleted and
        created since start_step(). Fresh ids exceed every id live at
        start_step(), so no id is both."""
        return sorted(self.removed_nodes), sorted(self.added_nodes)

    def node(self, v: int) -> Node:
        return self.nodes[v]

    def __contains__(self, v: int) -> bool:
        return v in self.nodes

    def legs(self, v: int) -> list:
        """(serial, sign) for each leg of v, ordered as Diagram.legs. The
        list is the builder's own: copy it before editing v's edges."""
        return self._legs.get(v, ())

    def rank(self, e: int) -> int:
        """Position of live edge e in finish()'s edge list."""
        return bisect.bisect_left(self._live, e)

    def edge_at(self, position) -> int | None:
        """Serial of the edge at this position of finish()'s edge list, or
        None when there is no such position."""
        if isinstance(position, int) and 0 <= position < len(self._live):
            return self._live[position]
        return None

    def fresh_id(self) -> int:
        v = self._next_id
        self._next_id += 1
        return v

    def add_node(self, node: Node) -> int:
        v = self.fresh_id()
        self.nodes[v] = node
        self.added_nodes.append(v)
        return v

    def add_spider(self, kind: str, phase: PhaseVector | None = None) -> int:
        if phase is None:
            phase = PhaseVector.zero(self.dimension)
        return self.add_node(Node(kind, phase=phase))

    def add_box(self, kind: str) -> int:
        return self.add_node(Node(kind))

    def add_input(self, position: int) -> int:
        return self.add_node(Node(IN, position=position))

    def add_output(self, position: int) -> int:
        return self.add_node(Node(OUT, position=position))

    def set_node(self, v: int, node: Node) -> None:
        self.nodes[v] = node
        self.touched_nodes.add(v)

    def remove_node(self, v: int) -> None:
        """Delete v; its edges are removed or moved separately."""
        del self.nodes[v]
        self.removed_nodes.append(v)

    def add_edge(self, source: int, target: int) -> int:
        """Returns the new edge's serial: its position in finish()'s edge
        list while no edge has been removed."""
        e = self._next_edge
        self._next_edge += 1
        self.edges[e] = (source, target)
        self._live.append(e)
        # The largest serial, so its legs go last: (e, +1) then (e, -1).
        self._legs[source].append((e, 1))
        self._legs[target].append((e, -1))
        self.touched_edges.add(e)
        return e

    def add_leg(self, v: int, w: int, sign: int) -> int:
        """Give v a new leg to w: the edge v -> w for an output leg (sign
        +1), w -> v for an input leg. Returns its serial, as add_edge."""
        return self.add_edge(v, w) if sign == 1 else self.add_edge(w, v)

    def move_edge(self, e: int, source: int, target: int) -> None:
        """Re-anchor edge e; it keeps its serial, so its position."""
        self._unlink(e)
        self.edges[e] = (source, target)
        for v, legs in (((source, [(e, 1), (e, -1)]),) if source == target
                        else ((source, [(e, 1)]), (target, [(e, -1)]))):
            vl = self._legs[v]
            i = bisect.bisect_left(vl, (e, -2))
            vl[i:i] = legs
        self.touched_edges.add(e)

    def remove_edges(self, serials: Iterable[int]) -> None:
        for e in set(serials):
            self._unlink(e)
            del self.edges[e]
            del self._live[bisect.bisect_left(self._live, e)]

    def _unlink(self, e: int) -> None:
        # (e, -2) sorts before every leg of edge e and after every leg of
        # an edge with a smaller serial; a self-loop has two adjacent legs.
        s, t = self.edges[e]
        for v in (s,) if s == t else (s, t):
            vl = self._legs[v]
            i = bisect.bisect_left(vl, (e, -2))
            del vl[i:i + 2 if s == t else i + 1]
        self.touched_nodes.update((s, t))

    def finish(self) -> Diagram:
        return Diagram(self.dimension, self.nodes, self.edges.values(),
                       self.scalar)


# ---------------------------------------------------------------------------
# Composition

def compose(d1: Diagram, d2: Diagram, mode: str) -> Diagram:
    """Combine two diagrams.

    "parallel" stacks them (d1's boundaries first); "sequential" plugs
    d1's outputs into d2's inputs position by position, so evaluating the
    result gives matrix(d2) @ matrix(d1).
    """
    if d1.dimension != d2.dimension:
        raise ValueError(f"dimension mismatch: {d1.dimension} vs {d2.dimension}")
    if mode == "parallel":
        return _compose_parallel(d1, d2)
    if mode == "sequential":
        return _compose_sequential(d1, d2)
    raise ValueError(f"mode must be 'sequential' or 'parallel', got {mode!r}")


def _shift(d2: Diagram, offset: int, in_off: int, out_off: int):
    nodes = {}
    for v, n in d2.nodes.items():
        if n.kind == IN:
            n = Node(IN, position=n.position + in_off)
        elif n.kind == OUT:
            n = Node(OUT, position=n.position + out_off)
        nodes[v + offset] = n
    edges = [(s + offset, t + offset) for s, t in d2.edges]
    return nodes, edges


def _compose_parallel(d1: Diagram, d2: Diagram) -> Diagram:
    offset = max(d1.nodes, default=-1) + 1
    nodes2, edges2 = _shift(d2, offset, d1.n_inputs, d1.n_outputs)
    nodes = dict(d1.nodes)
    nodes.update(nodes2)
    return Diagram(d1.dimension, nodes, list(d1.edges) + edges2,
                   d1.scalar * d2.scalar)


def _compose_sequential(d1: Diagram, d2: Diagram) -> Diagram:
    if d1.n_outputs != d2.n_inputs:
        raise ValueError(
            f"cannot plug {d1.n_outputs} outputs into {d2.n_inputs} inputs")
    offset = max(d1.nodes, default=-1) + 1
    nodes2, edges2 = _shift(d2, offset, 0, 0)
    nodes = dict(d1.nodes)
    nodes.update(nodes2)

    # Each glue pair (d1 output, d2 input) has one edge on either side;
    # drop both and bridge their far ends, in wire order.
    glue1, glue2, bridges = set(), set(), []
    for b_out, b_in in zip(d1.boundary_ids(OUT), d2.boundary_ids(IN)):
        e1, e2 = d1.in_edges(b_out)[0], d2.out_edges(b_in)[0]
        glue1.add(e1)
        glue2.add(e2)
        bridges.append((d1.edges[e1][0], edges2[e2][1]))
        del nodes[b_out]
        del nodes[b_in + offset]
    edges = ([e for i, e in enumerate(d1.edges) if i not in glue1]
             + [e for i, e in enumerate(edges2) if i not in glue2] + bridges)
    return Diagram(d1.dimension, nodes, edges, d1.scalar * d2.scalar)


# ---------------------------------------------------------------------------
# JSON serialization

def to_json_dict(d: Diagram) -> dict:
    nodes = []
    for v in sorted(d.nodes):
        n = d.node(v)
        rec = {"id": v, "kind": n.kind}
        if n.kind in SPIDER_KINDS:
            rec["phase"] = n.phase.to_json()
        elif n.kind in BOUNDARY_KINDS:
            rec["position"] = n.position
        else:
            ins = d.in_edges(v)
            outs = d.out_edges(v)
            if len(ins) == 1:
                rec["inPort"] = ins[0]
            if len(outs) == 1:
                rec["outPort"] = outs[0]
        nodes.append(rec)
    return {
        "dimension": d.dimension,
        "scalar": [d.scalar.real, d.scalar.imag],
        "nodes": nodes,
        "edges": [[s, t] for s, t in d.edges],
    }


def from_json_dict(obj: dict) -> Diagram:
    """The Diagram of a JSON object, each field list checked in one pass.

    A field is checked inline by its exact JSON type (a bool is not an
    int); when that fails, the json_* helper that checks it builds the
    refusal. Each phase is checked, and each distinct one built once: one
    Turn per distinct entry, one PhaseVector, and one Node per kind, as
    is one Node per box kind. The memos key only on checked values, and
    Nodes are read-only, so sharing them is safe."""
    try:
        dim = json_int(json_field(obj, "dimension", "diagram JSON"),
                       "dimension")
        sc = obj.get("scalar", [1.0, 0.0])
        if not (isinstance(sc, list) and len(sc) == 2
                and all(map(is_json_number, sc))):
            raise ValueError(f"scalar must be two finite numbers, got {sc!r}")
        nodes = {}
        shared = {}   # (kind, phase key) -> Node; kind -> Node for a box
        vectors = {}  # phase key: its entries' keys -> PhaseVector
        turns = {}    # entry key, as json_turn gives it -> Turn
        records = json_list(json_field(obj, "nodes", "diagram JSON"),
                             "nodes")
        for i, rec in enumerate(records):
            v = rec.get("id") if type(rec) is dict else None
            if type(v) is not int:
                v = json_int(json_field(rec, "id", f"node record {i}"),
                             "node id")
            if v in nodes:
                raise ValueError(f"duplicate node id {v}")
            kind = rec.get("kind")
            if type(kind) is not str or kind not in NODE_KINDS:
                kind = json_field(rec, "kind", f"node {v}")
                if not (isinstance(kind, str) and kind in NODE_KINDS):
                    raise ValueError(f"node {v} has an unknown kind {kind!r}")
            if kind in SPIDER_KINDS:
                entries = rec.get("phase")
                if type(entries) is not list:
                    entries = json_list(json_field(rec, "phase", f"node {v}"),
                                        f"node {v} phase")
                phase = []
                for j, t in enumerate(entries):
                    pair = t.get("exact") if type(t) is dict else None
                    if (type(pair) is list and len(pair) == 2
                            and type(pair[0]) is int and type(pair[1]) is int
                            and pair[1]):
                        phase.append((pair[0], pair[1]))
                    else:
                        phase.append(json_turn(t, f"node {v} phase entry {j}"))
                phase = tuple(phase)
                node = shared.get((kind, phase))
                if node is None:
                    if phase not in vectors:
                        for k in phase:
                            if k not in turns:
                                turns[k] = Turn.from_key(k)
                        vectors[phase] = PhaseVector(
                            dim, [turns[k] for k in phase])
                    node = shared[kind, phase] = Node(kind,
                                                      phase=vectors[phase])
                nodes[v] = node
            elif kind in BOUNDARY_KINDS:
                position = rec.get("position")
                if type(position) is not int:
                    position = json_int(
                        json_field(rec, "position", f"node {v}"),
                        f"node {v} position")
                nodes[v] = Node(kind, position=position)
            else:
                # inPort/outPort are redundant with the edge list; ignored.
                nodes[v] = shared.get(kind) or shared.setdefault(kind,
                                                                 Node(kind))
        pairs = json_list(json_field(obj, "edges", "diagram JSON"),
                          "edges")
        for i, e in enumerate(pairs):
            if not (type(e) is list and len(e) == 2 and type(e[0]) is int
                    and type(e[1]) is int):
                if not (isinstance(e, list) and len(e) == 2):
                    raise ValueError(f"edge {i} must be a [source, target] "
                                     f"pair, got {e!r}")
                json_int(e[0], f"edge {i} source")
                json_int(e[1], f"edge {i} target")
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    return Diagram(dim, nodes, pairs, complex(*sc))


def _canonical_json(d: Diagram) -> str:
    """The text json.dumps(to_json_dict(d), sort_keys=True,
    separators=(",", ":")) gives, written directly: every object's keys in
    sorted order, and each distinct phase's text built once per call."""
    texts = {}  # id(PhaseVector) -> its text; d keeps each one alive
    recs = []
    for v in sorted(d._nodes):
        n = d._nodes[v]
        if n.phase is not None:
            text = texts.get(id(n.phase))
            if text is None:
                text = texts[id(n.phase)] = n.phase.json_text()
            recs.append(f'{{"id":{v},"kind":"{n.kind}","phase":{text}}}')
        elif n.position is not None:
            recs.append(f'{{"id":{v},"kind":"{n.kind}",'
                        f'"position":{n.position}}}')
        else:
            legs = d.legs(v)
            ins = [e for e, sign in legs if sign == -1]
            outs = [e for e, sign in legs if sign == 1]
            recs.append(f'{{"id":{v}'
                        + (f',"inPort":{ins[0]}' if len(ins) == 1 else "")
                        + f',"kind":"{n.kind}"'
                        + (f',"outPort":{outs[0]}' if len(outs) == 1 else "")
                        + "}")
    edges = ",".join([f"[{s},{t}]" for s, t in d._edges])
    return (f'{{"dimension":{d._dimension},"edges":[{edges}],'
            f'"nodes":[{",".join(recs)}],'
            f'"scalar":[{d._scalar.real!r},{d._scalar.imag!r}]}}')


def to_json(d: Diagram) -> str:
    """The canonical JSON text, built on the first call and kept on d: a
    Diagram and its Nodes are read-only, so the text cannot go stale."""
    try:
        return d._json
    except AttributeError:
        d._json = _canonical_json(d)
        return d._json


def from_json(text: str) -> Diagram:
    return from_json_dict(json.loads(text))


def export_dot(d: Diagram) -> str:
    """GraphViz rendering; spiders colored, boxes squared, boundaries plain."""
    style = {
        Z: 'shape=circle style=filled fillcolor="#66bb66"',
        X: 'shape=circle style=filled fillcolor="#dd6666"',
        F: 'shape=box style=filled fillcolor="#eeee88"',
        FDAG: 'shape=box style=filled fillcolor="#eeee88"',
        IN: "shape=plaintext",
        OUT: "shape=plaintext",
    }
    lines = ["digraph zx {", "  rankdir=LR;"]
    for v in sorted(d.nodes):
        n = d.node(v)
        if n.kind in SPIDER_KINDS:
            phases = ",".join(str(t) for t in n.phase)
            label = f"{n.kind}({phases})" if not n.phase.is_zero else n.kind
        elif n.kind == F:
            label = "F"
        elif n.kind == FDAG:
            label = "F+"
        else:
            label = f"{n.kind}{n.position}"
        lines.append(f'  n{v} [label="{label}" {style[n.kind]}];')
    for s, t in d.edges:
        lines.append(f"  n{s} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Stock diagrams

def wire_diagram(dim: int) -> Diagram:
    b = DiagramBuilder(dim)
    i = b.add_input(0)
    o = b.add_output(0)
    b.add_edge(i, o)
    return b.finish()


def spider_diagram(dim: int, kind: str, n_in: int, n_out: int,
                   phase: PhaseVector | None = None,
                   scalar: complex = 1.0) -> Diagram:
    """A single spider with fresh boundaries on every leg."""
    b = DiagramBuilder(dim, scalar)
    v = b.add_spider(kind, phase)
    for p in range(n_in):
        i = b.add_input(p)
        b.add_edge(i, v)
    for p in range(n_out):
        o = b.add_output(p)
        b.add_edge(v, o)
    return b.finish()


GENERATORS = ("id", "swap", "fourier", "fourier_dag", "ket0", "ketplus",
              "eps_x", "eps_z", "delta_z", "delta_x", "cnot")


def generator_diagram(name: str, dim: int) -> Diagram:
    """Diagrams whose matrices equal generator_matrix(name, dim) exactly.

    Spiders natively produce some generators only up to a power of sqrt(D);
    the compensating factor is carried in the diagram scalar.
    """
    rt = dim ** 0.5
    if name == "id":
        return wire_diagram(dim)
    if name == "swap":
        b = DiagramBuilder(dim)
        i0, i1 = b.add_input(0), b.add_input(1)
        o0, o1 = b.add_output(0), b.add_output(1)
        b.add_edge(i0, o1)
        b.add_edge(i1, o0)
        return b.finish()
    if name in ("fourier", "fourier_dag"):
        b = DiagramBuilder(dim)
        i = b.add_input(0)
        v = b.add_box(F if name == "fourier" else FDAG)
        o = b.add_output(0)
        b.add_edge(i, v)
        b.add_edge(v, o)
        return b.finish()
    if name == "ket0":
        return spider_diagram(dim, X, 0, 1)
    if name == "ketplus":
        return spider_diagram(dim, Z, 0, 1)
    if name == "eps_x":
        return spider_diagram(dim, X, 1, 0, scalar=1.0 / rt)
    if name == "eps_z":
        return spider_diagram(dim, Z, 1, 0)
    if name == "delta_z":
        return spider_diagram(dim, Z, 1, 2)
    if name == "delta_x":
        return spider_diagram(dim, X, 1, 2, scalar=rt)
    if name == "cnot":
        b = DiagramBuilder(dim, rt)
        zv = b.add_spider(Z)
        xv = b.add_spider(X)
        i0, i1 = b.add_input(0), b.add_input(1)
        o0, o1 = b.add_output(0), b.add_output(1)
        b.add_edge(i0, zv)
        b.add_edge(zv, o0)
        b.add_edge(i1, xv)
        b.add_edge(xv, o1)
        b.add_edge(xv, zv)
        return b.finish()
    raise ValueError(f"unknown generator {name!r}; choose from {GENERATORS}")
