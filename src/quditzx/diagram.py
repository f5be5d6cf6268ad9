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

import json
import types
from typing import Iterable, Mapping, Sequence

from .phases import PhaseVector

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


class Node:
    """One vertex: a spider (kind Z/X, with phase), box, or boundary marker."""

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
        self.kind = kind
        self.phase = phase
        self.position = position

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


class Diagram:
    """Valid and read-only once built; use DiagramBuilder to construct.

    The constructor runs validate(), so nothing downstream checks again."""

    __slots__ = ("dimension", "scalar", "_nodes", "_edges", "_legs")

    def __init__(self, dimension: int, nodes: Mapping[int, Node],
                 edges: Iterable[tuple], scalar: complex = 1.0):
        if dimension < 2:
            raise ValueError(f"dimension must be >= 2, got {dimension}")
        self.dimension = int(dimension)
        self.scalar = complex(scalar)
        self._nodes = dict(nodes)
        self._edges = tuple((int(s), int(t)) for s, t in edges)
        legs = {}
        for i, (s, t) in enumerate(self._edges):
            legs.setdefault(s, []).append((i, 1))
            legs.setdefault(t, []).append((i, -1))
        self._legs = {v: tuple(vl) for v, vl in legs.items()}
        validate(self)

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

    def degree(self, v: int) -> int:
        """Number of legs at v; a self-loop contributes two."""
        return len(self.legs(v))

    def out_edges(self, v: int) -> list:
        """Indices of edges with source v (v's output legs)."""
        return [i for i, sign in self.legs(v) if sign == 1]

    def in_edges(self, v: int) -> list:
        """Indices of edges with target v (v's input legs)."""
        return [i for i, sign in self.legs(v) if sign == -1]

    def incident(self, v: int) -> list:
        return list(dict.fromkeys(i for i, _ in self.legs(v)))

    def neighbors(self, v: int) -> set:
        e = self._edges
        return {e[i][1] if sign == 1 else e[i][0] for i, sign in self.legs(v)}

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


def validate(d: Diagram) -> Diagram:
    """Check structural invariants; raise InvalidDiagramError listing them all."""
    bad = []
    for i, (s, t) in enumerate(d.edges):
        for v in (s, t):
            if v not in d:
                bad.append((DANGLING_EDGE, f"edge {i} endpoint {v} is not a node"))
    if bad:
        # Degree computations below would be meaningless.
        raise InvalidDiagramError(bad)

    for v, n in sorted(d.nodes.items()):
        signs = [sign for _, sign in d.legs(v)]
        n_out, n_in = signs.count(1), signs.count(-1)
        if n.kind == IN:
            if n_out != 1 or n_in != 0:
                bad.append((BAD_BOUNDARY_DEGREE,
                            f"input {v} must be the source of exactly one edge "
                            f"(has {n_out} out, {n_in} in)"))
        elif n.kind == OUT:
            if n_in != 1 or n_out != 0:
                bad.append((BAD_BOUNDARY_DEGREE,
                            f"output {v} must be the target of exactly one edge "
                            f"(has {n_out} out, {n_in} in)"))
        elif n.kind in BOX_KINDS:
            if n_in != 1 or n_out != 1:
                bad.append((BAD_BOX_DEGREE,
                            f"box {v} needs exactly one incoming and one outgoing "
                            f"edge (has {n_in} in, {n_out} out)"))
        else:
            if n.phase is None or n.phase.dim != d.dimension:
                have = "none" if n.phase is None else f"dim {n.phase.dim}"
                bad.append((PHASE_LENGTH_MISMATCH,
                            f"spider {v} needs a phase vector of dimension "
                            f"{d.dimension}, has {have}"))

    for kind in (IN, OUT):
        positions = sorted(n.position for n in d.nodes.values() if n.kind == kind)
        if positions != list(range(len(positions))):
            bad.append((NON_CONTIGUOUS_BOUNDARY,
                        f"{kind} positions must be 0..{len(positions) - 1}, "
                        f"got {positions}"))

    if bad:
        raise InvalidDiagramError(bad)
    return d


class DiagramBuilder:
    """Mutable construction buffer for diagrams.

    Node ids are allocated consecutively from max(existing)+1, which keeps
    rewrite traces replayable: the same sequence of operations on the same
    diagram always produces the same ids.
    """

    def __init__(self, dimension: int, scalar: complex = 1.0):
        self.dimension = dimension
        self.scalar = complex(scalar)
        self.nodes: dict = {}
        self.edges: list = []
        self._next_id = 0

    @classmethod
    def from_diagram(cls, d: Diagram) -> "DiagramBuilder":
        b = cls(d.dimension, d.scalar)
        b.nodes = dict(d.nodes)
        b.edges = list(d.edges)
        b._next_id = max(b.nodes, default=-1) + 1
        return b

    def fresh_id(self) -> int:
        v = self._next_id
        self._next_id += 1
        return v

    def add_node(self, node: Node) -> int:
        v = self.fresh_id()
        self.nodes[v] = node
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

    def add_edge(self, source: int, target: int) -> int:
        self.edges.append((source, target))
        return len(self.edges) - 1

    def remove_node(self, v: int) -> None:
        del self.nodes[v]

    def remove_edges(self, indices: Iterable[int]) -> None:
        doomed = set(indices)
        self.edges = [e for i, e in enumerate(self.edges) if i not in doomed]

    def finish(self) -> Diagram:
        return Diagram(self.dimension, self.nodes, self.edges, self.scalar)


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
    try:
        dim = int(obj["dimension"])
        sc = obj.get("scalar", [1.0, 0.0])
        scalar = complex(float(sc[0]), float(sc[1]))
        nodes = {}
        for rec in obj["nodes"]:
            v = int(rec["id"])
            if v in nodes:
                raise ValueError(f"duplicate node id {v}")
            kind = rec["kind"]
            if kind in SPIDER_KINDS:
                phase = PhaseVector.from_json(dim, rec["phase"])
                nodes[v] = Node(kind, phase=phase)
            elif kind in BOUNDARY_KINDS:
                nodes[v] = Node(kind, position=int(rec["position"]))
            elif kind in BOX_KINDS:
                # inPort/outPort are redundant with the edge list; ignored.
                nodes[v] = Node(kind)
            else:
                raise ValueError(f"unknown node kind {kind!r}")
        edges = [(int(e[0]), int(e[1])) for e in obj["edges"]]
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed diagram JSON: {exc}") from exc
    return Diagram(dim, nodes, edges, scalar)


def to_json(d: Diagram) -> str:
    return json.dumps(to_json_dict(d), sort_keys=True, separators=(",", ":"))


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
