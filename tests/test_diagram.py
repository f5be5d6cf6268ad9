"""Diagram data structure: validation, composition, JSON, stock diagrams."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quditzx import diagram as dg
from quditzx.diagram import (
    BAD_BOUNDARY_DEGREE,
    BAD_BOX_DEGREE,
    DANGLING_EDGE,
    NON_CONTIGUOUS_BOUNDARY,
    NON_FINITE_SCALAR,
    PHASE_LENGTH_MISMATCH,
    Diagram,
    DiagramBuilder,
    InvalidDiagramError,
    Node,
    compose,
    export_dot,
    generator_diagram,
    spider_diagram,
    validate,
    wire_diagram,
)
from quditzx.phases import PhaseVector, Turn
from quditzx.semantics import evaluate, generator_matrix


def _dev(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# Nodes

def test_spiders_carry_phases_boundaries_carry_positions():
    z = Node(dg.Z, phase=PhaseVector.zero(3))
    assert z.kind == dg.Z and z.phase.is_zero
    inp = Node(dg.IN, position=0)
    assert inp.position == 0
    box = Node(dg.F)
    assert box.phase is None and box.position is None


def test_node_field_misuse_is_rejected():
    with pytest.raises(ValueError):
        Node(dg.Z)  # spider without a phase
    with pytest.raises(ValueError):
        Node(dg.IN)  # boundary without a position
    with pytest.raises(ValueError):
        Node(dg.F, phase=PhaseVector.zero(3))
    with pytest.raises(ValueError):
        Node(dg.Z, phase=PhaseVector.zero(3), position=1)
    with pytest.raises(ValueError):
        Node("Y")


@pytest.mark.parametrize("attribute, value", [
    ("kind", dg.X), ("phase", PhaseVector.zero(3)), ("position", 1)])
def test_nodes_are_read_only(attribute, value):
    phase = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(1, 2)])
    n = Node(dg.Z, phase=phase)
    with pytest.raises(AttributeError):
        setattr(n, attribute, value)
    assert (n.kind, n.phase, n.position) == (dg.Z, phase, None)


# ---------------------------------------------------------------------------
# Degrees and boundaries

def test_self_loop_counts_twice_in_degree():
    b = DiagramBuilder(3)
    v = b.add_spider(dg.Z)
    b.add_edge(v, v)
    d = b.finish()
    assert d.degree(v) == 2
    assert d.neighbors(v) == {v}


# Plain edge-scan definitions of each leg query: the oracle for the index.
def _scan_legs(edges, v):
    legs = []
    for i, (s, t) in enumerate(edges):
        if s == v:
            legs.append((i, 1))
        if t == v:
            legs.append((i, -1))
    return legs


@st.composite
def _multigraphs(draw):
    """(node count, edge list) on nodes 0..n-1, loops and multi-edges too."""
    n = draw(st.integers(2, 8))
    node = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=15))


@settings(max_examples=200, deadline=None)
@given(_multigraphs())
@example((3, [(0, 0), (0, 1), (1, 0), (0, 1), (2, 2), (1, 2), (2, 2)]))
def test_incidence_index_matches_edge_scans(graph):
    n, edges = graph
    b = DiagramBuilder(3)
    for _ in range(n):
        b.add_spider(dg.Z)
    for s, t in edges:
        b.add_edge(s, t)
    d = b.finish()
    for v in range(n + 1):  # node n does not exist and has no legs
        assert list(d.legs(v)) == _scan_legs(edges, v)
        assert d.out_edges(v) == [i for i, (s, _) in enumerate(edges)
                                  if s == v]
        assert d.in_edges(v) == [i for i, (_, t) in enumerate(edges)
                                 if t == v]
        assert d.incident(v) == [i for i, (s, t) in enumerate(edges)
                                 if v in (s, t)]
        assert d.degree(v) == sum((s == v) + (t == v) for s, t in edges)
        assert d.neighbors(v) == ({t for s, t in edges if s == v}
                                  | {s for s, t in edges if t == v})


def test_boundary_ids_sorted_by_position():
    b = DiagramBuilder(2)
    i1 = b.add_input(1)
    i0 = b.add_input(0)
    v = b.add_spider(dg.Z)
    b.add_edge(i0, v)
    b.add_edge(i1, v)
    d = b.finish()
    assert d.boundary_ids(dg.IN) == [i0, i1]
    assert d.n_inputs == 2 and d.n_outputs == 0


# ---------------------------------------------------------------------------
# Validation

def _violations(build):
    """Codes of the InvalidDiagramError that build() raises."""
    with pytest.raises(InvalidDiagramError) as exc:
        build()
    return {code for code, *_ in exc.value.violations}


def test_dangling_edge_detected():
    assert DANGLING_EDGE in _violations(lambda: Diagram(
        3, {0: Node(dg.Z, phase=PhaseVector.zero(3))}, [(0, 7)]))


@pytest.mark.parametrize("edge", [(0.9, 1.2), ("0", "1"), (True, 1),
                                  (0, 1.0)])
def test_edge_endpoints_must_be_integers(edge):
    # Endpoints were once passed through int(), so (0.9, 1.2) became the
    # edge (0, 1) and ("0", "1") was taken too.
    nodes = {0: Node(dg.IN, position=0), 1: Node(dg.OUT, position=0)}
    with pytest.raises(ValueError) as exc:
        Diagram(2, nodes, [edge])
    assert str(exc.value) == (f"edge 0 endpoints must be integers, got "
                              f"({edge[0]!r}, {edge[1]!r})")
    d = Diagram(2, nodes, [(np.int64(0), np.int64(1))])
    assert d.edges == ((0, 1),) and type(d.edges[0][0]) is int


def test_bad_boundary_degree_detected():
    b = DiagramBuilder(3)
    b.add_input(0)  # never wired up
    assert BAD_BOUNDARY_DEGREE in _violations(b.finish)

    b = DiagramBuilder(3)
    i = b.add_input(0)
    v = b.add_spider(dg.Z)
    b.add_edge(i, v)
    b.add_edge(i, v)
    assert BAD_BOUNDARY_DEGREE in _violations(b.finish)


def test_bad_box_degree_detected():
    b = DiagramBuilder(3)
    f = b.add_box(dg.F)
    i = b.add_input(0)
    b.add_edge(i, f)
    assert BAD_BOX_DEGREE in _violations(b.finish)


def test_phase_length_mismatch_detected():
    assert PHASE_LENGTH_MISMATCH in _violations(lambda: Diagram(
        4, {0: Node(dg.Z, phase=PhaseVector.zero(3))}, []))


def test_non_contiguous_boundary_positions_detected():
    b = DiagramBuilder(3)
    v = b.add_spider(dg.Z)
    for pos in (0, 2):
        i = b.add_input(pos)
        b.add_edge(i, v)
    assert NON_CONTIGUOUS_BOUNDARY in _violations(b.finish)


def test_all_violations_reported_at_once():
    # An unwired input at a non-zero position breaks two invariants.
    codes = _violations(lambda: Diagram(3, {0: Node(dg.IN, position=1)}, []))
    assert BAD_BOUNDARY_DEGREE in codes
    assert NON_CONTIGUOUS_BOUNDARY in codes


def test_dangling_edges_short_circuit_other_checks():
    # Degrees cannot be computed over a broken edge list, so only the
    # dangling edge is reported.
    assert _violations(lambda: Diagram(
        3, {0: Node(dg.IN, position=1)}, [(0, 9)])) == {DANGLING_EDGE}


def test_validate_returns_valid_diagram_unchanged():
    d = wire_diagram(3)
    assert validate(d) is d


_UNWIRED_INPUT = ("input 0 must be the source of exactly one edge "
                  "(has 0 out, 0 in)")


def _unchecked(dimension, nodes, edges):
    """A Diagram that skipped its constructor, so skipped validation."""
    d = object.__new__(Diagram)
    d._dimension, d._scalar = dimension, 1.0 + 0.0j
    d._nodes, d._edges, d._legs = dict(nodes), tuple(edges), {}
    return d


def test_every_way_to_make_a_diagram_validates_it():
    unwired = {0: Node(dg.IN, position=0)}
    b = DiagramBuilder(3)
    b.add_input(0)
    obj = {"dimension": 3, "nodes": [{"id": 0, "kind": "in", "position": 0}],
           "edges": []}
    builds = [lambda: Diagram(3, unwired, []), b.finish,
              lambda: dg.from_json_dict(obj),
              lambda: compose(_unchecked(3, unwired, []), wire_diagram(3),
                              "parallel")]
    for build in builds:
        with pytest.raises(InvalidDiagramError) as exc:
            build()
        assert exc.value.violations == ((BAD_BOUNDARY_DEGREE, _UNWIRED_INPUT),)
        assert str(exc.value) == ("invalid diagram: BadBoundaryDegree: "
                                  + _UNWIRED_INPUT)


@pytest.mark.parametrize("attribute, value", [("dimension", 2),
                                              ("scalar", 2.0 + 0.0j)])
def test_dimension_and_scalar_are_read_only(attribute, value):
    d = generator_diagram("fourier", 3)
    with pytest.raises(AttributeError):
        setattr(d, attribute, value)
    assert (d.dimension, d.scalar) == (3, 1.0 + 0.0j)


def test_nodes_is_a_read_only_view():
    d = generator_diagram("cnot", 3)
    v = next(iter(d.nodes))
    with pytest.raises(TypeError):
        d.nodes[v] = Node(dg.Z, phase=PhaseVector.zero(3))
    assert d.nodes == DiagramBuilder.from_diagram(d).nodes


# ---------------------------------------------------------------------------
# Builder

def test_builder_allocates_fresh_ids():
    b = DiagramBuilder(3)
    ids = [b.add_spider(dg.Z), b.add_spider(dg.X), b.add_box(dg.F)]
    assert len(set(ids)) == 3
    d0 = generator_diagram("cnot", 3)
    b2 = DiagramBuilder.from_diagram(d0)
    fresh = b2.fresh_id()
    assert fresh not in d0.nodes


def test_builder_round_trip_preserves_diagram():
    d0 = generator_diagram("cnot", 3)
    d1 = DiagramBuilder.from_diagram(d0).finish()
    assert d1.nodes == d0.nodes
    assert sorted(d1.edges) == sorted(d0.edges)
    assert d1.scalar == d0.scalar


def test_builder_finish_checks_by_default():
    b = DiagramBuilder(3)
    b.add_input(0)
    with pytest.raises(InvalidDiagramError):
        b.finish()


# ---------------------------------------------------------------------------
# Composition (oracle: matrix semantics)

def test_sequential_composition_multiplies_matrices():
    d = 3
    f = generator_diagram("fourier", d)
    cnot = generator_diagram("cnot", d)
    seq = compose(f, f, "sequential")
    want = generator_matrix("fourier", d).matrix
    assert _dev(evaluate(seq).matrix, want @ want) < 1e-12
    two = compose(compose(f, wire_diagram(d), "parallel"), cnot, "sequential")
    want2 = (generator_matrix("cnot", d).matrix
             @ np.kron(want, np.eye(d)))
    assert _dev(evaluate(two).matrix, want2) < 1e-12


def test_parallel_composition_tensors_matrices():
    d = 3
    f = generator_diagram("fourier", d)
    k = generator_diagram("ket0", d)
    par = compose(f, k, "parallel")
    want = np.kron(generator_matrix("fourier", d).matrix,
                   generator_matrix("ket0", d).matrix)
    assert _dev(evaluate(par).matrix, want) < 1e-12


def test_sequential_composition_edge_list_is_pinned():
    # Glue edges go in one filtered rebuild; the bridges follow in wire
    # order. Node ids and edge order feed rewrite traces, so both are pinned.
    f, w, cnot = (generator_diagram(n, 3) for n in ("fourier", "id", "cnot"))
    d = compose(cnot, compose(f, w, "parallel"), "sequential")
    assert d.edges == ((2, 0), (3, 1), (1, 0), (7, 8), (0, 7), (1, 10))
    assert sorted(d.nodes) == [0, 1, 2, 3, 7, 8, 10]


def test_sequential_composition_checks_arity():
    with pytest.raises(ValueError):
        compose(generator_diagram("cnot", 3), wire_diagram(3), "sequential")
    with pytest.raises(ValueError):
        compose(wire_diagram(3), wire_diagram(3), "diagonal")


def test_composition_requires_matching_dimension():
    with pytest.raises(ValueError):
        compose(wire_diagram(2), wire_diagram(3), "parallel")


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_composition_refuses_a_scalar_that_overflows(mode):
    big = spider_diagram(3, dg.Z, 1, 1, scalar=1e300)
    with pytest.raises(InvalidDiagramError) as exc:
        compose(big, big, mode)
    assert exc.value.violations == (
        (NON_FINITE_SCALAR, "scalar must be finite, got (inf+0j)"),)


@pytest.mark.parametrize("scalar", [complex("inf"), complex(0, float("nan"))])
def test_non_finite_scalar_detected(scalar):
    with pytest.raises(InvalidDiagramError) as exc:
        DiagramBuilder(3, scalar).finish()
    assert [code for code, _ in exc.value.violations] == [NON_FINITE_SCALAR]


# ---------------------------------------------------------------------------
# JSON round trips

def test_json_round_trip_preserves_semantics_and_structure():
    for name in dg.GENERATORS:
        d0 = generator_diagram(name, 3)
        d1 = dg.from_json(dg.to_json(d0))
        assert d1.dimension == d0.dimension
        assert d1.scalar == d0.scalar
        assert sorted(d1.edges) == sorted(d0.edges)
        assert _dev(evaluate(d1).matrix, evaluate(d0).matrix) == 0.0


def test_json_boxes_record_ports():
    d = generator_diagram("fourier", 3)
    obj = dg.to_json_dict(d)
    box = next(rec for rec in obj["nodes"] if rec["kind"] == dg.F)
    assert "inPort" in box and "outPort" in box


def test_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        dg.from_json("{}")
    with pytest.raises(ValueError):
        dg.from_json_dict({"dimension": 3, "nodes": [{"id": 0, "kind": "Y"}],
                           "edges": []})
    with pytest.raises(InvalidDiagramError):
        dg.from_json_dict({"dimension": 3, "nodes": [], "edges": [[0, 1]]})


def test_json_rejects_duplicate_node_ids():
    obj = {
        "dimension": 3,
        "nodes": [{"id": 0, "kind": "in", "position": 0},
                  {"id": 0, "kind": "out", "position": 0}],
        "edges": [],
    }
    with pytest.raises(ValueError):
        dg.from_json_dict(obj)


# ---------------------------------------------------------------------------
# Stock diagrams

def test_wire_diagram_is_the_identity():
    for d in (2, 3, 5):
        assert _dev(evaluate(wire_diagram(d)).matrix, np.eye(d)) == 0.0


def test_spider_diagram_shapes_and_phase():
    pv = PhaseVector(3, [Turn.exact(1, 3), Turn.exact(1, 2)])
    d = spider_diagram(3, dg.Z, 1, 2, pv)
    assert d.n_inputs == 1 and d.n_outputs == 2
    m = evaluate(d).matrix
    # A Z spider only populates the all-equal leg assignments.
    for j in range(3):
        assert abs(m[4 * j, j] - np.exp(1j * pv.alpha(j).radians)) < 1e-12
    assert np.count_nonzero(np.abs(m) > 1e-12) == 3


def test_generator_diagrams_match_generator_matrices():
    for d in (2, 3, 4):
        for name in dg.GENERATORS:
            got = evaluate(generator_diagram(name, d)).matrix
            want = generator_matrix(name, d).matrix
            assert _dev(got, want) < 1e-12, (name, d)


def test_export_dot_mentions_every_node_and_edge():
    d = generator_diagram("cnot", 3)
    dot = export_dot(d)
    assert dot.startswith("digraph")
    for v in d.nodes:
        assert f"n{v} " in dot
    assert dot.count("->") == len(d.edges)
    phased = spider_diagram(3, dg.Z, 0, 1, PhaseVector(3, [Turn.exact(1, 3),
                                                           Turn.zero()]))
    assert "Z(1/3,0)" in export_dot(phased)
