"""Qudit ZX calculus with verified rewriting, stabilizer simulation, the
relational toy theory, and the dimension-3 equivalence check."""

from .diagram import (
    Diagram,
    DiagramBuilder,
    InvalidDiagramError,
    Node,
    compose,
    export_dot,
    from_json,
    generator_diagram,
    to_json,
)
from .equivalence import build_3spek_states, build_dictionary, \
    run_equivalence_checks
from .phases import PhaseVector, Turn, cyclic_vector, phase_neg_transform
from .phasespace import (
    DualVector,
    EpistemicState,
    OnticPoint,
    SymplecticAffine,
    poisson_bracket,
    symplectic_product,
)
from .rewrite import (
    RULES,
    apply_rule,
    find_matches,
    replay,
    simplify,
    soundness_report,
)
from .semantics import (
    DenseOperator,
    equal_up_to_scalar,
    evaluate,
    fourier_matrix,
    lambda_matrix,
    phased_state,
    run_structure_checks,
)
from .stabilizer import (
    GATES,
    DenseSimulator,
    PauliOp,
    Tableau,
    enumerate_stabilizer_states,
    phase_group,
    run_circuit,
)
from .synthesis import DegenerateStateError, SynthesisResult, synth_xj, \
    synth_zj, verify_decompositions
from .toyrel import Rel, rel_structure_check, spek_generator

__version__ = "0.1.0"

__all__ = [
    "Diagram", "DiagramBuilder", "InvalidDiagramError", "Node", "compose",
    "export_dot", "from_json", "generator_diagram", "to_json",
    "build_3spek_states", "build_dictionary", "run_equivalence_checks",
    "PhaseVector", "Turn", "cyclic_vector", "phase_neg_transform",
    "DualVector", "EpistemicState", "OnticPoint", "SymplecticAffine",
    "poisson_bracket", "symplectic_product",
    "RULES", "apply_rule", "find_matches", "replay", "simplify",
    "soundness_report",
    "DenseOperator", "equal_up_to_scalar", "evaluate", "fourier_matrix",
    "lambda_matrix", "phased_state", "run_structure_checks",
    "GATES", "DenseSimulator", "PauliOp", "Tableau",
    "enumerate_stabilizer_states", "phase_group", "run_circuit",
    "DegenerateStateError", "SynthesisResult", "synth_xj", "synth_zj",
    "verify_decompositions",
    "Rel", "rel_structure_check", "spek_generator",
    "__version__",
]
