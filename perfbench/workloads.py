"""Seeded case generators and known-answer checks for the four workloads.

Each workload provides

* ``make_cases(seed)``: the case list, built only from ``random.Random``
  seeded by the workload seed, so the library sees nothing but the
  generated inputs;
* ``run_case(case)``: one closed-loop request against the public API of
  ``quditzx``; it returns ``(ok, digest, detail)`` where ``digest`` is a
  short string of outputs that a behaviour-preserving change keeps
  byte-identical;
* ``warm_cases(seed)``: a few small cases run during set-up.

A case that raises counts as failed; it never stops the run.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import numpy as np

from quditzx import diagram as dg
from quditzx import equivalence as eqv
from quditzx import rewrite as rw
from quditzx import semantics as sem
from quditzx import stabilizer as st
from quditzx import toyrel as trel

TOL = 1e-9


class Case:
    __slots__ = ("cid", "kind", "payload")

    def __init__(self, cid: str, kind: str, payload):
        self.cid = cid
        self.kind = kind
        self.payload = payload


# ---------------------------------------------------------------------------
# spek-laws: the relational law battery and the D=3 equivalence checks

# rel_structure_check runs this many check ids at every D.
SPEK_CHECK_IDS = 26
SPEK_DIMS = (2, 3, 4)


def spek_cases(seed: int) -> list:
    # The battery has no random input, so the seed changes nothing: the
    # same cases run in the same order for every seed.
    cases = [Case(f"laws_D{D}", "laws", D) for D in SPEK_DIMS]
    cases.append(Case("equivalence", "equivalence", None))
    return cases


def spek_warm_cases(seed: int) -> list:
    return [Case("warm_laws_D2", "laws", 2)]


def spek_run(case: Case) -> tuple:
    if case.kind == "laws":
        report = trel.rel_structure_check(case.payload)
        ids = [c["id"] for c in report["checks"]]
        ok = (report["passed"] and len(ids) == SPEK_CHECK_IDS
              and all(c["passed"] for c in report["checks"]))
        return ok, ",".join(ids), "" if ok else "law battery failed"
    report = eqv.run_equivalence_checks()
    sizes = (report["possibilistic"]["pairs"],
             report["probabilities"]["pairs"],
             report["equivariance"]["stateChecks"])
    fails = (len(report["possibilistic"]["failures"]),
             len(report["probabilities"]["failures"]),
             len(report["equivariance"]["failures"]))
    ok = report["passed"] and sizes == (144, 144, 216) and fails == (0, 0, 0)
    digest = "possibilistic={}/144,probabilities={}/144,equivariance={}/216" \
        .format(*(s - f for s, f in zip(sizes, fails)))
    return ok, digest, "" if ok else f"equivalence failed: {digest}"


# ---------------------------------------------------------------------------
# zx-circuits: random circuit diagrams through simplify --verify and replay

ZX_CASES = 198
ZX_LARGE = 30           # 15% of the cases have 36-56 layers
# Wire counts per dimension keep the dense matrix at D^(2w) <= 3^10
# entries. Large cases use two or three wires: the pair search in evaluate
# grows with the cube of the node count, and a pass must fit a run.
ZX_WIRES = {2: (2, 6), 3: (2, 5), 5: (2, 3)}
ZX_WIRES_LARGE = {2: (2, 3), 3: (2, 3), 5: (2, 3)}
ZX_LAYERS_MEDIUM = tuple(range(6, 21))
ZX_LAYERS_LARGE = tuple(36 + 20 * k // 9 for k in range(10))
# One wide case per pass: D=3 on 7 wires, whose 3^7 x 3^7 matrices set
# the workload's peak memory the same way for every seed.
ZX_WIDE = (3, 7, 8)     # dimension, wires, layers
ZX_DIMS = (2, 3, 5)
# Items per wire and layer: CNOTs (each takes two wires), F/Fdag boxes and
# phased spiders; the remaining wire slots are plain wires.
ZX_RATE_CNOT, ZX_RATE_BOX, ZX_RATE_PHASE = 0.10, 0.20, 0.25
# At most this many CNOT legs of one colour in a row on a wire. Fusion
# merges such a run into one spider of degree run+2 whose dense tensor has
# D^(run+2) entries; the cap keeps that at most 5^7 so no case needs more
# memory than the machine can spare.
ZX_MAX_STREAK = 5


def _phase_json(rng: random.Random, dim: int) -> list:
    """A nonzero phase vector: exact multiples of 1/D, sometimes 1/2D."""
    while True:
        den = dim if rng.random() < 0.8 else 2 * dim
        nums = [rng.randrange(den) for _ in range(dim - 1)]
        if any(nums):
            return [{"exact": [k, den]} for k in nums]


def zx_circuit_json(rng: random.Random, dim: int, wires: int,
                    layers: int) -> str:
    """One circuit diagram as canonical diagram JSON.

    In each layer a wire holds one item: a CNOT leg (control Z spider,
    target X spider, joined by an edge from X to Z as in the library's
    CNOT generator), an F or Fdag box, a phased Z or X spider, or a plain
    wire.
    """
    nodes = []
    edges = []
    scalar = 1.0
    cur = []
    for w in range(wires):
        nodes.append({"id": len(nodes), "kind": "in", "position": w})
        cur.append(len(nodes) - 1)

    def add(kind, **extra):
        nodes.append({"id": len(nodes), "kind": kind, **extra})
        return len(nodes) - 1

    def extend(w, v):
        edges.append([cur[w], v])
        cur[w] = v

    # streak[w] = (colour, count) of the CNOT legs last placed on wire w.
    streak = [("", 0)] * wires

    def cnot_ok(w, colour):
        c, k = streak[w]
        return c != colour or k < ZX_MAX_STREAK

    def leg(w, colour):
        c, k = streak[w]
        streak[w] = (colour, k + 1 if c == colour else 1)

    # Item counts per layer follow the rates exactly over the case, with
    # the remainders carried, so the node count depends only on the shape.
    carry = [0.0, 0.0, 0.0]

    def take(i, rate, limit):
        carry[i] += rate * wires
        k = min(int(carry[i]), limit)
        carry[i] -= k
        return k

    for _ in range(layers):
        free = list(range(wires))
        rng.shuffle(free)
        for _ in range(take(0, ZX_RATE_CNOT, len(free) // 2)):
            w, t = free.pop(), free.pop()
            if not (cnot_ok(w, "Z") and cnot_ok(t, "X")):
                w, t = t, w
            if cnot_ok(w, "Z") and cnot_ok(t, "X"):
                zc = add("Z", phase=[{"exact": [0, 1]}] * (dim - 1))
                xt = add("X", phase=[{"exact": [0, 1]}] * (dim - 1))
                extend(w, zc)
                extend(t, xt)
                edges.append([xt, zc])
                leg(w, "Z")
                leg(t, "X")
                scalar *= dim ** 0.5
            # else: either orientation would lengthen a streak; plain wires
        for _ in range(take(1, ZX_RATE_BOX, len(free))):
            extend(free.pop(), add(rng.choice(("F", "Fdag"))))
        for _ in range(take(2, ZX_RATE_PHASE, len(free))):
            extend(free.pop(), add(rng.choice(("Z", "X")),
                                   phase=_phase_json(rng, dim)))
        # the wires left in free stay plain in this layer
    for w in range(wires):
        extend(w, add("out", position=w))
    obj = {"dimension": dim, "scalar": [scalar, 0.0], "nodes": nodes,
           "edges": edges}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def zx_cases(seed: int) -> list:
    """Stratified: each dimension gets the same number of cases, of large
    cases and of each wire count, and layer counts cycle through their
    range; the seed draws the gates."""
    rng = random.Random(f"zx-circuits:{seed}")
    per_dim = ZX_CASES // len(ZX_DIMS)
    large_per_dim = ZX_LARGE // len(ZX_DIMS)
    cases = []
    for j in range(per_dim):
        for dim in ZX_DIMS:
            large = j < large_per_dim
            lo, hi = (ZX_WIRES_LARGE if large else ZX_WIRES)[dim]
            wires = lo + j % (hi - lo + 1)
            schedule = ZX_LAYERS_LARGE if large else ZX_LAYERS_MEDIUM
            layers = schedule[j % len(schedule)]
            text = zx_circuit_json(rng, dim, wires, layers)
            cases.append(Case(f"zx{len(cases):03d}_D{dim}_w{wires}_l{layers}",
                              "large" if large else "medium", text))
    dim, wires, layers = ZX_WIDE
    cases.append(Case(f"zx{len(cases):03d}_D{dim}_w{wires}_l{layers}", "wide",
                      zx_circuit_json(rng, dim, wires, layers)))
    return cases


def zx_warm_cases(seed: int) -> list:
    rng = random.Random(f"zx-warm:{seed}")
    return [Case(f"warm_zx_D{dim}", "medium",
                 zx_circuit_json(rng, dim, 2, 4)) for dim in ZX_DIMS]


def zx_run(case: Case) -> tuple:
    d = dg.from_json(case.payload)
    simplified, trace = rw.simplify(d)
    before = sem.evaluate(d).matrix
    after = sem.evaluate(simplified).matrix
    scale = sem.equal_up_to_scalar(before, after, TOL)
    if scale is None:
        return False, "", "matrices not proportional"
    dev = float(np.max(np.abs(before - scale * after))) if before.size else 0.0
    replayed = rw.replay(d, trace)
    out = dg.to_json(simplified)
    problems = []
    if dev > TOL:
        problems.append(f"deviation {dev:.3e}")
    if abs(scale - 1.0) > TOL:
        problems.append(f"scale {scale!r}")
    if rw.diagram_hash(replayed) != trace.final_hash:
        problems.append("replay does not reach finalHash")
    if dg.to_json(dg.from_json(out)) != out:
        problems.append("JSON round-trip not byte-identical")
    digest = f"{trace.final_hash[:16]}:{len(trace.steps)}"
    return not problems, digest, "; ".join(problems)


# ---------------------------------------------------------------------------
# clifford: tableau runs, a tenth of them checked against the dense oracle

CLIFFORD_NS = (8, 16, 32, 48, 64)
CLIFFORD_DIMS = (2, 3, 5)
CLIFFORD_REPS = 6       # per (n, D): half measurement-light, half heavy
CLIFFORD_ORACLE = ((2, 8), (2, 8), (2, 8), (2, 8), (3, 5), (3, 5), (3, 5),
                   (5, 3), (5, 3), (5, 3))   # (D, n) with D^n in 125..256
CLIFFORD_DEPTH = 24
CLIFFORD_GATES = ("F", "Sq", "CNOT", "CP", "SWAP")


def clifford_circuit(rng: random.Random, n: int, dim: int, depth: int,
                     measurements: int) -> list:
    steps = []
    for _ in range(depth):
        name = rng.choice(CLIFFORD_GATES)
        if name in ("F", "Sq"):
            step = {"gate": name, "wires": [rng.randrange(n)]}
            if name == "Sq":
                step["q"] = rng.randrange(1, dim)
        else:
            step = {"gate": name, "wires": rng.sample(range(n), 2)}
        steps.append(step)
    for _ in range(measurements):
        steps.insert(rng.randrange(len(steps) + 1),
                     {"gate": "measure", "wires": [rng.randrange(n)],
                      "basis": rng.choice(("Z", "X"))})
    return steps


def _clifford_case(rng, cid, n, dim, heavy, oracle):
    meas = CLIFFORD_DEPTH // 2 if heavy else CLIFFORD_DEPTH // 10
    circuit = clifford_circuit(rng, n, dim, CLIFFORD_DEPTH, meas)
    kind = ("oracle" if oracle else "tableau") + ("_heavy" if heavy
                                                   else "_light")
    return Case(cid, kind, (circuit, n, dim, rng.randrange(2 ** 31), oracle))


def clifford_cases(seed: int) -> list:
    rng = random.Random(f"clifford:{seed}")
    cases = []
    for n in CLIFFORD_NS:
        for dim in CLIFFORD_DIMS:
            for r in range(CLIFFORD_REPS):
                cases.append(_clifford_case(
                    rng, f"cl{len(cases):03d}_n{n}_D{dim}", n, dim,
                    r % 2 == 1, False))
    for r, (dim, n) in enumerate(CLIFFORD_ORACLE):
        cases.append(_clifford_case(
            rng, f"cl{len(cases):03d}_n{n}_D{dim}_oracle", n, dim,
            r % 2 == 1, True))
    return cases


def clifford_warm_cases(seed: int) -> list:
    rng = random.Random(f"clifford-warm:{seed}")
    return [_clifford_case(rng, "warm_cl_oracle", 3, 3, True, True),
            _clifford_case(rng, "warm_cl", 8, 5, True, False)]


def clifford_run(case: Case) -> tuple:
    circuit, n, dim, run_seed, oracle = case.payload
    result = st.run_circuit(circuit, n, dim, seed=run_seed, oracle=oracle)
    outcomes = result["outcomes"]
    problems = []
    if len(outcomes) != sum(1 for s in circuit if s["gate"] == "measure"):
        problems.append("missing measurement outcomes")
    if any(not 0 <= o["outcome"] < dim for o in outcomes):
        problems.append("outcome out of range")
    if oracle and not result["maxProbabilityDeviation"] <= TOL:
        problems.append("oracle deviation "
                        f"{result['maxProbabilityDeviation']:.3e}")
    digest = "".join(f"{o['outcome']}{'d' if o['deterministic'] else 'r'}"
                     for o in outcomes)
    return not problems, digest, "; ".join(problems)


# ---------------------------------------------------------------------------
# rule-soundness: one random instance of one rule, checked scalar-exactly

RULE_DIMS = (2, 3, 4, 5)
RULE_INSTANCES = 150    # per (rule, D)
# The tiny-diagram regime: a draw whose largest spider tensor, before or
# after the rule, would exceed this many entries is replaced by a fresh
# draw. About one S_fuse draw in a hundred at D=5 fuses into a degree-10
# X spider that takes a second and 1 GiB; how many a seed drew would
# decide the pass time. Instead every pass runs exactly one such case,
# the largest instance the generator can draw.
RULE_MAX_SPIDER_ELEMS = 5 ** 8


def spider_tensor_elems(d: dg.Diagram) -> int:
    """Entries of the largest dense spider tensor evaluate() builds for d."""
    legs = Counter(v for edge in d.edges for v in edge)
    return max((d.dimension ** legs[v] for v, n in d.nodes.items()
                if n.kind in dg.SPIDER_KINDS), default=0)


def sfuse_corner_json(rng: random.Random, dim: int) -> tuple:
    """The largest S_fuse instance random_rule_instance can draw: two X
    spiders joined by three edges, each with three boundary legs. The
    fused spider has degree 10, so at D=5 its dense tensor and index grid
    take about 1 GiB; it also fixes the workload's peak memory."""
    nodes = [{"id": v, "kind": "X", "phase": _phase_json(rng, dim)}
             for v in (0, 1)]
    edges = [[0, 1]] * 3
    for pos, (v, kind) in enumerate(((0, "in"), (0, "in"), (1, "in"))):
        nodes.append({"id": len(nodes), "kind": kind, "position": pos})
        edges.append([len(nodes) - 1, v])
    for pos, v in enumerate((0, 1, 1)):
        nodes.append({"id": len(nodes), "kind": "out", "position": pos})
        edges.append([v, len(nodes) - 1])
    text = json.dumps({"dimension": dim, "scalar": [1.0, 0.0],
                       "nodes": nodes, "edges": edges},
                      sort_keys=True, separators=(",", ":"))
    return text, {"keep": 0, "absorb": 1, "color": "X"}


def rule_cases(seed: int) -> list:
    rng = random.Random(f"rule-soundness:{seed}")
    cases = []
    for rule in rw.ALL_RULES:
        for dim in RULE_DIMS:
            for i in range(RULE_INSTANCES):
                while True:
                    draw = rng.randrange(2 ** 63)
                    d, site = rw.random_rule_instance(rule, dim,
                                                      random.Random(draw))
                    d2 = rw.apply_rule(d, rule, site)
                    if max(spider_tensor_elems(d), spider_tensor_elems(d2)) \
                            <= RULE_MAX_SPIDER_ELEMS:
                        break
                cases.append(Case(f"{rule}_D{dim}_{i:03d}", rule,
                                  (dim, draw)))
    cases.append(Case("S_fuse_D5_corner", "S_fuse",
                      (5, sfuse_corner_json(rng, 5))))
    return cases


def rule_warm_cases(seed: int) -> list:
    return [Case(f"warm_{rule}", rule, (2, seed)) for rule in rw.ALL_RULES]


def rule_run(case: Case) -> tuple:
    dim, source = case.payload
    if isinstance(source, int):
        d, site = rw.random_rule_instance(case.kind, dim,
                                          random.Random(source))
    else:
        d, site = dg.from_json(source[0]), source[1]
    before = sem.evaluate(d).matrix
    d2 = rw.apply_rule(d, case.kind, site)
    after = sem.evaluate(d2).matrix
    scale = sem.equal_up_to_scalar(before, after, TOL)
    if scale is None:
        return False, "", "matrices not proportional"
    dev = float(np.max(np.abs(before - scale * after))) if before.size else 0.0
    ok = dev <= TOL and abs(scale - 1.0) <= TOL
    digest = f"{len(d.edges)}>{len(d2.edges)}"
    return ok, digest, "" if ok else f"deviation {dev:.3e}, scale {scale!r}"


def python_bound(case: Case) -> bool:
    """Whether the case spends its time in interpreted Python, whose speed
    on a shared host follows run.py's speed probe. The D=4 law battery
    spends it in numpy's integer matrix product, whose speed does not."""
    return case.cid != "laws_D4"


WORKLOADS = {
    "spek-laws": (spek_cases, spek_warm_cases, spek_run),
    "zx-circuits": (zx_cases, zx_warm_cases, zx_run),
    "clifford": (clifford_cases, clifford_warm_cases, clifford_run),
    "rule-soundness": (rule_cases, rule_warm_cases, rule_run),
}
