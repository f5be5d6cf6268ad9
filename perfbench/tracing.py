"""Traced mode: spans and counters recorded around the library's public
callables, from outside the library.

``Tracer.install()`` replaces each callable it names by a wrapper and
``uninstall()`` puts the originals back, so untraced passes run the
library untouched. A wrapper records a span (name, start, end,
parent, case id) and charges its duration to the enclosing span, which
gives every layer its self time. The incidence queries on ``Diagram``
run millions of times per pass; they are counted and charged to their
parent like the others but not kept as spans.
"""

from __future__ import annotations

import functools
import json
import math
import time
import types
from collections import Counter

import numpy as np

from quditzx import diagram as dg
from quditzx import equivalence as eqv
from quditzx import rewrite as rw
from quditzx import semantics as sem
from quditzx import stabilizer as st
from quditzx import toyrel as trel
from workloads import spider_tensor_elems

SPEK, ZX, CLIFFORD, RULES = "spek-laws", "zx-circuits", "clifford", \
    "rule-soundness"

# Layer name -> (workloads on which it must fire, workloads on which it
# must not). A wrapper that stays silent on its own workload means the
# code now routes around it; one that fires on a bypass workload means
# the layers are no longer separate.
EXPECT = {
    "toyrel.compose": ({SPEK}, {ZX, CLIFFORD, RULES}),
    "toyrel.tensor": ({SPEK}, {ZX, CLIFFORD, RULES}),
    "toyrel.spek_generator": ({SPEK}, {ZX, CLIFFORD, RULES}),
    "toyrel.laws": ({SPEK}, {ZX, CLIFFORD, RULES}),
    "equivalence.checks": ({SPEK}, {ZX, CLIFFORD, RULES}),
    "semantics.evaluate": ({ZX, RULES}, {SPEK, CLIFFORD}),
    "semantics.tensordot": ({ZX, RULES}, {SPEK, CLIFFORD}),
    "diagram.validate": ({ZX, RULES}, {SPEK, CLIFFORD}),
    "diagram.incidence": ({ZX, RULES}, {SPEK, CLIFFORD}),
    "diagram.json": ({ZX}, {SPEK, CLIFFORD}),
    "rewrite.simplify": ({ZX}, {SPEK, CLIFFORD}),
    "rewrite.find_matches": ({ZX}, {SPEK, CLIFFORD}),
    "rewrite.diagram_hash": ({ZX}, {SPEK, CLIFFORD}),
    "rewrite.replay": ({ZX}, {SPEK, CLIFFORD}),
    "rewrite.apply_rule": ({ZX, RULES}, {SPEK, CLIFFORD}),
    "stabilizer.gate": ({CLIFFORD}, {SPEK, ZX, RULES}),
    "stabilizer.measure": ({CLIFFORD}, {SPEK, ZX, RULES}),
    "stabilizer.outcome_distribution": ({CLIFFORD}, {SPEK, ZX, RULES}),
    "stabilizer.oracle.apply": ({CLIFFORD}, {SPEK, ZX, RULES}),
    "stabilizer.oracle.born": ({CLIFFORD}, {SPEK, ZX, RULES}),
    "stabilizer.oracle.collapse": ({CLIFFORD}, {SPEK, ZX, RULES}),
}


class Tracer:
    def __init__(self):
        self.case_id = ""
        self.keep_spans = True
        self.spans = []
        self._stack = []        # one [child_seconds, span_index] per open span
        self._saved = []        # (owner, attribute, original)
        self.reset()

    def reset(self):
        """Start a new pass: zero the statistics, keep recorded spans."""
        self.stats = {}         # key -> [calls, seconds, self seconds]
        self.counts = Counter()
        self.maxima = Counter()

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None, key=None,
              span=True):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            index = -1
            if span and tracer.keep_spans:
                index = len(tracer.spans)
                tracer.spans.append(None)
            frame = [0.0, index]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                parent = -1
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                    parent = tracer._stack[-1][1]
                for k in (name, key(args) if key else None):
                    if k is None:
                        continue
                    rec = tracer.stats.setdefault(k, [0, 0.0, 0.0])
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                if index >= 0:
                    tracer.spans[index] = (name, t0, t1, parent,
                                           tracer.case_id)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, **kw))

    def install(self):
        p = self._patch
        p(trel.Rel, "compose", "toyrel.compose", before=_count_rel_macs)
        p(trel.Rel, "tensor", "toyrel.tensor")
        p(trel, "spek_generator", "toyrel.spek_generator")
        p(trel, "rel_structure_check", "toyrel.laws",
          key=lambda a: f"toyrel.laws@D{a[0]}")
        p(eqv, "run_equivalence_checks", "equivalence.checks")

        p(sem, "evaluate", "semantics.evaluate", before=_count_spiders)
        proxy = types.ModuleType("numpy")
        proxy.__getattr__ = lambda attr: getattr(np, attr)
        proxy.tensordot = self._wrap("semantics.tensordot", np.tensordot,
                                     after=_count_tensordot)
        self._saved.append((sem, "np", sem.np))
        sem.np = proxy

        p(dg, "validate", "diagram.validate")
        for attr in ("in_edges", "out_edges", "incident", "degree",
                     "neighbors"):
            p(dg.Diagram, attr, "diagram.incidence", span=False,
              before=_count_edge_scan)
        p(dg, "to_json", "diagram.json")
        p(dg, "from_json", "diagram.json")

        p(rw, "simplify", "rewrite.simplify", after=_count_steps)
        p(rw, "find_matches", "rewrite.find_matches", after=_count_hits)
        p(rw, "diagram_hash", "rewrite.diagram_hash")
        p(rw, "replay", "rewrite.replay")
        p(rw, "apply_rule", "rewrite.apply_rule")

        p(st.Tableau, "apply", "stabilizer.gate",
          key=lambda a: f"stabilizer.gate@n{a[0].n}")
        p(st.Tableau, "measure", "stabilizer.measure", after=_count_random)
        p(st.Tableau, "outcome_distribution",
          "stabilizer.outcome_distribution")
        p(st.DenseSimulator, "apply", "stabilizer.oracle.apply")
        p(st.DenseSimulator, "born_probabilities", "stabilizer.oracle.born")
        p(st.DenseSimulator, "collapse", "stabilizer.oracle.collapse")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def calls(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[0]

    def seconds(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[1]

    def self_seconds(self, key):
        return self.stats.get(key, (0, 0.0, 0.0))[2]

    def layer_counters(self) -> dict:
        """Machine-independent counts; equal on every pass of one seed."""
        c = self.calls
        out = {
            "toyrel.compose.calls": c("toyrel.compose"),
            "toyrel.compose.macs": self.counts["compose_macs"],
            "toyrel.spek_generator.calls": c("toyrel.spek_generator"),
            "semantics.evaluate.calls": c("semantics.evaluate"),
            "semantics.tensordot.calls": c("semantics.tensordot"),
            "semantics.tensordot.macs": self.counts["tensordot_macs"],
            "semantics.peak_tensor_elems": self.maxima["tensor_elems"],
            "semantics.spider_tensor_elems.max":
                self.maxima["spider_tensor_elems"],
            "diagram.validate.calls": c("diagram.validate"),
            "diagram.incidence.calls": c("diagram.incidence"),
            "diagram.incidence.edge_scans": self.counts["edge_scans"],
            "rewrite.simplify.steps": self.counts["simplify_steps"],
            "rewrite.find_matches.calls": c("rewrite.find_matches"),
            "rewrite.find_matches.hit_ratio":
                _ratio(self.counts["match_hits"], c("rewrite.find_matches")),
            "rewrite.diagram_hash.calls": c("rewrite.diagram_hash"),
            "rewrite.apply_rule.calls": c("rewrite.apply_rule"),
            "stabilizer.gate.calls": c("stabilizer.gate"),
            "stabilizer.measure.calls": c("stabilizer.measure"),
            "stabilizer.measure.random_ratio":
                _ratio(self.counts["random_outcomes"],
                       c("stabilizer.measure")),
        }
        return out

    def layer_times(self) -> dict:
        s = self.seconds
        compose_s = s("toyrel.compose")
        out = {
            "toyrel.compose.s": compose_s,
            "toyrel.compose.macs_per_s":
                _ratio(self.counts["compose_macs"], compose_s),
            "toyrel.tensor.s": s("toyrel.tensor"),
            "equivalence.checks.s": s("equivalence.checks"),
            "semantics.evaluate.s": s("semantics.evaluate"),
            "semantics.tensordot.s": s("semantics.tensordot"),
            "semantics.plan.s": self.self_seconds("semantics.evaluate"),
            "diagram.validate.s": s("diagram.validate"),
            "diagram.json.s": s("diagram.json"),
            "rewrite.simplify.s": s("rewrite.simplify"),
            "rewrite.simplify.self_s": self.self_seconds("rewrite.simplify"),
            "rewrite.find_matches.s": s("rewrite.find_matches"),
            "rewrite.diagram_hash.s": s("rewrite.diagram_hash"),
            "rewrite.replay.s": s("rewrite.replay"),
            "rewrite.apply_rule.s": s("rewrite.apply_rule"),
            "stabilizer.gate.s": s("stabilizer.gate"),
            "stabilizer.gate.us.n8": _per_call_us(self, "stabilizer.gate@n8"),
            "stabilizer.gate.us.n64":
                _per_call_us(self, "stabilizer.gate@n64"),
            "stabilizer.measure.s": s("stabilizer.measure"),
            "stabilizer.outcome_distribution.s":
                s("stabilizer.outcome_distribution"),
            "stabilizer.oracle.apply.s": s("stabilizer.oracle.apply"),
            "stabilizer.oracle.born.s": s("stabilizer.oracle.born"),
            "stabilizer.oracle.collapse.s": s("stabilizer.oracle.collapse"),
        }
        for D in (2, 3, 4):
            out[f"toyrel.laws_s.D{D}"] = s(f"toyrel.laws@D{D}")
        return out

    def expectation_report(self, workload: str) -> dict:
        silent = sorted(name for name, (fire, _) in EXPECT.items()
                        if workload in fire and not self.calls(name))
        leaked = sorted(name for name, (_, bypass) in EXPECT.items()
                        if workload in bypass and self.calls(name))
        return {"silent": silent, "bypass_hits": leaked}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"columns":["name","start","end","parent","case"],'
                     '"spans":[\n')
            rows = (json.dumps(s, separators=(",", ":"))
                    for s in self.spans if s is not None)
            fh.write(",\n".join(rows))
            fh.write("\n]}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _per_call_us(tracer, key) -> float:
    return _ratio(tracer.seconds(key), tracer.calls(key)) * 1e6


def _count_rel_macs(tracer, args, kwargs):
    rows, inner = args[0].matrix.shape
    tracer.counts["compose_macs"] += rows * inner * args[1].matrix.shape[1]


def _count_spiders(tracer, args, kwargs):
    tracer.maxima["spider_tensor_elems"] = max(
        tracer.maxima["spider_tensor_elems"], spider_tensor_elems(args[0]))


def _count_tensordot(tracer, args, kwargs, result):
    a, b = np.asarray(args[0]), np.asarray(args[1])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else 2)
    if isinstance(axes, int):
        shared = math.prod(a.shape[a.ndim - axes:])
    else:
        shared = math.prod(a.shape[i] for i in axes[0])
    # free(a) * shared * free(b) multiply-adds
    tracer.counts["tensordot_macs"] += a.size * b.size // max(shared, 1)
    tracer.maxima["tensor_elems"] = max(tracer.maxima["tensor_elems"],
                                        a.size, b.size, np.size(result))


def _count_edge_scan(tracer, args, kwargs):
    tracer.counts["edge_scans"] += len(args[0].edges)


def _count_steps(tracer, args, kwargs, result):
    tracer.counts["simplify_steps"] += len(result[1].steps)


def _count_hits(tracer, args, kwargs, result):
    if result:
        tracer.counts["match_hits"] += 1


def _count_random(tracer, args, kwargs, result):
    if not result[1]:
        tracer.counts["random_outcomes"] += 1
