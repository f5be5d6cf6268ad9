"""The `quditzx` command's contracts, one table row each.

`check` is the one judge of a run, and it states what every row shares:
a refusal (exit 2) prints one `error:` line to stderr and nothing to
stdout, and any other run prints nothing to stderr. Tier-1
(`tests/test_cli.py`) runs each row that is not `ci_only` in-process
through `cli.run`; a row that takes more than about 0.5 s there is
`ci_only`. CI runs every row as `python -m quditzx.cli` in a subprocess
under the row's time limit, and exits 1 naming each row that failed:

    PYTHONPATH=src python tests/cli_cases.py
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple

from quditzx import diagram as dg
from quditzx.phases import PhaseVector


class Row(NamedTuple):
    """One contract: argv, split on spaces, each part formatted with the
    names of write_inputs; the exit code; texts that stdout and stderr
    together must hold and must not hold, formatted as argv is; a test of
    the parsed stdout; QUDITZX_TOL's value, or None to unset it; and the
    time limit in seconds for the whole subprocess."""
    argv: str
    code: int = 2
    has: tuple = ()
    lacks: tuple = ()
    out_json: Callable | None = None
    tol: str | None = None
    limit: int = 10
    ci_only: bool = False

    @property
    def id(self) -> str:
        prefix = "" if self.tol is None else f"QUDITZX_TOL={self.tol} "
        return prefix + self.argv


def _outcomes(report) -> list:
    return [(o["outcome"], o["deterministic"]) for o in report["outcomes"]]


ROWS = [
    # the law batteries at their largest sizes
    Row("spek-check --dim 7", 0, limit=20, ci_only=True),
    Row("phase-space --dim 2 --n 1 --cases 3855", 0, limit=20, ci_only=True),
    # 509^2 points, at a seed where neither state knows a variable
    Row("phase-space --dim 509 --n 1 --cases 1 --seed 1", 0, limit=20,
        ci_only=True),
    Row("spek-check --dim 1"),
    Row("spek-check --dim 0"),
    Row("spek-check --dim 8"),
    Row("phase-space --dim 4"),
    Row("phase-space --n 0"),
    Row("phase-space --cases 0"),
    Row("phase-space --cases -3"),
    Row("phase-space --dim 3 --n 50 --cases 1"),
    Row("phase-space --dim 3 --n 1 --cases 100000000"),
    Row("phase-space --dim 2 --n 1 --cases 16384"),
    Row("phase-space --n {nines}", lacks=("int_max_str_digits",)),
    # the evaluators' size caps
    Row("eval {chain47} --method reference"),
    Row("eval {fbox}"),
    Row("eval {spider11}"),
    Row("eval {x1}"),
    Row("eval {pair}", has=("node 0", "3^9500"),
        lacks=("int_max_str_digits",)),
    Row("eval {cnot} --method both", tol="nan"),
    Row("eval {cnot} --method both", tol="inf"),
    # the diagram decoder
    Row("eval {missing} --json"),
    Row("eval {notjson}", has=("invalid JSON",)),
    Row("eval {notdiagram}", has=("not a valid diagram",)),
    Row("eval {dimfloat}"),
    Row("eval {dimtext}"),
    Row("eval {idfloat}"),
    Row("eval {positionbool}"),
    Row("eval {edgefloat}"),
    Row("eval {exactfloat}"),
    Row("eval {scalarnan}"),
    Row("eval {scalarthree}"),
    Row("eval {scalartext}"),
    Row("eval {edgethree}"),
    Row("eval {edgeint}"),
    Row("eval {kindlist}"),
    Row("eval {noderecint}"),
    Row("eval {nodesint}"),
    Row("eval {edgesint}"),
    Row("eval {nokind}"),
    Row("eval {noposition}"),
    Row("eval {exactthree}"),
    Row("eval {exactone}"),
    Row("eval {exactint}"),
    Row("eval {phaseobject}"),
    Row("eval {phasetext}"),
    Row("eval {exact3}", has=("node 0", "[numerator, denominator]")),
    Row("eval {latin1}", has=("{latin1}: not UTF-8",)),
    # matrices past the largest float
    Row("simplify {cnot} --out {missing}/x.json"),
    Row("simplify {fcycle}"),
    Row("eval {fcycle}", has=("overflows",)),
    Row("eval {fcycle} --json"),
    Row("eval --method both {fcycle}"),
    Row("eval {zbig} --method reference"),
    Row("simplify --verify {zbig}"),
    Row("export-dot {cnot} --out {missing}/x.dot"),
    # rule-check's tolerance and work caps, refused before any draw
    Row("rule-check --rule S_fuse --dim 2 --trials 1 --tol 0"),
    Row("rule-check --rule S_fuse --dim 2 --trials 1 --tol -1"),
    Row("rule-check --rule S_fuse --dim 2 --trials 1 --tol nan"),
    Row("rule-check --dim 100000000 --trials 1"),
    Row("rule-check --trials 1000000000000"),
    Row("rule-check --dim 32 --trials 1", has=("D=32",), lacks=("node",)),
    Row("rule-check --dim 16 --trials 50", has=("D=16",)),
    Row("rule-check --rule S_fuse --dim 16 --trials 16", has=("D=16",)),
    Row("rule-check --dim 16 --trials 2", 0, limit=30),
    # 200 instances of each public rule at D=2..5, on a seed apart from
    # Tier-1's
    Row("rule-check --dim 2,3,4,5 --trials 200 --seed 7", 0, limit=60,
        ci_only=True),
    # stab-run's circuit files and its caps
    Row("stab-run {cnot00}"),
    Row("stab-run {cnot00} --oracle"),
    Row("stab-run {wire5}"),
    Row("stab-run {wireneg}"),
    Row("stab-run {wireneg} --oracle"),
    Row("stab-run {measure0}"),
    Row("stab-run {sqtext}"),
    Row("stab-run {noqudits}"),
    Row("stab-run {sqbool}"),
    Row("stab-run {sqthree}"),
    Row("stab-run {wirebool}"),
    Row("stab-run {basisy}"),
    Row("stab-run {dim0}"),
    Row("stab-run {nfloat}"),
    Row("stab-run {nbool}"),
    Row("stab-run {dimtext3}"),
    # a circuit that is not a list is refused in one line that names the
    # file and the field; an empty list is a circuit
    Row("stab-run {circobject}",
        has=("{circobject}: circuit must be a list",)),
    Row("stab-run {circobject} --json"),
    Row("stab-run {circtext}", has=("{circtext}: circuit must be a list",)),
    Row("stab-run {circdict}", has=("{circdict}: circuit must be a list",)),
    Row("stab-run {circempty} --json", 0,
        out_json=lambda r: _outcomes(r) == []),
    Row("stab-run {oracle40} --oracle"),
    Row("stab-run {oracle1021} --oracle"),
    Row("stab-run {oracle10000} --oracle"),
    Row("stab-run {oracle3000} --oracle"),
    Row("stab-run {dimbound}"),
    Row("stab-run {dimhuge}"),
    # the largest Born distribution the dense oracle's work cap admits
    Row("stab-run {d401} --oracle", 0, limit=20),
    # Z at the end of a CNOT ladder is the product of all 2,048
    # stabilizers; a phase over all pairs of used rows, O(n^3), would run
    # past the limit
    Row("stab-run {ladder} --json", 0,
        out_json=lambda r: _outcomes(r) == [(0, True)], ci_only=True),
    Row("synth --dim 3 --target xj --j 1 --phi nan"),
    Row("synth --dim 3 --target zj --j 0 --state nan,0,0"),
    Row("synth --dim 100000 --target zj --j 0"),
    Row("synth --dim 100000 --target xj --j 1 --phi 0.5"),
]


DROP = object()
_EXACT = ["nodes", 0, "phase", 0, "exact"]
_PART = "an exact phase part must be an integer, got "
_PAIR = ("node 0 phase entry 0: an exact phase must be a [numerator, "
         "denominator] pair of integers, got ")
# Diagrams that from_json refuses, each the CNOT diagram with a field set
# at each path (DROP deletes it instead), by the name the inputs use, and
# the refusal's exact text. Node 0 is its Z spider, node 1 its X spider
# and node 3 an input; both spiders' phases are [0/1, 0/1].
DIAGRAM_FAULTS = [
    ("dimfloat", [(["dimension"], 3.9)],
     "dimension must be an integer, got 3.9"),
    ("dimtext", [(["dimension"], "3")],
     "dimension must be an integer, got '3'"),
    ("idfloat", [(["nodes", 5, "id"], 5.7)],
     "node id must be an integer, got 5.7"),
    ("positionbool", [(["nodes", 3, "position"], True)],
     "node 3 position must be an integer, got True"),
    ("edgefloat", [(["edges", 4, 1], 0.0)],
     "edge 4 target must be an integer, got 0.0"),
    ("exactfloat", [(_EXACT, [1.5, 3])], _PART + "1.5"),
    ("scalarnan", [(["scalar"], [math.nan, 0.0])],
     "scalar must be two finite numbers, got [nan, 0.0]"),
    ("scalarthree", [(["scalar"], [1.0, 0.0, 0.0])],
     "scalar must be two finite numbers, got [1.0, 0.0, 0.0]"),
    ("scalartext", [(["scalar"], ["1", 0])],
     "scalar must be two finite numbers, got ['1', 0]"),
    ("edgethree", [(["edges", 4], [2, 0, 7])],
     "edge 4 must be a [source, target] pair, got [2, 0, 7]"),
    ("edgeint", [(["edges", 4], 5)],
     "edge 4 must be a [source, target] pair, got 5"),
    ("kindlist", [(["nodes", 3, "kind"], ["Z"])],
     "node 3 has an unknown kind ['Z']"),
    ("noderecint", [(["nodes", 3], 5)],
     "node record 3 must be an object, got 5"),
    ("nodesint", [(["nodes"], 5)], "nodes must be a list, got 5"),
    ("edgesint", [(["edges"], 5)], "edges must be a list, got 5"),
    ("nokind", [(["nodes", 3, "kind"], DROP)], "node 3 has no 'kind' field"),
    ("noposition", [(["nodes", 3, "position"], DROP)],
     "node 3 has no 'position' field"),
    # a later spider repeating an earlier phase with a part that equals
    # the earlier one in Python, but is not a JSON integer
    ("repeatfloat", [(["nodes", 1, "phase", 0, "exact"], [0, 1.0])],
     _PART + "1.0"),
    ("repeatbool", [(["nodes", 1, "phase", 0, "exact"], [0, True])],
     _PART + "True"),
    ("repeatfalse", [(["nodes", 1, "phase", 0, "exact"], [False, 1])],
     _PART + "False"),
    ("repeattext", [(["nodes", 1, "phase", 0, "exact"], [0, "1"])],
     _PART + "'1'"),
    ("repeatapprox", [(["nodes", 0, "phase"], [{"approx": 1}] * 2),
                      (["nodes", 1, "phase"], [{"approx": True}] * 2)],
     "approximate phase is not finite or not a number: {'approx': True}"),
    # malformed phases, each named by its node
    ("exactthree", [(_EXACT, [1, 2, 3])], _PAIR + "[1, 2, 3]"),
    ("exactone", [(_EXACT, [1])], _PAIR + "[1]"),
    ("exactint", [(_EXACT, 5)], _PAIR + "5"),
    ("phaseobject", [(["nodes", 0, "phase"], {"exact": [1, 2]})],
     "node 0 phase must be a list, got {'exact': [1, 2]}"),
    ("phasetext", [(["nodes", 0, "phase"], "1/3")],
     "node 0 phase must be a list, got '1/3'"),
]


def cnot_with(changes) -> dict:
    """The CNOT diagram's JSON object with each (path, value) set."""
    obj = json.loads(dg.to_json(dg.generator_diagram("cnot", 3)))
    for path, value in changes:
        target = obj
        for key in path[:-1]:
            target = target[key]
        if value is DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return obj


def _circuit(n: int, dim: int, *steps) -> str:
    return json.dumps({"n": n, "dim": dim, "circuit": list(steps)})


def write_inputs(root: Path) -> dict:
    """Write every input of the rows into root; return each one's path by
    the name the rows use, with `missing`, a path that does not exist, and
    `nines`, an argument of 4,300 digits."""
    files = {"missing": str(root / "missing"), "nines": "9" * 4300}

    def write(name, text):
        path = root / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        files[name] = str(path)

    write("cnot", dg.to_json(dg.generator_diagram("cnot", 3)))
    for name, changes, _ in DIAGRAM_FAULTS:
        write(name, json.dumps(cnot_with(changes)))
    write("notjson", "this is not json")
    write("notdiagram", '{"answer": 42}')
    # a file whose first byte is not UTF-8
    write("latin1", b"\xff{}")
    b = dg.DiagramBuilder(3)
    prev = b.add_input(0)
    for _ in range(46):
        v = b.add_spider(dg.Z)
        b.add_edge(prev, v)
        prev = v
    b.add_edge(prev, b.add_output(0))
    chain = b.finish()
    assert len(chain.edges) == 47  # past the reference evaluator's cap
    write("chain47", dg.to_json(chain))
    # a D=5 spider with 11 legs: 5^11 entries, past the fast path's cap
    write("spider11", dg.to_json(dg.spider_diagram(5, dg.X, 5, 6)))
    # a one-legged X spider at D=10^4: a tensor of 10^4 entries, but its
    # weights would need a 10^4 x 10^4 eta table (1.6 GB)
    b = dg.DiagramBuilder(10 ** 4)
    b.add_edge(b.add_spider(dg.X, PhaseVector.zero(10 ** 4)), b.add_output(0))
    write("x1", dg.to_json(b.finish()))
    # a Z and an X spider joined by 9,500 edges at D=3: node 0's tensor of
    # 3^9500 entries is past the fast path's cap
    b = dg.DiagramBuilder(3)
    z, x = b.add_spider(dg.Z), b.add_spider(dg.X)
    for _ in range(9500):
        b.add_edge(z, x)
    b.add_edge(x, b.add_output(0))
    write("pair", dg.to_json(b.finish()))
    # an F box with one input and two outputs
    write("fbox", json.dumps({
        "dimension": 3, "scalar": [1, 0],
        "nodes": [{"id": 0, "kind": "in", "position": 0},
                  {"id": 1, "kind": "F", "inPort": 0, "outPort": 1},
                  {"id": 2, "kind": "out", "position": 0},
                  {"id": 3, "kind": "out", "position": 1}],
        "edges": [[0, 1], [1, 2], [1, 3]]}))
    # a closed F/Fdag cycle with the scalar 1e308: each number in the file
    # is finite, but its matrix, and F2_cancel's scalar times D, are past
    # the largest float
    write("fcycle", json.dumps({
        "dimension": 3, "scalar": [1e308, 0.0],
        "nodes": [{"id": 0, "kind": "F"}, {"id": 1, "kind": "Fdag"}],
        "edges": [[0, 1], [1, 0]]}))
    # a Z spider whose exact phase has three parts
    write("exact3", json.dumps({
        "dimension": 2, "scalar": [1.0, 0.0],
        "nodes": [{"id": 0, "kind": "Z", "phase": [{"exact": [1, 2, 3]}]}],
        "edges": []}))
    # a legless Z spider, worth D times its scalar: finite as written, and
    # its matrix past the largest float
    b = dg.DiagramBuilder(3)
    b.add_spider(dg.Z)
    zbig = dg.to_json_dict(b.finish())
    zbig["scalar"] = [1e308, 1e308]
    write("zbig", json.dumps(zbig))
    for name, n, step in [
            ("cnot00", 2, {"gate": "CNOT", "wires": [0, 0]}),
            ("wire5", 2, {"gate": "F", "wires": [5]}),
            ("wireneg", 2, {"gate": "F", "wires": [-1]}),
            ("measure0", 2, {"gate": "measure", "wires": []}),
            ("sqtext", 2, {"gate": "Sq", "wires": [0], "q": "a"}),
            ("noqudits", 0, {"gate": "measure", "wires": [0]}),
            ("sqbool", 2, {"gate": "Sq", "wires": [0], "q": True}),
            ("sqthree", 2, {"gate": "Sq", "wires": [0], "q": 3}),
            ("wirebool", 2, {"gate": "F", "wires": [True]}),
            ("basisy", 2, {"gate": "measure", "wires": [0], "basis": "Y"})]:
        write(name, _circuit(n, 3, step))
    write("dim0", _circuit(1, 0))
    write("nfloat", _circuit(1.5, 3))
    write("nbool", _circuit(True, 3))
    write("dimtext3", _circuit(1, "3"))
    write("circempty", _circuit(1, 3))
    # circuits that are not lists: each is refused, not read key by key
    # or character by character
    for name, circuit in [("circobject", {}), ("circtext", "F"),
                          ("circdict", {"gate": "F"})]:
        write(name, json.dumps({"n": 1, "dim": 3, "circuit": circuit}))
    measure_x = {"gate": "measure", "wires": [0], "basis": "X"}
    # primes past the tableau's int64 bound D < 2^20
    write("dimbound", _circuit(1, 1048583, measure_x))
    write("dimhuge", _circuit(1, 10 ** 18 + 9, measure_x))
    # 2^40 amplitudes: past the dense oracle's cap
    write("oracle40", _circuit(40, 2, {"gate": "F", "wires": [0]},
                               {"gate": "measure", "wires": [0],
                                "basis": "Z"}))
    # past the tableau's 4096-qudit cap, and past the dense oracle's cap
    # by a D^n of 1432 digits
    for n in (10000, 3000):
        write(f"oracle{n}", _circuit(n, 3, {"gate": "measure", "wires": [0],
                                            "basis": "Z"}))
    # 1021^2 amplitudes pass the dense oracle's cap; its CNOT matrix of
    # 1021^4 entries does not
    write("oracle1021", _circuit(2, 1021, {"gate": "CNOT", "wires": [0, 1]},
                                 {"gate": "measure", "wires": [0],
                                  "basis": "Z"}))
    # one qudit at D=401: D^(n+2) = 64,481,201 Born updates, just under
    # the dense oracle's MAX_DENSE_WORK
    write("d401", _circuit(1, 401, {"gate": "F", "wires": [0]}, measure_x))
    # 2,048 qutrits: a CNOT(k, k+1) ladder, then Z on the last wire
    write("ladder", _circuit(
        2048, 3, *[{"gate": "CNOT", "wires": [k, k + 1]} for k in range(2047)],
        {"gate": "measure", "wires": [2047], "basis": "Z"}))
    return files


def check(row: Row, files: dict, code: int, out: str, err: str) -> list:
    """What is wrong with a run of row, given its exit code and output;
    an empty list when it keeps the contract."""
    problems = []
    if code != row.code:
        problems.append(f"exit code {code}, not {row.code}")
    if row.code == 2:
        if out:
            problems.append("a refusal printed to stdout")
        if not err.startswith("error:") or err.count("\n") != 1:
            problems.append("a refusal is not one 'error:' line on stderr")
    elif err:
        problems.append("stderr is not empty")
    text = out + err
    has = [t.format(**files) for t in row.has]
    lacks = [t.format(**files) for t in row.lacks]
    problems += [f"lacks {t!r}" for t in has if t not in text]
    problems += [f"holds {t!r}" for t in lacks if t in text]
    if row.out_json is not None:
        try:
            passed = row.out_json(json.loads(out))
        except (ValueError, KeyError, TypeError):
            passed = False
        if not passed:
            problems.append("its JSON output fails the row's test")
    return problems


def argv(row: Row, files: dict) -> list:
    return [part.format(**files) for part in row.argv.split()]


def run_subprocess(row: Row, files: dict) -> tuple:
    """(exit code, stdout, stderr) of row as `python -m quditzx.cli`;
    exit code 124, as GNU timeout's, when it runs past row.limit."""
    env = {k: v for k, v in os.environ.items() if k != "QUDITZX_TOL"}
    if row.tol is not None:
        env["QUDITZX_TOL"] = row.tol
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quditzx.cli", *argv(row, files)],
            capture_output=True, text=True, timeout=row.limit, env=env)
    except subprocess.TimeoutExpired:
        return 124, "", f"ran past its {row.limit} s limit\n"
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(Path(tmp))
        for row in ROWS:
            start = time.perf_counter()
            code, out, err = run_subprocess(row, files)
            problems = check(row, files, code, out, err)
            print(f"{'FAIL' if problems else 'ok':4} "
                  f"{time.perf_counter() - start:6.2f} s  {row.id}")
            if problems:
                failed.append(row.id)
                print("     " + "; ".join(problems))
                print("     stderr: " + err[:400].rstrip())
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} rows hold")
    for row_id in failed:
        print(f"failed: {row_id}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
