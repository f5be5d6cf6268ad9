"""Command-line front end.

One subcommand per invocation; every subcommand but export-dot offers a
--json mode that prints a single machine-readable object (sorted keys,
compact separators, byte-identical across runs given the same --seed).
Each subcommand parses its arguments, calls one library function and
returns the report it gets, which always holds "passed", with the
report's text lines; it prints nothing.

`run` alone prints and maps results to exit codes: it prints the report
under --json and the lines otherwise.  Exit code 0 means the report's
"passed" holds, that is everything the invocation checked passed, and 1
means a check failed.  Neither mode builds the costly part of the other:
eval's matrix text is built lazily, and a report keeps a matrix, diagram
or trace unconverted until `_emit_json` converts it.  A ValueError (bad
arguments, invalid JSON or diagrams, sizes the library refuses, a diagram
whose matrix overflows) or an OSError (unreadable or unwritable files)
means the invocation itself was unusable: one `error:` line on stderr,
nothing on stdout, exit code 2.  An AssertionError is a broken internal
invariant and stays a traceback.

The comparison tolerance defaults to 1e-9 and can be overridden with the
QUDITZX_TOL environment variable (rule-check also takes --tol); it must be
a positive finite number.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import diagram as dg
from . import equivalence as eqv
from . import phasespace as ps
from . import rewrite as rw
from . import semantics as sem
from . import stabilizer as st
from . import synthesis as sy
from . import toyrel as trel
from .phases import check_size, json_int

__all__ = ["main", "run"]

# The most rule instances one rule-check draws, trials x rules x
# dimensions: CI's sweep of 200 x 7 x 4 = 5,600 takes about 3 s.
_RULE_CHECK_CAP = 10_000
# The most tensor entries its instances may need, trials x the sum over
# rules and dimensions of D^legs, where a rule's record bounds the legs at
# one node of its draws (rewrite.draw_work): the sweep above needs
# 4,756,000. At D=16 it admits 2 trials of each rule (about 0.5 s) or 4 of
# S_fuse alone (0.3-6 s), where the instance cap alone would admit runs of
# many minutes.
_RULE_WORK_CAP = 2 ** 26


def _tolerance(flag: float | None = None) -> float:
    """--tol when given, else QUDITZX_TOL, else 1e-9."""
    if flag is None:
        name, raw = "QUDITZX_TOL", os.environ.get("QUDITZX_TOL") or "1e-9"
    else:
        name, raw = "--tol", flag
    try:
        tol = float(raw)
    except ValueError:
        tol = math.nan
    if not 0 < tol < math.inf:
        raise ValueError(f"{name} must be a positive finite number, "
                         f"got {raw!r}")
    return tol


def _jsonable(obj):
    """json.dumps' fallback for what a report keeps unconverted until it
    is printed: a complex matrix as rows of [re, im] pairs, a diagram or
    a trace as its JSON object."""
    if isinstance(obj, np.ndarray):
        return np.stack([obj.real, obj.imag], axis=-1).tolist()
    if isinstance(obj, dg.Diagram):
        return dg.to_json_dict(obj)
    return obj.to_json_dict()


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":"),
                     default=_jsonable))


def _load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError:
        # json reads an integer literal with int(), which refuses more
        # digits than the interpreter's limit for integer strings.
        raise ValueError(f"{path}: invalid JSON: an integer has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None


def _load_diagram(path: str) -> dg.Diagram:
    obj = _load_json_file(path)
    try:
        return dg.from_json_dict(obj)
    except ValueError as exc:
        raise ValueError(f"{path}: not a valid diagram: {exc}") from exc


def _parse_dims(raw: str) -> list:
    try:
        dims = [int(part) for part in raw.split(",") if part]
    except ValueError:
        dims = []
    if not dims or min(dims) < 2:
        raise ValueError(f"bad dimension list: {raw!r}")
    return dims


def _check_lines(report: dict, label: str, holds: str) -> list:
    """The text of a {"checks": [...], "passed": ...} report."""
    lines = []
    for check in report["checks"]:
        status = "pass" if check["passed"] else "FAIL"
        detail = f"  ({check['detail']})" if check["detail"] else ""
        lines.append(f"{check['id']:<36} {status}{detail}")
    lines.append(f"{label}: "
                 + (f"all {holds} hold" if report["passed"] else "FAILURES"))
    return lines


def _evaluate(d: dg.Diagram, method: str = "fast"):
    """The diagram's operator, refused with one line when an entry of its
    matrix overflows: a finite scalar and finite tensors can still have a
    product past the largest float, which would print as inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        op = sem.evaluate(d, method)
    if not np.isfinite(op.matrix).all():
        raise ValueError(f"the diagram's matrix overflows: the {method} "
                         "evaluation has an entry past the largest float "
                         f"({np.finfo(float).max:.3g})")
    return op


def _matrix_text(matrix: np.ndarray) -> str:
    """The matrix rounded to 10 decimals, but for entries too large to
    scale by 10^10, which are printed as they are."""
    with np.errstate(over="ignore"):
        rounded = np.round(matrix, 10)
    shown = np.where(np.isfinite(rounded), rounded, matrix)
    return np.array2string(shown, max_line_width=120, suppress_small=True)


# ---------------------------------------------------------------------------
# subcommands: each returns (report, lines), the object printed under
# --json and the lines printed otherwise; run prints one of them


def _cmd_eval(args) -> tuple:
    d = _load_diagram(args.diagram)
    tol = _tolerance()
    op = _evaluate(d, "fast" if args.method == "both" else args.method)
    report = {"dim": op.dim, "nIn": op.n_in, "nOut": op.n_out,
              "matrix": op.matrix, "method": args.method, "passed": True}
    if args.method == "both":
        ref = _evaluate(d, "reference")
        deviation = float(np.max(np.abs(op.matrix - ref.matrix)))
        report.update(crossDeviation=deviation, passed=deviation <= tol)

    def lines():
        yield f"dimension {op.dim}, {op.n_in} inputs -> {op.n_out} outputs"
        yield _matrix_text(op.matrix)
        if "crossDeviation" in report:
            yield (f"fast vs reference deviation: "
                   f"{report['crossDeviation']:.3e} "
                   f"({'ok' if report['passed'] else 'FAIL'} at tol {tol:g})")
    return report, lines()


def _cmd_simplify(args) -> tuple:
    d = _load_diagram(args.diagram)
    tol = _tolerance()
    simplified, trace = rw.simplify(d)
    report = {"diagram": simplified, "trace": trace,
              "steps": len(trace.steps), "edgesBefore": len(d.edges),
              "edgesAfter": len(simplified.edges), "passed": True}
    lines = [f"{len(trace.steps)} rewrite steps, edges "
             f"{len(d.edges)} -> {len(simplified.edges)}"]
    lines += [f"  {step.rule} at {step.site}" for step in trace.steps]
    if args.verify:
        scale, deviation, report["passed"] = sem.compare_scalar_exact(
            _evaluate(d).matrix, _evaluate(simplified).matrix, tol)
        if scale is not None:
            report["verifyDeviation"] = deviation
            lines.append(f"semantics preserved to {deviation:.3e}")
    if not report["passed"]:
        lines.append("verification FAILED")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dg.to_json(simplified) + "\n")
    return report, lines


def _cmd_rule_check(args) -> tuple:
    tol = _tolerance(args.tol)
    dims = _parse_dims(args.dim)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rules = rw.RULES if args.rule == "all" else [args.rule]
    check_size(args.trials, 1, _RULE_CHECK_CAP, "rule-check refuses {base} "
               "trials x {0} rules x {1} dimensions = {size} instances, "
               "above its cap of {cap}", len(rules), len(dims),
               times=len(rules) * len(dims))
    for dim in dims:
        rw.check_instance_dim(dim)
    check_size(args.trials, 1, _RULE_WORK_CAP, "rule-check refuses {base} "
               "trials x {0} rules at D={1}: trials x the sum of D^legs over "
               "rules and D = {size} tensor entries, above its cap of {cap}",
               len(rules), ",".join(map(str, dims)),
               times=rw.draw_work(rules, dims))
    reports = [rw.soundness_report(rule, dim, trials=args.trials,
                                   seed=args.seed, tol=tol)
               for rule in rules for dim in dims]
    passed = all(r["passed"] for r in reports)
    lines = [f"{r['rule']:<12} D={r['dim']}  trials={r['trials']}  "
             f"max deviation {r['maxDeviation']:.3e}  "
             + ("pass" if r["passed"] else "FAIL") for r in reports]
    lines.append("all rules sound" if passed else "soundness FAILURES")
    return {"tol": tol, "passed": passed, "reports": reports}, lines


def _parse_state(raw: str, dim: int) -> np.ndarray:
    try:
        entries = [complex(part.strip().replace(" ", ""))
                   for part in raw.split(",")]
    except ValueError:
        raise ValueError(f"bad --state: {raw!r} (use complex literals, "
                         "e.g. '1,0,0' or '1+2j,0.5,-1j')") from None
    if len(entries) != dim:
        raise ValueError(f"--state needs {dim} entries, got {len(entries)}")
    return np.array(entries, dtype=complex)


def _cmd_synth(args) -> tuple:
    tol = _tolerance()
    sy.check_dim(args.dim)
    if args.target == "xj":
        pv = sy.synth_xj(args.j, args.phi, args.dim)
        return {"dim": args.dim, "target": f"x_{args.j}", "phi": args.phi,
                "alphaTurns": pv.to_json(),
                "alphaRadians": [t.radians for t in pv], "passed": True}, [
            f"X_{args.j} eigenphase {args.phi:g}: Z-spider phases "
            + ", ".join(str(t) for t in pv)]
    if args.state is not None:
        b = _parse_state(args.state, args.dim)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
    try:
        result = sy.synth_zj(args.j, b, route=args.route)
    except sy.DegenerateStateError as exc:
        return {"dim": args.dim, "target": f"z_{args.j}", "degenerate": True,
                "reason": str(exc), "passed": False}, [
            f"degenerate input state: {exc}"]
    passed = result.residual <= max(tol, 1e-6)
    report = {
        "dim": result.dim,
        "target": f"z_{args.j}",
        "route": result.route,
        "state": [[float(z.real), float(z.imag)] for z in b],
        "alphaRadians": [float(a.real) for a in result.alpha],
        "alphaImagParts": [float(a.imag) for a in result.alpha],
        "residual": result.residual,
        "unitary": result.unitary,
        "passed": passed,
    }
    if result.phase_vector is not None:
        report["alphaTurns"] = result.phase_vector.to_json()
    lines = ["alpha (radians, alpha_0 = 0): "
             + ", ".join(f"{float(a.real):.6f}" for a in result.alpha)]
    if not result.unitary:
        lines.append("note: alpha is complex; the map is invertible but not "
                     "unitary")
    lines.append(f"residual to e_{args.j}: {result.residual:.3e} "
                 f"({'ok' if passed else 'FAIL'})")
    return report, lines


def _cmd_stab_run(args) -> tuple:
    tol = _tolerance()
    obj = _load_json_file(args.circuit)
    try:
        n = json_int(obj["n"], f"{args.circuit}: n")
        dim = json_int(obj["dim"], f"{args.circuit}: dim")
        circuit = list(obj["circuit"])
    except (KeyError, TypeError):
        raise ValueError(f"{args.circuit}: circuit file needs n, dim and "
                         "circuit fields") from None
    report = st.run_circuit(circuit, n, dim, seed=args.seed,
                            oracle=args.oracle)
    report["passed"] = (not args.oracle
                        or report["maxProbabilityDeviation"] <= tol)
    lines = [f"measured wire {o['wire']} in {o['basis']}: {o['outcome']} "
             f"({'deterministic' if o['deterministic'] else 'random'})"
             for o in report["outcomes"]]
    if args.oracle:
        lines.append(f"tableau vs dense deviation: "
                     f"{report['maxProbabilityDeviation']:.3e} "
                     f"({'ok' if report['passed'] else 'FAIL'})")
    return report, lines


def _cmd_spek_check(args) -> tuple:
    report = trel.rel_structure_check(args.dim)
    return report, _check_lines(report, f"D={args.dim}", "laws")


def _cmd_phase_space(args) -> tuple:
    report = ps.phase_space_report(args.dim, args.n, seed=args.seed,
                                   cases=args.cases)
    return report, _check_lines(report, f"d={args.dim}, n={args.n}",
                                "properties")


def _cmd_equiv(args) -> tuple:
    report = eqv.run_equivalence_checks()
    poss = report["possibilistic"]
    prob = report["probabilities"]
    groups = report["phaseGroups"]
    equi = report["equivariance"]
    return report, [
        f"possibilistic pairs: {poss['pairs'] - len(poss['failures'])}/"
        f"{poss['pairs']} consistent",
        f"exact probabilities: {prob['pairs'] - len(prob['failures'])}/"
        f"{prob['pairs']} matching, values "
        f"{{{', '.join(prob['valuesSeen'])}}}",
        f"phase groups: toy Z_3 x Z_3, quantum factors "
        f"{groups['quantumFactors']}, dictionary homomorphism "
        f"{'holds' if groups['dictionaryHomomorphism'] else 'FAILS'}",
        f"equivariance: {equi['stateChecks']} map/state checks, "
        f"{len(equi['failures'])} failures",
        "operationally equivalent" if report["passed"]
        else "equivalence FAILURES"]


def _cmd_export_dot(args) -> tuple:
    text = dg.export_dot(_load_diagram(args.diagram))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return {"passed": True}, []
    return {"passed": True}, text.splitlines()


# ---------------------------------------------------------------------------
# argument wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditzx",
        description="Qudit ZX diagrams, rewriting, stabilizer simulation, "
                    "and the relational toy theory.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a diagram to a matrix")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--method", choices=("fast", "reference", "both"),
                   default="fast")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simplify", help="run the shrinking rewrite loop")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--verify", action="store_true",
                   help="evaluate before and after and compare")
    p.add_argument("--out", help="write the simplified diagram JSON here")
    p.set_defaults(func=_cmd_simplify)

    p = sub.add_parser("rule-check", help="rewrite-rule soundness battery")
    p.add_argument("--rule", default="all",
                   help="rule name or 'all' (default)")
    p.add_argument("--dim", default="2,3,4,5",
                   help="comma-separated dimensions (default 2,3,4,5)")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="override QUDITZX_TOL for this run")
    p.set_defaults(func=_cmd_rule_check)

    p = sub.add_parser("synth", help="solve for spider phases hitting a "
                                     "basis state or eigenphase")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--target", choices=("zj", "xj"), required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--phi", type=float, default=0.0,
                   help="eigenphase in radians (xj target)")
    p.add_argument("--state", default=None,
                   help="input amplitudes as comma-separated complex "
                        "literals (zj target)")
    p.add_argument("--seed", type=int, default=0,
                   help="random input state when --state is omitted")
    p.add_argument("--route", choices=("beta", "qutrit"), default="beta")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stab-run", help="run a Clifford circuit on the "
                                        "stabilizer tableau")
    p.add_argument("circuit", help="circuit JSON file with n, dim, circuit")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every measurement against the dense "
                        "simulator")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stab_run)

    p = sub.add_parser("spek-check", help="relational observable-structure "
                                          "law battery")
    p.add_argument("--dim", type=int, default=3)
    p.set_defaults(func=_cmd_spek_check)

    p = sub.add_parser("phase-space", help="epistemic phase-space property "
                                           "battery")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=25)
    p.set_defaults(func=_cmd_phase_space)

    p = sub.add_parser("equiv", help="toy theory vs qutrit stabilizer "
                                     "equivalence checks")
    p.set_defaults(func=_cmd_equiv)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("export-dot", help="render a diagram as Graphviz DOT")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_export_dot, json=False)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, lines = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit_json(report)
    else:
        for line in lines:
            print(line)
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
