"""Command-line front end.

One subcommand per invocation; every subcommand offers a --json mode that
prints a single machine-readable object (sorted keys, compact separators,
byte-identical across runs given the same --seed).  Each subcommand parses
its arguments, calls one library function and prints the report it gets.

`run` alone maps exceptions to exit codes.  Exit code 0 means everything
the invocation checked passed and 1 means a check failed.  A ValueError
(bad arguments, invalid JSON or diagrams, sizes the library refuses) or an
OSError (unreadable or unwritable files) means the invocation itself was
unusable: one `error:` line on stderr, nothing on stdout, exit code 2.  An
AssertionError is a broken internal invariant and stays a traceback.

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
from .phases import json_int

__all__ = ["main", "run"]


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


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_json_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def _load_diagram(path: str) -> dg.Diagram:
    obj = _load_json_file(path)
    try:
        return dg.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a valid diagram: {exc}") from exc


def _parse_dims(raw: str) -> list:
    try:
        dims = [int(part) for part in raw.split(",") if part]
    except ValueError:
        dims = []
    if not dims or min(dims) < 2:
        raise ValueError(f"bad dimension list: {raw!r}")
    return dims


def _print_matrix(matrix: np.ndarray) -> None:
    print(np.array2string(np.round(matrix, 10), max_line_width=120,
                          suppress_small=True))


def _report_checks(args, report: dict, label: str, holds: str) -> int:
    """Print a {"checks": [...], "passed": ...} report; its exit code."""
    if args.json:
        _emit_json(report)
    else:
        for check in report["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            detail = f"  ({check['detail']})" if check["detail"] else ""
            print(f"{check['id']:<36} {status}{detail}")
        print(f"{label}: "
              + (f"all {holds} hold" if report["passed"] else "FAILURES"))
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(args) -> int:
    d = _load_diagram(args.diagram)
    tol = _tolerance()
    if args.method == "both":
        fast = sem.evaluate(d, "fast")
        ref = sem.evaluate(d, "reference")
        deviation = float(np.max(np.abs(fast.matrix - ref.matrix)))
        passed = deviation <= tol
        op = fast
    else:
        op = sem.evaluate(d, args.method)
        deviation = None
        passed = True
    if args.json:
        out = op.to_json_dict()
        out["method"] = args.method
        if deviation is not None:
            out["crossDeviation"] = deviation
        out["passed"] = passed
        _emit_json(out)
    else:
        print(f"dimension {op.dim}, {op.n_in} inputs -> {op.n_out} outputs")
        _print_matrix(op.matrix)
        if deviation is not None:
            print(f"fast vs reference deviation: {deviation:.3e} "
                  f"({'ok' if passed else 'FAIL'} at tol {tol:g})")
    return 0 if passed else 1


def _cmd_simplify(args) -> int:
    d = _load_diagram(args.diagram)
    tol = _tolerance()
    simplified, trace = rw.simplify(d)
    scale, deviation, passed = None, None, True
    if args.verify:
        scale, deviation, passed = sem.compare_scalar_exact(
            sem.evaluate(d).matrix, sem.evaluate(simplified).matrix, tol)
    out = {
        "diagram": dg.to_json_dict(simplified),
        "trace": trace.to_json_dict(),
        "steps": len(trace.steps),
        "edgesBefore": len(d.edges),
        "edgesAfter": len(simplified.edges),
        "passed": passed,
    }
    if scale is not None:
        out["verifyDeviation"] = deviation
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out["diagram"], fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
    if args.json:
        _emit_json(out)
    else:
        print(f"{len(trace.steps)} rewrite steps, edges "
              f"{len(d.edges)} -> {len(simplified.edges)}")
        for step in trace.steps:
            print(f"  {step.rule} at {step.site}")
        if scale is not None:
            print(f"semantics preserved to {deviation:.3e}")
        if not passed:
            print("verification FAILED")
    return 0 if passed else 1


def _cmd_rule_check(args) -> int:
    tol = _tolerance(args.tol)
    dims = _parse_dims(args.dim)
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rules = rw.RULES if args.rule == "all" else [args.rule]
    reports = [rw.soundness_report(rule, dim, trials=args.trials,
                                   seed=args.seed, tol=tol)
               for rule in rules for dim in dims]
    all_passed = all(r["passed"] for r in reports)
    if args.json:
        _emit_json({
            "tol": tol,
            "reports": [{k: v for k, v in r.items() if k != "elapsed"}
                        for r in reports],
            "passed": all_passed,
        })
    else:
        for r in reports:
            status = "pass" if r["passed"] else "FAIL"
            print(f"{r['rule']:<12} D={r['dim']}  trials={r['trials']}  "
                  f"max deviation {r['maxDeviation']:.3e}  {status}")
        print("all rules sound" if all_passed else "soundness FAILURES")
    return 0 if all_passed else 1


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


def _cmd_synth(args) -> int:
    tol = _tolerance()
    if args.target == "xj":
        pv = sy.synth_xj(args.j, args.phi, args.dim)
        out = {
            "dim": args.dim,
            "target": f"x_{args.j}",
            "phi": args.phi,
            "alphaTurns": pv.to_json(),
            "alphaRadians": [t.radians for t in pv],
            "passed": True,
        }
        if args.json:
            _emit_json(out)
        else:
            print(f"X_{args.j} eigenphase {args.phi:g}: Z-spider phases "
                  + ", ".join(str(t) for t in pv))
        return 0
    if args.state is not None:
        b = _parse_state(args.state, args.dim)
    else:
        rng = np.random.default_rng(args.seed)
        b = rng.standard_normal(args.dim) + 1j * rng.standard_normal(args.dim)
    try:
        result = sy.synth_zj(args.j, b, route=args.route)
    except sy.DegenerateStateError as exc:
        out = {"dim": args.dim, "target": f"z_{args.j}",
               "degenerate": True, "reason": str(exc), "passed": False}
        if args.json:
            _emit_json(out)
        else:
            print(f"degenerate input state: {exc}")
        return 1
    passed = result.residual <= max(tol, 1e-6)
    out = {
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
        out["alphaTurns"] = result.phase_vector.to_json()
    if args.json:
        _emit_json(out)
    else:
        print(f"alpha (radians, alpha_0 = 0): "
              + ", ".join(f"{float(a.real):.6f}" for a in result.alpha))
        if not result.unitary:
            print("note: alpha is complex; the map is invertible but not "
                  "unitary")
        print(f"residual to e_{args.j}: {result.residual:.3e} "
              f"({'ok' if passed else 'FAIL'})")
    return 0 if passed else 1


def _cmd_stab_run(args) -> int:
    tol = _tolerance()
    obj = _load_json_file(args.circuit)
    try:
        n = json_int(obj["n"], f"{args.circuit}: n")
        dim = json_int(obj["dim"], f"{args.circuit}: dim")
        circuit = list(obj["circuit"])
    except (KeyError, TypeError):
        raise ValueError(f"{args.circuit}: circuit file needs n, dim and "
                         "circuit fields") from None
    result = st.run_circuit(circuit, n, dim, seed=args.seed,
                            oracle=args.oracle)
    passed = (not args.oracle
              or result["maxProbabilityDeviation"] <= tol)
    result["passed"] = passed
    if args.json:
        _emit_json(result)
    else:
        for outcome in result["outcomes"]:
            kind = "deterministic" if outcome["deterministic"] else "random"
            print(f"measured wire {outcome['wire']} in {outcome['basis']}: "
                  f"{outcome['outcome']} ({kind})")
        if args.oracle:
            print(f"tableau vs dense deviation: "
                  f"{result['maxProbabilityDeviation']:.3e} "
                  f"({'ok' if passed else 'FAIL'})")
    return 0 if passed else 1


def _cmd_spek_check(args) -> int:
    return _report_checks(args, trel.rel_structure_check(args.dim),
                          f"D={args.dim}", "laws")


def _cmd_phase_space(args) -> int:
    report = ps.phase_space_report(args.dim, args.n, seed=args.seed,
                                   cases=args.cases)
    return _report_checks(args, report, f"d={args.dim}, n={args.n}",
                          "properties")


def _cmd_equiv(args) -> int:
    report = eqv.run_equivalence_checks()
    if args.json:
        _emit_json(report)
    else:
        poss = report["possibilistic"]
        prob = report["probabilities"]
        groups = report["phaseGroups"]
        equi = report["equivariance"]
        print(f"possibilistic pairs: "
              f"{poss['pairs'] - len(poss['failures'])}/{poss['pairs']} "
              "consistent")
        print(f"exact probabilities: "
              f"{prob['pairs'] - len(prob['failures'])}/{prob['pairs']} "
              f"matching, values {{{', '.join(prob['valuesSeen'])}}}")
        print(f"phase groups: toy Z_3 x Z_3, quantum factors "
              f"{groups['quantumFactors']}, dictionary homomorphism "
              f"{'holds' if groups['dictionaryHomomorphism'] else 'FAILS'}")
        print(f"equivariance: {equi['stateChecks']} map/state checks, "
              f"{len(equi['failures'])} failures")
        print("operationally equivalent" if report["passed"]
              else "equivalence FAILURES")
    return 0 if report["passed"] else 1


def _cmd_export_dot(args) -> int:
    d = _load_diagram(args.diagram)
    text = dg.export_dot(d)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simplify", help="run the shrinking rewrite loop")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--verify", action="store_true",
                   help="evaluate before and after and compare")
    p.add_argument("--out", help="write the simplified diagram JSON here")
    p.add_argument("--json", action="store_true")
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
    p.add_argument("--json", action="store_true")
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stab-run", help="run a Clifford circuit on the "
                                        "stabilizer tableau")
    p.add_argument("circuit", help="circuit JSON file with n, dim, circuit")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check every measurement against the dense "
                        "simulator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_stab_run)

    p = sub.add_parser("spek-check", help="relational observable-structure "
                                          "law battery")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_spek_check)

    p = sub.add_parser("phase-space", help="epistemic phase-space property "
                                           "battery")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=int, default=25)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_phase_space)

    p = sub.add_parser("equiv", help="toy theory vs qutrit stabilizer "
                                     "equivalence checks")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("export-dot", help="render a diagram as Graphviz DOT")
    p.add_argument("diagram", help="diagram JSON file")
    p.add_argument("--out", help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
