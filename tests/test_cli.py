"""Tests for the command-line front end.

All tests drive `run(argv)` in-process and read stdout/stderr through
capsys, so exit codes and JSON payloads are checked without spawning
processes; two final smoke tests spawn one: the installed console script
(skipped where `quditzx` is not on PATH) and `python -m quditzx.cli`.
Exit-code contract: 0 = checks passed, 1 = a check failed, 2 = unusable
invocation.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import quditzx
from quditzx import diagram as dg
from quditzx import semantics as sem
from quditzx.cli import run
from quditzx.phases import PhaseVector, Turn


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture()
def cnot_file(tmp_path):
    path = tmp_path / "cnot.json"
    path.write_text(dg.to_json(dg.generator_diagram("cnot", 3)))
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    """input -- Z(1/3) -- Z(1/3) -- output at D=3: one fusion available."""
    b = dg.DiagramBuilder(3)
    i = b.add_input(0)
    o = b.add_output(0)
    third = PhaseVector(3, [Turn.exact(1, 3), Turn.zero()])
    v1 = b.add_spider(dg.Z, third)
    v2 = b.add_spider(dg.Z, third)
    b.add_edge(i, v1)
    b.add_edge(v1, v2)
    b.add_edge(v2, o)
    path = tmp_path / "chain.json"
    path.write_text(dg.to_json(b.finish()))
    return str(path)


@pytest.fixture()
def circuit_file(tmp_path):
    obj = {
        "n": 2,
        "dim": 3,
        "circuit": [
            {"gate": "F", "wires": [0]},
            {"gate": "CNOT", "wires": [0, 1]},
            {"gate": "measure", "wires": [0], "basis": "Z"},
            {"gate": "measure", "wires": [1], "basis": "Z"},
        ],
    }
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _json_out(capsys):
    captured = capsys.readouterr()
    assert captured.err == ""
    return json.loads(captured.out)


# ---------------------------------------------------------------------------
# eval


def test_eval_json_reports_the_operator(cnot_file, capsys):
    assert run(["eval", cnot_file, "--json"]) == 0
    out = _json_out(capsys)
    assert out["dim"] == 3
    assert out["nIn"] == 2 and out["nOut"] == 2
    assert out["method"] == "fast"
    assert out["passed"] is True
    matrix = np.array([[complex(re, im) for re, im in row]
                       for row in out["matrix"]])
    assert matrix.shape == (9, 9)
    # |a,b> -> |a, b-a>: spot-check column a=1, b=0 -> row a=1, b=2
    assert matrix[1 * 3 + 2, 1 * 3 + 0] == pytest.approx(1.0)


def test_eval_both_methods_cross_check(cnot_file, capsys):
    assert run(["eval", cnot_file, "--method", "both", "--json"]) == 0
    out = _json_out(capsys)
    assert out["method"] == "both"
    assert out["crossDeviation"] <= 1e-9


def test_eval_text_mode(cnot_file, capsys):
    assert run(["eval", cnot_file]) == 0
    captured = capsys.readouterr()
    assert "dimension 3, 2 inputs -> 2 outputs" in captured.out


def test_eval_missing_file_is_a_usage_error(tmp_path, capsys):
    assert run(["eval", str(tmp_path / "nope.json"), "--json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_unparseable_file_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("this is not json")
    assert run(["eval", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_eval_invalid_diagram_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "notdiagram.json"
    path.write_text('{"answer": 42}')
    assert run(["eval", str(path)]) == 2
    assert "not a valid diagram" in capsys.readouterr().err


@pytest.mark.parametrize("phase", ['{"exact": [1, 0]}', '{"approx": NaN}',
                                   '{"approx": Infinity}'])
def test_eval_bad_phase_is_a_usage_error(phase, tmp_path, capsys):
    text = dg.to_json(dg.spider_diagram(2, dg.Z, 1, 1))
    text = text.replace('{"exact":[0,1]}', phase)
    assert phase in text
    path = tmp_path / "badphase.json"
    path.write_text(text)
    assert run(["eval", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "not a valid diagram" in captured.err
    assert captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# simplify


def test_simplify_fuses_the_chain_and_verifies(chain_file, capsys):
    assert run(["simplify", chain_file, "--verify", "--json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] is True
    assert out["steps"] >= 1
    assert out["edgesAfter"] < out["edgesBefore"]
    assert out["verifyDeviation"] <= 1e-9
    trace = out["trace"]
    assert len(trace["initialHash"]) == 64
    assert len(trace["finalHash"]) == 64
    assert any(step["rule"] == "S_fuse" for step in trace["steps"])
    dg.from_json_dict(out["diagram"])


def test_simplify_out_preserves_semantics(chain_file, tmp_path, capsys):
    out_path = tmp_path / "simplified.json"
    assert run(["simplify", chain_file, "--out", str(out_path),
                "--json"]) == 0
    capsys.readouterr()
    with open(chain_file) as fh:
        original = dg.from_json(fh.read())
    simplified = dg.from_json(out_path.read_text())
    before = sem.evaluate(original).matrix
    after = sem.evaluate(simplified).matrix
    assert np.max(np.abs(before - after)) <= 1e-9


# ---------------------------------------------------------------------------
# rule-check


def test_rule_check_single_rule_json(capsys):
    assert run(["rule-check", "--rule", "S_fuse", "--dim", "2,3",
                "--trials", "5", "--json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] is True
    assert len(out["reports"]) == 2
    for report in out["reports"]:
        assert report["rule"] == "S_fuse"
        assert report["trials"] == 5
        assert report["failures"] == []
        assert report["passed"] is True
        assert "elapsed" not in report  # stripped for byte determinism


def test_rule_check_all_rules_text(capsys):
    assert run(["rule-check", "--dim", "2", "--trials", "3"]) == 0
    captured = capsys.readouterr()
    assert "all rules sound" in captured.out


def test_rule_check_unknown_rule(capsys):
    assert run(["rule-check", "--rule", "Q_magic", "--dim", "2"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err and "S_fuse" in err


@pytest.mark.parametrize("dims", ["abc", "1", "", "3,x"])
def test_rule_check_bad_dimension_lists(dims, capsys):
    assert run(["rule-check", "--rule", "S_fuse", "--dim", dims]) == 2
    assert "bad dimension list" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_rule_check_rejects_non_positive_trials(trials, capsys):
    assert run(["rule-check", "--rule", "S_fuse", "--dim", "2",
                "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--trials" in captured.err
    assert captured.err.count("\n") == 1


def test_rule_check_fails_a_rule_that_refuses_its_site(monkeypatch, capsys):
    # rule-check builds every site itself, so a refusal is a failed check
    # (exit 1), not bad input (exit 2)
    from quditzx import rewrite as rw

    def refusing(b_, d, site):
        raise rw.RuleMatchError("applier refuses its own site")

    monkeypatch.setitem(rw._APPLIERS, "S_fuse", refusing)
    assert run(["rule-check", "--rule", "S_fuse", "--dim", "3",
                "--trials", "2", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)["reports"][0]
    assert [f["reason"] for f in report["failures"]] == [
        "applier refuses its own site"] * 2


def test_rule_check_json_is_byte_deterministic(capsys):
    argv = ["rule-check", "--rule", "B_copy", "--dim", "3", "--trials", "4",
            "--seed", "11", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_rule_check_json_does_not_depend_on_the_hash_seed():
    # the evaluator's contraction order must not follow set iteration
    outputs = []
    for hash_seed in ("0", "5"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=(
            os.path.dirname(os.path.dirname(quditzx.__file__))))
        proc = subprocess.run(
            [sys.executable, "-m", "quditzx.cli", "rule-check", "--json",
             "--rule", "S_fuse", "--dim", "3", "--trials", "20"],
            capture_output=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# synth


def test_synth_zj_flat_state_gives_zero_phases(capsys):
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "0",
                "--state", "1,0,0", "--json"]) == 0
    out = _json_out(capsys)
    assert out["target"] == "z_0"
    assert out["passed"] is True
    assert out["unitary"] is True
    assert out["residual"] <= 1e-9
    assert out["alphaRadians"] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)
    assert "alphaTurns" in out


def test_synth_zj_random_state_is_seed_deterministic(capsys):
    argv = ["synth", "--dim", "4", "--target", "zj", "--j", "2",
            "--seed", "5", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out["passed"] is True and out["residual"] <= 1e-6
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_synth_zj_unbiased_state_is_degenerate(capsys):
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "1",
                "--state", "1,1,1", "--json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["degenerate"] is True
    assert out["passed"] is False
    assert out["reason"]


def test_synth_zj_zero_state_is_degenerate(capsys):
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "0",
                "--state", "0,0,0", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["degenerate"] is True


def test_synth_zj_bad_state_literals(capsys):
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "0",
                "--state", "1,x,0"]) == 2
    assert "bad --state" in capsys.readouterr().err
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "0",
                "--state", "1,0"]) == 2
    assert "needs 3 entries" in capsys.readouterr().err


def test_synth_zj_out_of_range_target_is_a_usage_error(capsys):
    assert run(["synth", "--dim", "3", "--target", "zj", "--j", "7",
                "--state", "1,2,3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_qutrit_route_needs_dimension_three(capsys):
    assert run(["synth", "--dim", "4", "--target", "zj", "--j", "0",
                "--route", "qutrit", "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_synth_xj_places_the_eigenphase(capsys):
    assert run(["synth", "--dim", "4", "--target", "xj", "--j", "1",
                "--phi", "0.7", "--json"]) == 0
    out = _json_out(capsys)
    assert out["target"] == "x_1"
    assert out["passed"] is True
    assert out["alphaRadians"] == pytest.approx([0.7, 0.0, 0.0], abs=1e-12)
    assert len(out["alphaTurns"]) == 3


def test_synth_xj_zero_target_uses_a_global_phase(capsys):
    assert run(["synth", "--dim", "3", "--target", "xj", "--j", "0",
                "--phi", "0.7", "--json"]) == 0
    out = _json_out(capsys)
    want = (2 * math.pi) - 0.7
    assert out["alphaRadians"] == pytest.approx([want, want], abs=1e-9)


def test_synth_xj_out_of_range_target_is_a_usage_error(capsys):
    assert run(["synth", "--dim", "4", "--target", "xj", "--j", "9"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stab-run


def test_stab_run_reports_outcomes(circuit_file, capsys):
    assert run(["stab-run", circuit_file, "--seed", "3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["n"] == 2 and out["dim"] == 3 and out["seed"] == 3
    assert out["passed"] is True
    assert len(out["outcomes"]) == 2
    for measurement in out["outcomes"]:
        assert measurement["basis"] == "Z"
        assert 0 <= measurement["outcome"] < 3
    # the two Z outcomes of the entangled pair must cancel mod 3
    k0, k1 = (m["outcome"] for m in out["outcomes"])
    assert (k0 + k1) % 3 == 0


def test_stab_run_oracle_cross_check(circuit_file, capsys):
    assert run(["stab-run", circuit_file, "--oracle", "--seed", "1",
                "--json"]) == 0
    out = _json_out(capsys)
    assert out["oracle"] is True
    assert out["maxProbabilityDeviation"] <= 1e-9


def test_stab_run_is_seed_deterministic(circuit_file, capsys):
    argv = ["stab-run", circuit_file, "--seed", "9", "--json"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_stab_run_text_mode(circuit_file, capsys):
    assert run(["stab-run", circuit_file]) == 0
    assert "measured wire" in capsys.readouterr().out


def test_stab_run_missing_fields(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text('{"n": 2}')
    assert run(["stab-run", str(path)]) == 2
    assert "needs n, dim and circuit" in capsys.readouterr().err


def test_stab_run_unknown_gate(tmp_path, capsys):
    path = tmp_path / "badgate.json"
    path.write_text(json.dumps(
        {"n": 1, "dim": 3,
         "circuit": [{"gate": "NOPE", "wires": [0]}]}))
    assert run(["stab-run", str(path)]) == 2
    assert "bad circuit" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# law batteries


def test_spek_check_json(capsys):
    assert run(["spek-check", "--dim", "2", "--json"]) == 0
    out = _json_out(capsys)
    assert out["dim"] == 2
    assert out["passed"] is True
    assert len(out["checks"]) == 26
    assert all(check["passed"] for check in out["checks"])


def test_spek_check_text(capsys):
    assert run(["spek-check", "--dim", "2"]) == 0
    assert "all laws hold" in capsys.readouterr().out


def test_phase_space_battery(capsys):
    assert run(["phase-space", "--dim", "3", "--n", "1", "--seed", "1",
                "--cases", "5", "--json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] is True
    assert {check["id"] for check in out["checks"]} == {
        "distributions_sum_to_one",
        "isotropy_rejection",
        "bracket_preservation",
        "bracket_equals_symplectic_product",
    }


def test_phase_space_two_systems(capsys):
    assert run(["phase-space", "--dim", "3", "--n", "2", "--seed", "2",
                "--cases", "3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] is True and out["n"] == 2


def test_equiv_json_and_determinism(capsys):
    assert run(["equiv", "--json"]) == 0
    first = capsys.readouterr().out
    out = json.loads(first)
    assert out["passed"] is True
    assert run(["equiv", "--json"]) == 0
    assert capsys.readouterr().out == first


def test_equiv_text(capsys):
    assert run(["equiv"]) == 0
    assert "operationally equivalent" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# export-dot


def test_export_dot_stdout(cnot_file, capsys):
    assert run(["export-dot", cnot_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph zx {")
    assert "->" in out


def test_export_dot_to_file(cnot_file, tmp_path, capsys):
    out_path = tmp_path / "diagram.dot"
    assert run(["export-dot", cnot_file, "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().startswith("digraph zx {")


# ---------------------------------------------------------------------------
# bad input: every one ends in run's single handler


@pytest.fixture()
def bad_input_files(tmp_path):
    """Paths for the bad-input table, keyed by the name used in its argv."""
    files = {"missing": str(tmp_path / "missing")}

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)

    write("cnot", dg.to_json(dg.generator_diagram("cnot", 3)))
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
    # an F box with one input and two outputs
    write("fbox", json.dumps({
        "dimension": 3, "scalar": [1, 0],
        "nodes": [{"id": 0, "kind": "in", "position": 0},
                  {"id": 1, "kind": "F", "inPort": 0, "outPort": 1},
                  {"id": 2, "kind": "out", "position": 0},
                  {"id": 3, "kind": "out", "position": 1}],
        "edges": [[0, 1], [1, 2], [1, 3]]}))
    for name, n, step in [
            ("cnot00", 2, {"gate": "CNOT", "wires": [0, 0]}),
            ("wire5", 2, {"gate": "F", "wires": [5]}),
            ("wireneg", 2, {"gate": "F", "wires": [-1]}),
            ("measure0", 2, {"gate": "measure", "wires": []}),
            ("sqtext", 2, {"gate": "Sq", "wires": [0], "q": "a"}),
            ("noqudits", 0, {"gate": "measure", "wires": [0]})]:
        write(name, json.dumps({"n": n, "dim": 3, "circuit": [step]}))
    write("dim0", json.dumps({"n": 1, "dim": 0, "circuit": []}))
    # 2^40 amplitudes: past the dense oracle's cap
    write("oracle40", json.dumps({"n": 40, "dim": 2, "circuit": [
        {"gate": "F", "wires": [0]},
        {"gate": "measure", "wires": [0], "basis": "Z"}]}))
    return files


BAD_INPUTS = [
    ("spek-check --dim 1", None),
    ("spek-check --dim 0", None),
    ("spek-check --dim 7", None),
    ("phase-space --dim 4", None),
    ("phase-space --n 0", None),
    ("phase-space --cases 0", None),
    ("phase-space --cases -3", None),
    ("eval {chain47} --method reference", None),
    ("eval {fbox}", None),
    ("eval {spider11}", None),
    ("eval {cnot} --method both", "nan"),
    ("eval {cnot} --method both", "inf"),
    ("simplify {cnot} --out {missing}/x.json", None),
    ("export-dot {cnot} --out {missing}/x.dot", None),
    ("rule-check --rule S_fuse --dim 2 --trials 1 --tol 0", None),
    ("rule-check --rule S_fuse --dim 2 --trials 1 --tol -1", None),
    ("rule-check --rule S_fuse --dim 2 --trials 1 --tol nan", None),
    ("stab-run {cnot00}", None),
    ("stab-run {cnot00} --oracle", None),
    ("stab-run {wire5}", None),
    ("stab-run {wireneg}", None),
    ("stab-run {wireneg} --oracle", None),
    ("stab-run {measure0}", None),
    ("stab-run {sqtext}", None),
    ("stab-run {noqudits}", None),
    ("stab-run {dim0}", None),
    ("stab-run {oracle40} --oracle", None),
    ("synth --dim 3 --target xj --j 1 --phi nan", None),
    ("synth --dim 3 --target zj --j 0 --state nan,0,0", None),
]


@pytest.mark.parametrize(
    "command, env_tol", BAD_INPUTS,
    ids=[c if t is None else f"QUDITZX_TOL={t} {c}" for c, t in BAD_INPUTS])
def test_bad_input_is_one_error_line(command, env_tol, bad_input_files,
                                     monkeypatch, capsys, recwarn):
    if env_tol is None:
        monkeypatch.delenv("QUDITZX_TOL", raising=False)
    else:
        monkeypatch.setenv("QUDITZX_TOL", env_tol)
    argv = [part.format(**bad_input_files) for part in command.split()]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert [str(w.message) for w in recwarn] == []


# ---------------------------------------------------------------------------
# global argument handling


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_tolerance_env_must_be_a_positive_number(cnot_file, monkeypatch,
                                                 capsys):
    monkeypatch.setenv("QUDITZX_TOL", "not-a-number")
    assert run(["eval", cnot_file, "--method", "both"]) == 2
    assert "QUDITZX_TOL" in capsys.readouterr().err
    monkeypatch.setenv("QUDITZX_TOL", "-1")
    assert run(["eval", cnot_file, "--method", "both"]) == 2
    assert "positive" in capsys.readouterr().err


def test_tolerance_env_loosens_or_tightens_checks(cnot_file, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("QUDITZX_TOL", "100.0")
    assert run(["eval", cnot_file, "--method", "both", "--json"]) == 0
    out = _json_out(capsys)
    assert out["passed"] is True


@pytest.mark.skipif(shutil.which("quditzx") is None,
                    reason="the quditzx console script is not on PATH; "
                           "`pip install -e .` installs it")
def test_console_script_smoke():
    exe = shutil.which("quditzx")
    assert exe is not None, "console script not installed"
    proc = subprocess.run([exe, "spek-check", "--dim", "2", "--json"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_module_entry_point_smoke():
    # the same process-level check without an installed script: run the
    # CLI module with the interpreter running the tests
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quditzx.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quditzx.cli", "spek-check", "--dim", "2",
         "--json"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True
