"""Tests for the command-line front end.

All tests drive `run(argv)` in-process and read stdout/stderr through
capsys, so exit codes and JSON payloads are checked without spawning
processes; two final smoke tests spawn one: the installed console script
(skipped where `quditzx` is not on PATH) and `python -m quditzx.cli`.
Exit-code contract: 0 = checks passed, 1 = a check failed, 2 = unusable
invocation.
"""

import hashlib
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


def _scaled_spider(tmp_path, wired, scale):
    """A Z spider at D=3, on one wire or legless, times this real scalar."""
    b = dg.DiagramBuilder(3)
    v = b.add_spider(dg.Z)
    if wired:
        b.add_edge(b.add_input(0), v)
        b.add_edge(v, b.add_output(0))
    obj = dg.to_json_dict(b.finish())
    obj["scalar"] = [scale, 0.0]
    path = tmp_path / "spider.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_eval_text_prints_a_large_finite_entry_as_it_is(tmp_path, capsys,
                                                        recwarn):
    # Rounding to 10 decimals scales by 10^10, which would turn 1e308 into
    # inf; such an entry is printed unrounded.
    assert run(["eval", _scaled_spider(tmp_path, True, 1e308)]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out and out.count("1.e+308") == 3
    assert [str(w.message) for w in recwarn] == []


def test_eval_names_an_overflowing_matrix(tmp_path, capsys):
    # finite as written; the legless spider is worth D times its scalar
    path = _scaled_spider(tmp_path, False, 1e308)
    for method in ("fast", "reference", "both"):
        assert run(["eval", path, "--method", method]) == 2
        err = capsys.readouterr().err
        assert "overflows" in err and err.count("\n") == 1


def test_eval_builds_only_what_its_mode_prints(cnot_file, monkeypatch,
                                               capsys):
    # text mode never converts the matrix to [re, im] lists, and --json
    # never renders it as text
    from quditzx import cli

    def refuse(*args, **kwargs):
        raise AssertionError("built output that this mode does not print")

    monkeypatch.setattr(cli, "_jsonable", refuse)
    assert run(["eval", cnot_file, "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dimension 3, 2 inputs -> 2 outputs\n[[")
    assert "fast vs reference deviation" in out
    with pytest.raises(AssertionError):
        run(["eval", cnot_file, "--json"])
    capsys.readouterr()
    monkeypatch.undo()
    monkeypatch.setattr(np, "array2string", refuse)
    assert run(["eval", cnot_file, "--json"]) == 0
    assert _json_out(capsys)["nOut"] == 2


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
                                   '{"approx": Infinity}', '{"approx": "1.5"}',
                                   '{"approx": true}'])
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


def _no_draw(rule, dim, rng):
    raise AssertionError(f"an instance was drawn at D={dim}")


def test_rule_check_refuses_more_instances_than_its_cap_first(monkeypatch,
                                                              capsys):
    # 715 x 7 x 2 = 10,010 instances are refused before any is drawn;
    # 5,000 x 1 x 2 = 10,000 are drawn.
    from quditzx import rewrite as rw

    monkeypatch.setattr(rw, "random_rule_instance", _no_draw)
    assert run(["rule-check", "--dim", "2,3", "--trials", "715"]) == 2
    assert capsys.readouterr().err == (
        "error: rule-check refuses 715 trials x 7 rules x 2 dimensions = "
        "10010 instances, above its cap of 10000\n")
    with pytest.raises(AssertionError, match="drawn at D=2"):
        run(["rule-check", "--rule", "S_fuse", "--dim", "2,3",
             "--trials", "5000"])


def test_rule_check_names_a_huge_instance_count_in_one_line(monkeypatch,
                                                            capsys):
    from quditzx import rewrite as rw

    monkeypatch.setattr(rw, "random_rule_instance", _no_draw)
    trials = "9" * 4300
    assert run(["rule-check", "--dim", "2,3", "--trials", trials]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: rule-check refuses {trials} trials x 7 rules x 2 "
                   f"dimensions = 14*{trials} instances, above its cap of "
                   "10000\n")


def test_rule_check_weighs_d_before_it_draws(monkeypatch, capsys):
    # trials x the sum of D^legs over rules and D, each rule's legs from its
    # record: 50 x 7 rules and 16 x S_fuse (16 x 16^6) at D=16 are refused
    # before any instance is drawn; 4 x S_fuse and 2 x 7 rules at D=16 and
    # CI's 200 x 7 rules at D=2..5 are drawn.
    from quditzx import rewrite as rw

    monkeypatch.setattr(rw, "random_rule_instance", _no_draw)
    assert run(["rule-check", "--dim", "16", "--trials", "50"]) == 2
    assert capsys.readouterr().err == (
        "error: rule-check refuses 50 trials x 7 rules at D=16: trials x "
        "the sum of D^legs over rules and D = 848921600 tensor entries, "
        "above its cap of 67108864\n")
    assert run(["rule-check", "--rule", "S_fuse", "--dim", "16",
                "--trials", "16"]) == 2
    assert capsys.readouterr().err == (
        "error: rule-check refuses 16 trials x 1 rules at D=16: trials x "
        "the sum of D^legs over rules and D = 268435456 tensor entries, "
        "above its cap of 67108864\n")
    for rule, dims, trials in (("S_fuse", "16", "4"), ("all", "16", "2"),
                               ("all", "2,3,4,5", "200")):
        with pytest.raises(AssertionError, match="drawn at D="):
            run(["rule-check", "--rule", rule, "--dim", dims,
                 "--trials", trials])


def test_rule_check_refuses_every_d_above_the_cap_before_it_draws(
        monkeypatch, capsys):
    # D=32 comes after D=2, yet no D=2 instance is drawn first
    from quditzx import rewrite as rw

    monkeypatch.setattr(rw, "random_rule_instance", _no_draw)
    assert run(["rule-check", "--dim", "2,32", "--trials", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: rule soundness refuses D=32: a random instance can need a "
        "tensor of 32^6 = 1073741824 entries, above the evaluator's cap of "
        "16777216\n")


def test_rule_check_fails_a_rule_that_refuses_its_site(monkeypatch, capsys):
    # rule-check builds every site itself, so a refusal is a failed check
    # (exit 1), not bad input (exit 2)
    from quditzx import rewrite as rw

    def refusing(d, site):
        raise rw.RuleMatchError("applier refuses its own site")

    monkeypatch.setitem(rw._RULES, "S_fuse",
                        rw._RULES["S_fuse"]._replace(apply=refusing))
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


@pytest.mark.parametrize("argv, sha256", [
    (["equiv", "--json"],
     "6b578ee314a31bce0e476ef6733e2b233116b175b95375131f0f3f8e9b85480c"),
    (["equiv"],
     "80c3df991038ca2a2650c6bcedf8a14255837d412ca7b6c070b0a706962653ac"),
])
def test_equiv_output_is_pinned(argv, sha256, capsys):
    # Recorded when the dictionary was three hand-written tables; deriving
    # it from Weyl rows (`_phi` reads each image's torus point with
    # `stabilizer.torus_exponents`) and the toy unbiased points must print
    # the same bytes.
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# pinned output of every subcommand


def _pin_files(tmp_path):
    """The fixed input files of the pin table, keyed by the name in its
    argv; the printed bytes name no path."""
    files = {}
    b = dg.DiagramBuilder(3)
    i = b.add_input(0)
    o = b.add_output(0)
    third = PhaseVector(3, [Turn.exact(1, 3), Turn.zero()])
    v1 = b.add_spider(dg.Z, third)
    v2 = b.add_spider(dg.Z, third)
    b.add_edge(i, v1)
    b.add_edge(v1, v2)
    b.add_edge(v2, o)
    for name, text in [
            ("cnot", dg.to_json(dg.generator_diagram("cnot", 3))),
            ("chain", dg.to_json(b.finish())),
            ("circuit", json.dumps({"n": 2, "dim": 3, "circuit": [
                {"gate": "F", "wires": [0]},
                {"gate": "CNOT", "wires": [0, 1]},
                {"gate": "Sq", "wires": [1], "q": 2},
                {"gate": "measure", "wires": [0], "basis": "X"},
                {"gate": "measure", "wires": [1], "basis": "Z"},
                {"gate": "measure", "wires": [1], "basis": "Z"}]}))]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files[name] = str(path)
    files["out"] = str(tmp_path / "out")
    return files


# (command, QUDITZX_TOL or None, exit code, sha256 of stdout, of stderr),
# recorded before the subcommands shared one output path; EMPTY is the
# sha256 of no output
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OUTPUT_PINS = [
    ("eval {cnot}", None, 0,
     "d6dc9c166a9b8013331dd41db43b25b8569e173803e229f12e431255e701cfc6", EMPTY),
    ("eval {cnot} --json", None, 0,
     "2f86034bce2b4e2a6564842b1c9030409a0d7c18f6774e8ff666bf19020f0233", EMPTY),
    ("eval {cnot} --method both", None, 0,
     "2cccae3efe68493629e8c7d59718366b21eabf4ba3a12591526799d253f5da04", EMPTY),
    ("eval {cnot} --method both --json", None, 0,
     "0b2ba11f4d30995cf5f1730bceaadfe43561fd6539d437d78cf5b82c01bd8fca", EMPTY),
    ("eval {chain} --method reference", None, 0,
     "06dbf03b8f99bce7934ae2c4b713c84a9ddfb086dd94cc32e575eed4212842bd", EMPTY),
    ("simplify {chain} --verify", None, 0,
     "f9aaab8de5de459bd60af5869c0e7ea01e965ddd0ee4c746059faf29f8b49975", EMPTY),
    ("simplify {chain} --verify --json", None, 0,
     "706a46e26ce2e6262b4ffe39a559a135ee86bcd98aca87c667fc98a3d59820c8", EMPTY),
    ("simplify {chain} --verify", "1e-300", 1,
     "bad7f5303ecdbc6b3ad4ab50b1f4b6592a635c7b9f1678732e22e4ddcdb33f0d", EMPTY),
    ("simplify {cnot} --out {out}", None, 0,
     "0774fadde89e08ad9dcddcecaad6f237ee50296637c43b72afd78bb9b30f1c5d", EMPTY),
    ("rule-check --rule B_copy --dim 2,3 --trials 3 --seed 11", None, 0,
     "d554ff3d760116e736cc274adff6ac3d67a43388bc10370df54caf95aaba4ed4", EMPTY),
    ("rule-check --rule B_copy --dim 2,3 --trials 3 --seed 11 --json", None, 0,
     "a1a163af8ebb169b42eb5f50248399edacf55c36b150a87ea2193f8a71ffebc8", EMPTY),
    ("rule-check --rule S_fuse --dim 2 --trials 2 --tol 1e-300", None, 1,
     "2a7ecd053a37177e12e954bcac10903dac82cdcadad5536b343f6abbe418353c", EMPTY),
    ("synth --dim 4 --target xj --j 1 --phi 0.7", None, 0,
     "a112d723c3b3429bdeefd8ca96776e6b52afc8dab3627e07a82b0e8631e8158b", EMPTY),
    ("synth --dim 4 --target xj --j 1 --phi 0.7 --json", None, 0,
     "3824f9bf232c2607ecf6a6240e5f5320ed15f604c981b3d967da4f217cd1d1b2", EMPTY),
    ("synth --dim 4 --target zj --j 2 --seed 5", None, 0,
     "46479967634fb777a7132cc8f402df03df903aacb21e709b3216537d76641234", EMPTY),
    ("synth --dim 4 --target zj --j 2 --seed 5 --json", None, 0,
     "1de4831a857d7030d4bb306631f5e426ecb6311c9b4c1f6b339234e0a26ceba5", EMPTY),
    ("synth --dim 3 --target zj --j 1 --route qutrit --seed 2", None, 0,
     "27ca5b773f3783f9cfa09071c00121b8fe14592c2ae1886666fcdf1bb21b6f81", EMPTY),
    ("synth --dim 3 --target zj --j 1 --state 1,1,1", None, 1,
     "ed1c93ae856314f049cd800766a7f37a79601ab2397df8e6e80c68ee429ea3ff", EMPTY),
    ("synth --dim 3 --target zj --j 1 --state 1,1,1 --json", None, 1,
     "75c76fd627180a1f17c2b1540ea19ca51640f0ba4a2502b89e6b1d44d3216252", EMPTY),
    ("stab-run {circuit} --seed 3", None, 0,
     "b5cb2c14a12d3ec51a8d9567882098dfc08747e575581eb810410870399b749f", EMPTY),
    ("stab-run {circuit} --seed 3 --json", None, 0,
     "d459f3d370111019fdf4f3c64d20b2ec40c92ac26d350432e31722f8eb52597e", EMPTY),
    ("stab-run {circuit} --oracle --seed 1", None, 0,
     "dc72581b257979c7bb29e17b0681728d8d6bb0f6b217c862ea7db23fab42da7b", EMPTY),
    ("stab-run {circuit} --oracle --seed 1 --json", None, 0,
     "97d226c014fe8840680276a56726c9fc896f61aea69d518e880007be7428816f", EMPTY),
    ("spek-check --dim 2", None, 0,
     "522e5045c190edcf4bd0684a23dfbc43c4c0eb575313984893048bc123ad8069", EMPTY),
    ("spek-check --dim 2 --json", None, 0,
     "70c508e7cfd4ecc1f8b7b817b20752be09f39693420e8752555458623e973cb2", EMPTY),
    ("phase-space --dim 3 --n 1 --seed 1 --cases 5", None, 0,
     "b3f784ed1eb9f85940361ea33ab5d5119f40db17d3e4131835f36bdf52cf4e65", EMPTY),
    ("phase-space --dim 3 --n 2 --seed 2 --cases 3 --json", None, 0,
     "573411650a571594f00bd803e989689019389aca827423ce213e73fdc2f22cf0", EMPTY),
    ("equiv", None, 0,
     "80c3df991038ca2a2650c6bcedf8a14255837d412ca7b6c070b0a706962653ac", EMPTY),
    ("equiv --json", None, 0,
     "6b578ee314a31bce0e476ef6733e2b233116b175b95375131f0f3f8e9b85480c", EMPTY),
    ("export-dot {cnot}", None, 0,
     "8bae9afe552660a46d766b16ee86b275cb1ff41dbebfa3ba63d111294aacf0f8", EMPTY),
    ("export-dot {cnot} --out {out}", None, 0, EMPTY, EMPTY),
    ("rule-check --rule S_fuse --dim 2 --trials 0", None, 2, EMPTY,
     "f42408d67433934ff716963f71d6224e60acf34a35226afcf2417724182f8346"),
    ("spek-check --dim 1 --json", None, 2, EMPTY,
     "16c7dfe6940e2006cac3fc205db6266fb253b6725d199626b692df8adef6012c"),
]


@pytest.mark.parametrize(
    "command, env_tol, code, out_sha, err_sha", OUTPUT_PINS,
    ids=[c if t is None else f"QUDITZX_TOL={t} {c}"
         for c, t, *_ in OUTPUT_PINS])
def test_output_is_pinned(command, env_tol, code, out_sha, err_sha,
                          tmp_path, monkeypatch, capsys):
    if env_tol is None:
        monkeypatch.delenv("QUDITZX_TOL", raising=False)
    else:
        monkeypatch.setenv("QUDITZX_TOL", env_tol)
    files = _pin_files(tmp_path)
    argv = [part.format(**files) for part in command.split()]
    got = run(argv)
    captured = capsys.readouterr()
    assert (got, hashlib.sha256(captured.out.encode()).hexdigest(),
            hashlib.sha256(captured.err.encode()).hexdigest()) == (
        code, out_sha, err_sha), (captured.out[:400], captured.err)


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


DROP = object()
_EXACT = ["nodes", 0, "phase", 0, "exact"]
_PART = "an exact phase part must be an integer, got "
_PAIR = ("node 0 phase entry 0: an exact phase must be a [numerator, "
         "denominator] pair of integers, got ")
# Diagrams that from_json refuses, each the CNOT diagram with a field set
# at each path (DROP deletes it instead), by the name the bad-input table
# uses, and the refusal's exact text. Node 0 is its Z spider, node 1 its
# X spider and node 3 an input; both spiders' phases are [0/1, 0/1].
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
# Whole documents that from_json refuses, and the refusal's exact text.
DIAGRAM_DOCS = [
    ("empty", {}, "diagram JSON has no 'dimension' field"),
    ("kindY", {"dimension": 3, "nodes": [{"id": 0, "kind": "Y"}],
               "edges": []},
     "node 0 has an unknown kind 'Y'"),
    ("dangling", {"dimension": 3, "nodes": [], "edges": [[0, 1]]},
     "invalid diagram: DanglingEdge: edge 0 endpoint 0 is not a node; "
     "DanglingEdge: edge 0 endpoint 1 is not a node"),
    ("duplicate", {"dimension": 3,
                   "nodes": [{"id": 0, "kind": "in", "position": 0},
                             {"id": 0, "kind": "out", "position": 0}],
                   "edges": []},
     "duplicate node id 0"),
]


def _cnot_with(changes) -> dict:
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


@pytest.mark.parametrize(
    "doc, text",
    [(_cnot_with(changes), text) for _, changes, text in DIAGRAM_FAULTS]
    + [(doc, text) for _, doc, text in DIAGRAM_DOCS],
    ids=[name for name, _, _ in DIAGRAM_FAULTS + DIAGRAM_DOCS])
def test_diagram_refusal_text_is_pinned(doc, text):
    with pytest.raises(ValueError) as exc:
        dg.from_json(json.dumps(doc))
    assert str(exc.value) == text


@pytest.fixture()
def bad_input_files(tmp_path):
    """Paths for the bad-input table, keyed by the name used in its argv."""
    files = {"missing": str(tmp_path / "missing")}

    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        files[name] = str(path)

    cnot = dg.to_json(dg.generator_diagram("cnot", 3))
    write("cnot", cnot)
    for name, changes, _ in DIAGRAM_FAULTS:
        write(name, json.dumps(_cnot_with(changes)))
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
    # a closed F/Fdag cycle whose F2_cancel multiplies the scalar by D,
    # past the largest float
    write("fcycle", json.dumps({
        "dimension": 3, "scalar": [1e308, 0.0],
        "nodes": [{"id": 0, "kind": "F"}, {"id": 1, "kind": "Fdag"}],
        "edges": [[0, 1], [1, 0]]}))
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
        write(name, json.dumps({"n": n, "dim": 3, "circuit": [step]}))
    write("dim0", json.dumps({"n": 1, "dim": 0, "circuit": []}))
    write("nfloat", json.dumps({"n": 1.5, "dim": 3, "circuit": []}))
    write("nbool", json.dumps({"n": True, "dim": 3, "circuit": []}))
    write("dimtext3", json.dumps({"n": 1, "dim": "3", "circuit": []}))
    # primes past the tableau's int64 bound D < 2^20
    for name, dim in [("dimbound", 1048583), ("dimhuge", 10 ** 18 + 9)]:
        write(name, json.dumps({"n": 1, "dim": dim, "circuit": [
            {"gate": "measure", "wires": [0], "basis": "X"}]}))
    # 2^40 amplitudes: past the dense oracle's cap
    write("oracle40", json.dumps({"n": 40, "dim": 2, "circuit": [
        {"gate": "F", "wires": [0]},
        {"gate": "measure", "wires": [0], "basis": "Z"}]}))
    # past the tableau's 4096-qudit cap, and past the dense oracle's cap
    # by a D^n of 1432 digits
    for n in (10000, 3000):
        write(f"oracle{n}", json.dumps({"n": n, "dim": 3, "circuit": [
            {"gate": "measure", "wires": [0], "basis": "Z"}]}))
    # 1021^2 amplitudes pass the dense oracle's cap; its CNOT matrix of
    # 1021^4 entries does not
    write("oracle1021", json.dumps({"n": 2, "dim": 1021, "circuit": [
        {"gate": "CNOT", "wires": [0, 1]},
        {"gate": "measure", "wires": [0], "basis": "Z"}]}))
    return files


BAD_INPUTS = [
    ("spek-check --dim 1", None),
    ("spek-check --dim 0", None),
    ("spek-check --dim 8", None),
    ("phase-space --dim 4", None),
    ("phase-space --n 0", None),
    ("phase-space --cases 0", None),
    ("phase-space --cases -3", None),
    ("phase-space --dim 3 --n 50 --cases 1", None),
    ("phase-space --dim 3 --n 1 --cases 100000000", None),
    ("phase-space --dim 2 --n 1 --cases 16384", None),
    ("eval {chain47} --method reference", None),
    ("eval {fbox}", None),
    ("eval {spider11}", None),
    ("eval {cnot} --method both", "nan"),
    ("eval {cnot} --method both", "inf"),
    ("eval {dimfloat}", None),
    ("eval {dimtext}", None),
    ("eval {idfloat}", None),
    ("eval {positionbool}", None),
    ("eval {edgefloat}", None),
    ("eval {exactfloat}", None),
    ("eval {scalarnan}", None),
    ("eval {scalarthree}", None),
    ("eval {scalartext}", None),
    ("eval {edgethree}", None),
    ("eval {edgeint}", None),
    ("eval {kindlist}", None),
    ("eval {noderecint}", None),
    ("eval {nodesint}", None),
    ("eval {edgesint}", None),
    ("eval {nokind}", None),
    ("eval {noposition}", None),
    ("eval {exactthree}", None),
    ("eval {exactone}", None),
    ("eval {exactint}", None),
    ("eval {phaseobject}", None),
    ("eval {phasetext}", None),
    ("simplify {cnot} --out {missing}/x.json", None),
    ("simplify {fcycle}", None),
    ("eval {fcycle}", None),
    ("eval {fcycle} --json", None),
    ("eval --method both {fcycle}", None),
    ("eval {zbig} --method reference", None),
    ("simplify --verify {zbig}", None),
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
    ("stab-run {sqbool}", None),
    ("stab-run {sqthree}", None),
    ("stab-run {wirebool}", None),
    ("stab-run {basisy}", None),
    ("stab-run {dim0}", None),
    ("stab-run {nfloat}", None),
    ("stab-run {nbool}", None),
    ("stab-run {dimtext3}", None),
    ("stab-run {oracle40} --oracle", None),
    ("stab-run {oracle1021} --oracle", None),
    ("stab-run {oracle10000} --oracle", None),
    ("stab-run {oracle3000} --oracle", None),
    ("stab-run {dimbound}", None),
    ("stab-run {dimhuge}", None),
    ("synth --dim 3 --target xj --j 1 --phi nan", None),
    ("synth --dim 3 --target zj --j 0 --state nan,0,0", None),
    ("synth --dim 100000 --target zj --j 0", None),
    ("synth --dim 100000 --target xj --j 1 --phi 0.5", None),
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


@pytest.mark.parametrize("name, where", [
    ("edgethree", "edge 4"),
    ("edgeint", "edge 4"),
    ("kindlist", "node 3"),
    ("noderecint", "node record 3"),
    ("nodesint", "nodes must be a list"),
    ("edgesint", "edges must be a list"),
    ("nokind", "node 3 has no 'kind'"),
    ("noposition", "node 3 has no 'position'")])
def test_bad_diagram_field_is_named(name, where, bad_input_files, capsys):
    assert run(["eval", bad_input_files[name]]) == 2
    assert where in capsys.readouterr().err


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
