"""Input fuzzer for the command line.

Hypothesis draws valid inputs from the library's own generators
(`random_rule_instance` diagrams for eval, simplify and export-dot,
`stabilizer.random_circuit` files for stab-run) and size arguments for
spek-check, phase-space, synth and rule-check, then mutates them: a field
dropped, a type changed, huge (up to 4,000 digits), negative or zero
integers, NaN or infinity, huge leg counts, nested junk, and duplicate or
unknown keys. Each call runs `cli.run` in-process under an alarm, and
must exit 0, 1 or 2 within its budget without a traceback; an exit 2
prints exactly one stderr line, never Python's int-limit advice, and
nothing on stdout.

Argument values stay within what argparse parses, since its own usage
errors are two lines by design. --trials is drawn like any other integer:
rule-check refuses more than a fixed number of instances before it draws
one. The pinned examples once printed Python's int-limit error, ran for
more than 30 s or ended in a traceback.
"""

import contextlib
import io
import json
import random
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from quditzx import diagram as dg
from quditzx import rewrite as rw
from quditzx import stabilizer
from quditzx.cli import run

pytestmark = pytest.mark.skipif(not hasattr(signal, "setitimer"),
                                reason="needs an in-process interval timer")

# Wall-clock budget of one call; every draw takes well under a second.
_BUDGET_S = 10.0


class _OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise _OverBudget(f"a call ran past its {_BUDGET_S} s budget")


# Integers as a mutation draws them: small, including zero and negative
# ones, or huge, of up to 4,000 digits, of either sign.
_huge = st.integers(15, 4000).flatmap(
    lambda k: st.integers(10 ** (k - 1), 10 ** k - 1))
_ints = st.one_of(st.integers(-3, 8), _huge, _huge.map(lambda x: -x))
_floats = st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.5,
                           -1e308])
_junk = st.recursive(
    st.one_of(st.none(), st.booleans(), _ints, _floats, st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=6)
# A value the mutation writes as this string is replaced, in the JSON
# text, by lists nested this deep.
_DEEP = "<deep>"


def _slots(obj, out=None) -> list:
    """Every (container, key) pair of a JSON object, outermost first."""
    out = [] if out is None else out
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        out.append((obj, key))
        _slots(value, out)
    return out


@st.composite
def _mutated(draw, obj: dict) -> str:
    """The JSON text of obj after one to three drawn mutations."""
    depth = 0
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(obj)
        how = draw(st.sampled_from(["drop", "retype", "int", "float", "deep",
                                    "unknown", "legs"]))
        if how == "legs" and not (isinstance(obj.get("edges"), list)
                                  and obj["edges"]):
            how = "unknown"
        if how == "legs":
            # Parallel copies of one edge: a few, or thousands.
            edge = draw(st.sampled_from(obj["edges"]))
            count = draw(st.one_of(st.integers(1, 3),
                                   st.integers(1000, 10000)))
            obj["edges"] += [edge] * count
        elif how == "unknown" or not slots:
            target = draw(st.sampled_from(
                [obj] + [c[k] for c, k in slots if isinstance(c[k], dict)]))
            target[draw(st.text(max_size=3))] = draw(_junk)
        else:
            container, key = draw(st.sampled_from(slots))
            if how == "drop":
                del container[key]
            elif how == "deep":
                container[key] = _DEEP
                depth = draw(st.one_of(st.integers(1, 50),
                                       st.integers(5000, 100000)))
            else:
                container[key] = draw({"retype": _junk, "int": _ints,
                                       "float": _floats}[how])
    text = json.dumps(obj)
    text = text.replace(json.dumps(_DEEP), "[" * depth + "]" * depth)
    if obj and draw(st.booleans()):
        # A duplicate key, before (the original value wins) or after.
        key = draw(st.sampled_from(sorted(obj)))
        dup = f"{json.dumps(key)}: {json.dumps(draw(_junk))}"
        text = ("{" + dup + ", " + text[1:] if draw(st.booleans())
                else text[:-1] + ", " + dup + "}")
    return text


@st.composite
def _diagram_case(draw) -> tuple:
    rule = draw(st.sampled_from(rw.ALL_RULES))
    dim = draw(st.integers(2, 5))
    d, _site = rw.random_rule_instance(
        rule, dim, random.Random(draw(st.integers(0, 2 ** 32 - 1))))
    argv = draw(st.sampled_from([
        ["eval", "{file}"], ["eval", "{file}", "--method", "both"],
        ["simplify", "{file}"], ["simplify", "{file}", "--verify"],
        ["export-dot", "{file}"]]))
    return argv, draw(_mutated(dg.to_json_dict(d)))


@st.composite
def _circuit_case(draw) -> tuple:
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, dim = draw(st.integers(1, 4)), draw(st.sampled_from([2, 3, 5]))
    circuit = stabilizer.random_circuit(n, dim, rng,
                                        depth=draw(st.integers(0, 12)),
                                        measurements=draw(st.integers(0, 3)))
    argv = ["stab-run", "{file}"] + draw(st.sampled_from([[], ["--oracle"]]))
    return argv, draw(_mutated({"n": n, "dim": dim, "circuit": circuit}))


def _opt(name: str, values) -> st.SearchStrategy:
    """--name=value: the value is never read as an option of its own, even
    when it starts with a minus sign."""
    return values.map(lambda v: f"--{name}={v}")


@st.composite
def _size_case(draw) -> tuple:
    # Valid sizes stay where a call takes well under a second; the rest
    # are zero, negative, past a cap or huge.
    big = st.one_of(_ints, st.integers(9, 10 ** 9))
    which = draw(st.sampled_from(["spek-check", "phase-space", "synth",
                                  "rule-check"]))
    if which == "spek-check":
        dims = st.one_of(st.integers(-3, 3), big.filter(lambda x: x > 7))
        return [which, draw(_opt("dim", dims))], None
    if which == "phase-space":
        small = st.integers(-2, 3)
        return [which, draw(_opt("dim", st.one_of(st.integers(-2, 7), big))),
                draw(_opt("n", st.one_of(small, big))),
                draw(_opt("cases", st.one_of(small, big))),
                draw(_opt("seed", _ints))], None
    if which == "synth":
        return [which, draw(_opt("dim", st.one_of(st.integers(-3, 9), big))),
                draw(_opt("target", st.sampled_from(["zj", "xj"]))),
                draw(_opt("j", _ints)), draw(_opt("phi", _floats)),
                draw(_opt("seed", st.integers(0, 2 ** 32 - 1)))], None
    # Between 8 and 4096 an instance's tensors can near the evaluator's
    # cap, and a trial can take seconds.
    dims = st.lists(st.one_of(_ints, st.integers(4097, 10 ** 9)),
                    min_size=1, max_size=2).map(
                        lambda ds: ",".join(map(str, ds)))
    rules = st.sampled_from(list(rw.RULES) + ["all", "x"])
    return [which, draw(_opt("dim", dims)), draw(_opt("rule", rules)),
            draw(_opt("trials", _ints)),
            draw(_opt("seed", _ints)),
            draw(_opt("tol", st.one_of(_floats, st.just(1e-9))))], None


def _parallel_pair(legs: int) -> str:
    """A Z spider joined to an X spider by `legs` parallel edges, the X
    spider with one output, at D=3."""
    b = dg.DiagramBuilder(3)
    z, x = b.add_spider(dg.Z), b.add_spider(dg.X)
    for _ in range(legs):
        b.add_edge(z, x)
    b.add_edge(x, b.add_output(0))
    return dg.to_json(b.finish())


_cases = st.one_of(_diagram_case(), _circuit_case(), _size_case())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_cases)
@example(case=(["eval", "{file}"],
               dg.to_json(dg.spider_diagram(3, dg.Z, 0, 9500))))
@example(case=(["eval", "{file}"], _parallel_pair(9500)))
@example(case=(["spek-check", "--dim", "1" + "0" * 700], None))
@example(case=(["stab-run", "{file}"],
               '{"n": ' + "7" * 5000 + ', "dim": 3, "circuit": []}'))
@example(case=(["rule-check", "--dim", "100000000", "--trials", "1"], None))
@example(case=(["rule-check", "--dim", "2", "--trials", "9" * 4300], None))
@example(case=(["phase-space", "--n", "9" * 4300], None))
@example(case=(["stab-run", "{file}"],
               '{"n": 1, "dim": 3, "circuit": [{"gate": [], "wires": [0]}]}'))
@example(case=(["eval", "{file}"], "[" * 100000 + "]" * 100000))
def test_cli_ends_every_input_in_one_line_within_budget(case,
                                                        tmp_path_factory):
    argv, text = case
    if text is not None:
        path = tmp_path_factory.mktemp("fuzz") / "input.json"
        path.write_text(text, encoding="utf-8")
        argv = [part.format(file=path) for part in argv]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    # The alarm repeats: one that fires inside a garbage-collector
    # callback is printed and ignored, not raised.
    signal.setitimer(signal.ITIMER_REAL, _BUDGET_S, 0.5)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err[:300]
        assert out.getvalue() == ""
        assert "int_max_str_digits" not in err
