"""The checker of CI's traced benchmark runs, fed hand-written result lines:
a run that keeps its pins passes, and one that breaks any of them fails."""

import pytest

import bench_pins

# The last two lines of a traced clifford run at seed 1 that keeps its pins.
PASSING = (
    '{"workload": "clifford", "env": {"seed": 1}, "output_digest": '
    '"ce3cf71db45ddeb6fe19f50fe546761f51bbc752f4d46542af306c194262cbe0", '
    '"wrappers": {"silent": [], "bypass_hits": []}}\n'
    '{"correct": true, "failed": 0, "metrics": '
    '{"stabilizer.measure.calls": {"value": 700, "unit": "count"}}}\n')


def test_a_run_that_keeps_its_pins_passes(capsys):
    assert bench_pins.main("a line before the two records\n" + PASSING) == 0
    assert capsys.readouterr().out == "clifford ok\n"


@pytest.mark.parametrize("old, new, problem", [
    ('"ce3cf71d', '"0e3cf71d', "output_digest 0e3cf71d"),
    ('"value": 700', '"value": 699',
     "stabilizer.measure.calls is 699, not the pinned 700"),
    ('"silent": []', '"silent": ["stabilizer.measure"]',
     "wrappers.silent: ['stabilizer.measure']"),
])
def test_a_run_that_breaks_a_pin_fails(old, new, problem, capsys):
    assert old in PASSING
    assert bench_pins.main(PASSING.replace(old, new)) == 1
    assert problem in capsys.readouterr().out
