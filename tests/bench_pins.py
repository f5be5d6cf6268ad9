"""The pins of CI's traced benchmark runs, and their checker.

Each traced run of `perfbench/run.py` is piped into this file, which
exits 1 when its output_digest or a pinned counter differs, a verdict is
not correct, an operation failed or a tracing wrapper stayed silent or
was bypassed:

    python3 perfbench/run.py --workload zx-circuits --seed 1 --seconds 1 \\
      --trace 1 | python3 tests/bench_pins.py
"""

import json
import sys

# output_digest by (workload, seed); a change that means to alter
# the outputs re-records these and says why.
PINNED = {
    ("spek-laws", 1): "f9e9fa73dfac0bc12f19e5f8e5cd46e3"
                      "9565a7a07c561708a3fdc0908e4ef909",
    ("zx-circuits", 1): "11a77e0d50775cc1046b6d7c701c8dc4"
                        "bf86dde3e56864d663d0154b4e584337",
    ("clifford", 1): "ce3cf71db45ddeb6fe19f50fe546761f"
                     "51bbc752f4d46542af306c194262cbe0",
    ("rule-soundness", 1): "a30b20b8f62048b2b15ec613f25c2861"
                           "091bac779cf44efe51d8e4ae1bb2e529",
    ("zx-circuits", 2): "22b73b02af18c9eed59acfd89701da26"
                        "8dbd45c0e95570e7e27c12a1718778e6",
    ("clifford", 2): "fff4d2273fb09950578ad3421185b0e8"
                     "ee5ff997a014587276cd87d3cb18ef97",
    ("rule-soundness", 2): "c75472094be57fd42a9c85d1d86593fc"
                           "0a37f113af3d4fd9491b477d47191bb7",
}
# Per-pass counters of traced runs: a change that drops
# simplify's fixpoint check, alters its steps, skips a
# measurement, moves the shared laws back from einsum into
# Rel.compose, assembles a disconnected output with
# tensordot's outer product again or skips an evaluation of a
# rule instance or of a circuit before or after simplify fails
# here even when output_digest agrees (the rule-soundness
# digest records only edge counts); the
# tensordot multiply-add pins catch a contraction order that
# changes while the call count holds. The traced passes follow
# an untraced one, so the tensordot pins are read on passes
# whose fast-path plans are already kept (one per diagram
# structure): a kept plan calls tensordot exactly as a fresh
# one would, and the pins hold both ways. The zx-circuits
# multiply-add pins were read with each plan the cheapest of
# _plan's three greedy orders; the rule-soundness ones are the
# merged-rank order's, as no rule instance has a cheaper one. The
# compose pin counts only the definitional product of each of
# the 76 phase maps a pass builds (2 x (4 + 9 + 16) for the
# battery, 18 for the equivalence checks); the phase-group,
# maximal-knowledge and equivalence tables are stacked
# products that do not pass through Rel.compose.
# tests/test_toyrel.py's
# test_battery_builds_no_relation_above_d8_entries guards the
# laws' D^10 whiskered products.
COUNTERS = {
    ("spek-laws", 1): {"toyrel.compose.macs": 2335396},
    ("zx-circuits", 1): {"rewrite.simplify.steps": 1729,
                         "rewrite.find_matches.calls": 995,
                         "semantics.evaluate.calls": 398,
                         "semantics.tensordot.calls": 11123,
                         "semantics.tensordot.macs": 121847125},
    ("zx-circuits", 2): {"rewrite.simplify.steps": 1799,
                         "rewrite.find_matches.calls": 995,
                         "semantics.evaluate.calls": 398,
                         "semantics.tensordot.calls": 11006,
                         "semantics.tensordot.macs": 106503813},
    ("clifford", 1): {"stabilizer.measure.calls": 700},
    ("clifford", 2): {"stabilizer.measure.calls": 700},
    ("rule-soundness", 1): {"semantics.evaluate.calls": 9602,
                            "semantics.tensordot.calls": 6943,
                            "semantics.tensordot.macs": 13775038},
    ("rule-soundness", 2): {"semantics.evaluate.calls": 9602,
                            "semantics.tensordot.calls": 6914,
                            "semantics.tensordot.macs": 13948061},
}


def main(text: str) -> int:
    """Check a traced run from the last two lines of its output, the info
    and the result records; print the workload and "ok" or what is wrong,
    and return the exit code."""
    info, result = (json.loads(line) for line in text.splitlines()[-2:])
    problems = []
    run = (info["workload"], info["env"]["seed"])
    pinned = PINNED[run]
    if info["output_digest"] != pinned:
        problems.append(f"output_digest {info['output_digest']} is "
                        f"not the pinned {pinned}")
    for name, want in COUNTERS.get(run, {}).items():
        got = result["metrics"][name]["value"]
        if got != want:
            problems.append(f"{name} is {got}, not the pinned {want}")
    if result["correct"] is not True:
        problems.append("a verdict is not correct")
    if result["failed"]:
        problems.append(f"{result['failed']} operations failed")
    for key in ("silent", "bypass_hits"):
        if info["wrappers"][key]:
            problems.append(f"wrappers.{key}: {info['wrappers'][key]}")
    print(info["workload"], "; ".join(problems) or "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.stdin.read()))
