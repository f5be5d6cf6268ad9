"""The quditzx benchmark: seeded verification workloads, timed end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload zx-circuits --seed 1 --seconds 12 \\
        --trace 0

One process runs one workload as a closed loop with one client: the next
case starts when the previous verdict is in. Set-up (starting a fresh
interpreter that imports the library, generating the cases from the
seed, a warm-up) is timed on its own, SETUP_REPS times. Then the
benchmark makes passes over the case list until --seconds have gone by,
at least MIN_PASSES of them, and checks every verdict. A case's time is
its median over the passes, at a reference machine speed (see
SpeedProbe).

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 passes alternate between untraced
and traced, and the metrics are the per-layer ones (see tracing.py). The
line before it records the environment, the pass times, any failures
and a digest of the outputs, which a behaviour-preserving change keeps
byte-identical. Spans and per-case outputs go to perfbench/out/.

Exit status is 0 when the run completed, whether or not every verdict
was correct; 2 when the run could not start.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: on a two-core machine a second thread competes with
# whatever else runs, and the dense oracle's timings then swing widely.
# A fixed hash seed: the evaluator iterates over sets of string labels,
# and their order would otherwise change the contraction from run to run.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if __name__ == "__main__" and any(os.environ.get(k) != v
                                  for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable] + sys.argv,
              dict(os.environ, **PINNED_ENV))

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("spek-laws", "zx-circuits", "clifford", "rule-soundness")
MIN_PASSES = 3
SETUP_REPS = 3
# A runaway allocation should fail the case, not exhaust a shared machine.
ADDRESS_SPACE_CAP = 4 << 30

# Machine speed. On a shared host this process's speed drifts by a third
# or more over seconds to minutes, with other tenants' load, and that
# swamps from one run to the next what a change to the library does. So
# a fixed probe, allocation-heavy Python like the library's own code, is
# timed at least every PROBE_EVERY_S between cases, and the time of each
# case that workloads.python_bound() names, and of set-up, is reported at
# the speed where the probe takes PROBE_REF_S:
# seconds * PROBE_REF_S / (mean of the probes just before and after).
# Measured on a two-vCPU virtual machine over 150 s of such drift, the
# raw time of a fixed batch of zx-circuits cases spread by 49% between
# quartiles, and by 7% once scaled.
PROBE_REF_S = 3.6e-3
PROBE_EVERY_S = 0.4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def import_seconds(probe) -> float:
    """Median time to start a fresh interpreter and import the library."""
    cmd = [sys.executable, "-c", "import quditzx"]
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        probe.timed(lambda: subprocess.run(
            cmd, env=env, capture_output=True, timeout=120, check=True))[1]
        for _ in range(SETUP_REPS))


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def probe_work():
    return [tuple(range(i % 50)) for i in range(4000)]


class SpeedProbe:
    """Times probe_work(); scaled() converts seconds measured between two
    probes to seconds at the reference speed."""

    def __init__(self):
        self.samples = []
        self.taken = -float("inf")

    def sample(self, force=False) -> int:
        """Probe if due (or forced); returns the latest probe's index."""
        if force or time.perf_counter() - self.taken >= PROBE_EVERY_S:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                probe_work()
                best = min(best, time.perf_counter() - t0)
            self.samples.append(best)
            self.taken = time.perf_counter()
        return len(self.samples) - 1

    def scaled(self, seconds: float, k: int) -> float:
        """seconds measured after probe k and before probe k+1."""
        speed = statistics.mean(self.samples[k:k + 2])
        return seconds * PROBE_REF_S / speed

    def timed(self, fn):
        """(fn(), its seconds at the reference speed)."""
        k = self.sample(force=True)
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.sample(force=True)
        return result, self.scaled(seconds, k)


def run_case(run, case) -> tuple:
    """(ok, digest, detail); an exception is a failed verdict."""
    try:
        return run(case)
    except Exception as exc:  # any library error is a wrong verdict
        return False, "", f"{type(exc).__name__}: {exc}"


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


class Run:
    def __init__(self, cases, run, probe, python_bound):
        self.cases = cases
        self.run = run
        self.probe = probe
        self.python_bound = python_bound
        self.case_s = [[] for _ in cases]
        self.digests = [None] * len(cases)
        self.attempted = 0
        self.failures = []

    def one_pass(self, tracer=None) -> float:
        gc.collect()
        timed = []
        t_pass = time.perf_counter()
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.case_id = case.cid
            k = self.probe.sample()
            t0 = time.perf_counter()
            ok, digest, detail = run_case(self.run, case)
            timed.append((i, time.perf_counter() - t0, k))
            self.attempted += 1
            if self.digests[i] is None:
                self.digests[i] = digest
            elif ok and digest != self.digests[i]:
                ok, detail = False, "output differs from the first pass"
            if not ok:
                self.failures.append({"case": case.cid, "detail": detail})
        t_pass = time.perf_counter() - t_pass
        self.probe.sample(force=True)
        for i, seconds, k in timed:
            if self.python_bound(self.cases[i]):
                seconds = self.probe.scaled(seconds, k)
            self.case_s[i].append(seconds)
        return t_pass

    def case_seconds(self) -> list:
        """Each case's median over the passes, so that a burst of load
        during one pass does not move it."""
        return [statistics.median(ts) for ts in self.case_s if ts]

    def digest(self) -> str:
        lines = "\n".join(f"{c.cid} {d}" for c, d in
                          zip(self.cases, self.digests))
        return hashlib.sha256(lines.encode()).hexdigest()


def setup(make, warm, run, seed: int, probe) -> tuple:
    """Generate the cases and warm up, SETUP_REPS times; returns the cases,
    the median set-up seconds and the warm-up verdicts."""

    def once():
        return make(seed), [(case.cid,) + run_case(run, case)
                            for case in warm(seed)]

    reps = [probe.timed(once) for _ in range(SETUP_REPS)]
    cases = reps[-1][0][0]
    verdicts = [v for (_, checked), _ in reps for v in checked]
    return cases, statistics.median(s for _, s in reps), verdicts


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "quditzx", "__init__.py")):
        return fail(f"no quditzx package under {SRC}")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY \
        else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    try:
        import workloads
        import tracing
    except ImportError as exc:
        return fail(f"cannot import the library: {exc}")
    make, warm, run = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    try:
        import_s = import_seconds(probe)
    except subprocess.SubprocessError as exc:
        return fail(f"cannot import the library in a child process: {exc}")

    cases, setup_s, warm_verdicts = setup(make, warm, run, args.seed, probe)
    setup_s += import_s
    bench = Run(cases, run, probe, workloads.python_bound)
    bench.attempted += len(warm_verdicts)
    bench.failures += [{"case": cid, "detail": detail}
                       for cid, ok, _, detail in warm_verdicts if not ok]

    tracer = tracing.Tracer() if args.trace else None
    untraced_s, traced_s, counters, times = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(untraced_s) > len(traced_s)
        if traced:
            tracer.reset()
            tracer.keep_spans = not traced_s
            tracer.install()
            try:
                traced_s.append(bench.one_pass(tracer))
            finally:
                tracer.uninstall()
            counters.append(tracer.layer_counters())
            times.append(tracer.layer_times())
        else:
            untraced_s.append(bench.one_pass())
        passes = len(untraced_s) + len(traced_s)
        if passes >= MIN_PASSES and time.perf_counter() - start >= \
                args.seconds and (tracer is None or traced_s):
            break

    case_s = sorted(bench.case_seconds())
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT, f"outputs_{stem}.txt"), "w",
              encoding="utf-8") as fh:
        for case, digest in zip(cases, bench.digests):
            fh.write(f"{case.cid} {digest}\n")

    info = {
        "workload": args.workload,
        "env": environment(args.seed),
        "cases": len(cases),
        "passes_untraced_s": untraced_s,
        "passes_traced_s": traced_s,
        "fail_ratio": len(bench.failures) / max(bench.attempted, 1),
        "failures": bench.failures[:10],
        "output_digest": bench.digest(),
        "probe_ms": [1e3 * q for q in statistics.quantiles(probe.samples,
                                                            n=4)],
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            # One pass over the cases, each at its median pass, at the
            # reference speed.
            "verdict_s": (sum(case_s), "s"),
            "case_ms.p50": (1e3 * nearest_rank(case_s, 0.5), "ms"),
            "case_ms.p90": (1e3 * nearest_rank(case_s, 0.9), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024, "MiB"),
        }
    else:
        tracer.write_spans(os.path.join(OUT, f"spans_{stem}.json"))
        expectations = tracer.expectation_report(args.workload)
        info["wrappers"] = expectations
        info["counters_repeat"] = all(c == counters[0] for c in counters)
        metrics = {k: (v, _unit(k)) for k, v in counters[0].items()}
        for key in times[0]:
            metrics[key] = (statistics.median(t[key] for t in times),
                            _unit(key))
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1,
            "ratio")
        metrics["trace.silent_wrappers"] = (len(expectations["silent"]),
                                            "count")
        metrics["trace.bypass_hits"] = (len(expectations["bypass_hits"]),
                                        "count")

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("macs_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    if ".us." in name:
        return "us"
    if name.endswith(".s") or name.endswith("_s") or ".laws_s." in name:
        return "s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
