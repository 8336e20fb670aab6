"""One benchmark run of one workload: timed passes, metrics, checks.

Every run starts with an untimed warm-up pass: the first pass in a fresh
process has run up to twice as slow as the next ones on a shared VM.
Every timing is then taken on ``hostspeed.clock`` while the speed meter
runs and converted to seconds at the CPU's unloaded speed, so that load
from other tenants of a shared host does not read as a change of the
program (see ``hostspeed``).

Untraced runs repeat the workload's pass while another pass still fits in
the run's seconds, warm-up included (always at least one), and report each
timing as its median: each problem's median over its solves, and
each control-step percentile's median among the passes (every pass makes
the same steps from the same inputs, twice).  ``solve_s`` sums the
per-problem times and ``solve_s_geomean`` takes their geometric mean.
Traced runs make one untraced and one traced pass after the warm-up,
whatever the run's seconds, and report the per-layer metrics of the traced
pass plus the tracing overhead against the untraced one.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import hostspeed
from hostspeed import REFERENCE_S
from tracing import WRAPPED, Tracer, layer_metrics
from workloads import FULL, WORKLOADS, Checks, PassResult, Sizes

BENCH = Path(__file__).resolve().parent
SPANS_DIR = BENCH / "out"
SETUP_RUNS = 7


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    rows: dict[str, tuple[float, str]]  # per-problem and host, not gated
    checks: Checks


def setup_samples(workload: str, seed: int, runs: int = SETUP_RUNS) -> list[float]:
    """Set-up time of ``runs`` fresh interpreters, each timing its own
    imports and input generation (``run.py --setup-only``), in
    ``hostspeed.clock`` units."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(runs):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _step_time(samples: list[tuple[float, bool]]) -> float:
    """A step's median time among its runs in a pass that no speed sample
    interrupted, or among all of them if every one was interrupted."""
    clean = [t for t, interrupted in samples if not interrupted]
    return statistics.median(clean or [t for t, _ in samples])


def _step_us(passes: list[PassResult], q: int) -> float:
    """The q-th percentile of a pass's control-step times, median over the
    passes.  Each pass times a step the same number of times, so the noise
    the host-speed clock leaves in single steps widens every pass's tail
    alike; pooling the runs of all passes would narrow it by how many
    passes fit, which depends on the host's load."""
    per_pass = []
    for p in passes:
        steps = [_step_time(runs) for runs in p.step_s]
        if len(steps) < 2:
            return 0.0  # a controller did not run; the checks have failed
        per_pass.append(statistics.quantiles(steps, n=100)[q - 1])
    return statistics.median(per_pass) * REFERENCE_S * 1e6


def _medians(result: PassResult) -> dict[str, float]:
    return {name: statistics.median(times)
            for name, times in result.solve_s.items()}


def _run_pass(wl, inputs, checks: Checks) -> PassResult:
    gc.collect()  # each pass starts without the previous pass's garbage
    return wl.run_pass(inputs, checks)


def _host_rows() -> dict[str, tuple[float, str]]:
    return {"host.reference_fastest_s": (hostspeed.fastest(), "s"),
            "host.slowdown": (hostspeed.slowdown(), "ratio")}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL, setup_runs: int = SETUP_RUNS) -> Result:
    wl = WORKLOADS[workload]
    checks = Checks()
    inputs = wl.setup(seed, sizes)
    start = perf_counter()
    _run_pass(wl, inputs, checks)  # warm-up, see the module docstring
    if not trace:
        passes = []
        hostspeed.start()
        try:
            while True:
                t0 = perf_counter()
                passes.append(_run_pass(wl, inputs, checks))
                took = perf_counter() - t0
                if len(passes) == 1:
                    # before the step records of later passes add to it
                    peak_rss = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
                if perf_counter() - start + took > seconds:
                    break
        finally:
            hostspeed.stop()
        per_problem = {name: statistics.median(
                           t for p in passes for t in p.solve_s[name])
                       * REFERENCE_S for name in passes[0].solve_s}
        setup = setup_samples(workload, seed, setup_runs)
        metrics = {
            "setup_s": (statistics.median(setup) * REFERENCE_S, "s"),
            "solve_s": (sum(per_problem.values()), "s"),
            "solve_s_geomean": (
                statistics.geometric_mean(per_problem.values()), "s"),
            "control_step_us_p50": (_step_us(passes, 50), "us"),
            "control_step_us_p99": (_step_us(passes, 99), "us"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
        rows = {f"{wl.row_prefix}.{name}": (t, "s")
                for name, t in per_problem.items()}
        return Result(metrics, {**rows, **_host_rows()}, checks)

    hostspeed.start()
    try:
        untraced = _run_pass(wl, inputs, checks)
        with Tracer() as tracer:
            traced = _run_pass(wl, wl.setup(seed, sizes), checks)
    finally:
        hostspeed.stop()
    for module, attr, _name, _observe in WRAPPED:
        checks.check(f"{module}.{attr}" not in tracer.missing,
                     f"traced binding {module}.{attr} is missing")
    tracer.write(SPANS_DIR / f"spans-{workload}.tsv")
    metrics = layer_metrics(tracer)
    traced_s, untraced_s = _medians(traced), _medians(untraced)
    metrics["trace.overhead_frac"] = (
        sum(traced_s.values()) / sum(untraced_s.values()) - 1, "ratio")
    rows = {f"{wl.row_prefix}.{name}": (t * REFERENCE_S, "s")
            for name, t in traced_s.items()}
    return Result(metrics, {**rows, **_host_rows()}, checks)
