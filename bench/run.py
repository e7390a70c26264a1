"""wavegrowth benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload norm_curve --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Every measurement runs in a fresh interpreter
(``bench/worker.py``) as a closed loop with one client: a single Python
thread, BLAS/OpenMP pools capped at the CPUs this process may use.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
five fresh interpreters' time to their first timed call, the rest come
from one closed-loop run of about ``--seconds`` (a fixed number of whole
rotations of the workload's pairs, ``workloads.calls_per_run``).
``--trace 1`` measures the per-layer metrics: passes over a fixed window of
calls, first untraced and then traced, each about half of ``--seconds``;
plus an import profile (``python -X importtime``) and source line counts.
The same seed and ``--seconds`` give the same calls, so the counts of
attempted and failed time points repeat exactly.  Both modes run the
correctness gate on every time point; every miss counts as failed, and any
miss but the known failure named in BENCHMARK.json
(``checks.KNOWN_FAILURE``) makes the run incorrect, as does a traced run
whose exact counters differ between passes.  Times
are in reference seconds, wall seconds scaled by speed probes run
alongside (``probe.py``); import times stay wall-clock.

The report lists each metric with its unit and sample count; the last line
is one JSON object for the harness that compares runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import IMPORT_PROBE, IMPORT_REF_S, PROBES
from tracer import layer_metrics
from workloads import ROTATION

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MODULES = ("profiles", "quadrature", "spectral", "bounds", "oracles", "analysis", "local_energy", "cli")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
TIME_LIMIT = 170.0  # seconds for the whole run, children included

END_TO_END = {
    "setup_s": "s",
    "t_per_s": "1/s",
    "call_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{m}.import_ms": "ms" for m in MODULES},
    "scipy_integrate.import_ms": "ms",
    "profiles.ft_calls": "count",
    "profiles.ft_points": "count",
    "profiles.ft_s": "s",
    "profiles.moments_calls": "count",
    "profiles.moments_s": "s",
    "profiles.self_s": "s",
    "quadrature.integrations_per_t": "count/t",
    "quadrature.panels_per_t": "count/t",
    "quadrature.self_s": "s",
    "quadrature.failures": "count",
    "spectral.norm_sq_fourier_calls": "count",
    "spectral.reduce_pair_calls": "count",
    "spectral.norm_sq_fourier_s": "s",
    "spectral.l2_norm_s": "s",
    "spectral.self_s": "s",
    "bounds.sandwich_report_s": "s",
    "bounds.term_checks_s": "s",
    "bounds.trick_T_s": "s",
    "bounds.upper_constant_s": "s",
    "bounds.self_s": "s",
    "oracles.grid_solve_calls": "count",
    "oracles.grid_solve_s": "s",
    "oracles.grad_s": "s",
    "oracles.energy_s": "s",
    "oracles.ffts_per_t": "count/t",
    "oracles.fft_s": "s",
    "oracles.fft_bytes_computed": "B",
    "oracles.self_s": "s",
    "local_energy.report_s": "s",
    "local_energy.local_energy_s": "s",
    "local_energy.flux_functionals_s": "s",
    "local_energy.data_overlap_s": "s",
    "local_energy.self_s": "s",
    "analysis.model_select_calls": "count",
    "analysis.model_select_s": "s",
    "analysis.self_s": "s",
    **{f"{m}.src_lines": "lines" for m in MODULES},
    "src.lines": "lines",
    "trace_overhead_frac": "frac",
}
# Printed in the report but not compared between runs: a tail needs 20
# calls, a failure share is 0 where nothing fails, and wall-clock values
# drift with the machine (see probe.py).
REPORT_ONLY = {
    "call_ms_tail": "ms",
    "failed_frac": "frac",
    "setup_s_wall": "s",
    "import_probe_s": "s",
    "t_per_s_wall": "1/s",
    "call_ms_p50_wall": "ms",
    "probe_ms": "ms",
}

# Counters that must repeat exactly for the same code and seed.
EXACT = {
    "profiles.ft_calls", "profiles.ft_points", "profiles.moments_calls",
    "quadrature.integrations_per_t", "quadrature.panels_per_t", "quadrature.failures",
    "spectral.norm_sq_fourier_calls", "spectral.reduce_pair_calls",
    "oracles.grid_solve_calls", "oracles.ffts_per_t", "oracles.fft_bytes_computed",
    "analysis.model_select_calls",
    *(f"{m}.src_lines" for m in MODULES), "src.lines",
}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the worker processes of one run, all within one time limit."""

    def __init__(self):
        self.deadline = time.monotonic() + TIME_LIMIT
        threads = str(len(os.sched_getaffinity(0)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = threads

    def start(self, args: list[str]) -> tuple[float, str, str]:
        """Run one child to completion; (monotonic start, stdout, stderr)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT:g} s reached")
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"time limit of {TIME_LIMIT:g} s reached in {args}") from None
        if proc.returncode != 0:
            raise BenchError(f"{args} exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return started, proc.stdout, proc.stderr

    def worker(self, *args) -> tuple[float, dict]:
        started, out, _ = self.start([str(BENCH / "worker.py"), *map(str, args)])
        return started, json.loads(out.strip().splitlines()[-1])

    def import_seconds(self) -> float:
        """Wall time of the set-up probe (probe.py) in a fresh interpreter."""
        started, out, _ = self.start(["-c", IMPORT_PROBE])
        return float(out.split()[-1]) - started


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten calls beyond it."""
    if n < 20:
        return None
    return next(p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0) if n * (1.0 - p / 100.0) >= 10.0)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil(n p / 100)
    return sorted_values[int(rank) - 1]


def pair_median(latencies: list[float], rotation: int) -> float:
    """Median latency of a call on each of the rotation's pairs, averaged.

    The pairs' latencies form separate clusters, so the median of all calls
    would fall in the gap between two of them, where it moves from run to
    run.
    """
    return statistics.mean(statistics.median(latencies[i::rotation]) for i in range(rotation))


def to_reference(res: dict) -> float:
    """Factor turning a worker's wall seconds into reference seconds (probe.py)."""
    return PROBES[res["probe"]][1] / statistics.mean(res["probes"])


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float):
    samples, imports = [], []
    for i in range(SETUP_SAMPLES):
        imports.append(runner.import_seconds())
        last = i == SETUP_SAMPLES - 1
        samples.append(runner.worker(*(("run", workload, seed, seconds) if last else ("setup", workload, seed))))
    run = samples[-1][1]
    scale = to_reference(run)
    setups = [res["ready"] - started for started, res in samples]
    wall = [1e3 * s for s in run["latencies"]]  # in call order
    ref = sorted(w * scale for w in wall)
    rotation = len(ROTATION[workload])
    points = sum(run["points"])
    p = tail_percentile(len(ref))
    metrics = {
        "setup_s": (statistics.median(setups) * IMPORT_REF_S / statistics.median(imports), len(setups), ""),
        "t_per_s": (1e3 * points / sum(ref), points, ""),
        "call_ms_p50": (scale * pair_median(wall, rotation), len(ref), f"median per pair, mean of {rotation} pairs"),
        "call_ms_tail": (nearest_rank(ref, p), len(ref), f"p{p:g}") if p else (None, len(ref), "omitted, < 20 calls"),
        "peak_rss_mb": (run["peak_rss_mb"], 1, ""),
        "failed_frac": (len(run["misses"]) / points, points, ""),
        "setup_s_wall": (statistics.median(setups), len(setups), ""),
        "import_probe_s": (statistics.median(imports), len(imports), f"median; reference {IMPORT_REF_S:g}"),
        "t_per_s_wall": (1e3 * points / sum(wall), points, ""),
        "call_ms_p50_wall": (pair_median(wall, rotation), len(wall), ""),
        "probe_ms": (
            1e3 * statistics.mean(run["probes"]),
            len(run["probes"]),
            f"mean {run['probe']} probe; reference {1e3 * PROBES[run['probe']][1]:g}",
        ),
    }
    return metrics, run["misses"], points, []


def import_profile(runner: Runner) -> dict:
    """Self time of each package module and the whole of scipy.integrate."""
    samples = {f"{m}.import_ms": [] for m in MODULES}
    samples["scipy_integrate.import_ms"] = []
    for _ in range(IMPORT_SAMPLES):
        _, _, err = runner.start(["-X", "importtime", "-c", "import wavegrowth, wavegrowth.cli"])
        seen = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                self_us, cumulative_us, name = (part.strip() for part in line[len("import time:"):].split("|"))
                if self_us.isdigit():
                    seen[name] = (int(self_us), int(cumulative_us))
        for m in MODULES:
            samples[f"{m}.import_ms"].append(seen.get(f"wavegrowth.{m}", (0, 0))[0] / 1e3)
        samples["scipy_integrate.import_ms"].append(seen.get("scipy.integrate", (0, 0))[1] / 1e3)
    return {k: (statistics.median(v), len(v), "") for k, v in samples.items()}


def source_lines() -> dict:
    pkg = ROOT / "src" / "wavegrowth"
    lines = {f"{m}.src_lines": (len((pkg / f"{m}.py").read_text().splitlines()), 1, "") for m in MODULES}
    lines["src.lines"] = (sum(len(p.read_text().splitlines()) for p in pkg.glob("*.py")), 1, "")
    return lines


def per_layer(runner: Runner, workload: str, seed: int, seconds: float):
    _, plain = runner.worker("window", workload, seed, seconds / 2, 0, "")
    spans = BENCH / ".trace" / f"{workload}.spans.tsv.gz"
    _, traced = runner.worker("window", workload, seed, seconds / 2, 1, spans)
    scale = to_reference(traced)
    per_pass = []
    for p in traced["passes"]:
        m = layer_metrics(p["trace"], traced["points"])
        per_pass.append({k: v * scale if PER_LAYER[k] == "s" else v for k, v in m.items()})
    n = len(per_pass)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = (values[0] if name in EXACT else statistics.median(values), n, "")
    differ = sorted({k for m in per_pass for k in EXACT if k in m and m[k] != per_pass[0][k]})

    def pass_seconds(res):
        return statistics.median(p["elapsed"] for p in res["passes"]) * to_reference(res)

    overhead = pass_seconds(traced) / pass_seconds(plain) - 1.0
    metrics["trace_overhead_frac"] = (overhead, n, f"vs {len(plain['passes'])} untraced passes")
    metrics.update(import_profile(runner))
    metrics.update(source_lines())
    misses = plain["misses"] + traced["misses"]
    if differ:
        misses.append([f"exact counters differ between traced passes: {', '.join(differ)}", False])
    notes = [
        f"window: {traced['points']} time points per pass, {len(plain['passes'])} untraced and "
        f"{n} traced passes; exact counters repeat across passes: {'no' if differ else 'yes'}",
        "times in reference seconds (probe.py)",
        f"spans: {spans.relative_to(ROOT)}",
    ]
    return metrics, misses, plain["attempted"] + traced["attempted"], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROTATION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "wavegrowth" / "__init__.py", ROOT / "tests" / "_oracles.py") if not p.is_file()]
    if missing:
        print(f"bench: not a wavegrowth checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    runner = Runner()
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    try:
        metrics, misses, attempted, notes = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"{'metric':<34} {'value':>16}  {'unit':<8} {'samples':>7}")
    for name, (value, n, note) in metrics.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{name:<34} {shown:>16}  {units.get(name) or REPORT_ONLY[name]:<8} {n:>7}  {note}".rstrip())
    for note in notes:
        print(note)
    unexpected = [text for text, known in misses if not known]
    known = [text for text, known in misses if known]
    print(
        f"correctness: {attempted} time points checked, {len(misses)} failed: "
        f"{len(known)} known failure (BENCHMARK.json), {len(unexpected)} unexpected"
    )
    for text in unexpected[:20]:
        print(f"  miss: {text}")
    for text in known[:3]:
        print(f"  known: {text}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(misses),
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
