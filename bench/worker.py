"""One benchmark process: set up a workload, run its calls, check them.

Started by ``run.py`` in a fresh interpreter with ``src/`` on the path;
prints one JSON object as its last line of output.

    worker.py setup  <workload> <seed>
        import and build the inputs, then report the monotonic clock at the
        point where the first timed call would start;
    worker.py run    <workload> <seed> <seconds>
        closed loop, one client: the fixed number of calls that
        ``workloads.calls_per_run`` sizes from ``seconds``, then the
        correctness gate;
    worker.py window <workload> <seed> <seconds> <trace> <spans-path>
        the number of passes over the workload's fixed trace window that
        ``workloads.passes_per_window`` sizes from ``seconds``, traced when
        ``trace`` is 1.

The run and window modes interleave the speed probe (``probe.py``) with
the calls and passes and report its timings.  The probe and the gate are
imported only after set-up is timed, so ``setup_s`` holds nothing that
``import wavegrowth`` does not load itself.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_package():
    import wavegrowth

    src = (ROOT / "src").resolve()
    if src not in Path(wavegrowth.__file__).resolve().parents:
        raise SystemExit(f"wavegrowth imported from {wavegrowth.__file__}, not from {src}")
    return wavegrowth


def _timed_call(wg, name, call):
    start = time.perf_counter()
    try:
        call.output = workloads.run_call(wg, name, call)
    except Exception as exc:  # a failed call is counted, not fatal
        call.error = f"{type(exc).__name__}: {exc}"
    call.seconds = time.perf_counter() - start


def _check(name, calls):
    """Misses of the gate as [text, known] pairs (checks.Miss)."""
    import checks

    checks.load_oracles(ROOT)
    misses = []
    for call in calls:
        misses += [[f"{call.case.family} {m.text}", m.known] for m in checks.check_call(name, call)]
    return misses


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wg = _import_package()
    first = workloads.make_call(wg, name, seed, 0)
    ready = time.monotonic()
    if mode == "setup":
        return {"ready": ready}

    from probe import SpeedProbe

    seconds = float(argv[3])
    probe = SpeedProbe(workloads.PROBE[name])
    if mode == "run":
        count = workloads.calls_per_run(name, seconds)
        calls = [first] + [workloads.make_call(wg, name, seed, k) for k in range(1, count)]
        for call in calls:
            _timed_call(wg, name, call)
            probe.after(call.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        misses = _check(name, calls)
        return {
            "ready": ready,
            "points": [len(c.ts) for c in calls],
            "latencies": [c.seconds for c in calls],
            "probes": probe.samples,
            "probe": probe.kind,
            "peak_rss_mb": rss_mb,
            "misses": misses,
        }

    traced = argv[4] == "1"
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(wg)
    window = workloads.TRACE_WINDOW[name]
    passes = []
    all_calls = []
    for _ in range(workloads.passes_per_window(name, seconds)):
        calls = [workloads.make_call(wg, name, seed, k) for k in range(window)]
        if tracer is not None:
            tracer.reset_totals()
        pass_start = time.perf_counter()
        for call in calls:
            if tracer is not None:
                tracer.begin_call()
            _timed_call(wg, name, call)
        passes.append({"elapsed": time.perf_counter() - pass_start, "trace": tracer.snapshot() if tracer else None})
        probe.after(passes[-1]["elapsed"])
        all_calls += calls
    if tracer is not None:
        tracer.write(Path(argv[5]))
    misses = _check(name, all_calls)
    return {
        "points": sum(len(c.ts) for c in calls),
        "attempted": sum(len(c.ts) for c in all_calls),
        "passes": passes,
        "probes": probe.samples,
        "probe": probe.kind,
        "misses": misses,
    }


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(result))
