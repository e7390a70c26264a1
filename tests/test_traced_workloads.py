"""One rotation of every benchmark workload, traced, through the benchmark's correctness gate.

A traced run wraps ``Profile.ft`` (whose wrapper reads its arguments by
position), ``Profile.polar_factor`` (whose result it unpacks as a 2-tuple)
and the public functions of every layer (it reads ``.panels`` off
``integrate_oscillatory``'s result), so a change in src/ that an untraced
run takes in its stride can make a traced call raise.  The gate counts a
raised call as failed at every time point.  The tracer patches the package
and numpy process-wide, so the rotation runs in a child interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_ROTATION = """
import json, sys
from pathlib import Path

root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import wavegrowth as wg
import checks, workloads
from tracer import Tracer

tracer = Tracer()
tracer.install(wg)
checks.load_oracles(root)
misses = {}
for name, families in workloads.ROTATION.items():
    misses[name] = []
    for k in range(len(families)):
        call = workloads.make_call(wg, name, 3, k)
        tracer.begin_call()
        try:
            call.output = workloads.run_call(wg, name, call)
        except Exception as exc:  # counted at every time point, as the benchmark's worker does
            call.error = f"{type(exc).__name__}: {exc}"
        misses[name] += [f"{call.case.family} {m.text}" for m in checks.check_call(name, call) if not m.known]
print(json.dumps({"misses": misses, "count": dict(tracer.count)}))
"""


def test_a_traced_rotation_of_every_workload_passes_the_gate():
    proc = subprocess.run(
        [sys.executable, "-c", _ROTATION, str(ROOT)], capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["misses"] == {"norm_curve": [], "sandwich": [], "local_energy": []}
    count = result["count"]
    # the tracer saw every workload's top-level call and the layers beneath
    assert count["spectral.norm_curve"] == 4 and count["analysis.model_select"] == 4
    assert count["bounds.sandwich_report"] == 3 and count["quadrature.integrate_oscillatory"] > 0
    assert count["local_energy.local_energy_report"] == 2 and count["profiles.ft"] > 0
