"""The benchmark's traced spans still find and record the functions they name.

``bench/tracer.py`` wraps catqed functions by name, and ``bench/run.py``
refuses a traced pass in which a span its workload requires recorded no
call.  A renamed or inlined function would first show there; this test runs
every workload pass once under the tracer and reads the bench modules only.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One process for every pass: ``run`` pins BLAS to one thread before
# numpy loads, the tracer is installed once, and its statistics are cleared
# before each pass so that each workload is judged on its own calls.
PASSES = """
import json, os, sys
bench, out_dir = sys.argv[1:3]
sys.path.insert(0, bench)
from run import missing_layers
import catqed as cq
import catqed.config
from tracer import Tracer
from worker import Clock
from workloads import WORKLOADS

tracer = Tracer()
report = {"uninstalled": tracer.install(), "unrecorded": {}}
for name, workload in WORKLOADS.items():
    tracer.stats.clear()
    pass_dir = os.path.join(out_dir, name)
    os.mkdir(pass_dir)
    workload.run_pass(cq, workload.make_inputs(1), pass_dir, Clock(0.0))
    report["unrecorded"][name] = missing_layers(workload.layers, tracer.summary())
print(json.dumps(report))
"""


def test_every_required_span_records_calls(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")    # leave bench/ as it is
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PASSES, str(ROOT / "bench"), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["uninstalled"] == []
    assert report["unrecorded"], "no workload ran"
    assert not any(report["unrecorded"].values()), report["unrecorded"]
