"""One benchmark pass in a fresh process.

    python3 bench/worker.py <workload> <seed> <out_dir> <trace 0|1> <spawn_time>

``spawn_time`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so ``setup_s`` covers interpreter start, ``import
catqed``, config parsing and initial-state preparation.  ``wall_s`` runs
from the first propagation call until every output is computed and
written.  Results go to ``<out_dir>/result.json`` and the recorded outputs
to ``<out_dir>/outputs.npz``; a failure writes the traceback instead.
"""

import json
import os
import sys
import time
import traceback


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mib() -> float:
    """High-water resident set of this process image (VmHWM).

    ``ru_maxrss`` is not used: it survives exec, so it would report the
    parent's resident set at spawn time when that is larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Clock:
    def __init__(self, spawn_time: float):
        self.spawn_time = spawn_time
        self.setup_end = None

    def setup_done(self):
        self.setup_end = _now()


def main() -> int:
    name, seed, out_dir, trace, spawn_time = sys.argv[1:6]
    clock = Clock(float(spawn_time))
    result = {}
    try:
        import catqed as cq
        import catqed.config  # noqa: F401  (INI parsing is part of set-up)

        from workloads import WORKLOADS
        workload = WORKLOADS[name]
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer()
            missing = tracer.install()
            if missing:
                raise RuntimeError(f"traced names not found: {missing}")
        outputs, info = workload.run_pass(cq, workload.make_inputs(int(seed)), out_dir, clock)
        end = _now()
        if clock.setup_end is None:
            raise RuntimeError("pass never marked the end of set-up")
        result = {
            "setup_s": clock.setup_end - clock.spawn_time,
            "wall_s": end - clock.setup_end,
            "peak_rss_mb": _peak_rss_mib(),
            "info": info,
        }
        if tracer is not None:
            result["trace"] = tracer.summary()
        import numpy as np
        np.savez(os.path.join(out_dir, "outputs.npz"), **outputs)
    except Exception:
        result = {"error": traceback.format_exc()}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
