"""catqed benchmark: time to solution, set-up, memory and accuracy per workload.

    python3 bench/run.py --workload flagship_parity --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # every workload, one table

Closed loop, one client: each pass is one fresh worker process
(``bench/worker.py``) and the next starts only after the previous one has
ended and been checked.  Passes repeat while the next one is expected to end
within ``--seconds`` of measuring (at least MIN_PASSES).  The exact reference is computed once per
run, before measuring, and every pass is compared with it outside the timed
region.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the traced ones, plus ``trace.overhead``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

BLAS and OpenMP are pinned to one thread in the parent and in every pass.

Times are reported at a reference host speed.  The shared host's speed
drifts by up to 2x over minutes, so a fixed probe kernel runs in the parent
just before and just after every pass, and each pass's times are scaled by
PROBE_REF_S / (mean probe time).  Raw seconds are printed and saved too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)   # before numpy loads, here and in every worker

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import CHECKS, check_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

MIN_PASSES = {False: 3, True: 2}   # untraced, traced passes per run
RUN_BUDGET_S = 150.0    # no new pass starts if it could end later than this
PASS_TIMEOUT_S = 120.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "max_dev": "1"}
SCALED = ("wall_s", "setup_s")   # reported at the reference host speed

# Probe time of speed_probe() on the reference 2-core box at its usual
# speed; it only fixes the unit of the scaled times.
PROBE_REF_S = 0.040
_PROBE_SMALL = np.full((9, 189), 0.5 + 0.5j)
_PROBE_LARGE = np.full((25, 1145), 0.5 + 0.5j)


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_probe() -> float:
    """Seconds for a fixed mix of what catqed passes spend time on:
    elementwise complex numpy calls on a cache-resident and on an L2-sized
    array, and formatting floats to text."""
    small, large = _PROBE_SMALL.copy(), _PROBE_LARGE.copy()
    t0 = _now()
    for _ in range(3750):
        np.multiply(small, _PROBE_SMALL, out=small)
        np.add(small, _PROBE_SMALL, out=small)
    for _ in range(150):
        np.multiply(large, _PROBE_LARGE, out=large)
        np.add(large, _PROBE_LARGE, out=large)
    "\n".join("%.17g %.17g" % (k * 0.1, k / 7.0) for k in range(15000))
    return _now() - t0


# ------------------------------------------------------------ environment

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _commit() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref_name = head[5:]
    sha = _read(os.path.join(ROOT, ".git", *ref_name.split("/")))
    if sha:
        return sha
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref_name):
            return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "catqed")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def environment() -> dict:
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": dict(PINNED),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ----------------------------------------------------------------- passes

def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_pass(name: str, seed: int, trace: bool, pass_dir: str, timeout: float) -> dict:
    """One worker process; returns its result.json (or an error record)."""
    os.makedirs(pass_dir)
    spawn = _now()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, name, str(seed), pass_dir, "1" if trace else "0",
             repr(spawn)],
            env=_worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass exceeded {timeout:.0f} s and was killed"}
    try:
        with open(os.path.join(pass_dir, "result.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return {"error": f"worker exited {proc.returncode} without a result:\n{proc.stderr}"}
    if proc.returncode != 0 and "error" not in result:
        result["error"] = f"worker exited {proc.returncode}:\n{proc.stderr}"
    return result


def verify(name: str, inputs: dict, reference: dict, result: dict, pass_dir: str) -> None:
    """Adds max_dev and problems to ``result`` (outside any timed region)."""
    if "error" in result:
        result["problems"] = [result["error"].strip().splitlines()[-1]]
        return
    with np.load(os.path.join(pass_dir, "outputs.npz")) as data:
        outputs = {k: data[k] for k in data.files}
    try:
        dev, problems = check_pass(name, inputs, reference, outputs, pass_dir)
    except Exception as exc:   # malformed outputs fail the pass, not the run
        dev, problems = math.inf, [f"check raised {exc!r}"]
    for key in ("setup_s", "wall_s", "peak_rss_mb"):
        if not (isinstance(result.get(key), float) and math.isfinite(result[key])
                and result[key] > 0):
            problems.append(f"{key} = {result.get(key)!r}")
    result["max_dev"] = dev
    result["problems"] = problems


# ---------------------------------------------------------- layer metrics

def layer_metrics(trace: dict, info: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass (see README for definitions)."""
    spans = trace["spans"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0, 0.0])[0]

    def total(name):
        return spans.get(name, [0, 0.0, 0.0, 0.0])[1]

    def mean_us(*names):
        n = sum(calls(x) for x in names)
        return 1e6 * sum(total(x) for x in names) / n if n else 0.0

    samples = info["samples"]
    apply_calls, apply_s = calls("operators.apply"), total("operators.apply")
    apply_kib = apply_kib_computed(trace["apply_shape"], trace["apply_rwa"])
    prop_self = sum(spans.get(x, [0, 0, 0, 0])[2]
                    for x in ("propagator.run", "propagator.snapshots"))
    monitors_s = trace["layers"].get("monitors", 0.0)
    grid_s = total("wigner.wigner_function")
    evaluated = trace["hermite_points"]
    return {
        "operators.apply_calls": apply_calls,
        "operators.apply_us": mean_us("operators.apply"),
        "operators.apply_kib": apply_kib,
        "operators.apply_gbps": apply_kib * 1024 * apply_calls / apply_s / 1e9 if apply_s else 0.0,
        "propagator.self_s": prop_self,
        "propagator.step_us": 1e6 * (prop_self + apply_s) / info["steps"],
        "propagator.applies_per_t": apply_calls / info["sim_time"],
        "propagator.samples": samples,
        "measurement.quad_calls_per_sample": calls("measurement.quadrature_postselect") / samples,
        "measurement.quad_us": mean_us("measurement.quadrature_postselect"),
        "measurement.hermite_s": total("measurement.hermite_functions"),
        "measurement.hermite_points": evaluated,
        "measurement.node_yield": trace["accepted_points"] / evaluated if evaluated else 0.0,
        "measurement.parity_us": mean_us("measurement.parity_postselect",
                                         "measurement.parity_probabilities"),
        "qfi.mixed_calls_per_sample": calls("qfi.qfi_mixed") / samples,
        "qfi.mixed_us": mean_us("qfi.qfi_mixed"),
        "qfi.pure_us": mean_us("qfi.qfi_pure"),
        "hilbert.reduce_calls": calls("hilbert.reduce_to_electron"),
        "hilbert.reduce_us": mean_us("hilbert.reduce_to_electron"),
        "monitors.s": monitors_s,
        "monitors.share": monitors_s / wall_s,
        "semiclassical.rabi_s": total("semiclassical.rabi_cat_state"),
        "semiclassical.expansion_s": total("semiclassical.coherent_expansion_state"),
        "wigner.grid_ms": 1e3 * grid_s / calls("wigner.wigner_function")
        if calls("wigner.wigner_function") else 0.0,
        "wigner.row_us": 1e6 * grid_s / trace["grid_rows"] if trace["grid_rows"] else 0.0,
        "wigner.kernel_ms": 1e3 * total("wigner.kernel_weights"),
        "fileio.write_s": trace["layers"].get("fileio", 0.0),
        "fileio.mb": trace["written_bytes"] / 1e6,
        "config.parse_s": total("config.parse_config"),
        "stateprep.prepare_s": total("stateprep.prepare_initial"),
    }


LAYER_UNITS = {
    "operators.apply_calls": "count", "operators.apply_us": "us",
    "operators.apply_kib": "KiB", "operators.apply_gbps": "GB/s",
    "propagator.self_s": "s", "propagator.step_us": "us",
    "propagator.applies_per_t": "count", "propagator.samples": "count",
    "measurement.quad_calls_per_sample": "count", "measurement.quad_us": "us",
    "measurement.hermite_s": "s", "measurement.hermite_points": "count",
    "measurement.node_yield": "ratio", "measurement.parity_us": "us",
    "qfi.mixed_calls_per_sample": "count", "qfi.mixed_us": "us", "qfi.pure_us": "us",
    "hilbert.reduce_calls": "count", "hilbert.reduce_us": "us",
    "monitors.s": "s", "monitors.share": "ratio",
    "semiclassical.rabi_s": "s", "semiclassical.expansion_s": "s",
    "wigner.grid_ms": "ms", "wigner.row_us": "us", "wigner.kernel_ms": "ms",
    "fileio.write_s": "s", "fileio.mb": "MB",
    "config.parse_s": "s", "stateprep.prepare_s": "s",
    "trace.overhead": "ratio",
}

# Array passes of one H-apply over a (N+1) x (n_max+1) complex buffer:
# diagonal multiply (read 2, write 1) and, per coupling term, a multiply
# into scratch (3) plus an in-place add (3).  Two terms in the RWA model,
# four in the full model.
APPLY_PASSES = {True: 3 + 2 * 6, False: 3 + 4 * 6}


def apply_kib_computed(shape, rwa) -> float:
    if shape is None:
        return 0.0
    return APPLY_PASSES[bool(rwa)] * 16 * shape[0] * shape[1] / 1024.0


def missing_layers(required, trace: dict) -> list[str]:
    """Required spans (``layer.fn``) or layers (``layer``) with no calls."""
    spans = trace["spans"]
    missing = []
    for name in required:
        if "." in name:
            hit = spans.get(name, [0])[0] > 0
        else:
            hit = any(k.split(".", 1)[0] == name and v[0] > 0 for k, v in spans.items())
        if not hit:
            missing.append(name)
    return missing


# -------------------------------------------------------------------- run

def _median(values):
    return statistics.median(values) if values else math.nan


def _scaled(result: dict, key: str) -> float:
    """A pass's value, with times scaled to the reference host speed."""
    if key in SCALED:
        return result[key] * PROBE_REF_S / result["probe_s"]
    return result[key]


def _describe(values, unit):
    return (f"median {statistics.median(values):.6g} {unit} over {len(values)} passes "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def measure(name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    start = _now()
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        # untimed warm-up: byte-compiles the package once per checkout
        subprocess.run([sys.executable, "-c", "import catqed, catqed.config"],
                       env=_worker_env(), check=True, timeout=PASS_TIMEOUT_S,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        reference = CHECKS[name][0](inputs)
        log(f"reference ready after {_now() - start:.2f} s")
        passes = {False: [], True: []}
        order = [False, True] if trace else [False]
        measure_start = _now()
        durations = []
        k = 0
        while True:
            kind = order[k % len(order)]
            done = all(len(passes[x]) >= MIN_PASSES[x] for x in order)
            typical = _median(durations) if durations else 0.0
            elapsed = _now() - start
            # stop at the pass that would overrun --seconds, once enough ran
            if (done and _now() - measure_start + typical > seconds) or \
                    elapsed + 1.5 * max(durations, default=0.0) > RUN_BUDGET_S:
                break
            pass_dir = os.path.join(run_dir, f"pass-{k:03d}")
            t0 = _now()
            before = speed_probe()
            result = run_pass(name, seed, kind, pass_dir,
                              min(PASS_TIMEOUT_S, RUN_BUDGET_S + 20.0 - elapsed))
            result["probe_s"] = 0.5 * (before + speed_probe())
            verify(name, inputs, reference, result, pass_dir)
            if kind and "error" not in result:
                lost = missing_layers(workload.layers, result["trace"])
                if lost:
                    result["problems"].append(f"traced layers with no calls: {lost}")
            shutil.rmtree(pass_dir, ignore_errors=True)
            durations.append(_now() - t0)
            passes[kind].append(result)
            status = "ok" if not result["problems"] else "FAILED: " + "; ".join(result["problems"])
            if "error" in result:
                log(result["error"])
                log(f"pass {k} {'traced' if kind else 'untraced'}: {status}")
            else:
                log(f"pass {k} {'traced' if kind else 'untraced'}: setup {result['setup_s']:.4f} s,"
                    f" wall {result['wall_s']:.4f} s, rss {result['peak_rss_mb']:.1f} MiB,"
                    f" max_dev {result['max_dev']:.3e}, probe {1e3 * result['probe_s']:.1f} ms:"
                    f" {status}")
            k += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {"inputs": inputs, "passes": passes}


def summarize(name: str, runs: dict, trace: bool, caches: dict, log) -> tuple[dict, int, int]:
    all_passes = runs["passes"][False] + runs["passes"][True]
    attempted = len(all_passes)
    failed = sum(1 for p in all_passes if p["problems"])
    good = [p for p in runs["passes"][False] if not p["problems"]]
    metrics = {}
    log(f"fail_frac = {failed / attempted if attempted else math.nan:.6g} "
        f"({failed} of {attempted} passes failed)")
    if not trace:
        for key, unit in END_TO_END.items():
            values = [_scaled(p, key) for p in good]
            if values:
                metrics[key] = {"value": _median(values), "unit": unit}
                log(f"{key} = {_describe(values, unit)}")
                if key in SCALED:
                    log(f"  raw {key} = {_describe([p[key] for p in good], unit)}")
        if good:
            log(f"probe = {_describe([p['probe_s'] for p in good], 's')} "
                f"(reference {PROBE_REF_S} s)")
    else:
        traced = [p for p in runs["passes"][True] if not p["problems"]]
        if traced and good:
            base_wall = _median([_scaled(p, "wall_s") for p in good])
            per_pass = [layer_metrics(p["trace"], p["info"], p["wall_s"]) for p in traced]
            for key in per_pass[0]:
                metrics[key] = {"value": _median([m[key] for m in per_pass]),
                                "unit": LAYER_UNITS[key]}
            traced_wall = _median([_scaled(p, "wall_s") for p in traced])
            metrics["trace.overhead"] = {"value": traced_wall / base_wall - 1.0,
                                         "unit": "ratio"}
            for key, m in metrics.items():
                log(f"{key} = {m['value']:.6g} {m['unit']}")
    sample = next((p for p in all_passes if "info" in p), None)
    if sample is not None:
        _computed_notes(name, runs["inputs"], sample, metrics, caches, log)
    return metrics, attempted, failed


def _computed_notes(name, inputs, sample, metrics, caches, log):
    shape = (inputs["n_qubits"] + 1, inputs["n_max"] + 1)
    buffer_kib = 16 * shape[0] * shape[1] / 1024.0
    log(f"computed: H-apply buffer {shape[0]}x{shape[1]} complex128 = {buffer_kib:.1f} KiB "
        f"(L2 {caches.get('L2', '?')} per core); "
        f"{APPLY_PASSES[inputs['rwa']]} buffer passes = "
        f"{apply_kib_computed(shape, inputs['rwa']):.1f} KiB moved per apply")
    info = sample["info"]
    for key in ("propagator.applies_per_t", "measurement.quad_calls_per_sample",
                "qfi.mixed_calls_per_sample", "measurement.node_yield"):
        if metrics.get(key, {}).get("value"):
            log(f"computed: {key} = {metrics[key]['value']:.6g} (exact count)")
    if name == "headline_n24" and "wall_s" in metrics:
        period = 2.0 * math.pi / (0.01 * abs(complex(inputs["alpha"])))
        rate = metrics["wall_s"]["value"] / info["sim_time"]
        log(f"extrapolated: one Rabi period ({period:.2f} time units, "
            f"{round(period / inputs['dt'])} steps at dt {inputs['dt']:g}) would take "
            f"{rate * period:.0f} s ({rate * period / 3600:.2f} h) at the measured "
            f"{rate:.2f} s per time unit; not a measurement")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "catqed", "__init__.py")):
        print(f"catqed sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    def log(line):
        print(line, flush=True)

    env = environment()
    log(f"environment: {json.dumps(env)}")
    table = {}
    totals = [True, 0, 0]
    for name in names:
        log(f"== {name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
            f"{WORKLOADS[name].why}")
        runs = measure(name, args.seed, args.seconds, bool(args.trace), log)
        metrics, attempted, failed = summarize(name, runs, bool(args.trace), env["caches"], log)
        table[name] = (metrics, attempted, failed)
        totals[0] = totals[0] and failed == 0
        totals[1] += attempted
        totals[2] += failed
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"result-{name}-{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump({"environment": env, "metrics": metrics, "attempted": attempted,
                       "failed": failed, "passes": runs["passes"]}, fh, default=str)
    if len(names) > 1:
        keys = list(END_TO_END) if not args.trace else list(LAYER_UNITS)
        log("workload".ljust(20) + "".join(k.rjust(14) for k in keys + ["fail_frac"]))
        for name, (metrics, attempted, failed) in table.items():
            log(name.ljust(20) + "".join(
                (f"{metrics[k]['value']:.4g}" if k in metrics else "-").rjust(14) for k in keys)
                + f"{failed / attempted:.4g}".rjust(14))
    metrics = table[names[0]][0] if len(names) == 1 else \
        {f"{n}.{k}": v for n, (m, _, _) in table.items() for k, v in m.items()}
    print(json.dumps({"correct": totals[0], "attempted": totals[1], "failed": totals[2],
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
