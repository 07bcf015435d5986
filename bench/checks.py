"""Exact references and per-pass correctness checks, run in the parent
process outside the timed region.

Every recorded output is compared with ``reference`` (which shares no code
with catqed); ``max_dev`` is the largest absolute deviation over all of
them.  A pass fails if any output deviates by more than DEV_TOL times
max(1, its largest exact magnitude), so photon numbers near |alpha|^2 are
held to a relative and O(1) quantities to an absolute tolerance.  Written
files are read back, so the check covers what a user gets.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference as ref
from workloads import GAMMA

DEV_TOL = 1e-3          # accepted |recorded - exact| per unit of max(1, |exact|)
PROB_SUM_TOL = 1e-10    # |p_even + p_odd - 1|
WIGNER_NORM_TOL = 1e-5  # |integral of W - 1| (Simpson in theta on 181 rows)
# Deviations below this read as agreement: it is the accuracy the exact
# backends on the roadmap promise, and the level at which the reference's
# own round-off and the QFI pair floor start to show.
DEV_FLOOR = 1e-12



def _deviation(recorded, exact):
    """(largest |recorded - exact|, largest |exact|)."""
    return (float(np.max(np.abs(np.asarray(recorded) - exact))),
            float(np.max(np.abs(exact))))


def _exact_states(inp, times):
    c0 = ref.initial_state(inp["kind"], complex(inp["alpha"]), inp["n_qubits"], inp["n_max"])
    if inp["rwa"]:
        return ref.evolve_rwa(c0, GAMMA, times)
    return ref.evolve_full(c0, GAMMA, times)


def _series_times(inp):
    steps = round(inp["t_max"] / inp["dt"])
    grid = list(range(0, steps + 1, inp["stride"]))
    if grid[-1] != steps:
        grid.append(steps)
    return np.array(grid) * inp["dt"]


def _exact_value(name, inp, c, t):
    """One recorded column's exact value for the joint state c at time t."""
    n = inp["n_qubits"]
    if name == "qfi_density":
        return ref.qfi(c @ c.conj().T, n) / n
    if name == "qfi_density_even":
        return ref.qfi(ref.conditioned_rho(c, 0), n) / n
    if name in ("prob_even", "prob_odd"):
        return ref.parity_probs(c)[name == "prob_odd"]
    if name == "photon_number":
        return ref.photon_number(c)
    if name == "qfi_density_semiclassical":
        return ref.qfi_pure_state(ref.rabi_even_cat_state(n, GAMMA, inp["alpha"], t), n) / n
    # tracked local-oscillator phase pi/2 - omega t
    prob, rho = ref.window_readout(c, inp["x"], inp["delta_x"], 0.5 * math.pi - t)
    return prob if name == "prob_quad" else ref.qfi(rho, n) / n


def _reference_series(inp):
    """Exact values of every recorded column on the sampling grid."""
    times = _series_times(inp)
    states = _exact_states(inp, times)
    out = {"time": times}
    for name in inp["columns"]:
        out[name] = np.array([_exact_value(name, inp, c, t) for t, c in zip(times, states)])
    return out


def _check_series(inp, reference, out, out_dir, prefix):
    problems = []
    path = os.path.join(out_dir, f"{prefix}_series.csv")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    written = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    expected = ["time"] + list(inp["columns"])
    if sorted(header) != sorted(expected):
        return {}, [f"csv columns {header}, expected {expected}"]
    devs = {}
    for k, name in enumerate(header):
        col = written[:, k]
        if not np.all(np.isfinite(col)):
            problems.append(f"{name}: non-finite value")
            continue
        if not np.array_equal(col, out[name]):
            problems.append(f"{name}: csv differs from the in-memory column")
        devs[name] = _deviation(col, reference[name])
    if "prob_even" in header and "prob_odd" in header:
        off = np.max(np.abs(written[:, header.index("prob_even")]
                            + written[:, header.index("prob_odd")] - 1.0))
        if off > PROB_SUM_TOL:
            problems.append(f"prob_even + prob_odd off 1 by {off:.2e}")
    return devs, problems


def _reference_wigner(inp):
    times = inp["times"]
    n = inp["n_qubits"]
    states = _exact_states(inp, times)
    thetas = np.linspace(0.0, math.pi, 181)[::15]
    phis = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)[::24]
    out = {"times": np.array(times)}
    for k, (t, c) in enumerate(zip(times, states)):
        out[f"snap_{k}"] = c
        rhos = {"none": c @ c.conj().T, "even": ref.conditioned_rho(c, 0)}
        if ref.parity_probs(c)[1] > 1e-14:
            rhos["odd"] = ref.conditioned_rho(c, 1)
        for label, rho in rhos.items():
            out[f"grid_{label}_{k}"] = ref.wigner_points(rho, n, thetas, phis)
        out[f"expansion_{k}"] = ref.expansion_state(n, GAMMA, inp["alpha"], t,
                                                    inp["n_max"], inp["nodes"] + 8)
    return out


def _check_wigner(inp, reference, out, out_dir):
    problems = []
    grids = sorted(k for k in out if k.startswith("grid_"))
    want = sorted(k for k in reference if k.startswith("grid_"))
    if grids != want:
        return {}, [f"grids {grids}, expected {want}"]
    devs = {"times": _deviation(out["times"], reference["times"])}
    thetas = np.linspace(0.0, math.pi, 181)
    for key in grids:
        path = os.path.join(out_dir, key.replace("grid_", "wigner_") + ".dat")
        written = np.loadtxt(path, comments="#")
        values = written[:, 2].reshape(181, 360)
        if not np.array_equal(values, out[key]):
            problems.append(f"{key}: file differs from the in-memory grid")
        norm = ref.sphere_integral(values, thetas, inp["n_qubits"])
        if abs(norm - 1.0) > WIGNER_NORM_TOL:
            problems.append(f"{key}: integrates to 1{norm - 1:+.2e}")
        devs[key] = _deviation(values[::15, ::24], reference[key])
    for k in range(len(inp["times"])):
        for key in (f"snap_{k}", f"expansion_{k}"):
            devs[key] = _deviation(out[key], reference[key])
    return devs, problems


# workload name -> (reference function, checker); a checker returns
# ({output: (deviation, scale)}, problems) for one pass's outputs and files
CHECKS = {
    "flagship_parity": (_reference_series,
                        lambda i, r, o, d: _check_series(i, r, o, d, "flagship")),
    "headline_n24": (_reference_series,
                     lambda i, r, o, d: _check_series(i, r, o, d, "headline")),
    "kitten_window_full": (_reference_series,
                           lambda i, r, o, d: _check_series(i, r, o, d, "kitten")),
    "wigner_snapshots": (_reference_wigner, _check_wigner),
}


def check_pass(name, inputs, reference, outputs, out_dir):
    """(max_dev floored at DEV_FLOOR, problems)."""
    devs, problems = CHECKS[name][1](inputs, reference, outputs, out_dir)
    for key, (dev, scale) in devs.items():
        if not dev <= DEV_TOL * max(1.0, scale):
            problems.append(f"{key}: deviation {dev:.3e} exceeds {DEV_TOL:.0e} x {max(1.0, scale):.4g}")
    if not devs:
        return math.inf, problems
    return max(DEV_FLOOR, *(dev for dev, _ in devs.values())), problems
