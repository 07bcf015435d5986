"""The four benchmark workloads.

Each workload turns a seed into inputs (an INI run description plus a few
extras) and runs one pass through the public ``catqed`` API in a fresh
worker process; ``checks`` holds the exact reference it is compared with.
The seed changes only quantities that leave the amount of work unchanged:
N, alpha, ``n_max``, the step count and the sample count are fixed per
workload.

This module imports neither catqed (the parent never loads the package under
test) nor the reference code (the worker's set-up time must not include it).
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

GAMMA = 0.01


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


def _ini(model: dict, photonic: dict, propagation: dict, monitors: dict,
         measurement: dict | None = None) -> str:
    sections = [("model", model), ("photonic", photonic),
                ("propagation", propagation), ("monitors", monitors)]
    if measurement:
        sections.append(("measurement", measurement))
    return "\n".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
                     for name, body in sections)


# ---------------------------------------------------------------- passes
# Pass functions run in the worker.  ``cq`` is the imported package and
# ``clock.setup_done()`` marks the first propagation call.

def _write_series(series, extra: dict, out_dir: str, prefix: str) -> dict:
    for name, values in extra.items():
        series.columns[name] = np.asarray(values, dtype=float)
    series.to_csv(os.path.join(out_dir, f"{prefix}_series.csv"))
    return {"time": series.times, **series.columns}


def _pass_flagship(cq, inp, out_dir, clock):
    cfg = cq.config.parse_config(inp["ini"])
    state = cfg.initial_state()
    params = cfg.model_params()
    plan = cfg.plan()
    clock.setup_done()
    series = cq.run(state, params, plan)
    semi = [cq.qfi_pure(cq.rabi_cat_state(params, cfg.alpha, t), params.n_qubits).value
            / params.n_qubits for t in series.times]
    out = _write_series(series, {"qfi_density_semiclassical": semi}, out_dir, "flagship")
    return out, {"samples": len(series.times), "sim_time": plan.n_steps * plan.dt,
                 "steps": plan.n_steps}


def _pass_series(cq, inp, out_dir, clock, prefix):
    cfg = cq.config.parse_config(inp["ini"])
    state = cfg.initial_state()
    params = cfg.model_params()
    plan = cfg.plan()
    extra = cq.build_quadrature_monitors(cfg.quadrature_spec()) if cfg.quadrature else ()
    clock.setup_done()
    series = cq.run(state, params, plan, extra_monitors=extra)
    out = _write_series(series, {}, out_dir, prefix)
    return out, {"samples": len(series.times), "sim_time": plan.n_steps * plan.dt,
                 "steps": plan.n_steps}


def _pass_headline(cq, inp, out_dir, clock):
    return _pass_series(cq, inp, out_dir, clock, "headline")


def _pass_kitten(cq, inp, out_dir, clock):
    return _pass_series(cq, inp, out_dir, clock, "kitten")


def _pass_wigner(cq, inp, out_dir, clock):
    cfg = cq.config.parse_config(inp["ini"])
    state = cfg.initial_state()
    params = cfg.model_params()
    spec = cfg.photonic_spec()
    clock.setup_done()
    states = cq.snapshots(state, params, inp["times"], dt=cfg.dt)
    out = {}
    for k, snap in enumerate(states):
        rhos = {"none": cq.reduce_to_electron(snap)}
        for outcome in (cq.ParityOutcome.EVEN, cq.ParityOutcome.ODD):
            try:
                rhos[outcome.label] = cq.parity_postselect(snap, outcome).rho
            except cq.ImpossibleOutcomeError:
                pass
        for label, rho in rhos.items():
            grid = cq.wigner_function(rho)
            grid.to_file(os.path.join(out_dir, f"wigner_{label}_{k}.dat"))
            out[f"grid_{label}_{k}"] = grid.values
        out[f"snap_{k}"] = snap.amplitudes
        out[f"expansion_{k}"] = cq.coherent_expansion_state(params, spec, snap.time).amplitudes
    out["times"] = np.array([s.time for s in states])
    steps = round(max(inp["times"]) / cfg.dt)
    return out, {"samples": len(states), "sim_time": steps * cfg.dt, "steps": steps}


# ------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    run_pass: Callable
    layers: tuple[str, ...]   # traced spans that must record calls


_COMMON_LAYERS = ("config.parse_config", "stateprep.prepare_initial",
                  "operators.apply", "fileio.atomic_write_text")


def _flagship_inputs(seed):
    rng = random.Random(seed)
    # U(1) symmetry of the RWA model: rotating the field phase changes every
    # amplitude but no observable, no cutoff and no step count.
    # |alpha| may round off 10, so n_max is given rather than left automatic.
    alpha = 10.0 * complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    columns = ("qfi_density", "qfi_density_even", "prob_even", "prob_odd",
               "photon_number", "qfi_density_semiclassical")
    inp = {"kind": "even_cat", "alpha": alpha, "n_qubits": 8, "n_max": 188,
           "rwa": True, "t_max": 10.0, "dt": 1e-3, "stride": 100, "columns": columns}
    inp["ini"] = _ini({"n_qubits": 8, "gamma": GAMMA},
                      {"kind": "even_cat", "alpha": _fmt_complex(alpha)},
                      {"t_max": 10, "dt": inp["dt"], "n_max": 188, "sample_stride": 100},
                      {"names": " ".join(columns[:-1])})
    return inp


# Field amplitudes of modulus exactly 30 in floating point, one per
# distinct even cat (alpha and -alpha give the same state).  The automatic
# cutoff and step rules see |alpha| = 30 for each.
_HEADLINE_ALPHAS = (30.0, 30j, 18 + 24j, 24 + 18j, 18 - 24j, 24 - 18j)


def _headline_inputs(seed):
    alpha = random.Random(seed).choice(_HEADLINE_ALPHAS)
    columns = ("qfi_density", "prob_even", "prob_odd", "photon_number")
    inp = {"kind": "even_cat", "alpha": complex(alpha), "n_qubits": 24, "n_max": 1144,
           "rwa": True, "t_max": 0.1, "dt": 1e-4, "stride": 250, "columns": columns}
    inp["ini"] = _ini({"n_qubits": 24, "gamma": GAMMA},
                      {"kind": "even_cat", "alpha": _fmt_complex(alpha)},
                      {"t_max": 0.1, "sample_stride": 250},
                      {"names": " ".join(columns)})
    return inp


def _kitten_inputs(seed):
    # The Taylor error in the conditioned readout varies with x by a factor of
    # ten over |x| < 0.3; a narrow band keeps max_dev comparable across seeds.
    x = round(0.2 + random.Random(seed).uniform(-0.01, 0.01), 6)
    columns = ("qfi_density", "prob_quad", "qfi_density_quad")
    inp = {"kind": "kitten", "alpha": 6.0, "n_qubits": 8, "n_max": 96, "rwa": False,
           "t_max": 3.0, "dt": 1e-3, "stride": 10, "x": x, "delta_x": 0.2,
           "columns": columns}
    inp["ini"] = _ini({"n_qubits": 8, "gamma": GAMMA, "rwa": "false"},
                      {"kind": "kitten", "alpha": 6},
                      {"t_max": 3, "sample_stride": 10},
                      {"names": "qfi_density", "quadrature": "true"},
                      {"x": repr(x), "delta_x": 0.2, "track": "true"})
    return inp


def _wigner_inputs(seed):
    shift = round(random.Random(seed).uniform(-0.05, 0.05), 3)
    times = [0.0, round(7.85 + shift, 3), round(15.7 + shift, 3)]
    inp = {"kind": "even_cat", "alpha": 4.0, "n_qubits": 16, "n_max": 72, "rwa": True,
           "dt": 1e-3, "times": times, "nodes": 41}
    inp["ini"] = _ini({"n_qubits": 16, "gamma": GAMMA},
                      {"kind": "even_cat", "alpha": 4},
                      {"t_max": times[-1]},
                      {"names": "qfi_density"})
    return inp


WORKLOADS = {w.name: w for w in (
    Workload("flagship_parity",
             "paper's headline regime (even cat alpha 10, N 8, RWA); Taylor stepping "
             "on 9x189 arrays dominates",
             _flagship_inputs, _pass_flagship,
             _COMMON_LAYERS + ("propagator.run", "monitors", "qfi.qfi_mixed",
                               "hilbert.reduce_to_electron", "measurement.parity_postselect",
                               "measurement.parity_probabilities", "qfi.qfi_pure",
                               "semiclassical.rabi_cat_state", "fileio.to_csv")),
    Workload("headline_n24",
             "headline scale (alpha 30, N 24, n_max 1144, dt 1e-4); same propagator "
             "on 17x larger arrays",
             _headline_inputs, _pass_headline,
             _COMMON_LAYERS + ("propagator.run", "monitors", "qfi.qfi_mixed",
                               "hilbert.reduce_to_electron",
                               "measurement.parity_probabilities", "fileio.to_csv")),
    Workload("kitten_window_full",
             "full model with windowed quadrature readout each 0.01; readout, not "
             "stepping, dominates",
             _kitten_inputs, _pass_kitten,
             _COMMON_LAYERS + ("propagator.run", "monitors",
                               "measurement.quadrature_postselect",
                               "measurement.hermite_functions", "qfi.qfi_mixed",
                               "hilbert.reduce_to_electron", "fileio.to_csv")),
    Workload("wigner_snapshots",
             "snapshots at the README times with 8 Wigner grids written and the "
             "coherent expansion; the only user of wigner, grid output and expansion",
             _wigner_inputs, _pass_wigner,
             _COMMON_LAYERS + ("propagator.snapshots", "hilbert.reduce_to_electron",
                               "measurement.parity_postselect", "wigner.wigner_function",
                               "wigner.kernel_weights", "fileio.to_file",
                               "semiclassical.coherent_expansion_state")),
)}
