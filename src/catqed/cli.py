"""Command line front end.

    catqed simulate --config run.ini [--out DIR]
    catqed wigner   --config run.ini --times 0,7.85,15.7 [--parity even]
    catqed sweep    --config run.ini [--workers 4]
    catqed validate

Exit codes: 0 success, 2 bad usage or config, 3 numerical failure
(truncation, convergence, lost accuracy), 4 validation failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import SimulationConfig, load_config, serialize_config
from .errors import (CatqedError, ConfigError, DimensionMismatchError,
                     GridConvergenceError, ImpossibleOutcomeError,
                     NumericalError, PeakError, QuadratureConvergenceError,
                     StateValidationError, TruncationError)
from .fileio import atomic_write_text, format_float
from .hilbert import reduce_to_electron
from .measurement import ParityOutcome, parity_postselect
from .monitors import build_quadrature_monitors
from .propagator import PropagationPlan, peak_and_fwhm, run, snapshots
from .stateprep import prepare_initial, required_n_max
from .validation import run_checks
from .wigner import check_grid_size, wigner_function

_USAGE_EXIT = 2
_NUMERICAL_EXIT = 3
_VALIDATION_EXIT = 4


def _out_dir(cfg: SimulationConfig, override: str | None) -> str:
    path = override if override is not None else cfg.out_dir
    os.makedirs(path, exist_ok=True)
    return path


def _run_series(cfg: SimulationConfig):
    state = cfg.initial_state()
    params = cfg.model_params()
    extra = build_quadrature_monitors(cfg.quadrature_spec()) \
        if cfg.quadrature else ()
    return run(state, params, cfg.plan(), extra_monitors=extra)


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args.out)
    series = _run_series(cfg)
    path = os.path.join(out, f"{cfg.prefix}_series.csv")
    series.to_csv(path)
    names = [n for n in series.columns if n != "time"]
    print(f"wrote {path} ({series.times.size} samples, "
          f"columns: time {' '.join(names)})")
    if "qfi_density" in series.columns:
        try:
            peak = peak_and_fwhm(series.times, series.column("qfi_density"))
        except PeakError:
            print("qfi_density: no interior peak in the simulated window")
        else:
            print(f"qfi_density peak {peak.peak_value:.6g} at "
                  f"t = {peak.t_peak:.6g} (fwhm {peak.fwhm:.6g})")
    return 0


def _cmd_wigner(args) -> int:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args.out)
    try:
        times = sorted(float(tok) for tok in args.times.split(","))
    except ValueError:
        raise ConfigError(f"--times expects comma-separated numbers, "
                          f"got {args.times!r}") from None
    if not times:
        raise ConfigError("--times is empty")
    check_grid_size(args.n_theta, args.n_phi)
    label = args.parity

    def grid_path(time: float) -> str:
        return os.path.join(out, f"{cfg.prefix}_wigner_{label}_t{time:g}.dat")

    # a file name keeps six significant digits of the snapped time, so two
    # distinct snapshots could share one; refuse before propagating
    snapped = {round(t / cfg.dt) * cfg.dt for t in times if math.isfinite(t)}
    if len({grid_path(t) for t in snapped}) < len(snapped):
        raise ConfigError(f"--times {args.times} holds distinct times that "
                          f"share a file name (six significant digits)")
    states = snapshots(cfg.initial_state(), cfg.model_params(), times, cfg.dt)
    for state in states:
        if label == "none":
            rho = reduce_to_electron(state)
        else:
            outcome = ParityOutcome.EVEN if label == "even" else ParityOutcome.ODD
            rho = parity_postselect(state, outcome).rho
        grid = wigner_function(rho, n_theta=args.n_theta, n_phi=args.n_phi)
        path = grid_path(state.time)
        grid.to_file(path)
        print(f"wrote {path}")
    return 0


def _sweep_point(cfg: SimulationConfig, n_qubits: int) -> dict:
    alpha = cfg.sweep_alpha
    if alpha is None:
        alpha = complex(math.sqrt(n_qubits / 2.0))
    spec = cfg.photonic_spec(alpha=alpha)
    state = prepare_initial(spec, n_qubits,
                            n_max=required_n_max(spec, n_qubits))
    params = cfg.model_params(n_qubits=n_qubits)
    plan = cfg.plan()
    if "qfi_density" not in plan.monitors:
        plan = PropagationPlan(t_max=plan.t_max, dt=plan.dt,
                               sample_stride=plan.sample_stride,
                               monitors=plan.monitors + ("qfi_density",))
    series = run(state, params, plan)
    row = {"n_qubits": n_qubits, "alpha": abs(alpha),
           "t_peak": math.nan, "peak": math.nan, "fwhm": math.nan,
           "status": "ok"}
    try:
        peak = peak_and_fwhm(series.times, series.column("qfi_density"))
    except PeakError:
        row["status"] = "no-peak"
        return row
    row.update(t_peak=peak.t_peak, peak=peak.peak_value, fwhm=peak.fwhm)
    return row


def _fit_slope(ns, ys) -> float:
    logs_n = np.log(np.asarray(ns, dtype=float))
    logs_y = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(logs_n, logs_y, 1)[0])


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if not cfg.sweep_qubits:
        raise ConfigError("config has no [sweep] section")
    out = _out_dir(cfg, args.out)
    sizes = sorted(cfg.sweep_qubits)
    if args.workers > 1:
        # costly import (multiprocessing), needed only here
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, [cfg] * len(sizes), sizes))
    else:
        rows = [_sweep_point(cfg, n) for n in sizes]
    lines = ["n_qubits,alpha,t_peak,peak_qfi_density,fwhm,status"]
    for r in rows:
        lines.append(",".join([
            str(r["n_qubits"]), format_float(r["alpha"]),
            format_float(r["t_peak"]), format_float(r["peak"]),
            format_float(r["fwhm"]), r["status"]]))
    good = [r for r in rows if r["status"] == "ok"]
    if len(good) >= 2:
        lines.append("# slope log(fwhm) vs log(n_qubits) = " + format_float(
            _fit_slope([r["n_qubits"] for r in good],
                       [r["fwhm"] for r in good])))
        lines.append("# slope log(t_peak) vs log(n_qubits) = " + format_float(
            _fit_slope([r["n_qubits"] for r in good],
                       [r["t_peak"] for r in good])))
    path = os.path.join(out, f"{cfg.prefix}_sweep.csv")
    atomic_write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} sizes, {len(good)} with a resolved peak)")
    for line in lines[len(rows) + 1:]:
        print(line.lstrip("# "))
    return 0


def _cmd_validate(args) -> int:
    results = run_checks()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        if r.ok:
            print(f"{r.name:<{width}}  ok")
        else:
            failed += 1
            print(f"{r.name:<{width}}  FAIL  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else _VALIDATION_EXIT


def _cmd_echo_config(args) -> int:
    cfg = load_config(args.config)
    sys.stdout.write(serialize_config(cfg))
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="catqed",
        description="Dicke ensemble coupled to a cat-state mode: simulate, "
                    "condition, and analyze.")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="integrate and record monitors")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="output directory override")
    sim.set_defaults(func=_cmd_simulate)

    wig = sub.add_parser("wigner", help="spin Wigner snapshots")
    wig.add_argument("--config", required=True)
    wig.add_argument("--times", required=True,
                     help="comma-separated snapshot times")
    wig.add_argument("--parity", choices=("none", "even", "odd"),
                     default="none", help="condition on photon parity")
    wig.add_argument("--n-theta", type=int, default=181)
    wig.add_argument("--n-phi", type=int, default=360)
    wig.add_argument("--out", default=None)
    wig.set_defaults(func=_cmd_wigner)

    swp = sub.add_parser("sweep", help="repeat the run over ensemble sizes")
    swp.add_argument("--config", required=True)
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="run fast self-checks")
    val.set_defaults(func=_cmd_validate)

    echo = sub.add_parser("echo-config",
                          help="parse a config and print its canonical form")
    echo.add_argument("--config", required=True)
    echo.set_defaults(func=_cmd_echo_config)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except FileNotFoundError as exc:
        print(f"file not found: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except (TruncationError, NumericalError, QuadratureConvergenceError,
            GridConvergenceError, PeakError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _NUMERICAL_EXIT
    except (StateValidationError, DimensionMismatchError,
            ImpossibleOutcomeError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT
    except CatqedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
