"""INI run description: one file fixes the model, the initial photonic
state, the integration window, and what gets recorded.

Parsing is strict: unknown sections or keys are errors, every value is
validated, and ``auto`` placeholders (cutoff, step, sampling) are resolved
immediately so a parsed config is always concrete.  ``serialize_config``
emits a canonical file; parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, field

from .errors import ConfigError
from .fileio import format_float
from .hilbert import CompositeState
from .operators import ModelParams
from .measurement import QuadratureSpec
from .monitors import monitor_names
from .propagator import DEFAULT_DT, PropagationPlan
from .stateprep import PhotonicSpec, prepare_initial, required_n_max

# `dt = auto` sampling grid: propagation is exact on any grid, so from this
# branch amplitude on FINE_DT only samples the fast Fock-ladder phases more
# finely; kept so that `auto` configs resolve to the same sample times
FINE_STEP_AMPLITUDE = 30.0
FINE_DT = 1e-4

DEFAULT_MONITORS = ("qfi_density", "photon_number")

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off"))

_SCHEMA = {
    "model": ("n_qubits", "gamma", "delta", "omega", "rwa"),
    "photonic": ("kind", "alpha", "beta", "phi_cat"),
    "propagation": ("t_max", "dt", "n_max", "sample_stride"),
    "measurement": ("x", "delta_x", "track", "phi"),
    "monitors": ("names", "quadrature"),
    "output": ("directory", "prefix"),
    "sweep": ("n_qubits", "alpha"),
}


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_complex(raw: str, where: str) -> complex:
    try:
        value = complex("".join(raw.split()))
    except ValueError:
        value = cmath.nan
    if not cmath.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number like 2, -1.5, "
                          f"or 1+2j, got {raw!r}")
    return value


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite real number, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format_float(z.real)
    re = format_float(z.real)
    im = format_float(z.imag)
    sign = "" if im.startswith("-") else "+"
    return f"{re}{sign}{im}j"


@dataclass(frozen=True)
class SimulationConfig:
    n_qubits: int
    gamma: float
    delta: float
    omega: float
    rwa: bool
    kind: str
    alpha: complex
    beta: complex | None
    phi_cat: float
    t_max: float
    dt: float
    n_max: int
    sample_stride: int | None
    meas_x: float
    meas_delta_x: float
    meas_track: bool
    meas_phi: float
    monitors: tuple[str, ...]
    quadrature: bool
    out_dir: str
    prefix: str
    sweep_qubits: tuple[int, ...] = ()
    sweep_alpha: complex | None = field(default=None)

    def model_params(self, n_qubits: int | None = None) -> ModelParams:
        return ModelParams(n_qubits=self.n_qubits if n_qubits is None else n_qubits,
                           gamma=self.gamma, delta=self.delta, omega=self.omega,
                           rwa=self.rwa)

    def photonic_spec(self, alpha: complex | None = None) -> PhotonicSpec:
        return PhotonicSpec(kind=self.kind,
                            alpha=self.alpha if alpha is None else alpha,
                            beta=self.beta, phi_cat=self.phi_cat)

    def plan(self) -> PropagationPlan:
        return PropagationPlan(t_max=self.t_max, dt=self.dt,
                               sample_stride=self.sample_stride,
                               monitors=self.monitors)

    def quadrature_spec(self) -> QuadratureSpec:
        return QuadratureSpec(x=self.meas_x, phi=self.meas_phi,
                              delta_x=self.meas_delta_x,
                              phase_tracking=self.meas_track)

    def initial_state(self) -> CompositeState:
        return prepare_initial(self.photonic_spec(), self.n_qubits,
                               n_max=self.n_max)


def _section(cp: configparser.ConfigParser, name: str) -> dict:
    if not cp.has_section(name):
        return {}
    return dict(cp.items(name))


def parse_config(text: str) -> SimulationConfig:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]; known: "
                              f"{', '.join(sorted(_SCHEMA))}")
        for key in cp.options(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in [{sec}]; known: "
                                  f"{', '.join(_SCHEMA[sec])}")
    for required in ("model", "photonic", "propagation"):
        if not cp.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    model = _section(cp, "model")
    for key in ("n_qubits", "gamma"):
        if key not in model:
            raise ConfigError(f"[model] requires {key}")
    n_qubits = _parse_int(model["n_qubits"], "[model] n_qubits")
    if n_qubits < 1:
        raise ConfigError("[model] n_qubits must be >= 1")
    gamma = _parse_float(model["gamma"], "[model] gamma")
    delta = _parse_float(model.get("delta", "1.0"), "[model] delta")
    omega = _parse_float(model.get("omega", "1.0"), "[model] omega")
    rwa = _parse_bool(model.get("rwa", "true"), "[model] rwa")

    ph = _section(cp, "photonic")
    for key in ("kind", "alpha"):
        if key not in ph:
            raise ConfigError(f"[photonic] requires {key}")
    kind = ph["kind"].strip()
    alpha = _parse_complex(ph["alpha"], "[photonic] alpha")
    beta = _parse_complex(ph["beta"], "[photonic] beta") if "beta" in ph else None
    phi_cat = _parse_float(ph.get("phi_cat", "0.0"), "[photonic] phi_cat")
    spec = PhotonicSpec(kind=kind, alpha=alpha, beta=beta, phi_cat=phi_cat)

    prop = _section(cp, "propagation")
    if "t_max" not in prop:
        raise ConfigError("[propagation] requires t_max")
    t_max = _parse_float(prop["t_max"], "[propagation] t_max")
    if t_max <= 0.0:
        raise ConfigError("[propagation] t_max must be > 0")
    raw_dt = prop.get("dt", "auto").strip().lower()
    if raw_dt == "auto":
        dt = FINE_DT if spec.max_amplitude() >= FINE_STEP_AMPLITUDE else DEFAULT_DT
    else:
        dt = _parse_float(raw_dt, "[propagation] dt")
        if dt <= 0.0:
            raise ConfigError("[propagation] dt must be > 0")
    raw_nmax = prop.get("n_max", "auto").strip().lower()
    if raw_nmax == "auto":
        n_max = required_n_max(spec, n_qubits)
    else:
        n_max = _parse_int(raw_nmax, "[propagation] n_max")
        if n_max < 1:
            raise ConfigError("[propagation] n_max must be >= 1")
    raw_stride = prop.get("sample_stride", "auto").strip().lower()
    if raw_stride == "auto":
        stride = None
    else:
        stride = _parse_int(raw_stride, "[propagation] sample_stride")
        if stride < 1:
            raise ConfigError("[propagation] sample_stride must be >= 1")

    meas = _section(cp, "measurement")
    meas_x = _parse_float(meas.get("x", "0.0"), "[measurement] x")
    meas_dx = _parse_float(meas.get("delta_x", "0.0"), "[measurement] delta_x")
    if meas_dx < 0.0:
        raise ConfigError("[measurement] delta_x must be >= 0")
    meas_track = _parse_bool(meas.get("track", "true"), "[measurement] track")
    meas_phi = _parse_float(meas.get("phi", "0.0"), "[measurement] phi")

    mon = _section(cp, "monitors")
    names = tuple(mon.get("names", " ".join(DEFAULT_MONITORS)).split())
    known = monitor_names()
    for name in names:
        if name not in known:
            raise ConfigError(f"unknown monitor {name!r}; known: "
                              f"{', '.join(known)}")
    quadrature = _parse_bool(mon.get("quadrature", "false"), "[monitors] quadrature")

    out = _section(cp, "output")
    out_dir = out.get("directory", ".").strip()
    prefix = out.get("prefix", "run").strip()
    if not prefix:
        raise ConfigError("[output] prefix must be nonempty")

    sweep = _section(cp, "sweep")
    sweep_qubits: tuple[int, ...] = ()
    sweep_alpha: complex | None = None
    if sweep:
        if "n_qubits" not in sweep:
            raise ConfigError("[sweep] requires n_qubits")
        sweep_qubits = tuple(_parse_int(tok, "[sweep] n_qubits")
                             for tok in sweep["n_qubits"].split())
        if not sweep_qubits or any(n < 1 for n in sweep_qubits):
            raise ConfigError("[sweep] n_qubits must be positive integers")
        if len(set(sweep_qubits)) != len(sweep_qubits):
            raise ConfigError("[sweep] n_qubits must be distinct")
        raw_sa = sweep.get("alpha", "auto").strip().lower()
        if raw_sa != "auto":
            sweep_alpha = _parse_complex(raw_sa, "[sweep] alpha")

    return SimulationConfig(
        n_qubits=n_qubits, gamma=gamma, delta=delta, omega=omega, rwa=rwa,
        kind=kind, alpha=alpha, beta=beta, phi_cat=phi_cat,
        t_max=t_max, dt=dt, n_max=n_max, sample_stride=stride,
        meas_x=meas_x, meas_delta_x=meas_dx, meas_track=meas_track,
        meas_phi=meas_phi, monitors=names, quadrature=quadrature,
        out_dir=out_dir, prefix=prefix, sweep_qubits=sweep_qubits,
        sweep_alpha=sweep_alpha)


def load_config(path: str) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: SimulationConfig) -> str:
    lines = [
        "[model]",
        f"n_qubits = {cfg.n_qubits}",
        f"gamma = {format_float(cfg.gamma)}",
        f"delta = {format_float(cfg.delta)}",
        f"omega = {format_float(cfg.omega)}",
        f"rwa = {'true' if cfg.rwa else 'false'}",
        "",
        "[photonic]",
        f"kind = {cfg.kind}",
        f"alpha = {format_complex(cfg.alpha)}",
    ]
    if cfg.beta is not None:
        lines.append(f"beta = {format_complex(cfg.beta)}")
    if cfg.phi_cat != 0.0:
        lines.append(f"phi_cat = {format_float(cfg.phi_cat)}")
    lines += [
        "",
        "[propagation]",
        f"t_max = {format_float(cfg.t_max)}",
        f"dt = {format_float(cfg.dt)}",
        f"n_max = {cfg.n_max}",
        "sample_stride = auto" if cfg.sample_stride is None
        else f"sample_stride = {cfg.sample_stride}",
        "",
        "[measurement]",
        f"x = {format_float(cfg.meas_x)}",
        f"delta_x = {format_float(cfg.meas_delta_x)}",
        f"track = {'true' if cfg.meas_track else 'false'}",
        f"phi = {format_float(cfg.meas_phi)}",
        "",
        "[monitors]",
        f"names = {' '.join(cfg.monitors)}",
        f"quadrature = {'true' if cfg.quadrature else 'false'}",
        "",
        "[output]",
        f"directory = {cfg.out_dir}",
        f"prefix = {cfg.prefix}",
    ]
    if cfg.sweep_qubits:
        lines += [
            "",
            "[sweep]",
            f"n_qubits = {' '.join(str(n) for n in cfg.sweep_qubits)}",
            "alpha = auto" if cfg.sweep_alpha is None
            else f"alpha = {format_complex(cfg.sweep_alpha)}",
        ]
    return "\n".join(lines) + "\n"
