"""INI run description: one file fixes the model, the initial photonic
state, the integration window, and what gets recorded.

Parsing is strict: unknown sections or keys are errors.  The parser
checks syntax and finiteness; each setting's range is checked once, by
the library value type it becomes (``ModelParams``, ``PhotonicSpec``,
``PropagationPlan``, ``QuadratureSpec``), so a config that parses is one a
run accepts.  ``auto`` placeholders (cutoff, step, sampling) are resolved
immediately so a parsed config is always concrete.  ``serialize_config``
emits a canonical file; parse(serialize(parse(text))) == parse(text).
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .fileio import format_float
from .hilbert import CompositeState
from .operators import ModelParams
from .measurement import QuadratureSpec
from .propagator import DEFAULT_DT, DEFAULT_MONITORS, PropagationPlan
from .stateprep import PhotonicSpec, prepare_initial, required_n_max

# `dt = auto` sampling grid: propagation is exact on any grid, so from this
# branch amplitude on FINE_DT only samples the fast Fock-ladder phases more
# finely; kept so that `auto` configs resolve to the same sample times
FINE_STEP_AMPLITUDE = 30.0
FINE_DT = 1e-4

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
    """A parsed run: the library's four value types, one per INI section,
    plus the settings only a run has (cutoff, quadrature monitors, output
    and sweep).  Every setting is validated by the type that holds it."""

    model: ModelParams
    photonic: PhotonicSpec
    propagation: PropagationPlan
    measurement: QuadratureSpec
    n_max: int
    quadrature: bool
    out_dir: str
    prefix: str
    sweep_qubits: tuple[int, ...] = ()
    sweep_alpha: complex | None = None

    @property
    def alpha(self) -> complex:
        return self.photonic.alpha

    @property
    def dt(self) -> float:
        return self.propagation.dt

    def model_params(self, n_qubits: int | None = None) -> ModelParams:
        return self.model if n_qubits is None else replace(self.model, n_qubits=n_qubits)

    def photonic_spec(self, alpha: complex | None = None) -> PhotonicSpec:
        return self.photonic if alpha is None else replace(self.photonic, alpha=alpha)

    def plan(self) -> PropagationPlan:
        return self.propagation

    def quadrature_spec(self) -> QuadratureSpec:
        return self.measurement

    def initial_state(self) -> CompositeState:
        return prepare_initial(self.photonic, self.model.n_qubits, n_max=self.n_max)


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

    sec = _section(cp, "model")
    for key in ("n_qubits", "gamma"):
        if key not in sec:
            raise ConfigError(f"[model] requires {key}")
    model = ModelParams(
        n_qubits=_parse_int(sec["n_qubits"], "[model] n_qubits"),
        gamma=_parse_float(sec["gamma"], "[model] gamma"),
        delta=_parse_float(sec.get("delta", "1.0"), "[model] delta"),
        omega=_parse_float(sec.get("omega", "1.0"), "[model] omega"),
        rwa=_parse_bool(sec.get("rwa", "true"), "[model] rwa"))

    sec = _section(cp, "photonic")
    for key in ("kind", "alpha"):
        if key not in sec:
            raise ConfigError(f"[photonic] requires {key}")
    photonic = PhotonicSpec(
        kind=sec["kind"].strip(),
        alpha=_parse_complex(sec["alpha"], "[photonic] alpha"),
        beta=_parse_complex(sec["beta"], "[photonic] beta") if "beta" in sec else None,
        phi_cat=_parse_float(sec.get("phi_cat", "0.0"), "[photonic] phi_cat"))

    sec = _section(cp, "propagation")
    if "t_max" not in sec:
        raise ConfigError("[propagation] requires t_max")
    t_max = _parse_float(sec["t_max"], "[propagation] t_max")
    raw_dt = sec.get("dt", "auto").strip().lower()
    if raw_dt == "auto":
        dt = FINE_DT if photonic.max_amplitude() >= FINE_STEP_AMPLITUDE else DEFAULT_DT
    else:
        dt = _parse_float(raw_dt, "[propagation] dt")
    raw_nmax = sec.get("n_max", "auto").strip().lower()
    if raw_nmax == "auto":
        n_max = required_n_max(photonic, model.n_qubits)
    else:
        n_max = _parse_int(raw_nmax, "[propagation] n_max")
        if n_max < 1:
            raise ConfigError("[propagation] n_max must be >= 1")
    raw_stride = sec.get("sample_stride", "auto").strip().lower()
    stride = (None if raw_stride == "auto"
              else _parse_int(raw_stride, "[propagation] sample_stride"))
    mon = _section(cp, "monitors")
    names = tuple(mon["names"].split()) if "names" in mon else DEFAULT_MONITORS
    quadrature = _parse_bool(mon.get("quadrature", "false"), "[monitors] quadrature")
    propagation = PropagationPlan(t_max=t_max, dt=dt, sample_stride=stride,
                                  monitors=names)

    sec = _section(cp, "measurement")
    measurement = QuadratureSpec(
        x=_parse_float(sec.get("x", "0.0"), "[measurement] x"),
        phi=_parse_float(sec.get("phi", "0.0"), "[measurement] phi"),
        delta_x=_parse_float(sec.get("delta_x", "0.0"), "[measurement] delta_x"),
        phase_tracking=_parse_bool(sec.get("track", "true"), "[measurement] track"))

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
        model=model, photonic=photonic, propagation=propagation,
        measurement=measurement, n_max=n_max, quadrature=quadrature,
        out_dir=out_dir, prefix=prefix, sweep_qubits=sweep_qubits,
        sweep_alpha=sweep_alpha)


def load_config(path: str) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: SimulationConfig) -> str:
    model, photonic = cfg.model, cfg.photonic
    plan, meas = cfg.propagation, cfg.measurement
    lines = [
        "[model]",
        f"n_qubits = {model.n_qubits}",
        f"gamma = {format_float(model.gamma)}",
        f"delta = {format_float(model.delta)}",
        f"omega = {format_float(model.omega)}",
        f"rwa = {'true' if model.rwa else 'false'}",
        "",
        "[photonic]",
        f"kind = {photonic.kind}",
        f"alpha = {format_complex(photonic.alpha)}",
    ]
    if photonic.beta is not None:
        lines.append(f"beta = {format_complex(photonic.beta)}")
    if photonic.phi_cat != 0.0:
        lines.append(f"phi_cat = {format_float(photonic.phi_cat)}")
    lines += [
        "",
        "[propagation]",
        f"t_max = {format_float(plan.t_max)}",
        f"dt = {format_float(plan.dt)}",
        f"n_max = {cfg.n_max}",
        "sample_stride = auto" if plan.sample_stride is None
        else f"sample_stride = {plan.sample_stride}",
        "",
        "[measurement]",
        f"x = {format_float(meas.x)}",
        f"delta_x = {format_float(meas.delta_x)}",
        f"track = {'true' if meas.phase_tracking else 'false'}",
        f"phi = {format_float(meas.phi)}",
        "",
        "[monitors]",
        f"names = {' '.join(plan.monitors)}",
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
