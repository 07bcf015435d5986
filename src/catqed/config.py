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
from .propagator import DEFAULT_DT, PropagationPlan
from .stateprep import PhotonicSpec, prepare_initial, required_n_max

# `dt = auto` sampling grid: propagation is exact on any grid, so from this
# branch amplitude on FINE_DT only samples the fast Fock-ladder phases more
# finely; kept so that `auto` configs resolve to the same sample times
FINE_STEP_AMPLITUDE = 30.0
FINE_DT = 1e-4

_TRUE = frozenset(("1", "true", "yes", "on"))
_FALSE = frozenset(("0", "false", "no", "off"))


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


def _parse_positive_int(raw: str, where: str) -> int:
    value = _parse_int(raw, where)
    if value < 1:
        raise ConfigError(f"{where} must be >= 1")
    return value


def _parse_sizes(raw: str, where: str) -> tuple[int, ...]:
    sizes = tuple(_parse_int(tok, where) for tok in raw.split())
    if not sizes or any(n < 1 for n in sizes):
        raise ConfigError(f"{where} must be positive integers")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"{where} must be distinct")
    return sizes


def _parse_text(raw: str, where: str) -> str:
    return raw.strip()


def _parse_names(raw: str, where: str) -> tuple[str, ...]:
    return tuple(raw.split())


def _or_auto(parse):
    """``parse``, reading ``auto`` (in any case) as None for later resolution."""
    def parse_or_auto(raw: str, where: str):
        raw = raw.strip().lower()
        return None if raw == "auto" else parse(raw, where)
    return parse_or_auto


# Each section's keys in canonical order, with the parser of each value.
# Only the keys a file sets are parsed; every other setting takes the
# default of the value type that holds it.
_SCHEMA = {
    "model": {"n_qubits": _parse_int, "gamma": _parse_float,
              "delta": _parse_float, "omega": _parse_float, "rwa": _parse_bool},
    "photonic": {"kind": _parse_text, "alpha": _parse_complex,
                 "beta": _parse_complex, "phi_cat": _parse_float},
    "propagation": {"t_max": _parse_float, "dt": _or_auto(_parse_float),
                    "n_max": _or_auto(_parse_positive_int),
                    "sample_stride": _or_auto(_parse_int)},
    "measurement": {"x": _parse_float, "delta_x": _parse_float,
                    "track": _parse_bool, "phi": _parse_float},
    "monitors": {"names": _parse_names, "quadrature": _parse_bool},
    "output": {"directory": _parse_text, "prefix": _parse_text},
    "sweep": {"n_qubits": _parse_sizes, "alpha": _or_auto(_parse_complex)},
}


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


def _values(cp: configparser.ConfigParser, name: str,
            required: tuple[str, ...] = ()) -> dict:
    """The keys that section ``name`` sets, each parsed by its schema entry
    in schema order, once the ``required`` keys are found present."""
    raw = dict(cp.items(name)) if cp.has_section(name) else {}
    for key in required:
        if key not in raw:
            raise ConfigError(f"[{name}] requires {key}")
    return {key: parse(raw[key], f"[{name}] {key}")
            for key, parse in _SCHEMA[name].items() if key in raw}


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

    model = ModelParams(**_values(cp, "model", ("n_qubits", "gamma")))
    photonic = PhotonicSpec(**_values(cp, "photonic", ("kind", "alpha")))

    plan = _values(cp, "propagation", ("t_max",))
    if plan.get("dt") is None:
        plan["dt"] = FINE_DT if photonic.max_amplitude() >= FINE_STEP_AMPLITUDE else DEFAULT_DT
    n_max = plan.pop("n_max", None)
    if n_max is None:
        n_max = required_n_max(photonic.max_amplitude(), model.n_qubits)
    mon = _values(cp, "monitors")
    if "names" in mon:
        plan["monitors"] = mon["names"]
    propagation = PropagationPlan(**plan)

    meas = _values(cp, "measurement")
    # the INI default tracks the oscillator phase; the library's does not
    measurement = QuadratureSpec(phase_tracking=meas.pop("track", True), **meas)

    out = _values(cp, "output")
    prefix = out.get("prefix", "run")
    if not prefix:
        raise ConfigError("[output] prefix must be nonempty")

    sweep = _values(cp, "sweep", ("n_qubits",) if cp.has_section("sweep") else ())

    return SimulationConfig(
        model=model, photonic=photonic, propagation=propagation,
        measurement=measurement, n_max=n_max,
        quadrature=mon.get("quadrature", False), out_dir=out.get("directory", "."),
        prefix=prefix, sweep_qubits=sweep.get("n_qubits", ()),
        sweep_alpha=sweep.get("alpha"))


def load_config(path: str) -> SimulationConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _format(value) -> str:
    """One INI value as ``serialize_config`` writes it: None as ``auto``,
    tuples space-joined, floats (and each part of a complex) to 17 digits."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(_format, value))
    if isinstance(value, complex) and value.imag != 0.0:
        im = format_float(value.imag)
        return f"{format_float(value.real)}{'' if im.startswith('-') else '+'}{im}j"
    if isinstance(value, (float, complex)):
        return format_float(value.real)
    return str(value)


def serialize_config(cfg: SimulationConfig) -> str:
    """The canonical file of ``cfg``: each section's keys in ``_SCHEMA``
    order, read under the names ``parse_config`` passes them by.  ``beta``
    is written only when set, and ``[sweep]`` only when a sweep is asked for."""
    sections = {
        "model": vars(cfg.model),
        "photonic": {k: v for k, v in vars(cfg.photonic).items() if v is not None},
        "propagation": {**vars(cfg.propagation), "n_max": cfg.n_max},
        "measurement": {**vars(cfg.measurement), "track": cfg.measurement.phase_tracking},
        "monitors": {"names": cfg.propagation.monitors, "quadrature": cfg.quadrature},
        "output": {"directory": cfg.out_dir, "prefix": cfg.prefix},
        "sweep": {"n_qubits": cfg.sweep_qubits, "alpha": cfg.sweep_alpha},
    }
    if not cfg.sweep_qubits:
        del sections["sweep"]
    blocks = []
    for name, values in sections.items():
        lines = [f"{key} = {_format(values[key])}" for key in _SCHEMA[name] if key in values]
        blocks.append("\n".join([f"[{name}]", *lines]))
    return "\n\n".join(blocks) + "\n"
