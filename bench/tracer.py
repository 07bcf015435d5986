"""Span tracing around catqed's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every loaded ``catqed`` module that binds it, so calls between modules are
seen too.  Spans nest on a stack: a span's self time is its duration minus
the time its child spans cover, and a layer's time counts only spans whose
parent lies in another layer.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute path); the span's layer is its prefix
SPANS = {
    "config.parse_config": ("catqed.config", "parse_config"),
    "stateprep.prepare_initial": ("catqed.stateprep", "prepare_initial"),
    "operators.apply": ("catqed.operators", "HamiltonianAction.apply"),
    "propagator.run": ("catqed.propagator", "run"),
    "propagator.snapshots": ("catqed.propagator", "snapshots"),
    "measurement.quadrature_postselect": ("catqed.measurement", "quadrature_postselect"),
    "measurement.parity_postselect": ("catqed.measurement", "parity_postselect"),
    "measurement.parity_probabilities": ("catqed.measurement", "parity_probabilities"),
    "measurement.hermite_functions": ("catqed.measurement", "hermite_functions"),
    "qfi.qfi_mixed": ("catqed.qfi", "qfi_mixed"),
    "qfi.qfi_pure": ("catqed.qfi", "qfi_pure"),
    "hilbert.reduce_to_electron": ("catqed.hilbert", "reduce_to_electron"),
    "semiclassical.rabi_cat_state": ("catqed.semiclassical", "rabi_cat_state"),
    "semiclassical.coherent_expansion_state": ("catqed.semiclassical",
                                               "coherent_expansion_state"),
    "wigner.wigner_function": ("catqed.wigner", "wigner_function"),
    "wigner.kernel_weights": ("catqed.wigner", "kernel_weights"),
    "fileio.to_csv": ("catqed.propagator", "TimeSeries.to_csv"),
    "fileio.to_file": ("catqed.wigner", "WignerGrid.to_file"),
    "fileio.atomic_write_text": ("catqed.fileio", "atomic_write_text"),
}

# Monitor callables are wrapped where they are handed to ``run``.
MONITOR_SOURCES = (("catqed.propagator", "resolve_monitors"),
                   ("catqed.monitors", "build_quadrature_monitors"))


class Span:
    __slots__ = ("name", "layer", "child", "notes")

    def __init__(self, name):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.child = 0.0
        self.notes = None


class Stat:
    __slots__ = ("calls", "total", "self_time", "outer")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.outer = 0.0     # time not nested in another span of this layer


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.stack: list[Span] = []
        self.hermite_points = 0
        self.accepted_points = 0
        self.written_bytes = 0
        self.grid_rows = 0
        self.apply_shape = None
        self.apply_rwa = None

    # ------------------------------------------------------------ spans
    def wrap(self, name, fn, after=None):
        stack, stats = self.stack, self.stats
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name)
            parent = stack[-1] if stack else None
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                st = stats[name]
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - span.child
                if parent is None or parent.layer != span.layer:
                    st.outer += elapsed
                if parent is not None:
                    parent.child += elapsed
            if after is not None:
                after(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --------------------------------------------------- per-call notes
    def _after_apply(self, span, args, result):
        if self.apply_shape is None:
            self.apply_shape = tuple(args[1].shape)
            self.apply_rwa = bool(args[0].params.rwa)

    def _after_hermite(self, span, args, result):
        points = 1 if result.ndim == 1 else result.shape[0]
        self.hermite_points += points
        for outer in reversed(self.stack):
            if outer.name == "measurement.quadrature_postselect":
                outer.notes = points     # the last rule evaluated is the one kept
                break

    def _after_quadrature(self, span, args, result):
        self.accepted_points += span.notes or 0

    def _after_write(self, span, args, result):
        self.written_bytes += len(args[1].encode())

    def _after_grid(self, span, args, result):
        self.grid_rows += result.values.shape[0]

    def _wrap_monitors(self, fn):
        def source(*args, **kwargs):
            return [(n, self.wrap(f"monitors.{n}", f)) for n, f in fn(*args, **kwargs)]
        source.__wrapped__ = fn
        return source

    # ---------------------------------------------------------- install
    def install(self):
        """Patch every traced callable; returns names that could not be found."""
        after = {"operators.apply": self._after_apply,
                 "measurement.hermite_functions": self._after_hermite,
                 "measurement.quadrature_postselect": self._after_quadrature,
                 "fileio.atomic_write_text": self._after_write,
                 "wigner.wigner_function": self._after_grid}
        missing = []
        for name, (module, path) in SPANS.items():
            owner, attr = _resolve(module, path)
            if owner is None:
                missing.append(name)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, after.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
            else:
                _rebind(original, wrapped)
        for module, attr in MONITOR_SOURCES:
            owner, attr = _resolve(module, attr)
            if owner is None:
                missing.append(f"{module}.{attr}")
                continue
            original = getattr(owner, attr)
            _rebind(original, self._wrap_monitors(original))
        return missing

    def layer_time(self, layer: str) -> float:
        return sum(st.outer for name, st in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def summary(self) -> dict:
        return {
            "spans": {name: [st.calls, st.total, st.self_time, st.outer]
                      for name, st in self.stats.items()},
            "layers": {layer: self.layer_time(layer) for layer in
                       sorted({n.split(".", 1)[0] for n in self.stats})},
            "hermite_points": self.hermite_points,
            "accepted_points": self.accepted_points,
            "written_bytes": self.written_bytes,
            "grid_rows": self.grid_rows,
            "apply_shape": self.apply_shape,
            "apply_rwa": self.apply_rwa,
        }


def _resolve(module: str, path: str):
    mod = sys.modules.get(module)
    if mod is None:
        return None, None
    owner = mod
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def _rebind(original, wrapped):
    """Replace ``original`` wherever a catqed module binds it by name."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "catqed" or name.startswith("catqed.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
