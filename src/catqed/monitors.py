"""Time-series monitors: the only place that knows which monitors exist.

A monitor maps the ``MonitorContext`` of one sampling instant to a float.
``MONITORS`` holds every named monitor; ``build_quadrature_monitors`` adds
the two that need a caller's ``QuadratureSpec``.  ``run`` builds one context
per sample, and every electron state a monitor reads (the trace-out, a
parity branch or a quadrature readout) is formed once per sample in its
``memo``, however many monitors read it.

Conditioned quantities are undefined where the conditioning outcome has
(numerically) zero probability; those samples record NaN rather than
aborting the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ConfigError, ImpossibleOutcomeError
from .hilbert import CompositeState, reduce_to_electron
from .measurement import (ParityOutcome, PostselectionResult, QuadratureSpec,
                          parity_postselect, parity_probabilities,
                          quadrature_postselect)
from .operators import ModelParams, expectation
from .qfi import qfi_mixed


@dataclass
class MonitorContext:
    """Everything a monitor may need at one sampling instant; ``memo``
    keeps what several monitors share at that instant."""

    state: CompositeState
    params: ModelParams
    norm_drift: float
    memo: dict = field(default_factory=dict, init=False, repr=False)


MonitorFn = Callable[[MonitorContext], float]

Outcome = ParityOutcome | QuadratureSpec | None


def _conditioned(ctx: MonitorContext, outcome: Outcome) -> PostselectionResult | None:
    """Electron state after ``outcome`` (None: trace out the field), formed
    once per sample; None where the outcome is impossible."""
    if outcome not in ctx.memo:
        try:
            if outcome is None:
                res = PostselectionResult(1.0, reduce_to_electron(ctx.state), "none")
            elif isinstance(outcome, ParityOutcome):
                res = parity_postselect(ctx.state, outcome)
            else:
                res = quadrature_postselect(ctx.state, outcome, omega=ctx.params.omega)
        except ImpossibleOutcomeError:
            res = None
        ctx.memo[outcome] = res
    return ctx.memo[outcome]


def _qfi_density(outcome: Outcome) -> MonitorFn:
    def fn(ctx: MonitorContext) -> float:
        res = _conditioned(ctx, outcome)
        if res is None:
            return math.nan
        return qfi_mixed(res.rho).value / ctx.params.n_qubits
    return fn


def _parity_prob(outcome: ParityOutcome) -> MonitorFn:
    def fn(ctx: MonitorContext) -> float:
        if "parity" not in ctx.memo:
            ctx.memo["parity"] = parity_probabilities(ctx.state)
        return ctx.memo["parity"][outcome.offset]
    return fn


def _expectation(name: str) -> MonitorFn:
    return lambda ctx: expectation(ctx.state, name, ctx.params)


MONITORS: dict[str, MonitorFn] = {
    "norm_drift": lambda ctx: ctx.norm_drift,
    "tail_population": lambda ctx: ctx.state.tail_population(),
    **{name: _expectation(name) for name in
       ("photon_number", "jz", "jx", "jy", "energy", "excitation_number")},
    "qfi_density": _qfi_density(None),
    "prob_even": _parity_prob(ParityOutcome.EVEN),
    "prob_odd": _parity_prob(ParityOutcome.ODD),
    "qfi_density_even": _qfi_density(ParityOutcome.EVEN),
    "qfi_density_odd": _qfi_density(ParityOutcome.ODD),
}


def monitor_names() -> tuple[str, ...]:
    return tuple(sorted(MONITORS))


def resolve_monitors(names: Sequence[str]) -> list[tuple[str, MonitorFn]]:
    missing = [n for n in names if n not in MONITORS]
    if missing:
        raise ConfigError(
            f"unknown monitor(s) {missing}; available: {monitor_names()}")
    return [(n, MONITORS[n]) for n in names]


def build_quadrature_monitors(spec: QuadratureSpec) -> list[tuple[str, MonitorFn]]:
    """Monitors conditioned on a quadrature readout at the given point.

    Returns [(name, fn), ...] for ``run(..., extra_monitors=...)``:
    ``prob_quad`` is the outcome probability (a density for the sharp
    readout; 0 where the outcome is impossible), ``qfi_density_quad`` the
    conditioned information per qubit.  Both read one readout per sample.
    """
    def prob(ctx: MonitorContext) -> float:
        res = _conditioned(ctx, spec)
        return 0.0 if res is None else res.probability
    return [("prob_quad", prob), ("qfi_density_quad", _qfi_density(spec))]
