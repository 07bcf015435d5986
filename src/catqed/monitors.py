"""Time-series monitors: the only place that knows which monitors exist.

A monitor maps the ``MonitorContext`` of one block of consecutive sampling
instants to an array with one float per sample.  ``MONITORS`` holds every
named monitor; ``build_quadrature_monitors`` adds the two that need a
caller's ``QuadratureSpec``.  ``run`` builds one context per block, and
every electron state a monitor reads (the trace-out, a parity branch or a
quadrature readout) is formed once per block in its ``memo``, as one stack
over the block's samples, however many monitors read it; the trace-out and
the parity readouts share the block's photon-parity Grams (see ``hilbert``).
Every block is read through its two photon-parity parts (views of a
full-model block's grid, the live window of an RWA block): the parity
readouts, tail and photon-number and jz moments read them, and only ``jx``,
``jy``, ``energy`` and the quadrature readouts ask for the grid.

Conditioned quantities are undefined where the conditioning outcome has
(numerically) zero probability; those samples record NaN (or a probability
of 0) rather than aborting the run.  A readout that refuses a block masks
the samples where its outcome can occur (``ImpossibleOutcomeError.possible``),
and those are read as one sub-stack (``state[possible]``, which keeps the
block's parity and Grams), so every sample keeps the value of its own
single-sample readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ImpossibleOutcomeError
from .hilbert import CompositeState, reduce_to_electron
from .measurement import (ParityOutcome, PostselectionResult, QuadratureSpec,
                          parity_postselect, parity_probabilities,
                          quadrature_postselect)
from .operators import OBSERVABLES, ModelParams, expectation
from .qfi import qfi_mixed


@dataclass
class MonitorContext:
    """Everything a monitor may need at a block of sampling instants:
    ``state`` stacks the block's samples (one time each) and
    ``norm_drift`` holds one value per sample; ``memo`` keeps what several
    monitors share within the block."""

    state: CompositeState
    params: ModelParams
    norm_drift: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False)


MonitorFn = Callable[[MonitorContext], np.ndarray]

Outcome = ParityOutcome | QuadratureSpec | None


def _read(state: CompositeState, outcome: Outcome, omega: float) -> PostselectionResult:
    if outcome is None:
        return PostselectionResult(1.0, reduce_to_electron(state), "none")
    if isinstance(outcome, ParityOutcome):
        return parity_postselect(state, outcome)
    return quadrature_postselect(state, outcome, omega=omega)


def _conditioned(ctx: MonitorContext,
                 outcome: Outcome) -> tuple[np.ndarray, PostselectionResult | None]:
    """Electron states after ``outcome`` (None: trace out the field),
    formed once per block: (mask of the samples where the outcome is
    possible, their stacked result, or None where it is possible in none).
    A refusal's mask leaves the possible samples, read again as one stack
    (once more only if a window's finer rule refuses one of those)."""
    if outcome not in ctx.memo:
        state = ctx.state
        possible, result = np.ones(np.shape(state.time), dtype=bool), None
        while result is None and possible.any():
            kept = state if possible.all() else state[possible]
            try:
                result = _read(kept, outcome, ctx.params.omega)
            except ImpossibleOutcomeError as refusal:
                possible[possible] = refusal.possible
        ctx.memo[outcome] = possible, result
    return ctx.memo[outcome]


def _qfi_density(outcome: Outcome) -> MonitorFn:
    def fn(ctx: MonitorContext) -> np.ndarray:
        possible, res = _conditioned(ctx, outcome)
        out = np.full(possible.size, math.nan)
        if res is not None:
            out[possible] = qfi_mixed(res.rho).value / ctx.params.n_qubits
        return out
    return fn


def _parity_prob(outcome: ParityOutcome) -> MonitorFn:
    return lambda ctx: parity_probabilities(ctx.state)[outcome.offset]


def _expectation(name: str) -> MonitorFn:
    return lambda ctx: expectation(ctx.state, name, ctx.params)


MONITORS: dict[str, MonitorFn] = {
    "norm_drift": lambda ctx: ctx.norm_drift,
    "tail_population": lambda ctx: ctx.state.tail_population(),
    **{name: _expectation(name) for name in OBSERVABLES},
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
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate monitor names in {list(names)}")
    return [(n, MONITORS[n]) for n in names]


def build_quadrature_monitors(spec: QuadratureSpec) -> list[tuple[str, MonitorFn]]:
    """Monitors conditioned on a quadrature readout at the given point.

    Returns [(name, fn), ...] for ``run(..., extra_monitors=...)``:
    ``prob_quad`` is the outcome probability (a density for the sharp
    readout; 0 where the outcome is impossible), ``qfi_density_quad`` the
    conditioned information per qubit.  Both read one readout per block.
    """
    def prob(ctx: MonitorContext) -> np.ndarray:
        possible, res = _conditioned(ctx, spec)
        out = np.zeros(possible.size)
        if res is not None:
            out[possible] = res.probability
        return out
    return [("prob_quad", prob), ("qfi_density_quad", _qfi_density(spec))]
