"""Photon measurements and the conditioned electronic states they prepare.

Parity conditioning projects the Fock index onto even or odd columns: it
reads the weight and Gram of that photon parity that the state forms once
(see ``hilbert``), as do the parity probabilities and the trace-out.
Quadrature conditioning projects onto an x-eigenstate of

    x_phi = (e^{-i phi} a + e^{i phi} a^dag) / sqrt(2),

either ideally (a single x, yielding a pure conditioned state whose
"probability" is a density) or over a finite window of width delta_x
(yielding a genuinely mixed conditioned state).  The bra components are
<x; phi|n> = e^{-i n phi} psi_n(x) with psi_n the Hermite functions.

Every readout also takes a stack of samples (see ``hilbert``): one batched
Gram per outcome conditions the whole stack, and each sample's probability
and conditioned state are those of its own single-state readout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (ConfigError, ImpossibleOutcomeError, QuadratureConvergenceError,
                     check_finite)
from .hilbert import (CompositeState, ElectronDensityMatrix, gram, per_sample,
                      squared_norm)

PROBABILITY_FLOOR = 1e-14
WINDOW_RHO_ATOL = 1e-8
MAX_NODE_DOUBLINGS = 6

# Mantissa rescaling bounds for the Hermite recurrence deep in the
# classically forbidden region, where psi_0(x) may underflow outright.
_RESCALE_LIMIT = 1e250
_RESCALE_LOG = math.log(_RESCALE_LIMIT)


class ParityOutcome(Enum):
    """Eigenvalue sectors of the photon parity exp(i pi n)."""

    EVEN = 1
    ODD = -1

    @property
    def offset(self) -> int:
        return 0 if self is ParityOutcome.EVEN else 1

    @property
    def label(self) -> str:
        return "even" if self is ParityOutcome.EVEN else "odd"


@dataclass(frozen=True)
class QuadratureSpec:
    """Where and how sharply the field quadrature is read out.

    ``delta_x = 0`` requests the ideal projector at the single point ``x``.
    With ``phase_tracking`` the local-oscillator phase follows
    phi(t) = pi/2 - omega t, which keeps a rotating coherent branch and the
    vacuum branch equally weighted at x = 0; otherwise ``phi`` is fixed.
    """

    x: float = 0.0
    phi: float = 0.0
    delta_x: float = 0.0
    phase_tracking: bool = False

    def __post_init__(self):
        for name in ("x", "phi", "delta_x"):
            check_finite(getattr(self, name), name)
        if self.delta_x < 0.0:
            raise ConfigError(f"delta_x must be >= 0, got {self.delta_x!r}")

    def phase_at(self, time: float, omega: float) -> float:
        if self.phase_tracking:
            return 0.5 * math.pi - omega * time
        return self.phi


@dataclass(frozen=True)
class PostselectionResult:
    """Outcome weight plus the conditioned electronic state.

    ``probability`` is a true probability except for ideal quadrature
    conditioning, where it is a probability density (``is_density=True``).
    For a stack of samples it holds one value per sample and ``rho`` the
    stack of conditioned states.
    """

    probability: float | np.ndarray
    rho: ElectronDensityMatrix
    outcome: str
    is_density: bool = False


def hermite_functions(x, n_max: int) -> np.ndarray:
    """Oscillator eigenfunctions psi_n(x), n = 0 .. n_max.

    Uses the normalized recurrence
        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1}
    on rescaled mantissas with a per-point log offset, so deep forbidden
    regions (where psi_0 underflows but high-n values do not) stay exact.
    Scalar x gives shape (n_max + 1,); array x gives (len(x), n_max + 1).
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((xs.size, n_max + 1), dtype=float)
    log_offset = -0.5 * xs * xs - 0.25 * math.log(math.pi)
    scale = np.exp(log_offset)
    prev = np.zeros_like(xs)
    cur = np.ones_like(xs)
    out[:, 0] = cur * scale
    for n in range(n_max):
        nxt = math.sqrt(2.0 / (n + 1)) * xs * cur - math.sqrt(n / (n + 1.0)) * prev
        big = np.abs(nxt) > _RESCALE_LIMIT
        if big.any():
            nxt[big] *= 1.0 / _RESCALE_LIMIT
            cur[big] *= 1.0 / _RESCALE_LIMIT
            log_offset[big] += _RESCALE_LOG
            scale[big] = np.exp(log_offset[big])
        prev, cur = cur, nxt
        out[:, n + 1] = cur * scale
    if np.ndim(x) == 0:
        return out[0]
    return out


def quadrature_amplitudes(x: float, phi: float, n_max: int) -> np.ndarray:
    """Bra components <x; phi|n> = e^{-i n phi} psi_n(x)."""
    psi = hermite_functions(float(x), n_max)
    n = np.arange(n_max + 1, dtype=float)
    return np.exp(-1j * phi * n) * psi


def parity_probabilities(
        state: CompositeState) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(p_even, p_odd); sums to the squared norm of the state (per sample
    for a stack).  Each is the weight of that photon parity, the same
    number ``parity_postselect`` reports as its probability."""
    return tuple(per_sample(state.photon_parity_weight(offset)) for offset in (0, 1))


def _refuse_impossible(prob: np.ndarray, what: str) -> None:
    """A norm below PROBABILITY_FLOOR in any sample means ``what`` cannot
    occur there; the refusal masks the samples where it can."""
    possible = prob >= PROBABILITY_FLOOR
    if not possible.all():
        raise ImpossibleOutcomeError(f"{what} has probability {np.min(prob):.3e}",
                                     possible)


def _gram(u: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Gram form of every conditioning: rho = u u^dag / |u|^2.

    ``u`` (..., dim_e, k) holds the projected amplitudes, one column per
    orthogonal branch of the measured operator; returns (|u|^2, rho) per
    sample.
    """
    prob = squared_norm(u)
    _refuse_impossible(prob, what)
    return prob, gram(u) / prob[..., None, None]


def _result(prob: np.ndarray, rho: np.ndarray, state: CompositeState,
            outcome: str, is_density: bool = False) -> PostselectionResult:
    return PostselectionResult(
        probability=per_sample(prob),
        rho=ElectronDensityMatrix(rho, state.dicke, copy=False, validate=False),
        outcome=outcome,
        is_density=is_density)


def parity_postselect(state: CompositeState, outcome: ParityOutcome) -> PostselectionResult:
    """Condition on a photon-parity readout; errors on impossible outcomes.
    The state's weight and Gram of that photon parity give the probability
    and the conditioned state's only nonzero block."""
    prob = state.photon_parity_weight(outcome.offset)
    # formed before a refusal, so a sub-stack of the possible samples slices it
    rows, block = state.photon_parity_gram(outcome.offset)
    _refuse_impossible(prob, f"parity outcome {outcome.label!r}")
    dim = state.dicke.dim
    rho = np.zeros(np.shape(state.time) + (dim, dim), dtype=np.complex128)
    rho[..., rows, rows] = block / prob[..., None, None]
    return _result(prob, rho, state, outcome.label)


@lru_cache(maxsize=16)
def _window_rule(x: float, delta_x: float, n_max: int, count: int) -> np.ndarray:
    """B[k, n] = sqrt(w_k) psi_n(x_k) for the ``count``-node Gauss-Legendre
    rule over [x - delta_x/2, x + delta_x/2]; the ideal readout
    (delta_x = 0) is the single node x with unit weight.  Read-only."""
    if delta_x == 0.0:
        table = hermite_functions(np.array([x]), n_max)
    else:
        nodes, weights = leggauss(count)
        table = hermite_functions(x + 0.5 * delta_x * nodes, n_max)
        table *= np.sqrt(0.5 * delta_x * weights)[:, None]
    table.flags.writeable = False
    return table


def quadrature_postselect(state: CompositeState, spec: QuadratureSpec,
                          omega: float = 1.0) -> PostselectionResult:
    """Condition on a quadrature readout at the state's own time.

    Ideal (delta_x = 0): pure conditioned state, probability density.
    Finite window: Gauss-Legendre over the window, node count doubled until
    the conditioned matrix is stable to WINDOW_RHO_ATOL in max-norm.  Each
    sample of a stack keeps the node count at which it alone converges;
    only the samples not yet converged are refined.  The sqrt-weighted
    Hermite table of each node count depends only on the window and
    ``n_max``, so it is built once and cached; only the phase
    e^{-i n phi(t)} is applied per call.

    The Gram at the starting node count is rarely the one kept, since the
    first doubling already converges, but it is the baseline that doubling
    is checked against, so it stays.  On the benchmark's
    ``kitten_window_full`` pass (17 calls) it takes 24-26% of the time in
    this function in a fresh process, which also builds its rule, and
    20-21% with the rules cached.
    """
    n_max = state.fock.n_max
    phi = spec.phase_at(state.time, omega)
    phased = state.amplitudes * np.exp(
        -1j * np.multiply.outer(phi, np.arange(n_max + 1.0)))[..., None, :]
    ideal = spec.delta_x == 0.0
    what = (f"ideal quadrature at x = {spec.x}" if ideal else
            f"window at x = {spec.x} (delta_x = {spec.delta_x})")

    def gram(amplitudes: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        return _gram(amplitudes @ _window_rule(spec.x, spec.delta_x, n_max, count).T, what)

    if ideal:
        return _result(*gram(phased, 1), state, "quadrature", is_density=True)
    count = max(8, math.ceil(10.0 * spec.delta_x * math.sqrt(n_max)))
    prob, rho = gram(phased, count)
    prob, rho = prob.reshape(-1), rho.reshape(-1, *rho.shape[-2:])
    samples = phased.reshape(-1, *phased.shape[-2:])
    pending = np.arange(len(samples))
    for _ in range(MAX_NODE_DOUBLINGS):
        count *= 2
        try:
            refined_prob, refined = gram(samples, count)
        except ImpossibleOutcomeError as refusal:
            # mask the caller's whole stack, not the samples still pending
            possible = np.ones(len(prob), dtype=bool)
            possible[pending] = refusal.possible
            refusal.possible = possible.reshape(phased.shape[:-2])
            raise
        done = np.max(np.abs(refined - rho[pending]), axis=(-2, -1)) <= WINDOW_RHO_ATOL
        prob[pending], rho[pending] = refined_prob, refined
        pending, samples = pending[~done], samples[~done]
        if not pending.size:
            return _result(prob.reshape(phased.shape[:-2]),
                           rho.reshape(phased.shape[:-2] + rho.shape[-2:]),
                           state, "quadrature")
    raise QuadratureConvergenceError(
        f"window projection not stable to {WINDOW_RHO_ATOL} after "
        f"{MAX_NODE_DOUBLINGS} node doublings (last count {count})")
