"""Time evolution by a Chebyshev expansion of exp(-iHt).

The state moves from one sample time straight to the next (Tal-Ezer and
Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The Gershgorin interval
[lo, hi] of ``HamiltonianAction.spectral_bounds`` maps the expanded
operator onto H_n = (H - c) / r in [-1, 1], with c the centre and r the
half-width, and

    exp(-iH tau) = e^{-i c tau} sum_k (2 - delta_k0) (-i)^k J_k(r tau) T_k(H_n)

is summed by the three-term Chebyshev recurrence until the Bessel
coefficients fall below double precision.  The sum needs about r tau
terms, so the cost of an interval grows with the half-width.  The Bessel
values J_k come from Miller's backward recurrence, normalized by
J_0 + 2 sum J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)), which is accurate
relative to each value in the decaying tail where the sum is cut.

In the RWA model K = Jz + n commutes with H, so

    exp(-iHt) = exp(-i omega K t) exp(-iH't),   H' = (delta - omega) Jz + V,

and the evolver keeps psi in the frame rotating with omega K: it expands
only H', whose half-width is set by the coupling V instead of the fast
Fock ladder, and applies exp(-i omega K t), one phase per sector, when it
hands out a sampled state.  The full model has no conserved K and expands
H itself in the lab frame.

Conserved K also fixes the population of each excitation sector for all
time, so under the RWA psi lives on a band of the live sectors only.  With
k the Dicke index, sector K_s = k + n holds K = K_s - N/2, and it is live
when its initial population exceeds LIVE_SECTOR_POPULATION.  Row s of the
band holds the cells (k, K_s - k), k = 0 .. N, and H' is tridiagonal along
it (``HamiltonianAction.to_band``).  The sectors left out stay exactly as
empty as they start, so the norm dropped with them is constant in time
and below LIVE_SECTOR_POPULATION per sector.  An even cat fills only the
even sectors, and a large amplitude only those inside the Poisson tails; a
kitten fills two islands, which is why the live set is a list rather than
an interval.  Each sample is scattered onto the (m, n) grid.

The evolver builds one ``HamiltonianAction`` per run and owns everything
about expanding it: under the RWA it forms H' by taking omega K off the
action's diagonal and moves the action onto the band, and it then maps the
action in place onto 2 H_n, so each term T_{k+1} = 2 H_n T_k - T_{k-1} of
the recurrence is one apply and one subtraction.  On resonance the mapped
diagonal of H' vanishes and the apply skips it.

The result is exact on the truncated space up to rounding, so ``dt`` only
fixes the sampling grid.  Each interval ends with renormalization; the
pre-renormalization norm deviation is kept as a diagnostic.  Monitors are
evaluated only on the sampling grid, never inside the hot loop: ``run``
writes consecutive sampled states into a block of at most
SAMPLE_BLOCK_BYTES of amplitudes and evaluates every monitor once per
block, through one ``MonitorContext`` (see ``monitors``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError, PeakError
from .fileio import atomic_write_text, format_float
from .hilbert import CompositeState
from .monitors import MonitorContext, MonitorFn, resolve_monitors
from .operators import HamiltonianAction, ModelParams

# Chosen so long runs stay responsive: with the default stride rule a run
# yields at most this many samples.
MAX_AUTO_SAMPLES = 5000

DEFAULT_DT = 1e-3

DEFAULT_MONITORS = ("qfi_density", "photon_number")

# Bessel coefficients below this bound end the Chebyshev sum; they decay
# faster than exponentially beyond order r * tau, so the dropped tail is
# smaller still.
CHEBYSHEV_TOL = 1e-16

# One expansion spans a whole sample interval with about r * tau terms; past
# this many the Bessel table alone would take gigabytes.
MAX_CHEBYSHEV_TERMS = 10_000_000

# Amplitudes of one block of samples read out together (at least one
# sample).  At N = 8 with 189 Fock levels a block holds 9 samples, which
# shares the readouts' per-call overhead; a larger budget raises the peak
# memory of a run without saving more time.
SAMPLE_BLOCK_BYTES = 1 << 18

# Excitation sectors of the RWA model holding at most this initial
# population are left out of the band; they stay exactly that small.
LIVE_SECTOR_POPULATION = 1e-30


@dataclass(frozen=True)
class PropagationPlan:
    """How far, how finely, and what to record."""

    t_max: float
    dt: float = DEFAULT_DT
    sample_stride: int | None = None
    monitors: tuple[str, ...] = DEFAULT_MONITORS

    def __post_init__(self):
        if not 0.0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be positive and finite, got {self.t_max!r}")
        if not 0.0 < self.dt <= self.t_max:
            raise ConfigError(f"dt must lie in (0, t_max], got {self.dt!r}")
        if self.sample_stride is not None and self.sample_stride < 1:
            raise ConfigError("sample_stride must be >= 1")
        resolve_monitors(self.monitors)

    @property
    def n_steps(self) -> int:
        return max(1, round(self.t_max / self.dt))

    def stride(self) -> int:
        if self.sample_stride is not None:
            return self.sample_stride
        return max(1, math.ceil(self.n_steps / MAX_AUTO_SAMPLES))


def _bessel_j(x: float, count: int) -> np.ndarray:
    """J_0(x) .. J_{count-1}(x) for x >= 0 by Miller's backward recurrence
    J_{k-1} = (2k / x) J_k - J_{k+1}, normalized by J_0 + 2 sum J_2k = 1
    (Gautschi, SIAM Rev. 9, 24 (1967)).  ``count`` must reach far enough
    past x that J_count is negligible against the values kept."""
    if x < 1e-20:
        # the series to double precision; covers x = 0, the zero-width H'
        out = np.zeros(count)
        out[0], out[1] = 1.0, 0.5 * x
        return out
    vals = np.empty(count)
    vals[-1] = cur = 1.0                       # J_{count-1}, up to scale
    nxt = 0.0                                  # J_count, taken as 0
    two_over_x = 2.0 / x
    for k in range(count - 1, 0, -1):
        nxt, cur = cur, k * two_over_x * cur - nxt
        vals[k - 1] = cur
        if abs(cur) > 1e250:                   # rescale before overflow
            vals[k - 1:] *= 1e-250
            nxt *= 1e-250
            cur *= 1e-250
    return vals / (vals[0] + 2.0 * vals[2::2].sum())


def bessel_cut(x: float, limit: int, context: str) -> int:
    """Orders past which J_k(x), x >= 0, is negligible: about 15 x^(1/3) past
    the turning point k = x, plus 25.  Raises past ``limit``; ``context`` names x."""
    count = np.floor(x + 15.0 * x ** (1.0 / 3.0)) + 25.0
    if not count <= limit:
        raise NumericalError(
            f"{context} {x:.3g} needs {count:.3g} Bessel orders, more than {limit}")
    return int(count)


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """(2 - delta_k0) (-i)^k J_k(x), cut where |J_k(x)| < CHEBYSHEV_TOL; the
    values come from ``_bessel_j``, started at ``bessel_cut``."""
    bessel = _bessel_j(x, bessel_cut(x, MAX_CHEBYSHEV_TERMS,
                                     "sample that interval more finely: its r * tau ="))
    keep = int(np.flatnonzero(np.abs(bessel) >= CHEBYSHEV_TOL)[-1]) + 1
    coeffs = np.array([1, -1j, -1, 1j])[np.arange(keep) % 4] * bessel[:keep]
    coeffs[1:] *= 2.0
    return coeffs


def _live_sectors(amplitudes: np.ndarray) -> np.ndarray:
    """Sectors K = k + n whose population exceeds LIVE_SECTOR_POPULATION."""
    weight = amplitudes.real**2 + amplitudes.imag**2
    sector = np.add.outer(np.arange(weight.shape[0]), np.arange(weight.shape[1]))
    population = np.bincount(sector.ravel(), weights=weight.ravel())
    return np.flatnonzero(population > LIVE_SECTOR_POPULATION)


class _Chebyshev:
    """Owns the working buffers and the per-interval expansions of one run.

    ``psi`` is the state in the frame rotating with omega K on the band of
    live sectors for the RWA model (where only H' is expanded), and on the
    (m, n) grid in the lab frame otherwise; ``lab_amplitudes`` hands out
    the lab-frame grid state.  ``action`` is the one ``HamiltonianAction``
    of the run, rewritten in place so that its ``apply`` yields 2 H_n psi.
    """

    def __init__(self, initial: CompositeState, params: ModelParams):
        self.action = action = HamiltonianAction(params, initial.dicke, initial.fock)
        # omega (Jz + n) of each band row; None in the lab frame
        self._omega_k = None
        if params.rwa:
            # H' = H - omega K leaves (delta - omega) m on the diagonal
            m = initial.dicke.m_values()
            action.diag[...] = ((params.delta - params.omega) * m)[:, None]
            sectors = _live_sectors(initial.amplitudes)
            # flat band and grid indices of the band's real (unpadded) cells
            cells = action.to_band(sectors).ravel()
            self._band_cells = np.flatnonzero(cells >= 0)
            self._grid_cells = cells[self._band_cells]
            self.psi = np.zeros(action.shape, dtype=np.complex128)
            self.psi.flat[self._band_cells] = initial.amplitudes.flat[self._grid_cells]
            self._omega_k = params.omega * (sectors - initial.dicke.j)
        else:
            self.psi = np.array(initial.amplitudes, dtype=np.complex128, order="C")
        lo, hi = action.spectral_bounds()
        self._center, self._half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # A zero-width H' (RWA on resonance without coupling) is the constant
        # c: each expansion is the one term e^{-i c tau} and H is never
        # applied, so any positive width serves for the mapped action.
        width = self._half_width or 1.0
        action.diag -= self._center
        action.diag *= 2.0 / width
        action.coupling *= 2.0 / width
        if params.rwa and not action.diag.any():
            action.diag = None
        self._cur, self._acc, self._tmp = (np.empty_like(self.psi) for _ in range(3))
        self._expansions: dict[float, tuple[np.ndarray, complex]] = {}

    def lab_amplitudes(self, t: float, out: np.ndarray) -> None:
        """Write the lab-frame state at time ``t`` into ``out``, an (m, n)
        grid that holds zeros."""
        if self._omega_k is None:
            np.copyto(out, self.psi)
            return
        band = self.psi * np.exp(-1j * t * self._omega_k)[:, None]
        out.reshape(-1)[self._grid_cells] = band.reshape(-1)[self._band_cells]

    def advance(self, interval: float) -> float:
        """psi <- exp(-iH interval) psi, renormalized; returns
        |pre-renorm norm - 1|."""
        if interval not in self._expansions:
            self._expansions[interval] = (
                _chebyshev_coefficients(self._half_width * interval),
                np.exp(-1j * self._center * interval))
        coeffs, phase = self._expansions[interval]
        apply, tmp, acc = self.action.apply, self._tmp, self._acc
        prev, cur = self.psi, self._cur
        np.multiply(prev, coeffs[0], out=acc)
        if coeffs.size > 1:
            apply(prev, cur)                   # 2 H_n psi, halved to T_1 psi
            cur *= 0.5
            np.multiply(cur, coeffs[1], out=tmp)
            acc += tmp
        for c in coeffs[2:]:
            apply(cur, tmp)                    # T_{k+1} = 2 H_n T_k - T_{k-1}
            np.subtract(tmp, prev, out=prev)
            prev, cur = cur, prev
            np.multiply(cur, c, out=tmp)
            acc += tmp
        acc *= phase
        nrm2 = np.vdot(acc, acc).real
        if not np.isfinite(nrm2) or nrm2 == 0.0:
            raise NumericalError(f"state norm became {nrm2!r} during propagation")
        nrm = math.sqrt(nrm2)
        acc *= 1.0 / nrm
        self.psi, self._acc = acc, self.psi
        return abs(nrm - 1.0)


@dataclass
class TimeSeries:
    """Sampled scalar monitors along one run."""

    times: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise KeyError(f"no column {name!r}; have {sorted(self.columns)}")
        return self.columns[name]

    def to_csv(self, path: str) -> None:
        names = list(self.columns)
        lines = ["time," + ",".join(names)]
        cols = [self.columns[n] for n in names]
        for i, t in enumerate(self.times):
            row = [format_float(t)] + [format_float(c[i]) for c in cols]
            lines.append(",".join(row))
        atomic_write_text(path, "\n".join(lines) + "\n")


def _evolve(initial: CompositeState, params: ModelParams, steps: Sequence[int],
            dt: float, block: int):
    """Yield (stacked state, norm drifts) for consecutive runs of at most
    ``block`` of the increasing grid ``steps``, guarding the truncation tail
    at every step; each sampled state is written straight into its slot."""
    evolver = _Chebyshev(initial, params)
    previous = 0
    for start in range(0, len(steps), block):
        chunk = steps[start:start + block]
        amplitudes = np.zeros((len(chunk),) + initial.amplitudes.shape, dtype=np.complex128)
        drift = np.zeros(len(chunk))
        for i, step in enumerate(chunk):
            if step > previous:
                drift[i] = evolver.advance((step - previous) * dt)
            previous = step
            evolver.lab_amplitudes(step * dt, amplitudes[i])
            initial.fock.check_tail(amplitudes[i], step * dt)
        yield CompositeState(amplitudes, initial.dicke, initial.fock,
                             time=np.asarray(chunk) * dt, copy=False,
                             validate=False), drift


def run(initial: CompositeState, params: ModelParams, plan: PropagationPlan,
        extra_monitors: Sequence[tuple[str, MonitorFn]] = ()) -> TimeSeries:
    """Propagate and record the plan's monitors on the sampling grid.

    ``extra_monitors`` supplements the named set with caller-built monitors
    (e.g. measurement-conditioned readout needing its own spec).  Each
    monitor is called once per block of samples and returns one value per
    sample of the block.
    """
    monitors = resolve_monitors(plan.monitors) + list(extra_monitors)
    names = [n for n, _ in monitors]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate monitor names in {names}")
    steps = list(range(0, plan.n_steps + 1, plan.stride()))
    if steps[-1] != plan.n_steps:
        steps.append(plan.n_steps)
    block = max(1, SAMPLE_BLOCK_BYTES // (16 * initial.amplitudes.size))
    parts: list[list[np.ndarray]] = [[] for _ in monitors]
    for state, drift in _evolve(initial, params, steps, plan.dt, block):
        ctx = MonitorContext(state=state, params=params, norm_drift=drift)
        for part, (_, fn) in zip(parts, monitors):
            part.append(np.asarray(fn(ctx), dtype=float))
    columns = {name: np.concatenate(part) for name, part in zip(names, parts)}
    return TimeSeries(times=np.asarray(steps) * plan.dt, columns=columns)


def snapshots(initial: CompositeState, params: ModelParams, times: Sequence[float],
              dt: float = DEFAULT_DT) -> list[CompositeState]:
    """States at the requested times, each snapped to the sampling grid."""
    if not all(0.0 <= t < math.inf for t in times):
        raise ConfigError("snapshot times must be finite and nonnegative")
    steps = [round(t / dt) for t in times]
    grid = sorted(set(steps))
    captured = {step: CompositeState(state.amplitudes[0], state.dicke, state.fock,
                                     time=state.time[0], copy=False, validate=False)
                for step, (state, _) in zip(grid, _evolve(initial, params, grid, dt, 1))}
    return [captured[s] for s in steps]


def propagate(initial: CompositeState, params: ModelParams,
              t: float) -> CompositeState:
    """Final state at time ``t`` (single-snapshot convenience)."""
    return snapshots(initial, params, [t])[0]


@dataclass(frozen=True)
class PeakInfo:
    t_peak: float
    peak_value: float
    fwhm: float


def peak_and_fwhm(times: np.ndarray, values: np.ndarray) -> PeakInfo:
    """Locate the global maximum and its full width at half maximum.

    The peak time is the sample argmax; the half-maximum crossings on both
    flanks are linearly interpolated.  Monotone series and boundary maxima
    are rejected since their width is undefined.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 3:
        raise PeakError("need matching 1-d arrays with at least 3 samples")
    k = int(np.argmax(values))
    if k == 0 or k == values.size - 1:
        raise PeakError(f"maximum at the boundary (index {k}); no interior peak")
    peak = float(values[k])
    half = 0.5 * peak

    def crossing(lo_side: bool) -> float:
        idx = range(k, 0, -1) if lo_side else range(k, values.size - 1)
        for i in idx:
            j = i - 1 if lo_side else i + 1
            if values[j] < half <= values[i]:
                frac = (values[i] - half) / (values[i] - values[j])
                return float(times[i] + frac * (times[j] - times[i]))
        side = "left" if lo_side else "right"
        raise PeakError(f"half maximum never crossed on the {side} flank")

    left = crossing(True)
    right = crossing(False)
    return PeakInfo(t_peak=float(times[k]), peak_value=peak, fwhm=right - left)
