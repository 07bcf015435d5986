"""Time evolution by a Chebyshev expansion of exp(-iHt).

The Gershgorin interval [lo, hi] of ``HamiltonianAction.spectral_bounds``
maps the expanded operator onto H_n = (H - c) / r in [-1, 1], with c the
centre and r the half-width, and

    exp(-iH tau) = e^{-i c tau} sum_k (2 - delta_k0) (-i)^k J_k(r tau) T_k(H_n)

is summed by the three-term Chebyshev recurrence until the Bessel
coefficients fall below double precision (Tal-Ezer and Kosloff, J. Chem.
Phys. 81, 3967 (1984)).  The sum needs about r tau terms plus a tail of
order (r tau)^(1/3) + 25 past the turning point.  The Bessel values J_k come
from Miller's backward recurrence, normalized by J_0 + 2 sum J_2k = 1
(Gautschi, SIAM Rev. 9, 24 (1967)), which is accurate relative to each
value in the decaying tail where the sum is cut.

The vectors T_k(H_n) psi0 do not depend on tau, so one recurrence from a
block's start state psi0 serves every sample of the block:
psi_j = sum_k c_k(tau_j) T_k psi0, summed to the terms of the last sample.
The terms pass through a ring of one vector per sample (at least three),
and each full ring is folded into the block's states by one matrix
product of the coefficient table with the ring.  A block of samples tau
apart thus costs about r times its span in terms, where expanding each
interval on its own pays the Bessel tail once per sample: at the
full-model kitten (r = 52, tau = 0.01) 18 samples take 35 terms instead of
18 x 13.  Every block is read off one table, so a block is cut short
where its table would pass MAX_CHEBYSHEV_TERMS.

In the RWA model K = Jz + n commutes with H, so

    exp(-iHt) = exp(-i omega K t) exp(-iH't),   H' = (delta - omega) Jz + V,

and the evolver keeps psi in the frame rotating with omega K: the band
action is H' itself, whose half-width is set by the coupling V instead of
the fast Fock ladder, and the evolver applies exp(-i omega K t), one phase
per sector, when it hands out a sampled state.  The full model has no
conserved K and expands H itself in the lab frame.

Conserved K also fixes the population of each excitation sector for all
time, so under the RWA psi lives on a band of the live sectors only.  With
k the Dicke index, sector K_s = k + n holds K = K_s - N/2, and it is live
when its initial population exceeds LIVE_SECTOR_POPULATION.  Row s of the
band holds the cells (k, K_s - k), k = 0 .. N, and H' is tridiagonal along
it (``HamiltonianAction(sectors=)``).  The sectors left out stay exactly as
empty as they start, so the norm dropped with them is constant in time
and below LIVE_SECTOR_POPULATION per sector.  An even cat fills only the
even sectors, and a large amplitude only those inside the Poisson tails; a
kitten fills two islands, which is why the live set is a list rather than
an interval.  Every state is read through its two photon-parity parts
(``CompositeState.sampled``): a full-model sample holds views of its grid,
and an RWA sample the parts of the window of columns the live sectors span,
u_o on the columns n = o (mod 2) and the rows of the initial state's
conserved parity, which both models keep (every row for no definite
parity).  A map built once per run gathers each part from the band; cells
outside the window and dead sectors inside it are exact zeros on the grid,
so every readout sees the grid's numbers, and no grid is built unless a
reader asks for it.

The evolver builds one ``HamiltonianAction`` per run, H' on the band of
live sectors under the RWA and H on the grid otherwise, and only maps it in
place onto 2 H_n, so each term T_{k+1} = 2 H_n T_k - T_{k-1} of the
recurrence is one apply and one subtraction.  On resonance H' holds no
diagonal, its interval is symmetric about c = 0, and the apply skips the
diagonal.

The result is exact on the truncated space up to rounding, so ``dt`` only
fixes the sampling grid.  Each sample is renormalized; its
pre-renormalization norm deviation is kept as a diagnostic.  ``_evolve``
owns the run: it lays out the ring once, carries psi, its step and the
last coefficient plan from block to block, and hands out consecutive
sampled states in the evolver's blocks of at most SAMPLE_BLOCK_BYTES of
amplitudes (of the parts under the RWA, of the grid in the full model),
for ``run`` and ``snapshots`` alike.  ``run`` evaluates every monitor once
per block, through one ``MonitorContext`` (see ``monitors``), never inside
the recurrence.  ``run`` and ``_evolve`` let go of a block before the next
is allocated, so a run holds one block at a time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, NumericalError, PeakError,
                     check_count, check_finite)
from .fileio import FLOAT_FORMAT, atomic_write_text
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

# Bessel values one coefficient table may hold, samples times orders: one
# recurrence spans its samples with about r * span terms.  A table takes 16
# bytes a value (24 while it is built), so the one table of a block holds
# at most 160 MB of coefficients; the evolver keeps the last block's, and a
# block is cut short only where it would pass this limit.
MAX_CHEBYSHEV_TERMS = 10_000_000

# Amplitudes of one block of samples evaluated and read out together (at
# least one sample).  The flagship's even cat at N = 8 with 189 Fock
# levels holds 842 amplitudes in its two parts, so a block holds 19
# samples, which share one recurrence and the readouts' per-call
# overhead; a larger budget raises the peak memory of a run.
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
        check_finite(self.t_max, "t_max")
        check_finite(self.dt, "dt")
        if not self.t_max > 0.0:
            raise ConfigError(f"t_max must be positive, got {self.t_max!r}")
        if not 0.0 < self.dt <= self.t_max:
            raise ConfigError(f"dt must lie in (0, t_max], got {self.dt!r}")
        if self.sample_stride is not None:
            check_count(self.sample_stride, "sample_stride")
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
    J_{k-1} = (2k / x) J_k - J_{k+1} from J_count = 0, normalized by
    J_0 + 2 sum J_2k = 1 (Gautschi, SIAM Rev. 9, 24 (1967)).  From a
    ``bessel_cut`` count the values stay below 1e223 for x >= 1e-8, so none
    needs rescaling; below 1e-8 the series J_0 = 1, J_1 = x / 2 holds to
    double precision, which covers the zero-width H'."""
    vals = np.zeros(count)
    if x < 1e-8:
        vals[0], vals[1] = 1.0, 0.5 * x
        return vals
    vals[-1] = cur = 1.0                       # J_{count-1}, up to scale
    nxt = 0.0                                  # J_count, taken as 0
    two_over_x = 2.0 / x
    for k in range(count - 1, 0, -1):
        nxt, cur = cur, k * two_over_x * cur - nxt
        vals[k - 1] = cur
    vals /= vals[0] + 2.0 * vals[2::2].sum()
    return vals


def bessel_cut(x: float, limit: int, context: str) -> int:
    """Orders past which J_k(x), x >= 0, is negligible: about 15 x^(1/3) past
    the turning point k = x, plus 25.  Raises past ``limit``; ``context`` names x."""
    count = np.floor(x + 15.0 * x ** (1.0 / 3.0)) + 25.0
    if not count <= limit:
        raise NumericalError(
            f"{context} {x:.3g} needs {count:.3g} Bessel orders, more than {limit}")
    return int(count)


def _chebyshev_coefficients(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row j: (2 - delta_k0) (-i)^k J_k(x_j) for each x_j of ``x``, cut
    after the last order where |J_k(x_j)| >= CHEBYSHEV_TOL and zero from
    there on; returns the table and each row's term count.  The values come
    from ``_bessel_j``, started at ``bessel_cut``."""
    rows = []
    for v in x.tolist():
        bessel = _bessel_j(v, bessel_cut(v, MAX_CHEBYSHEV_TERMS, "x ="))
        rows.append(bessel[:np.flatnonzero(np.abs(bessel) >= CHEBYSHEV_TOL)[-1] + 1])
    keeps = np.array([row.size for row in rows])
    table = np.zeros((len(rows), keeps.max()), dtype=np.complex128)
    for out, row in zip(table, rows):
        out[:row.size] = row
    for k, factor in enumerate((2.0, -2j, -2.0, 2j)):
        table[:, k::4] *= factor
    table[:, 0] *= 0.5
    return table, keeps


def _live_sectors(amplitudes: np.ndarray) -> np.ndarray:
    """Sectors K = k + n whose population exceeds LIVE_SECTOR_POPULATION."""
    weight = amplitudes.real**2 + amplitudes.imag**2
    sector = np.add.outer(np.arange(weight.shape[0]), np.arange(weight.shape[1]))
    population = np.bincount(sector.ravel(), weights=weight.ravel())
    return np.flatnonzero(population > LIVE_SECTOR_POPULATION)


class _Chebyshev:
    """The expansion of one run; ``_evolve`` owns the run itself.

    ``action`` is the run's one ``HamiltonianAction``: H' on the band of
    live sectors under the RWA, in the frame rotating with omega K, and H
    on the (m, n) grid in the lab frame otherwise.  The evolver only
    centres and scales it in place, so that its ``apply`` yields 2 H_n psi.
    ``_state`` hands out the lab-frame samples, turned by each sector's
    phase exp(-i omega K t) and gathered from the band into the two
    photon-parity parts under the RWA.
    """

    def __init__(self, initial: CompositeState, params: ModelParams, dt: float):
        self._spaces, self._parity, self.dt = (initial.dicke, initial.fock), initial.parity, dt
        sectors = _live_sectors(initial.amplitudes) if params.rwa else None
        self.action = action = HamiltonianAction(params, initial.dicke, initial.fock, sectors)
        # omega (Jz + n) of each band row, None in the lab frame; the flat
        # indices of the band's real (unpadded) cells and of their grid cells
        self._omega_k, cells = None, initial.amplitudes.size
        self._band_cells = self._grid_cells = slice(None)
        if params.rwa:
            self._omega_k = params.omega * (sectors - initial.dicke.j)
            band = action.cells.ravel()
            self._band_cells = np.flatnonzero(band >= 0)
            self._grid_cells = band[self._band_cells]
            self._first, self._gather = self._parts_map(band.size)
            cells = sum(source.size for source in self._gather)
        # samples of a block: at least one, at most SAMPLE_BLOCK_BYTES of
        # amplitudes, on the grid or in the parts
        self.block = max(1, SAMPLE_BLOCK_BYTES // (16 * cells))
        lo, hi = action.spectral_bounds()
        self._center, self._half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # A zero-width H' (RWA on resonance without coupling) is the constant
        # c: each expansion is the one term e^{-i c tau} and H is never
        # applied, so any positive width serves for the mapped action.
        width = self._half_width or 1.0
        if action.diag is not None:   # without one the interval is symmetric: c = 0
            action.diag -= self._center
            action.diag *= 2.0 / width
        action.coupling *= 2.0 / width

    def _parts_map(self, zero: int) -> tuple[int, tuple[np.ndarray, np.ndarray]]:
        """The window's first column and, for each photon-parity part u_o,
        the band index of each of its cells (see ``CompositeState.sampled``),
        ``zero`` for the cells no live sector reaches.  The window spans the
        columns of the band's cells; every nonzero cell lies in a part,
        since a state of parity Pi fills only the sectors K = Pi (mod 2)."""
        dicke, fock = self._spaces
        columns = self._grid_cells % fock.dim
        first, last = int(columns.min()), int(columns.max())
        source = np.full(dicke.dim * fock.dim, zero)
        source[self._grid_cells] = self._band_cells
        rows = np.arange(dicke.dim)
        parts = []
        for offset in (0, 1):
            part_rows = rows[CompositeState._rows(offset, self._parity)]
            part_columns = np.arange(first + (offset - first) % 2, last + 1, 2)
            parts.append(source[np.add.outer(part_rows * fock.dim, part_columns)])
        return first, tuple(parts)

    def blocks(self, steps: Sequence[int]) -> list[Sequence[int]]:
        """Consecutive runs of the increasing grid ``steps`` of a run from
        step 0, each read off one coefficient table: at most ``block``
        samples, cut before the sample whose table (the run's samples past
        its start state times the Bessel orders of that sample's interval)
        would pass MAX_CHEBYSHEV_TERMS.  A run starts from the last step of
        the one before, so the runs depend on ``steps`` alone; a sample
        interval that passes the limit on its own is refused."""
        def orders(j: int, limit: float = math.inf, context: str = "") -> int:
            return bessel_cut(self._half_width * ((steps[j] - base) * self.dt), limit, context)

        runs, start, base = [], 0, 0
        while start < len(steps):
            first = start + (steps[start] == base)    # a zero offset is psi itself
            stop = min(start + self.block, len(steps))
            if first < stop:
                orders(first, MAX_CHEBYSHEV_TERMS,
                       "sample that interval more finely: its r * tau =")
                # the table grows with each sample: keep the longest run that fits
                stop = first + bisect.bisect_right(range(first, stop), MAX_CHEBYSHEV_TERMS,
                                                   key=lambda j: (j + 1 - first) * orders(j))
            runs.append(steps[start:stop])
            start, base = stop, steps[stop - 1]
        return runs

    def _state(self, times: np.ndarray, rows: np.ndarray) -> CompositeState:
        """The stacked lab-frame state at ``times`` of ``rows``, one flat
        state each as ``_evolve`` holds them, with the parity of the initial
        state.  In the lab frame the rows are the (m, n) grids; under the RWA
        each band row is turned by the phases of its sectors and gathered
        into the two photon-parity parts."""
        dicke, fock = self._spaces
        if self._omega_k is None:
            grids = rows.reshape((len(times),) + self.action.shape)
            return CompositeState.sampled(grids, dicke, fock, times, self._parity)
        phases = np.exp(np.multiply.outer(-1j * times, self._omega_k))
        bands = rows[:, :-1].view()
        bands.shape = (len(times),) + self.action.shape     # a view, never a copy
        for k in range(bands.shape[-1]):                    # one k of every sector at a time
            bands[..., k] *= phases
        parts = [np.take(rows, source, axis=1) for source in self._gather]
        return CompositeState.sampled(parts, dicke, fock, times, self._parity,
                                      first_column=self._first)

    def _coefficients(self, offsets: tuple[int, ...]) -> tuple[np.ndarray, list]:
        """Coefficients of the samples ``offsets`` steps past psi, each row
        times its phase e^{-i c tau}, and the folds of ``_expand``: (first
        term, end, first row whose sum still runs) for each ring of terms."""
        tau = np.array(offsets) * self.dt
        coeffs, keeps = _chebyshev_coefficients(self._half_width * tau)
        coeffs *= np.exp(-1j * self._center * tau)[:, None]
        size, terms, keeps = max(len(offsets), 3), coeffs.shape[1], keeps.tolist()
        folds = [(first, min(first + size, terms),
                  next(j for j, keep in enumerate(keeps) if keep > first))
                 for first in range(0, terms, size)]
        return coeffs, folds

    def _expand(self, coeffs: np.ndarray, folds: list, ring: np.ndarray,
                rows: np.ndarray, drift: np.ndarray) -> None:
        """rows[j] <- exp(-iH tau_j) psi, renormalized, and drift[j] <- its
        |pre-renorm norm - 1|, for the samples ``_coefficients`` gave
        ``coeffs`` and ``folds`` (tau_j their offsets times dt); psi is ring[0].

        The terms T_k psi go into the ring, one vector per row (at least
        three: the recurrence reads two back), and each full ring is folded
        into ``rows`` by one product with the ring's columns of the
        coefficient table, over the rows whose sums still run."""
        slots = list(ring[:max(len(rows), 3)])
        flat = ring.reshape(len(ring), -1)
        apply = self.action.apply
        for first, end, live in folds:
            for k in range(first, end):
                slot = k - first
                term = slots[slot]
                if k == 1:
                    apply(slots[0], term)         # 2 H_n psi, halved to T_1 psi
                    term *= 0.5
                elif k > 1:
                    # T_k = 2 H_n T_{k-1} - T_{k-2}
                    apply(slots[slot - 1], term)
                    term -= slots[slot - 2]
            part = coeffs[live:, first:end]
            if first == 0:
                np.matmul(part, flat[:end], out=rows)
            else:
                running = rows[live:]             # += on rows[live:] would copy back
                running += part @ flat[:end - first]
        for j, row in enumerate(rows):
            nrm = math.sqrt(np.vdot(row, row).real)
            if not 0.0 < nrm < math.inf:
                raise NumericalError(f"state norm became {nrm!r} during propagation")
            row *= 1.0 / nrm
            drift[j] = abs(nrm - 1.0)


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
        """One row per sample, every value in FLOAT_FORMAT through one row
        template (the bytes ``format_float`` writes value by value)."""
        names = list(self.columns)
        template = ",".join([FLOAT_FORMAT] * (1 + len(names)))
        table = np.column_stack([self.times, *(self.columns[n] for n in names)])
        lines = [",".join(["time", *names])]
        lines += [template % tuple(row) for row in table.tolist()]
        atomic_write_text(path, "\n".join(lines) + "\n")


def _evolve(initial: CompositeState, params: ModelParams, steps: Sequence[int],
            dt: float):
    """Yield (stacked state, norm drifts) for the consecutive ``blocks`` of
    the increasing grid ``steps``, each read off one recurrence; the
    truncation tail is guarded at every sample.  The run is laid out once:
    psi lives in slot 0 of the ring of ``_expand``, max(3, longest block)
    slots, and the plan of ``_coefficients`` serves every block of a
    regular grid.  A block's rows go before it is handed out, and the block
    before the next is allocated."""
    evolver = _Chebyshev(initial, params, dt)
    runs = evolver.blocks(steps)
    ring = np.zeros((max([3, *map(len, runs)]),) + evolver.action.shape, dtype=np.complex128)
    psi, step, plan = ring[0], 0, ((), None, None)
    psi.flat[evolver._band_cells] = initial.amplitudes.flat[evolver._grid_cells]
    size = psi.size
    for chunk in runs:
        # a band row ends in one zero cell, the source of the parts' dead cells
        rows = np.empty((len(chunk), size + (evolver._omega_k is not None)), dtype=np.complex128)
        rows[:, size:] = 0.0
        drift = np.zeros(len(chunk))
        offsets = tuple(s - step for s in chunk)
        first = int(offsets[0] == 0)
        if first:                                 # psi itself, unchanged
            rows[0, :size] = psi.reshape(-1)
        if first < len(chunk):
            if offsets != plan[0]:
                plan = offsets, *evolver._coefficients(offsets[first:])
            evolver._expand(*plan[1:], ring, rows[first:, :size], drift[first:])
            psi.reshape(-1)[...] = rows[-1, :size]
        step = chunk[-1]
        state = evolver._state(np.asarray(chunk) * dt, rows)
        del rows
        state.check_tail()
        yield state, drift
        del state


def run(initial: CompositeState, params: ModelParams, plan: PropagationPlan,
        extra_monitors: Sequence[tuple[str, MonitorFn]] = ()) -> TimeSeries:
    """Propagate and record the plan's monitors on the sampling grid.

    ``extra_monitors`` supplements the named set with caller-built monitors
    (e.g. measurement-conditioned readout needing its own spec).  Each
    monitor is called once per block of samples and must return one value
    per sample of the block.
    """
    monitors = resolve_monitors(plan.monitors) + list(extra_monitors)
    names = [n for n, _ in monitors]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate monitor names in {names}")
    steps = list(range(0, plan.n_steps + 1, plan.stride()))
    if steps[-1] != plan.n_steps:
        steps.append(plan.n_steps)
    parts: list[list[np.ndarray]] = [[] for _ in monitors]
    for state, drift in _evolve(initial, params, steps, plan.dt):
        ctx = MonitorContext(state=state, params=params, norm_drift=drift)
        for part, (name, fn) in zip(parts, monitors):
            values = np.asarray(fn(ctx), dtype=float)
            if values.shape != drift.shape:
                raise DimensionMismatchError(f"monitor {name!r} returned shape {values.shape} "
                                             f"for {drift.size} samples, not one value each")
            part.append(values)
        del state, ctx          # one block alive while the next is propagated
    columns = {name: np.concatenate(part) for name, part in zip(names, parts)}
    return TimeSeries(times=np.asarray(steps) * plan.dt, columns=columns)


def snapped_steps(times: Sequence[float], dt: float) -> list[int]:
    """Grid step of each requested time: a snapshot at t is taken at
    round(t / dt) dt.  The times must be finite and nonnegative."""
    if not all(0.0 <= t < math.inf for t in times):
        raise ConfigError("snapshot times must be finite and nonnegative")
    return [round(t / dt) for t in times]


def snapshots(initial: CompositeState, params: ModelParams, times: Sequence[float],
              dt: float = DEFAULT_DT) -> list[CompositeState]:
    """States at the requested times, each snapped to the sampling grid."""
    steps = snapped_steps(times, dt)
    grid = sorted(set(steps))
    samples = (state[k] for state, _ in _evolve(initial, params, grid, dt)
               for k in range(len(state.time)))
    captured = dict(zip(grid, samples))
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

    The peak time is the argmax of the finite samples (a NaN marks a sample
    whose readout is impossible); the half-maximum crossings on both flanks
    are linearly interpolated.  Monotone series, boundary maxima and a flank
    that meets a non-finite sample before its crossing are rejected since
    their width is undefined.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size < 3:
        raise PeakError("need matching 1-d arrays with at least 3 samples")
    finite = np.isfinite(values)
    if not finite.any():
        raise PeakError("no finite sample; no peak")
    k = int(np.argmax(np.where(finite, values, -np.inf)))
    if k == 0 or k == values.size - 1:
        raise PeakError(f"maximum at the boundary (index {k}); no interior peak")
    peak = float(values[k])
    half = 0.5 * peak

    def crossing(lo_side: bool) -> float:
        side = "left" if lo_side else "right"
        idx = range(k, 0, -1) if lo_side else range(k, values.size - 1)
        for i in idx:
            j = i - 1 if lo_side else i + 1
            if not finite[j]:
                raise PeakError(f"the {side} flank meets a non-finite sample "
                                f"(index {j}) before its half maximum")
            if values[j] < half <= values[i]:
                frac = (values[i] - half) / (values[i] - values[j])
                return float(times[i] + frac * (times[j] - times[i]))
        raise PeakError(f"half maximum never crossed on the {side} flank")

    left = crossing(True)
    right = crossing(False)
    return PeakInfo(t_peak=float(times[k]), peak_value=peak, fwhm=right - left)
