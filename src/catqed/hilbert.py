"""Truncated joint Hilbert space: collective Dicke ladder times one Fock mode.

The electronic sector is the maximal-spin (fully symmetric) subspace of N
two-level systems, spanned by |J, m> with J = N/2 and m = -J .. J.  The
photonic sector is a Fock ladder truncated at n_max.  Joint amplitudes are
stored m-major, shape (N + 1, n_max + 1), so photon-operator application is
stride-1 along each row.

A ``CompositeState`` or ``ElectronDensityMatrix`` may also hold a stack of
samples along a leading axis (one time per sample).  The readouts reduce
over the trailing axes only, so one code path serves a single state, for
which they return floats, and a stack, for which they return one value per
sample (``per_sample``).

A state decides its conserved parity once, on first use (``parity``).  Its
split by photon parity forms each outcome's weight and Gram once
(``photon_parity_weight``, ``photon_parity_gram``), for the trace-out and
every photon-parity readout.

Every state is read through its two photon-parity parts u_o, the columns
n = o (mod 2) of a window: a state made from a grid holds the views
grid[..., o::2] as its parts.  An evolver hands out its samples with the
parity of the state they evolved from (``CompositeState.sampled``), so none
is scanned for it; under the RWA, as the parts of the live window (the
columns the live excitation sectors span), which ``amplitudes`` places on
the grid only for a reader that asks for it.  The parts give every readout
the grid's value bit for bit: sums over rows add them in order
(``column_weights``), and sums over columns run on the columns the grid
has (``_window_norm``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatchError, StateValidationError, TruncationError,
                     check_count)

NORM_ATOL = 1e-10
HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Truncation-tail diagnostic: the columns it counts and the population they may hold.
TAIL_WIDTH = 10
TAIL_TOLERANCE = 1e-8


def per_sample(values) -> float | np.ndarray:
    """A reduction over the axes of one state: a float for a single state,
    the array of per-sample values for a stack."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


def column_weights(u: np.ndarray, row_weights: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k |u_kn|^2 over the rows k of the last two axes, for each
    column n of each sample: w_k = 1 without ``row_weights``.  The rows are
    added in order on the float views, so no array of the size of ``u`` is
    made and zero rows leave every sum as it is."""
    spec, extra = (("...kn,...kn->...n", ()) if row_weights is None
                   else ("...kn,...kn,k->...n", (row_weights,)))
    return np.einsum(spec, u.real, u.real, *extra) + np.einsum(spec, u.imag, u.imag, *extra)


def squared_norm(u: np.ndarray) -> np.ndarray:
    """|u|^2 over the last two axes, one per sample."""
    return np.sum(u.real**2 + u.imag**2, axis=(-2, -1))


def _window_norm(u: np.ndarray, at: int, width: int) -> np.ndarray:
    """``squared_norm`` of the ``width`` columns of which ``u`` holds those
    from ``at`` on, the others being zero: the squares are summed on those
    columns, so the sum is the one the zero-filled columns give, bit for
    bit (a pairwise sum groups its terms by position)."""
    squares = np.zeros(u.shape[:-1] + (width,))
    np.add(u.real**2, u.imag**2, out=squares[..., at:at + u.shape[-1]])
    return np.sum(squares, axis=(-2, -1))


def gram(u: np.ndarray) -> np.ndarray:
    """u u^dag over the last two axes, one per sample."""
    return u @ u.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric electronic sector for ``n_qubits`` two-level emitters."""

    n_qubits: int

    def __post_init__(self):
        check_count(self.n_qubits, "n_qubits", DimensionMismatchError)

    @property
    def j(self) -> float:
        return self.n_qubits / 2.0

    @property
    def dim(self) -> int:
        return self.n_qubits + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers, index k maps to m = -J + k."""
        return -self.j + np.arange(self.dim, dtype=float)

    def raising_coefficients(self) -> np.ndarray:
        """c[k] = sqrt(J(J+1) - m_k (m_k + 1)) so J+ |m_k> = c[k] |m_{k+1}>."""
        j, m = self.j, self.m_values()[:-1]
        return np.sqrt(j * (j + 1.0) - m * (m + 1.0))


@dataclass(frozen=True)
class FockSpace:
    """Photon-number ladder truncated at ``n_max`` (dimension n_max + 1)."""

    n_max: int

    def __post_init__(self):
        check_count(self.n_max, "n_max", DimensionMismatchError)

    @property
    def dim(self) -> int:
        return self.n_max + 1

    @property
    def tail_start(self) -> int:
        """First of the top TAIL_WIDTH + 1 Fock levels the tail counts."""
        return max(0, self.n_max - TAIL_WIDTH)


class CompositeState:
    """Normalized joint pure state on (Dicke m) x (Fock n).

    Value type: the amplitude array is frozen on construction.  ``time``
    records the evolution time (units of 1/delta) at which the state holds.
    A stack of samples has amplitudes of shape (samples, dicke.dim,
    fock.dim) and one time per sample; every sample is validated.

    Every reader reads the parts; a state made from a grid hands out that
    grid as ``amplitudes``.  One ``sampled`` as its parts, or a sub-stack,
    holds no grid until ``amplitudes`` is read; it is then built once.
    """

    __slots__ = ("dicke", "fock", "time", "_grid", "_parts", "_first", "_cut",
                 "_parity", "_split")

    def __init__(self, amplitudes, dicke: DickeSpace, fock: FockSpace,
                 time: float | np.ndarray = 0.0, copy: bool = True):
        arr = np.array(amplitudes, dtype=np.complex128, copy=copy, order="C")
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (dicke.dim, fock.dim):
            raise DimensionMismatchError(
                f"amplitudes shape {arr.shape} does not match "
                f"(dicke.dim, fock.dim) = ({dicke.dim}, {fock.dim})")
        times = np.array(time, dtype=float)
        if times.shape != arr.shape[:-2]:
            raise DimensionMismatchError(
                f"times of shape {times.shape} for amplitudes of shape {arr.shape}")
        # summed on the float view, so no array of the grid's size is made
        flat = arr.view(np.float64).reshape(*arr.shape[:-2], -1)
        if not np.all(np.isfinite(flat)):
            raise StateValidationError("non-finite amplitude encountered")
        dev = np.max(np.abs(np.sqrt(np.einsum("...k,...k->...", flat, flat)) - 1.0))
        if dev > NORM_ATOL:
            raise StateValidationError(
                f"state norm deviates from 1 by {dev:.3e} (> {NORM_ATOL})")
        self._fill(dicke, fock, times, grid=arr)

    def _fill(self, dicke, fock, times, grid=None, parts=None, first=0, cut=None) -> None:
        """Freeze and keep the parts (u_0, u_1) of the window from column
        ``first`` on the rows of parity ``cut`` (None: every row), or the
        ``grid`` and its views grid[..., o::2] as the parts."""
        times = np.array(times, dtype=float)
        if parts is None:
            grid.flags.writeable = False
            parts = (grid[..., 0::2], grid[..., 1::2])
        for array in (times, *parts):
            array.flags.writeable = False
        for name, value in (("_grid", grid), ("_parts", parts), ("_first", first),
                            ("_cut", cut), ("dicke", dicke), ("fock", fock),
                            ("time", per_sample(times)), ("_split", {})):
            object.__setattr__(self, name, value)

    @classmethod
    def sampled(cls, storage, dicke: DickeSpace, fock: FockSpace, time: np.ndarray,
                parity: int | None, first_column: int | None = None) -> CompositeState:
        """A stack of samples evolved from a state of parity ``parity`` (None
        for no definite parity), which both models conserve, so no sample is
        scanned for it; the samples are taken as normalized.  ``storage`` is
        the stack of (m, n) grids, whose parts are then views of it, or with
        ``first_column`` the parts (u_0, u_1): u_o holds the columns
        n = o (mod 2) of the window that starts at ``first_column``, on the
        rows k = o + parity (mod 2), or on every row for no parity.  Every
        cell outside the parts is zero."""
        state = cls.__new__(cls)
        if first_column is None:
            state._fill(dicke, fock, time, grid=storage)
        else:
            state._fill(dicke, fock, time, parts=tuple(storage), first=first_column, cut=parity)
        object.__setattr__(state, "_parity", parity)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("CompositeState is immutable")

    @property
    def amplitudes(self) -> np.ndarray:
        """The (m, n) grid (a stack of them for a stack of samples)."""
        if self._grid is None:
            object.__setattr__(self, "_grid", self._placed(0))
            self._grid.flags.writeable = False
        return self._grid

    def _placed(self, start: int) -> np.ndarray:
        """The parts on the grid's columns n >= ``start``, zero elsewhere."""
        grid = np.zeros(np.shape(self.time) + (self.dicke.dim, self.fock.dim - start),
                        dtype=np.complex128)
        for offset, part in enumerate(self._parts):
            first = self._first_column(offset)
            skip = max(0, -(-(start - first) // 2))     # part columns below start
            if skip < part.shape[-1]:
                columns = grid[..., self._rows(offset, self._cut), first + 2 * skip - start::2]
                columns[..., :part.shape[-1] - skip] = part[..., skip:]
        return grid

    def _first_column(self, offset: int) -> int:
        """Column of the first cell of part u_o, o = ``offset``."""
        return self._first + (offset - self._first) % 2

    @staticmethod
    def _rows(offset: int, parity: int | None) -> slice:
        """Rows that hold photon parity o = ``offset`` in a state of parity
        ``parity``: k = o + parity (mod 2), or every row for no parity."""
        return slice(None) if parity is None else slice((offset + parity) % 2, None, 2)

    def norm(self) -> float | np.ndarray:
        """sqrt(|u_0|^2 + |u_1|^2) from the photon-parity weights (per sample)."""
        return per_sample(np.sqrt(self.photon_parity_weight(0) + self.photon_parity_weight(1)))

    def column_weights(self, row_weights: np.ndarray | None = None) -> np.ndarray:
        """``column_weights`` of the state for each photon number n, one row
        per sample of a stack: sum_k w_k |c_kn|^2, with w_k the
        ``row_weights`` of the Dicke rows (1 without).  Read from the parts
        and placed on their columns, it is the grid's value bit for bit."""
        out = np.zeros(np.shape(self.time) + (self.fock.dim,))
        for offset, part in enumerate(self._parts):
            rows = self._rows(offset, self._cut)
            out[..., self._first_column(offset)::2][..., :part.shape[-1]] = column_weights(
                part, None if row_weights is None else row_weights[rows])
        return out

    def tail_population(self) -> float | np.ndarray:
        """Probability weight in the top TAIL_WIDTH + 1 Fock levels (per
        sample for a stack)."""
        return per_sample(squared_norm(self._placed(self.fock.tail_start)))

    def check_tail(self) -> None:
        """Refuse a state whose tail population exceeds TAIL_TOLERANCE: the
        cutoff no longer holds it.  A stack of samples is refused at its
        first such sample."""
        tails = np.atleast_1d(self.tail_population())
        over = np.flatnonzero(tails > TAIL_TOLERANCE)
        if over.size:
            first = over[0]
            raise TruncationError(
                f"tail population {tails[first]:.3e} exceeds {TAIL_TOLERANCE:.1e} at "
                f"t = {np.atleast_1d(self.time)[first]:.6g} for n_max = {self.fock.n_max}; "
                "raise the cutoff")

    def photon_distribution(self) -> np.ndarray:
        """Marginal photon-number probabilities p(n), one row per sample of a stack."""
        return self.column_weights()

    @property
    def parity(self) -> int | None:
        """Conserved parity Pi = (-1)^(n + k), k the Dicke index, of all
        samples together: 0 or 1 when every cell of the other parity is
        exactly zero (both models keep them so for an even or odd cat with
        the emitters down), else None.  Decided on first use and kept, since
        the amplitudes are frozen.  Only a state whose parts lie on every
        row decides it, from its parts."""
        if not hasattr(self, "_parity"):
            # parity Pi when the cells of the other one, rows k = o + 1 - Pi of u_o, are zero
            parity = next((pi for pi in (0, 1) if not any(
                u[..., self._rows(o, 1 - pi), :].any() for o, u in enumerate(self._parts))), None)
            object.__setattr__(self, "_parity", parity)
        return self._parity

    def __getitem__(self, index) -> CompositeState:
        """The samples ``index`` selects.  Any subset of a stack of definite
        parity has that parity, so it keeps it and what the split has formed;
        a subset of a stack of no parity may have one, so it decides afresh."""
        if np.ndim(self.time) == 0:
            raise DimensionMismatchError("a single state is not a stack of samples to index")
        part = CompositeState.__new__(CompositeState)
        part._fill(self.dicke, self.fock, self.time[index],
                   parts=tuple(u[index] for u in self._parts), first=self._first, cut=self._cut)
        if getattr(self, "_parity", None) is not None:
            object.__setattr__(part, "_parity", self._parity)
            part._split.update((key, kept[index]) for key, kept in self._split.items())
        return part

    def photon_parity_weight(self, offset: int) -> np.ndarray:
        """|u_o|^2, the probability of photon parity o = ``offset``, per sample."""
        return self._split_part(offset, "weight")[1]

    def photon_parity_gram(self, offset: int) -> tuple[slice, np.ndarray]:
        """Rows of photon parity o = ``offset`` and u_o u_o^dag on them, per sample."""
        return self._split_part(offset, "gram")

    def _split_part(self, offset: int, form: str) -> tuple[slice, np.ndarray]:
        """Rows of photon parity o = ``offset`` and the ``form`` ("weight" or
        "gram") of its amplitudes u_o, formed once per state: u_o holds the
        columns n = o (mod 2) on the rows k = o + Pi (mod 2) for a state of
        definite parity (the other rows are zero there), else on every row.
        The part holds u_o on the columns of its window."""
        rows = self._rows(offset, self.parity)
        key = (form, offset)
        if key not in self._split:
            # parts cut on every row keep the rows of a parity decided since
            u = self._parts[offset]
            if self._cut is None:
                u = u[..., rows, :]
            if form == "gram":
                self._split[key] = gram(u)
            else:
                # summed over the grid's columns n = o (mod 2)
                self._split[key] = _window_norm(u, (self._first_column(offset) - offset) // 2,
                                                (self.fock.dim - offset + 1) // 2)
        return rows, self._split[key]


class ElectronDensityMatrix:
    """Reduced electronic density matrix on the Dicke ladder.

    Construction validates hermiticity, unit trace, and positivity up to
    numerical dust, on every sample of a stack (shape (samples, dim, dim));
    ``validate=False`` skips the eigenvalue check when the caller
    guarantees the matrix is a Gram form.
    """

    __slots__ = ("matrix", "dicke")

    def __init__(self, matrix, dicke: DickeSpace, copy: bool = True,
                 validate: bool = True):
        rho = np.array(matrix, dtype=np.complex128, copy=copy, order="C")
        if rho.ndim not in (2, 3) or rho.shape[-2:] != (dicke.dim, dicke.dim):
            raise DimensionMismatchError(
                f"density matrix shape {rho.shape}, expected square dim {dicke.dim}")
        if not np.all(np.isfinite(rho.view(np.float64))):
            raise StateValidationError("non-finite density-matrix entry")
        herm = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)))
        if herm > HERMITICITY_ATOL:
            raise StateValidationError(
                f"hermiticity violated by {herm:.3e} (> {HERMITICITY_ATOL})")
        dev = np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0))
        if dev > TRACE_ATOL:
            raise StateValidationError(
                f"trace deviates from 1 by {dev:.3e} (> {TRACE_ATOL})")
        if validate:
            lo = float(np.min(np.linalg.eigvalsh(rho)[..., 0]))
            if lo < EIGENVALUE_FLOOR:
                raise StateValidationError(
                    f"negative eigenvalue {lo:.3e} below floor {EIGENVALUE_FLOOR}")
        rho.flags.writeable = False
        object.__setattr__(self, "matrix", rho)
        object.__setattr__(self, "dicke", dicke)

    def __setattr__(self, name, value):
        raise AttributeError("ElectronDensityMatrix is immutable")

    def purity(self) -> float | np.ndarray:
        return per_sample(np.sum(np.abs(self.matrix) ** 2, axis=(-2, -1)))


def reduce_to_electron(state: CompositeState) -> ElectronDensityMatrix:
    """Trace out the photon mode: rho[m, m'] = sum_n c[m, n] conj(c[m', n]),
    the sum of the two photon-parity Grams on their rows, batched over a
    stack of samples.  For a state of definite parity the entries between
    opposite parities of k vanish."""
    dim = state.dicke.dim
    rho = np.zeros(np.shape(state.time) + (dim, dim), dtype=np.complex128)
    for offset in (0, 1):
        rows, block = state.photon_parity_gram(offset)
        rho[..., rows, rows] += block
    # Gram form is positive semidefinite by construction.
    return ElectronDensityMatrix(rho, state.dicke, copy=False, validate=False)


def product_state(electron: np.ndarray, photon: np.ndarray,
                  dicke: DickeSpace, fock: FockSpace,
                  time: float = 0.0) -> CompositeState:
    """Assemble |electron> x |photon> as a CompositeState (renormalized)."""
    c = np.outer(np.asarray(electron, dtype=np.complex128),
                 np.asarray(photon, dtype=np.complex128))
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise StateValidationError("product of zero vectors")
    c /= nrm
    return CompositeState(c, dicke, fock, time=time, copy=False)
