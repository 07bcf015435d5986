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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, StateValidationError, TruncationError

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


def squared_norm(u: np.ndarray) -> np.ndarray:
    """|u|^2 over the last two axes, one per sample."""
    return np.sum(u.real**2 + u.imag**2, axis=(-2, -1))


def gram(u: np.ndarray) -> np.ndarray:
    """u u^dag over the last two axes, one per sample."""
    return u @ u.conj().swapaxes(-1, -2)


def _norms(amplitudes: np.ndarray) -> np.ndarray:
    """2-norm over the last two axes of a C-ordered complex array, summed
    on its float view so that no array of its size is allocated."""
    flat = amplitudes.view(np.float64).reshape(*amplitudes.shape[:-2], -1)
    return np.sqrt(np.einsum("...k,...k->...", flat, flat))


@dataclass(frozen=True)
class DickeSpace:
    """Symmetric electronic sector for ``n_qubits`` two-level emitters."""

    n_qubits: int

    def __post_init__(self):
        if not isinstance(self.n_qubits, (int, np.integer)) or self.n_qubits < 1:
            raise DimensionMismatchError(
                f"n_qubits must be a positive integer, got {self.n_qubits!r}")

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
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise DimensionMismatchError(
                f"n_max must be a positive integer, got {self.n_max!r}")

    @property
    def dim(self) -> int:
        return self.n_max + 1

    def tail_population(self, amplitudes: np.ndarray) -> float | np.ndarray:
        """Probability weight in the top TAIL_WIDTH + 1 Fock levels of a
        joint state (per sample for a stack)."""
        lo = max(0, self.n_max - TAIL_WIDTH)
        return per_sample(squared_norm(amplitudes[..., lo:]))

    def check_tail(self, amplitudes: np.ndarray, times: float | np.ndarray) -> None:
        """Refuse a joint state whose tail population exceeds
        TAIL_TOLERANCE: the cutoff no longer holds it.  A stack of samples
        takes one time each and is refused at its first such sample."""
        tails = np.atleast_1d(self.tail_population(amplitudes))
        over = np.flatnonzero(tails > TAIL_TOLERANCE)
        if over.size:
            first = over[0]
            raise TruncationError(
                f"tail population {tails[first]:.3e} exceeds {TAIL_TOLERANCE:.1e} at "
                f"t = {np.atleast_1d(times)[first]:.6g} for n_max = {self.n_max}; "
                "raise the cutoff")


class CompositeState:
    """Normalized joint pure state on (Dicke m) x (Fock n).

    Value type: the amplitude array is frozen on construction.  ``time``
    records the evolution time (units of 1/delta) at which the state holds.
    A stack of samples has amplitudes of shape (samples, dicke.dim,
    fock.dim) and one time per sample; every sample is validated.
    """

    __slots__ = ("amplitudes", "dicke", "fock", "time", "_parity", "_split")

    def __init__(self, amplitudes, dicke: DickeSpace, fock: FockSpace,
                 time: float | np.ndarray = 0.0, copy: bool = True,
                 validate: bool = True):
        arr = np.array(amplitudes, dtype=np.complex128, copy=copy, order="C")
        if arr.ndim not in (2, 3) or arr.shape[-2:] != (dicke.dim, fock.dim):
            raise DimensionMismatchError(
                f"amplitudes shape {arr.shape} does not match "
                f"(dicke.dim, fock.dim) = ({dicke.dim}, {fock.dim})")
        times = np.array(time, dtype=float)
        if times.shape != arr.shape[:-2]:
            raise DimensionMismatchError(
                f"times of shape {times.shape} for amplitudes of shape {arr.shape}")
        if validate:
            if not np.all(np.isfinite(arr.view(np.float64))):
                raise StateValidationError("non-finite amplitude encountered")
            dev = np.max(np.abs(_norms(arr) - 1.0))
            if dev > NORM_ATOL:
                raise StateValidationError(
                    f"state norm deviates from 1 by {dev:.3e} (> {NORM_ATOL})")
        arr.flags.writeable = False
        times.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)
        object.__setattr__(self, "dicke", dicke)
        object.__setattr__(self, "fock", fock)
        object.__setattr__(self, "time", per_sample(times))
        object.__setattr__(self, "_split", {})

    def __setattr__(self, name, value):
        raise AttributeError("CompositeState is immutable")

    def norm(self) -> float | np.ndarray:
        return per_sample(_norms(self.amplitudes))

    def tail_population(self) -> float | np.ndarray:
        return self.fock.tail_population(self.amplitudes)

    def photon_distribution(self) -> np.ndarray:
        """Marginal photon-number probabilities p(n), one row per sample
        of a stack."""
        a = self.amplitudes
        return (np.einsum("...mn,...mn->...n", a.real, a.real)
                + np.einsum("...mn,...mn->...n", a.imag, a.imag))

    @property
    def parity(self) -> int | None:
        """Conserved parity Pi = (-1)^(n + k), k the Dicke index, of all
        samples together: 0 or 1 when every cell of the other parity is
        exactly zero (both models keep them so for an even or odd cat with
        the emitters down), else None.  Decided on first use and kept, since
        the amplitudes are frozen."""
        if not hasattr(self, "_parity"):
            a = self.amplitudes
            parity = None
            if not (a[..., 0::2, 1::2].any() or a[..., 1::2, 0::2].any()):
                parity = 0
            elif not (a[..., 0::2, 0::2].any() or a[..., 1::2, 1::2].any()):
                parity = 1
            object.__setattr__(self, "_parity", parity)
        return self._parity

    def __getitem__(self, index) -> CompositeState:
        """The samples ``index`` selects.  Any subset of a stack of definite
        parity has that parity, so it keeps it and what the split has formed;
        a subset of a stack of no parity may have one, so it decides afresh."""
        if self.amplitudes.ndim == 2:
            raise DimensionMismatchError("a single state is not a stack of samples to index")
        part = CompositeState(self.amplitudes[index], self.dicke, self.fock,
                              time=self.time[index], copy=False, validate=False)
        if getattr(self, "_parity", None) is not None:
            object.__setattr__(part, "_parity", self._parity)
            part._split.update((key, kept[index]) for key, kept in self._split.items())
        return part

    def photon_parity_weight(self, offset: int) -> np.ndarray:
        """|u_o|^2, the probability of photon parity o = ``offset``, per sample."""
        return self._split_part(offset, squared_norm)[1]

    def photon_parity_gram(self, offset: int) -> tuple[slice, np.ndarray]:
        """Rows of photon parity o = ``offset`` and u_o u_o^dag on them, per sample."""
        return self._split_part(offset, gram)

    def _split_part(self, offset: int, form) -> tuple[slice, np.ndarray]:
        """Rows of photon parity o = ``offset`` and ``form`` of its amplitudes
        u_o, formed once per state: u_o holds the columns n = o (mod 2) on the
        rows k = o + Pi (mod 2) for a state of definite parity (the other
        rows are zero there), else on every row."""
        rows = slice(None) if self.parity is None else slice((offset + self.parity) % 2, None, 2)
        key = (form, offset)
        if key not in self._split:
            self._split[key] = form(self.amplitudes[..., rows, offset::2])
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
    rho = np.zeros(state.amplitudes.shape[:-2] + (dim, dim), dtype=np.complex128)
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
