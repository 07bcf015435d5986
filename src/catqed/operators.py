"""Model parameters and matrix-free Hamiltonian action on the joint grid.

Two models are supported on the same (Dicke m) x (Fock n) amplitude layout:

* ``rwa=False`` couples the field quadrature to the collective dipole,
      H = delta*Jz + omega*n - E.Jx  with  E = i*gamma*omega*(a - a^dag),
  that is
      H = delta*Jz + omega*n - i(g/2) (a J+ - a^dag J-) - i(g/2) (a J- - a^dag J+)
  with the exchange rate g = gamma*omega (``ModelParams.coupling``).
* ``rwa=True`` keeps only its co-rotating part,
      H = delta*Jz + omega*n - i(g/2) (a J+ - a^dag J-).

Both interactions shift (m, n) by (+-1, -+1) or (+-1, +-1), so H|psi> is a
handful of shifted-slice multiply-adds; no operator matrix is ever built.
All four shifts share one coefficient array: the two absorbing terms add
it, the two emitting terms subtract it.  Laid out flat, the grid's
co-rotating pairs (k, n) -- (k + 1, n - 1) sit n_max cells apart and its
counter-rotating pairs (k, n) -- (k + 1, n + 1) n_max + 2 apart; the
coefficients are zero-padded to the flat length, so that pairs wrapping
round a grid row exchange nothing.

Under the RWA the excitation number K = Jz + n commutes with H (Tavis and
Cummings, Phys. Rev. 170, 379 (1968)), and an action built on a list of
sectors K_s = k + n holds, on their band alone, the generator in the frame
rotating with omega K,
    H' = H - omega K = (delta - omega) Jz + V,   V the co-rotating coupling:
row s of the band holds the cells (k, K_s - k), k = 0 .. N, of sector K_s,
with the diagonal (delta - omega) m and the grid's coupling, and H' is
tridiagonal along that row.  On resonance H' = V has no diagonal at all.
Laid out flat, each co-rotating pair is two neighbouring cells, so the same
flat shifted-slice code serves the grid and the band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, check_count, check_finite
from .hilbert import CompositeState, DickeSpace, FockSpace, per_sample

OBSERVABLES = ("photon_number", "jz", "jx", "jy", "energy", "excitation_number")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of a run.  Units: delta = 1 sets the time scale."""

    n_qubits: int
    gamma: float
    delta: float = 1.0
    omega: float = 1.0
    rwa: bool = True

    def __post_init__(self):
        check_count(self.n_qubits, "n_qubits")
        for name in ("gamma", "delta", "omega"):
            check_finite(getattr(self, name), name)
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma!r}")
        if self.delta <= 0.0 or self.omega <= 0.0:
            raise ConfigError("delta and omega must be positive")

    @property
    def coupling(self) -> float:
        """Exchange rate g = gamma omega: both models couple with g/2, and a
        classical field alpha drives each qubit at Rabi frequency g |alpha|
        on resonance."""
        return self.gamma * self.omega

    def dicke(self) -> DickeSpace:
        return DickeSpace(self.n_qubits)


class HamiltonianAction:
    """Precomputed H|psi> on the (m, n) grid, or H'|psi> = (H - omega K)|psi>
    on a band of excitation sectors.

    ``diag`` holds the diagonal, delta m + omega n on the grid and
    (delta - omega) m on the band, and ``coupling`` the coefficient
    -i (g/2) sqrt(n) s+(m) shared by the four exchange terms, one per flat
    cell that starts a co-rotating pair (zero where the pair wraps round).
    On resonance (delta == omega) the band holds ``diag = None`` from the
    start, and ``apply`` skips the diagonal.  The propagator only centres
    and scales these arrays in place; ``apply`` and ``spectral_bounds``
    read what they hold then.  Holds one scratch buffer, so a single
    instance must not be shared by concurrent callers.

    With ``sectors`` None it lives on the (m, n) grid of shape ``shape``.
    Under the RWA increasing ``sectors`` K = k + n build H' on their
    (sector, k) band alone, by per-cell formulas; ``cells`` (None on the
    grid) holds each band cell's flat grid index, -1 for padding where a
    sector lacks that k.  Padding takes no coupling, so it exchanges
    nothing with the real cells, and the diagonal of its sector's nearest
    real cell, so the Gershgorin interval stays theirs.
    """

    def __init__(self, params: ModelParams, dicke: DickeSpace, fock: FockSpace,
                 sectors=None):
        if dicke.n_qubits != params.n_qubits:
            raise DimensionMismatchError("params.n_qubits does not match dicke space")
        self.params, self.sectors, self.cells = params, None, None
        m, n_max, g = dicke.m_values(), fock.n_max, 0.5 * params.coupling
        if sectors is None:
            # flat distance of a co-rotating pair: n_max on the grid, 1 on the band
            self.shape, self._offset = (dicke.dim, fock.dim), n_max
            n = np.arange(fock.dim, dtype=float)
            self.diag = (params.delta * m[:, None]
                         + params.omega * n[None, :]).astype(np.complex128)
            # coupling[k (n_max + 1) + n] multiplies psi[k, n] and psi[k + 1, n - 1]
            # into each other's cells, and coupling[k (n_max + 1) + n + 1] psi[k, n]
            # and psi[k + 1, n + 1]: all four share sqrt(n) * s+(m).
            coupling = np.zeros((dicke.dim - 1, fock.dim), dtype=np.complex128)
            coupling[:, 1:] = (-1j * g) * np.outer(dicke.raising_coefficients(), np.sqrt(n[1:]))
            self.coupling = np.concatenate((coupling.reshape(-1), [0.0]))
        else:
            if not params.rwa:
                raise ConfigError("only the RWA model conserves the excitation number")
            self.sectors = sectors = np.asarray(sectors)
            self.shape, self._offset = (sectors.size, dicke.dim), 1
            k = np.arange(dicke.dim)
            n = sectors[:, None] - k
            inside = (n >= 0) & (n <= n_max)
            self.cells = np.where(inside, k * (n_max + 1) + n, -1)
            # the pair (k, n) -- (k + 1, n - 1) sits at band cell k
            pair = inside & (n >= 1) & (k < dicke.dim - 1)
            np.clip(n, 0, n_max, out=n)               # n of the sector's nearest real cell
            s = np.append(dicke.raising_coefficients(), 0.0)
            self.coupling = np.where(pair, (-1j * g) * (s * np.sqrt(n)), 0).reshape(-1)[:-1]
            # H' = H - omega K: (delta - omega) m, none at all on resonance
            self.diag = None if params.delta == params.omega else (
                ((params.delta - params.omega) * m)[sectors[:, None] - n].astype(np.complex128))
            del n, inside, pair           # so the band's peak is its kept arrays
        self._tmp = np.empty_like(self.coupling)

    @staticmethod
    def _pairs(a: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat views of ``a`` on the first and second cells of every pair
        ``offset`` cells apart."""
        flat = a.reshape(-1)
        return flat[:flat.size - offset], flat[offset:]

    def apply(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out <- H psi.  ``psi`` and ``out`` must be distinct.  ``out`` must
        be C-contiguous (ValueError otherwise): its flat form would be a copy
        that the exchange terms are lost to."""
        if not out.flags.c_contiguous:
            raise ValueError("out of the H-apply must be C-contiguous")
        k, t = self.coupling, self._tmp
        lower, upper = self._pairs(psi, self._offset)
        out_lower, out_upper = self._pairs(out, self._offset)
        if self.diag is None:
            # band only: the a J+ term writes every flat cell but the first
            np.multiply(k, lower, out=out_upper)
            out.reshape(-1)[0] = 0.0
        else:
            np.multiply(self.diag, psi, out=out)
            np.multiply(k, lower, out=t)           # a J+
            out_upper += t
        np.multiply(k, upper, out=t)               # a^dag J-
        out_lower -= t
        if not self.params.rwa:
            # grid only: the counter-rotating pair starting at a cell takes
            # the coefficient of the co-rotating pair one cell later
            k, t = k[1:-1], t[1:-1]
            lower, upper = self._pairs(psi, self._offset + 2)
            out_lower, out_upper = self._pairs(out, self._offset + 2)
            np.multiply(k, upper, out=t)           # a J-
            out_lower += t
            np.multiply(k, lower, out=t)           # a^dag J+
            out_upper -= t
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] holding every eigenvalue of the
        operator the action now holds: each row's disc is its diagonal
        entry widened by the summed magnitudes of the couplings that land
        in that row."""
        k = np.abs(self.coupling)
        radius = np.zeros(self.shape)
        lower, upper = self._pairs(radius, self._offset)
        upper += k
        lower += k
        if not self.params.rwa:
            lower, upper = self._pairs(radius, self._offset + 2)
            lower += k[1:-1]
            upper += k[1:-1]
        center = 0.0 if self.diag is None else self.diag.real
        return float(np.min(center - radius)), float(np.max(center + radius))


def apply_hamiltonian(state: CompositeState, params: ModelParams) -> np.ndarray:
    """Return H|psi> as a plain array on the state's grid (not normalized),
    sample by sample for a stack."""
    action = HamiltonianAction(params, state.dicke, state.fock)
    out = np.empty_like(state.amplitudes)
    grid = state.amplitudes.shape[-2:]
    for psi, hpsi in zip(state.amplitudes.reshape(-1, *grid), out.reshape(-1, *grid)):
        action.apply(psi, hpsi)
    return out


def _raising_expectation(c: np.ndarray, dicke: DickeSpace) -> np.ndarray:
    """<J+> = sum_{k,n} conj(c[k+1,n]) s+(k) c[k,n], per sample."""
    s = dicke.raising_coefficients()
    return np.einsum("...kn,k,...kn->...", c[..., 1:, :].conj(), s, c[..., :-1, :])


def expectation(state: CompositeState, observable: str,
                params: ModelParams | None = None) -> float | np.ndarray:
    """Expectation value of a named observable in a pure joint state (one
    value per sample for a stack).

    ``energy`` and ``excitation_number`` need the model parameters;
    the others are parameter-free.
    """
    if observable not in OBSERVABLES:
        raise ConfigError(f"unknown observable {observable!r}; choose from {OBSERVABLES}")
    if observable in ("energy", "excitation_number") and params is None:
        raise ConfigError(f"{observable} expectation requires model parameters")
    if observable in ("jx", "jy", "energy"):
        c = state.amplitudes
        if observable == "energy":
            hpsi = apply_hamiltonian(state, params)
            return per_sample(np.einsum("...kn,...kn->...", c.conj(), hpsi).real)
        raising = _raising_expectation(c, state.dicke)
        return per_sample(raising.real if observable == "jx" else raising.imag)
    # the photon-number and jz moments are pairwise sums over the column
    # weights (at 900 photons a BLAS dot is several ulps further off)
    nph = np.sum(state.photon_distribution() * np.arange(state.fock.dim), axis=-1)
    if observable == "photon_number":
        return per_sample(nph)
    jz = state.column_weights(state.dicke.m_values()).sum(axis=-1)
    if observable == "jz":
        return per_sample(jz)
    return per_sample(jz + params.n_qubits / 2.0 + nph)


def field_expectation(state: CompositeState) -> complex | np.ndarray:
    """<a> of the photon mode (one complex value per sample for a stack);
    the quadrature field is i*gamma*omega*(a - a^dag)."""
    c = state.amplitudes
    sqn = np.sqrt(np.arange(1, state.fock.dim, dtype=float))
    value = np.einsum("...mn,n,...mn->...", c[..., :-1].conj(), sqn, c[..., 1:])
    return complex(value) if value.ndim == 0 else value
