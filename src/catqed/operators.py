"""Model parameters and matrix-free Hamiltonian action on the joint grid.

Two models are supported on the same (Dicke m) x (Fock n) amplitude layout:

* ``rwa=True`` keeps only co-rotating exchange terms,
      H = delta*Jz + omega*n - i(gamma/2) (a J+ - a^dag J-).
* ``rwa=False`` couples the field quadrature to the collective dipole,
      H = delta*Jz + omega*n - E.P  with  E = i*gamma*omega*(a - a^dag)
      and P = mu*Jx, which adds the counter-rotating exchange terms.

Both interactions shift (m, n) by (+-1, -+1) or (+-1, +-1), so H|psi> is a
handful of shifted-slice multiply-adds; no operator matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .hilbert import CompositeState, DickeSpace, FockSpace

OBSERVABLES = ("photon_number", "jz", "jx", "jy", "energy", "excitation_number")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of a run.  Units: delta = 1 sets the time scale.

    ``mu`` scales the collective dipole in the non-RWA model only; it is kept
    as an explicit knob but defaults to 1 and is never varied in the shipped
    studies.
    """

    n_qubits: int
    gamma: float
    delta: float = 1.0
    omega: float = 1.0
    mu: float = 1.0
    rwa: bool = True

    def __post_init__(self):
        if not isinstance(self.n_qubits, (int, np.integer)) or self.n_qubits < 1:
            raise ConfigError(f"n_qubits must be a positive integer, got {self.n_qubits!r}")
        if self.gamma < 0.0:
            raise ConfigError(f"gamma must be nonnegative, got {self.gamma!r}")
        if self.delta <= 0.0 or self.omega <= 0.0:
            raise ConfigError("delta and omega must be positive")

    def dicke(self) -> DickeSpace:
        return DickeSpace(self.n_qubits)


class HamiltonianAction:
    """Precomputed H|psi> (optionally pre-scaled by a constant).

    Holds one scratch buffer, so a single instance must not be shared by
    concurrent callers.  ``scale`` folds a constant into every coefficient
    (the propagator folds in the inverse half-width of the spectrum);
    expectation values use the default scale of 1.

    ``_rotating`` is the propagator's frame for the RWA model: it leaves
    omega K, K = Jz + n, out of the diagonal, so the action is that of
    H' = H - omega K = (delta - omega) Jz + V.  Only under the RWA does K
    commute with H, so only there is this frame exact.
    """

    def __init__(self, params: ModelParams, dicke: DickeSpace, fock: FockSpace,
                 scale: complex = 1.0, *, _rotating: bool = False):
        if dicke.n_qubits != params.n_qubits:
            raise DimensionMismatchError("params.n_qubits does not match dicke space")
        self.params = params
        self.dicke = dicke
        self.fock = fock
        self.scale = scale
        m = dicke.m_values()
        n = np.arange(fock.dim, dtype=float)
        if _rotating:
            diag = np.broadcast_to((params.delta - params.omega) * m[:, None],
                                   (dicke.dim, fock.dim))
        else:
            diag = params.delta * m[:, None] + params.omega * n[None, :]
        self._diag = np.asarray(scale * diag, dtype=np.complex128)
        # block[k, n-1] multiplies psi[k, n] into the (m, n) -> (m +- 1, n -+ 1)
        # and (m +- 1, n +- 1) destinations; all four share sqrt(n) * s+(m).
        block = np.outer(dicke.raising_coefficients(), np.sqrt(n[1:]))
        if params.rwa:
            g = 0.5 * params.gamma
            self._k_absorb = np.asarray(scale * (-1j * g) * block, dtype=np.complex128)
            self._k_emit = np.asarray(scale * (+1j * g) * block, dtype=np.complex128)
            self._k_counter_up = None
            self._k_counter_dn = None
        else:
            g = 0.5 * params.gamma * params.omega * params.mu
            self._k_absorb = np.asarray(scale * (-1j * g) * block, dtype=np.complex128)
            self._k_emit = np.asarray(scale * (+1j * g) * block, dtype=np.complex128)
            self._k_counter_dn = np.asarray(scale * (-1j * g) * block, dtype=np.complex128)
            self._k_counter_up = np.asarray(scale * (+1j * g) * block, dtype=np.complex128)
        self._tmp = np.empty_like(block, dtype=np.complex128)

    def apply(self, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
        """out <- (scale * H) psi.  ``psi`` and ``out`` must be distinct."""
        t = self._tmp
        np.multiply(self._diag, psi, out=out)
        np.multiply(self._k_absorb, psi[:-1, 1:], out=t)   # a J+
        out[1:, :-1] += t
        np.multiply(self._k_emit, psi[1:, :-1], out=t)     # a^dag J-
        out[:-1, 1:] += t
        if self._k_counter_up is not None:
            np.multiply(self._k_counter_dn, psi[1:, 1:], out=t)    # a J-
            out[:-1, :-1] += t
            np.multiply(self._k_counter_up, psi[:-1, :-1], out=t)  # a^dag J+
            out[1:, 1:] += t
        return out

    def spectral_bounds(self) -> tuple[float, float]:
        """Gershgorin interval [lo, hi] holding every eigenvalue of H (of H'
        with ``_rotating``).

        Bounds the unscaled operator: each row's disc is its diagonal entry
        widened by the summed magnitudes of the couplings that land in that
        row.
        """
        s = abs(self.scale)
        radius = np.zeros(self._diag.shape)
        radius[1:, :-1] += np.abs(self._k_absorb)
        radius[:-1, 1:] += np.abs(self._k_emit)
        if self._k_counter_up is not None:
            radius[:-1, :-1] += np.abs(self._k_counter_dn)
            radius[1:, 1:] += np.abs(self._k_counter_up)
        center = (self._diag / self.scale).real
        return (float(np.min(center - radius / s)),
                float(np.max(center + radius / s)))


def apply_hamiltonian(state: CompositeState, params: ModelParams) -> np.ndarray:
    """Return H|psi> as a plain array on the state's grid (not normalized)."""
    action = HamiltonianAction(params, state.dicke, state.fock)
    out = np.empty_like(state.amplitudes)
    return action.apply(state.amplitudes, out)


def _raising_expectation(c: np.ndarray, dicke: DickeSpace) -> complex:
    """<J+> = sum_{k,n} conj(c[k+1,n]) s+(k) c[k,n]."""
    s = dicke.raising_coefficients()
    return complex(np.einsum("kn,k,kn->", c[1:].conj(), s, c[:-1]))


def expectation(state: CompositeState, observable: str,
                params: ModelParams | None = None) -> float:
    """Expectation value of a named observable in a pure joint state.

    ``energy`` and ``excitation_number`` need the model parameters;
    the others are parameter-free.
    """
    c = state.amplitudes
    w = c.real**2 + c.imag**2
    if observable == "photon_number":
        return float(w.sum(axis=0) @ np.arange(state.fock.dim))
    if observable == "jz":
        return float(state.dicke.m_values() @ w.sum(axis=1))
    if observable == "jx":
        return float(_raising_expectation(c, state.dicke).real)
    if observable == "jy":
        return float(_raising_expectation(c, state.dicke).imag)
    if observable == "energy":
        if params is None:
            raise ConfigError("energy expectation requires model parameters")
        hpsi = apply_hamiltonian(state, params)
        return float(np.vdot(c, hpsi).real)
    if observable == "excitation_number":
        if params is None:
            raise ConfigError("excitation_number expectation requires model parameters")
        jz = float(state.dicke.m_values() @ w.sum(axis=1))
        nph = float(w.sum(axis=0) @ np.arange(state.fock.dim))
        return jz + params.n_qubits / 2.0 + nph
    raise ConfigError(f"unknown observable {observable!r}; choose from {OBSERVABLES}")


def field_expectation(state: CompositeState) -> complex:
    """<a> of the photon mode; the quadrature field is i*gamma*omega*(a - a^dag)."""
    c = state.amplitudes
    sqn = np.sqrt(np.arange(1, state.fock.dim, dtype=float))
    return complex(np.einsum("mn,n,mn->", c[:, :-1].conj(), sqn, c[:, 1:]))
