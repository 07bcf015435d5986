"""Quantum Fisher information over collective-rotation generators.

The phase generator is restricted to n . J with |n| = 1, so the optimization
reduces to the top eigenvalue of the 3x3 Fisher matrix

    F[a, b] = sum_{i != j} 2 (l_i - l_j)^2 / (l_i + l_j) <i|Ja|j><j|Jb|i>

built in the eigenbasis {l_i, |i>} of the density matrix.  Pairs with
l_i + l_j below a floor are skipped; for pure states the formula reduces to
4 x the covariance matrix of (Jx, Jy, Jz).  ``qfi_mixed`` takes a stack of
density matrices as well and returns one value per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, StateValidationError
from .hilbert import DickeSpace, ElectronDensityMatrix, per_sample

PAIR_WEIGHT_FLOOR = 1e-12
QFI_BOUND_SLACK = 1e-6


@lru_cache(maxsize=32)
def spin_matrices(n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (Jx, Jy, Jz) on the Dicke ladder, index k -> m = -J + k."""
    space = DickeSpace(n_qubits)
    dim = space.dim
    jp = np.zeros((dim, dim), dtype=np.complex128)
    coeffs = space.raising_coefficients()
    jp[np.arange(1, dim), np.arange(dim - 1)] = coeffs
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag(space.m_values()).astype(np.complex128)
    for mat in (jx, jy, jz):
        mat.flags.writeable = False
    return jx, jy, jz


@dataclass(frozen=True)
class QfiResult:
    """Optimized QFI value, its generator direction, and the full 3x3 matrix
    (per sample for a stack: values (samples,), directions (samples, 3))."""

    value: float | np.ndarray
    direction: np.ndarray
    matrix: np.ndarray


def _top_direction(fisher: np.ndarray, n_qubits: int) -> QfiResult:
    fisher = 0.5 * (fisher + fisher.swapaxes(-1, -2))
    evals, evecs = np.linalg.eigh(fisher)
    value = evals[..., -1]
    bound = n_qubits * n_qubits + QFI_BOUND_SLACK
    outside = (value < -QFI_BOUND_SLACK) | (value > bound)
    if np.any(outside):
        raise StateValidationError(
            f"QFI {value[outside][0]:.6g} outside [0, N^2] within slack (N = {n_qubits})")
    return QfiResult(value=per_sample(np.maximum(value, 0.0)),
                     direction=evecs[..., -1].copy(), matrix=fisher)


def qfi_mixed(rho: ElectronDensityMatrix) -> QfiResult:
    """QFI of a (possibly mixed) electronic state over n . J generators.

    Eigenvalues below zero (numerical dust) are clipped and the spectrum is
    renormalized before the pair sum.  A stack takes one batched ``eigh``,
    one (3, dim^2) contraction for its Fisher matrices and one batched
    3x3 ``eigh``.
    """
    n_qubits = rho.dicke.n_qubits
    evals, evecs = np.linalg.eigh(rho.matrix)
    evals = np.clip(evals, 0.0, None)
    total = evals.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise StateValidationError("density matrix has no positive weight")
    evals = evals / total

    lsum = evals[..., :, None] + evals[..., None, :]
    ldiff = evals[..., :, None] - evals[..., None, :]
    weights = np.divide(2.0 * ldiff**2, lsum, out=np.zeros_like(lsum),
                        where=lsum > PAIR_WEIGHT_FLOOR)

    # <i|Ja|j> for a = x, y, z, flattened over the pairs (i, j)
    spins = np.stack(spin_matrices(n_qubits))
    basis = (evecs.conj().swapaxes(-1, -2)[..., None, :, :] @ spins
             @ evecs[..., None, :, :]).reshape(*evecs.shape[:-2], 3, -1)
    weighted = basis * weights.reshape(*weights.shape[:-2], 1, -1)
    fisher = (weighted @ basis.conj().swapaxes(-1, -2)).real
    return _top_direction(fisher, n_qubits)


def qfi_pure(psi: np.ndarray, n_qubits: int) -> QfiResult:
    """QFI of a pure electronic state: 4x the (Jx, Jy, Jz) covariance.

    J+ and J- act through the Dicke raising coefficients, so the cost is
    O(N) and no (N + 1)^2 matrix is built.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    space = DickeSpace(n_qubits)
    if psi.shape != (space.dim,):
        raise DimensionMismatchError(
            f"state shape {psi.shape}, expected ({space.dim},)")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise StateValidationError(f"pure state norm {nrm!r} is not 1")
    coeffs = space.raising_coefficients()
    up = np.zeros_like(psi)
    down = np.zeros_like(psi)
    up[1:] = coeffs * psi[:-1]                 # J+ psi
    down[:-1] = coeffs * psi[1:]               # J- psi
    jpsi = np.stack([0.5 * (up + down), -0.5j * (up - down), space.m_values() * psi])
    means = (jpsi @ psi.conj()).real
    fisher = 4.0 * ((jpsi.conj() @ jpsi.T).real - np.outer(means, means))
    return _top_direction(fisher, n_qubits)


def entanglement_depth_bound(qfi_value: float, n_qubits: int) -> int:
    """Minimal entanglement depth certified by a QFI value.

    Producibility bound: k-producible states satisfy F <= k N, so
    F/N > k - 1 certifies depth >= k.  Integer ratios sit exactly on a
    boundary and certify only their own value.
    """
    if qfi_value < 0 or n_qubits < 1:
        raise StateValidationError("need qfi_value >= 0 and n_qubits >= 1")
    ratio = qfi_value / n_qubits
    # tolerate float dust just below integer boundaries
    depth = int(np.floor(ratio + 1.0 - 1e-9))
    return max(1, min(depth, n_qubits))
