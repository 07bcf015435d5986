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

import math
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


@lru_cache(maxsize=32)
def _ladder(n_qubits: int) -> tuple[np.ndarray, ...]:
    """Read-only constants of the O(N) moments in ``qfi_pure``, index k ->
    m = -J + k: the raising coefficients c_k (J+ |m_k> = c_k |m_{k+1}>),
    c_k^2, c_{k+1} c_k, m_{k+1} c_k, m and m^2."""
    space = DickeSpace(n_qubits)
    c, m = space.raising_coefficients(), space.m_values()
    constants = (c, c * c, c[1:] * c[:-1], m[1:] * c, m, m * m)
    for array in constants:
        array.flags.writeable = False
    return constants


def _top_direction(fisher: np.ndarray, n_qubits: int) -> QfiResult:
    fisher = 0.5 * (fisher + fisher.swapaxes(-1, -2))
    evals, evecs = np.linalg.eigh(fisher)
    bound = n_qubits * n_qubits + QFI_BOUND_SLACK
    value = evals[..., -1]
    outside = (value < -QFI_BOUND_SLACK) | (value > bound)
    if np.any(outside):
        raise StateValidationError(f"QFI {value[outside][0]:.6g} outside [0, N^2] "
                                   f"within slack (N = {n_qubits})")
    return QfiResult(value=per_sample(np.maximum(value, 0.0)),
                     direction=evecs[..., -1].copy(), matrix=fisher)


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a stack of density matrices.

    Where every entry between opposite parities of the Dicke index is
    exactly zero (the trace-out and the parity readouts of a cat-driven
    state), the matrix is two blocks, rows k = 0 and k = 1 (mod 2): one
    ``eigh`` per block, assembled into eigenvectors of the whole matrix,
    the even block's first.  The eigenvalues are then not sorted, which the
    pair sum does not need.
    """
    if matrix[..., 0::2, 1::2].any() or matrix[..., 1::2, 0::2].any():
        return np.linalg.eigh(matrix)
    even, even_vecs = np.linalg.eigh(matrix[..., 0::2, 0::2])
    odd, odd_vecs = np.linalg.eigh(matrix[..., 1::2, 1::2])
    split = even.shape[-1]
    evecs = np.zeros(matrix.shape, dtype=np.complex128)
    evecs[..., 0::2, :split] = even_vecs
    evecs[..., 1::2, split:] = odd_vecs
    return np.concatenate([even, odd], axis=-1), evecs


def qfi_mixed(rho: ElectronDensityMatrix) -> QfiResult:
    """QFI of a (possibly mixed) electronic state over n . J generators.

    Eigenvalues below zero (numerical dust) are clipped and the spectrum is
    renormalized before the pair sum.  A stack takes one batched ``eigh``
    (two of about half the size when rho splits by the parity of the Dicke
    index, see ``_eigh``), one (3, dim^2) contraction for its Fisher
    matrices and one batched 3x3 ``eigh``.
    """
    n_qubits = rho.dicke.n_qubits
    evals, evecs = _eigh(rho.matrix)
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

    The covariance follows from seven O(N) moments, with Jx = (J+ + J-)/2
    and Jy = (J+ - J-)/2i: A = <J+>, B = <J+^2>, C = <Jz J+>, P = <J- J+>,
    Q = <J+ J->, <Jz> and <Jz^2>.  Then <Jx> + i <Jy> = A,
    <Jx^2>, <Jy^2> = (P + Q +- 2 Re B)/4, Re <Jx Jy> = Im B / 2, and by
    J+ Jz = Jz J+ - J+, Re <Jx Jz> + i Re <Jy Jz> = C - A/2.  No
    (N + 1)^2 matrix is built.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    c, c2, cc, mc, m, m2 = _ladder(n_qubits)
    if psi.shape != m.shape:
        raise DimensionMismatchError(
            f"state shape {psi.shape}, expected ({m.size},)")
    p = psi.real**2 + psi.imag**2
    nrm = math.sqrt(p.sum())
    if abs(nrm - 1.0) > 1e-10:
        raise StateValidationError(f"pure state norm {nrm!r} is not 1")
    step = psi[1:].conj() * psi[:-1]           # conj(psi_{k+1}) psi_k
    a, cz = complex(step @ c), complex(step @ mc)
    b = complex((psi[2:].conj() * psi[:-2]) @ cc)
    pq = float(c2 @ p[:-1] + c2 @ p[1:])
    z, zz = float(m @ p), float(m2 @ p)
    x, y = a.real, a.imag
    xz, yz = cz.real - 0.5 * x, cz.imag - 0.5 * y
    fisher = 4.0 * np.array([
        [0.25 * (pq + 2.0 * b.real) - x * x, 0.5 * b.imag - x * y, xz - x * z],
        [0.5 * b.imag - x * y, 0.25 * (pq - 2.0 * b.real) - y * y, yz - y * z],
        [xz - x * z, yz - y * z, zz - z * z]])
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
