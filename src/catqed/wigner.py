"""Spin Wigner quasiprobability on the sphere for the Dicke ladder.

W(theta, phi) = Tr[rho Delta(theta, phi)] with the kernel

    Delta(theta, phi) = sum_m D_{J,m} R |J,m><J,m| R^dag,
    R(theta, phi) = e^{i phi Jz} e^{i theta Jy},
    D_{J,m} = sum_{j=0}^{2J} (2j+1)/(2J+1) <J,m; j,0|J,m>,

and normalized measure dOmega = (2J+1)/(4 pi) sin(theta) dtheta dphi.
As a function of m, <J,m; K,0|J,m> = sqrt((2J+1)/(2K+1)) p_K(m), with p_K
the K-th Gram (discrete Chebyshev) polynomial, orthonormal on m = -J..J.
``kernel_weights`` reads every p_K(m) off the eigenvectors of their Jacobi
matrix, each signed so that p_0 > 0 (Golub and Welsch, Math. Comp. 23, 221
(1969)).  p_K(J) is no sign reference: for K near 2J it is rounding noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError
from .fileio import atomic_write_text, format_float
from .hilbert import DickeSpace, ElectronDensityMatrix

IMAG_RESIDUE_ATOL = 1e-10


@lru_cache(maxsize=64)
def _jy_eigensystem(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Jy via its real tridiagonal gauge transform,
    by a dense eigh of the (N+1) x (N+1) matrix."""
    space = DickeSpace(n_qubits)
    off = -0.5 * space.raising_coefficients()
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=64)
def _jy_gauge(n_qubits: int) -> np.ndarray:
    cycle = np.array([1.0, 1j, -1.0, -1j])
    return cycle[np.arange(n_qubits + 1) % 4]


def rotation_matrix(n_qubits: int, theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) = e^{i phi Jz} e^{i theta Jy} on the Dicke ladder."""
    d = _small_d(n_qubits, theta)
    m = DickeSpace(n_qubits).m_values()
    return np.exp(1j * phi * m)[:, None] * d


def _small_d(n_qubits: int, theta: float) -> np.ndarray:
    evals, evecs = _jy_eigensystem(n_qubits)
    gauge = _jy_gauge(n_qubits)
    core = (evecs * np.exp(1j * theta * evals)) @ evecs.T
    return gauge[:, None] * core * gauge.conj()[None, :]


@lru_cache(maxsize=64)
def kernel_weights(n_qubits: int) -> np.ndarray:
    """Diagonal kernel weights D_{J,m} in ascending m; their sum is Tr Delta = 1.
    Row K, column i of the sign-fixed eigenvectors holds p_K(m_i)."""
    dim = DickeSpace(n_qubits).dim
    k = np.arange(1, dim)
    off = k * np.sqrt((dim ** 2 - k ** 2) / (4.0 * (4.0 * k ** 2 - 1.0)))
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    polys = vecs * np.sign(vecs[0])
    weights = np.sqrt((2.0 * np.arange(dim) + 1.0) / dim) @ polys
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a regular (theta, phi) grid, theta in [0, pi] inclusive,
    phi in [0, 2 pi) exclusive."""

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    n_qubits: int

    def integrate(self) -> float:
        """Integral with measure (2J+1)/(4 pi) sin(theta): trapezoid in
        theta, periodic rectangle rule in phi."""
        j = self.n_qubits / 2.0
        dphi = 2.0 * math.pi / self.phi.size
        weighted = self.values * np.sin(self.theta)[:, None]
        per_theta = weighted.sum(axis=1) * dphi
        return float(np.trapezoid(per_theta, self.theta) * (2 * j + 1) / (4 * math.pi))

    def to_file(self, path: str) -> None:
        j = self.n_qubits / 2.0
        header = f"# J={j:g} n_theta={self.theta.size} n_phi={self.phi.size}"
        # Each angle is formatted once, not once per line, and each theta row
        # is joined into one block, which keeps the peak memory near the
        # size of the text.
        phis = [f" {format_float(ph)} " for ph in self.phi]
        rows = ("\n".join([th + ph + format_float(w) for ph, w in zip(phis, row.tolist())])
                for th, row in zip(map(format_float, self.theta), self.values))
        atomic_write_text(path, "\n".join([header, *rows, ""]))


def wigner_function(rho: ElectronDensityMatrix, n_theta: int = 181,
                    n_phi: int = 360) -> WignerGrid:
    """Evaluate W on the grid; embarrassingly parallel over theta rows.

    Per theta the phi dependence enters only through e^{i phi (m - m')},
    so each row costs one small dense contraction plus a phase sum.
    """
    if n_theta < 2 or n_phi < 1:
        raise ConfigError(f"the Wigner grid needs n_theta >= 2 (both poles) and "
                          f"n_phi >= 1, got {n_theta} x {n_phi}")
    n_qubits = rho.dicke.n_qubits
    dim = rho.dicke.dim
    weights = kernel_weights(n_qubits)
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    offsets = np.arange(-(dim - 1), dim)
    phase = np.exp(1j * np.outer(phis, offsets))   # (n_phi, n_off)
    values = np.empty((n_theta, n_phi))
    worst_imag = 0.0
    mat = rho.matrix
    for it, theta in enumerate(thetas):
        a = _small_d(n_qubits, theta).conj().T
        g = (a * weights[:, None]).T @ a.conj()
        p = g * mat
        t = np.array([np.trace(p, offset=off) for off in offsets])
        row = phase @ t
        worst_imag = max(worst_imag, float(np.max(np.abs(row.imag))))
        values[it] = row.real
    if worst_imag > IMAG_RESIDUE_ATOL:
        raise NumericalError(
            f"Wigner imaginary residue {worst_imag:.3e} exceeds {IMAG_RESIDUE_ATOL}")
    return WignerGrid(theta=thetas, phi=phis, values=values, n_qubits=n_qubits)
