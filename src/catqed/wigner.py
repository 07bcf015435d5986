"""Spin Wigner quasiprobability on the sphere for the Dicke ladder.

W(theta, phi) = Tr[rho Delta(theta, phi)] with the kernel

    Delta(theta, phi) = sum_m D_{J,m} R |J,m><J,m| R^dag,
    R(theta, phi) = e^{i phi Jz} e^{i theta Jy},
    D_{J,m} = sum_{j=0}^{2J} (2j+1)/(2J+1) <J,m; j,0|J,m>,

and normalized measure dOmega = (2J+1)/(4 pi) sin(theta) dtheta dphi.
Clebsch-Gordan coefficients come from the closed factorial sum evaluated
with log-gamma arithmetic, stable up to J = 16 in double precision.  Beyond
that its cancellations drift (largest kernel-weight error against exact
rational CG: 2.3e-12 at N = 32, 2.8e-11 at N = 40, 4.8e-9 at N = 60, and
the trace error is not monotone in N), so ``kernel_weights`` refuses
N > MAX_KERNEL_QUBITS with a NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CatqedError, NumericalError
from .fileio import atomic_write_text, format_float
from .hilbert import DickeSpace, ElectronDensityMatrix

IMAG_RESIDUE_ATOL = 1e-10
MAX_KERNEL_QUBITS = 32      # J = 16


def _half_int(value: float, name: str) -> int:
    doubled = 2.0 * value
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise CatqedError(f"{name} = {value!r} is not a half-integer")
    return int(rounded)


def _lg(n: int) -> float:
    """log(n!) for integer n >= 0."""
    return math.lgamma(n + 1.0)


@lru_cache(maxsize=200000)
def _cg_twice(tj1: int, tm1: int, tj2: int, tm2: int, tj: int, tm: int) -> float:
    if tm1 + tm2 != tm:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return 0.0
    if tj > tj1 + tj2 or tj < abs(tj1 - tj2):
        return 0.0
    # m must differ from j by an integer, and j1 + j2 + j must be integral
    if (tj1 - tm1) % 2 or (tj2 - tm2) % 2 or (tj - tm) % 2:
        return 0.0
    if (tj1 + tj2 + tj) % 2:
        return 0.0

    def h(t: int) -> int:
        # factorial argument from a doubled quantum number
        assert t % 2 == 0
        return t // 2

    log_pref = 0.5 * (
        math.log(tj + 1.0)
        + _lg(h(tj1 + tj2 - tj)) + _lg(h(tj1 - tj2 + tj)) + _lg(h(-tj1 + tj2 + tj))
        - _lg(h(tj1 + tj2 + tj) + 1)
        + _lg(h(tj1 + tm1)) + _lg(h(tj1 - tm1))
        + _lg(h(tj2 + tm2)) + _lg(h(tj2 - tm2))
        + _lg(h(tj + tm)) + _lg(h(tj - tm)))

    k_min = max(0, h(tj2 - tj - tm1), h(tj1 + tm2 - tj))
    k_max = min(h(tj1 + tj2 - tj), h(tj1 - tm1), h(tj2 + tm2))
    if k_min > k_max:
        return 0.0
    logs = np.empty(k_max - k_min + 1)
    signs = np.empty(k_max - k_min + 1)
    for i, k in enumerate(range(k_min, k_max + 1)):
        logs[i] = -(_lg(k)
                    + _lg(h(tj1 + tj2 - tj) - k)
                    + _lg(h(tj1 - tm1) - k)
                    + _lg(h(tj2 + tm2) - k)
                    + _lg(h(tj - tj2 + tm1) + k)
                    + _lg(h(tj - tj1 - tm2) + k))
        signs[i] = -1.0 if k % 2 else 1.0
    shift = logs.max()
    total = float(np.sum(signs * np.exp(logs - shift)))
    return math.exp(log_pref + shift) * total


def clebsch_gordan(j1: float, m1: float, j2: float, m2: float,
                   j: float, m: float) -> float:
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention.

    Selection-rule violations return 0; non-half-integer inputs raise.
    """
    args = [_half_int(v, n) for v, n in
            ((j1, "j1"), (m1, "m1"), (j2, "j2"), (m2, "m2"), (j, "j"), (m, "m"))]
    if args[0] < 0 or args[2] < 0 or args[4] < 0:
        raise CatqedError("angular momenta must be nonnegative")
    return _cg_twice(*args)


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
    """Diagonal kernel weights D_{J,m}; their sum is Tr Delta = 1."""
    if n_qubits > MAX_KERNEL_QUBITS:
        raise NumericalError(
            f"Wigner kernel for {n_qubits} qubits exceeds the "
            f"{MAX_KERNEL_QUBITS}-qubit (J = 16) range of the Clebsch-Gordan sum")
    space = DickeSpace(n_qubits)
    j = space.j
    weights = np.zeros(space.dim)
    for k, m in enumerate(space.m_values()):
        acc = 0.0
        for twice_jp in range(0, 2 * n_qubits + 1, 2):
            jp = twice_jp / 2.0
            acc += (2.0 * jp + 1.0) / (n_qubits + 1.0) * \
                clebsch_gordan(j, m, jp, 0.0, j, m)
        weights[k] = acc
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
