"""Classical-field limit: spins driven by the field's coherent trajectory.

Replacing the mode operator by its free coherent evolution alpha e^{-i omega t}
turns the coupled problem into N independent driven qubits. In the rotating
wave model the co-rotating frame makes that drive static, so the dynamics has
the closed Rabi form

    a(t) = cos(W t / 2) + i ((delta - omega) / W) sin(W t / 2)
    b(t) = i (mu E_alpha / W) sin(W t / 2),      E_alpha = i gamma omega alpha,
    W = sqrt((delta - omega)^2 + |mu E_alpha|^2)

with |a|^2 + |b|^2 = 1, and the lab-frame collective state

    |psi_alpha(t)> = sum_m sqrt(C(2J, J+m)) a^{J-m} b^{J+m} e^{-i m omega t} |J,m>.

Superpositions of field amplitudes map to superpositions of these spin
trajectories; overlaps between the branches decide the normalization.
Without the rotating wave approximation the drive is a real oscillating
field. The N qubits still evolve independently, so one qubit is integrated
numerically (adaptive eighth-order Runge-Kutta) and raised to the same
symmetric N-fold product; this exposes the 2 omega micromotion absent from
the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import GridConvergenceError, NumericalError, StateValidationError
from .hilbert import CompositeState, DickeSpace, FockSpace
from .operators import ModelParams
from .stateprep import PhotonicSpec, coherent_matrix, required_n_max

DEFAULT_GRID_NODES = 41
GRID_CONVERGENCE_ATOL = 1e-6
DEGENERATE_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class RabiDrive:
    """Closed-form single-qubit response to the classical drive."""

    params: ModelParams
    alpha: complex

    @property
    def field_amplitude(self) -> complex:
        p = self.params
        return 1j * p.gamma * p.omega * self.alpha

    @property
    def detuning(self) -> float:
        return self.params.delta - self.params.omega

    @property
    def rabi_frequency(self) -> float:
        g = self.params.mu * abs(self.field_amplitude)
        return math.hypot(self.detuning, g)

    def amplitudes(self, t: float) -> tuple[complex, complex]:
        """(a, b): rotating-frame amplitudes to stay down / flip up."""
        w = self.rabi_frequency
        if w == 0.0:
            return 1.0 + 0.0j, 0.0j
        c = math.cos(0.5 * w * t)
        s = math.sin(0.5 * w * t)
        a = c + 1j * (self.detuning / w) * s
        b = 1j * (self.params.mu * self.field_amplitude / w) * s
        return a, b

    def period(self) -> float:
        w = self.rabi_frequency
        if w == 0.0:
            raise StateValidationError("undriven qubit has no Rabi period")
        return 2.0 * math.pi / w


def _product_state(n_qubits: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dicke amplitudes sqrt(C(N, k)) a^{N-k} b^k of N copies of
    a|down> + b|up>, k counting flipped qubits; one row per (a, b) pair."""
    k = np.arange(n_qubits + 1)
    comb = np.sqrt([math.comb(n_qubits, i) for i in k])
    return comb * np.power(a[:, None], n_qubits - k) * np.power(b[:, None], k)


def rabi_solution(params: ModelParams, alpha: complex, t: float) -> np.ndarray:
    """Lab-frame collective spin state for one classical field amplitude.

    Exact for the rotating wave drive; for alpha = 0 it reduces to the
    all-down state times its free phase e^{i J omega t}.
    """
    return _rabi_solution_batch(params, np.array([alpha], dtype=complex), t)[0]


def _rabi_solution_batch(params: ModelParams, alphas: np.ndarray,
                         t: float) -> np.ndarray:
    """rabi_solution for many amplitudes at once, rows indexed by alpha."""
    g = params.mu * params.gamma * params.omega
    delta = params.delta - params.omega
    w = np.sqrt(delta ** 2 + (g * np.abs(alphas)) ** 2)
    c = np.cos(0.5 * w * t)
    s = np.sin(0.5 * w * t)
    safe = np.where(w == 0.0, 1.0, w)
    a = c + 1j * delta * s / safe
    b = 1j * params.mu * (1j * params.gamma * params.omega * alphas) * s / safe
    m = params.dicke().m_values()
    return _product_state(params.n_qubits, a, b) * np.exp(-1j * params.omega * t * m)


def _superposed(params: ModelParams, branches, weights, t: float) -> np.ndarray:
    vecs = [w * rabi_solution(params, al, t) for al, w in zip(branches, weights)]
    total = np.sum(vecs, axis=0)
    nrm2 = float(np.real(np.vdot(total, total)))
    if nrm2 < DEGENERATE_NORM_ATOL:
        raise StateValidationError(
            "branch superposition cancels; state undefined at this time")
    return total / math.sqrt(nrm2)


def rabi_cat_state(params: ModelParams, alpha: complex, t: float,
                   parity: str = "even") -> np.ndarray:
    """Spin state driven by a balanced two-branch field superposition.

    The even field superposition takes the + sign between the alpha and
    -alpha spin trajectories, the odd one the - sign.
    """
    if parity == "even":
        signs = (1.0, 1.0)
    elif parity == "odd":
        signs = (1.0, -1.0)
    else:
        raise StateValidationError(f"unknown parity {parity!r}")
    return _superposed(params, (alpha, -alpha), signs, t)


def rabi_kitten_state(params: ModelParams, alpha: complex, t: float) -> np.ndarray:
    """Spin state for the coherent-plus-vacuum field superposition.

    The vacuum branch leaves the spins in the freely precessing all-down
    state, so the result interpolates between no drive and a full Rabi
    rotation.
    """
    return _superposed(params, (alpha, 0.0), (1.0, 1.0), t)


def jz_expectation(params: ModelParams, psi: np.ndarray) -> float:
    m = params.dicke().m_values()
    return float(np.real(np.sum(m * np.abs(psi) ** 2)))


def classically_driven_trajectory(params: ModelParams, alpha: complex,
                                  times) -> np.ndarray:
    """Lab-frame collective spin state under the classical drive, one row
    per sample time.

    Rotating wave drive: the closed form ``rabi_solution``. Full drive: one
    qubit integrated with DOP853 in the lab frame, then raised to the
    symmetric N-fold product.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times[0] < 0.0 or np.any(np.diff(times) < 0.0)):
        raise StateValidationError("sample times must be nonnegative and nondecreasing")
    if params.rwa:
        return np.array([rabi_solution(params, alpha, t) for t in times],
                        dtype=complex).reshape(times.size, params.n_qubits + 1)
    from scipy.integrate import solve_ivp  # costly import, needed only here

    g = params.gamma * params.omega * params.mu
    half_delta = 0.5 * params.delta

    def rhs(t, y):
        # i d/dt (a, b) = h (a, b), h = delta sz / 2 - field sx / 2
        half_field = -g * np.imag(alpha * np.exp(-1j * params.omega * t))
        return -1j * np.array([-half_delta * y[0] - half_field * y[1],
                               half_delta * y[1] - half_field * y[0]])

    grid, rows = np.unique(times, return_inverse=True)
    amps = np.zeros((grid.size, 2), dtype=complex)
    amps[:, 0] = 1.0
    if grid.size and grid[-1] > 0.0:
        sol = solve_ivp(rhs, (0.0, grid[-1]), amps[0], method="DOP853",
                        t_eval=grid, rtol=1e-13, atol=1e-14)
        if not sol.success:
            raise NumericalError(f"classical drive integration failed: {sol.message}")
        amps = sol.y.T
    return _product_state(params.n_qubits, amps[rows, 0], amps[rows, 1])


def classically_driven_state(params: ModelParams, alpha: complex,
                             t: float) -> np.ndarray:
    """Lab-frame collective spin state at t under the classical drive."""
    return classically_driven_trajectory(params, alpha, [t])[0]


def depletion_ratio(n_qubits: int, alpha: complex) -> float:
    """Fraction of the field's quanta the spins could absorb outright.

    The classical-drive picture assumes the mode is an undepletable
    reservoir; it degrades once N/2 flips can dent |alpha|^2 photons.
    """
    mean_photons = abs(alpha) ** 2
    if mean_photons == 0.0:
        return math.inf
    return 0.5 * n_qubits / mean_photons


def expansion_weights(spec: PhotonicSpec, nodes: int = DEFAULT_GRID_NODES):
    """Gauss-Hermite discretization of the coherent-state expansion
    f(alpha) = <alpha|psi>/pi, one displaced grid per branch.

    Returns (alphas, weights) flattened over all branches, such that
    sum_k weights[k] |alphas[k]> reproduces the photonic state.
    """
    u, wu = hermgauss(nodes)
    centers = spec.branch_amplitudes()
    branch_weights = spec.branch_weights()
    norm2 = 0.0
    for ci, wi in zip(centers, branch_weights):
        for cj, wj in zip(centers, branch_weights):
            norm2 += float(np.real(np.conj(wi) * wj *
                                   np.exp(np.conj(ci) * cj
                                          - 0.5 * abs(ci) ** 2
                                          - 0.5 * abs(cj) ** 2)))
    all_alphas = []
    all_weights = []
    for center, bw in zip(centers, branch_weights):
        if abs(complex(center).imag) > 1e-12:
            raise StateValidationError(
                "expansion grid assumes branch centers on the real axis")
        c = float(np.real(center))
        # alpha = c + sqrt(2) u + i sqrt(2) v; the Gaussian of the kernel
        # becomes exactly the Gauss-Hermite weight in (u, v)
        re = c + math.sqrt(2.0) * u
        grid = re[:, None] + 1j * math.sqrt(2.0) * u[None, :]
        phase = np.exp(-1j * math.sqrt(2.0) * u * c)
        w2d = 2.0 * np.outer(wu, wu * phase) * bw / \
            (math.pi * math.sqrt(norm2))
        all_alphas.append(grid.ravel())
        all_weights.append(w2d.ravel())
    return np.concatenate(all_alphas), np.concatenate(all_weights)


def _assemble(params: ModelParams, spec: PhotonicSpec, t: float,
              n_max: int, nodes: int) -> np.ndarray:
    alphas, weights = expansion_weights(spec, nodes)
    spin = _rabi_solution_batch(params, alphas, t)          # (grid, dim)
    fock = coherent_matrix(alphas * np.exp(-1j * params.omega * t), n_max)
    c = (spin * weights[:, None]).T @ fock
    nrm = np.linalg.norm(c)
    if nrm < DEGENERATE_NORM_ATOL:
        raise StateValidationError("expansion collapsed to the zero state")
    return c / nrm


def coherent_expansion_state(params: ModelParams, spec: PhotonicSpec,
                             t: float, n_max: int | None = None,
                             nodes: int = DEFAULT_GRID_NODES,
                             check: bool = True) -> CompositeState:
    """Composite state predicted by superposing classical-drive branches
    over the coherent-state expansion of the initial photonic state.

    The expansion integral is discretized on displaced Gauss-Hermite
    grids; with check=True a refined grid must agree to 1e-6.
    """
    if n_max is None:
        n_max = required_n_max(spec.max_amplitude(), params.n_qubits)
    c = _assemble(params, spec, t, n_max, nodes)
    if check:
        finer = _assemble(params, spec, t, n_max, nodes + 8)
        err = float(np.max(np.abs(finer - c)))
        if err > GRID_CONVERGENCE_ATOL:
            raise GridConvergenceError(
                f"expansion grid not converged: {nodes} vs {nodes + 8} nodes "
                f"differ by {err:.3e}")
        c = finer
    return CompositeState(c, params.dicke(), FockSpace(n_max), time=t)
