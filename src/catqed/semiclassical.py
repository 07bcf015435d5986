"""Classical-field limit: spins driven by the field's coherent trajectory.

Replacing the mode operator by its free coherent evolution alpha e^{-i omega t}
turns the coupled problem into N independent driven qubits. In the rotating
wave model the co-rotating frame makes that drive static, so the dynamics has
the closed Rabi form

    a(t) = cos(W t / 2) + i ((delta - omega) / W) sin(W t / 2)
    b(t) = i (D_alpha / W) sin(W t / 2),      D_alpha = i g alpha = E_alpha,
    W = sqrt((delta - omega)^2 + |D_alpha|^2)

where g = gamma omega is the exchange rate of both models
(``ModelParams.coupling``), so the drive D_alpha is the field
E_alpha = i gamma omega alpha itself.
Then |a|^2 + |b|^2 = 1, and the lab-frame collective state is

    |psi_alpha(t)> = sum_m sqrt(C(2J, J+m)) a^{J-m} b^{J+m} e^{-i m omega t} |J,m>.

Superpositions of field amplitudes map to superpositions of these spin
trajectories; overlaps between the branches decide the normalization.
Without the rotating wave approximation the drive is a real field
oscillating at omega. The N qubits still evolve independently, so one qubit
is propagated exactly through Shirley's Floquet matrix and raised to the
same symmetric N-fold product; this exposes the 2 omega micromotion absent
from the closed form.

The coherent-state expansion superposes one closed-form branch per node of
displaced Gauss-Hermite grids.  It leaves out the nodes of smallest weight
that together hold at most 2^-53 of sum |w|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import (ConfigError, GridConvergenceError, NumericalError,
                     StateValidationError)
from .hilbert import CompositeState, DickeSpace, FockSpace
from .operators import ModelParams
from .propagator import bessel_cut
from .stateprep import PhotonicSpec, coherent_matrix, required_n_max

DEFAULT_GRID_NODES = 41
GRID_CONVERGENCE_ATOL = 1e-6
DEGENERATE_NORM_ATOL = 1e-12

# Coherent-state Fock rows contracted into the expansion at once, next to
# the same nodes' spin rows, so that a grid's footprint stays near a few
# times this size whatever its node count and |alpha|.
EXPANSION_BLOCK_BYTES = 1 << 19

# The expansion drops its smallest-|weight| nodes while their |weights| sum
# to at most this fraction of sum |w|.  Spin amplitudes and <n|alpha> are at
# most 1 in modulus, so no unnormalized amplitude moves by more than that.
PRUNED_WEIGHT_FRACTION = 2.0 ** -53

# The full drive fails loudly with more than FLOQUET_EDGE_TOL on its edge
# harmonics, or with a cut whose Floquet matrix would pass 64 MiB.
FLOQUET_EDGE_TOL = 1e-13
MAX_FLOQUET_ORDER = 1000


@dataclass(frozen=True)
class RabiDrive:
    """Closed-form single-qubit response to the rotating wave classical
    drive, whatever ``params.rwa`` says."""

    params: ModelParams
    alpha: complex

    @property
    def field_amplitude(self) -> complex:
        return 1j * self.params.coupling * self.alpha

    @property
    def rabi_frequency(self) -> float:
        return _rabi_amplitudes(self.params, self.alpha, 0.0)[2]

    def amplitudes(self, t: float) -> tuple[complex, complex]:
        """(a, b): rotating-frame amplitudes to stay down / flip up."""
        return _rabi_amplitudes(self.params, self.alpha, t)[:2]

    def period(self) -> float:
        w = self.rabi_frequency
        if w == 0.0:
            raise StateValidationError("undriven qubit has no Rabi period")
        return 2.0 * math.pi / w


def _rabi_amplitudes(params: ModelParams, alpha: complex,
                     t: float) -> tuple[complex, complex, float]:
    """(a, b, W) of the module docstring for one amplitude and time, in
    Python scalars (``_rabi_closed_form`` takes arrays)."""
    drive = 1j * params.coupling * alpha
    detuning = params.delta - params.omega
    w = float(np.hypot(detuning, abs(drive)))      # math.hypot rounds differently
    half = 0.5 * w * t
    s = math.sin(half) / (w if w else 1.0)
    return complex(math.cos(half), detuning * s), 1j * drive * s, w


def _rabi_closed_form(params: ModelParams, alphas, times):
    """(a, b, W) of the module docstring, broadcast over amplitudes and
    times; an undriven resonant qubit (W = 0) stays down."""
    drive = 1j * params.coupling * alphas
    detuning = params.delta - params.omega
    w = np.hypot(detuning, np.abs(drive))
    half = 0.5 * w * np.asarray(times)
    s = np.sin(half) / np.where(w == 0.0, 1.0, w)
    return np.cos(half) + 1j * detuning * s, 1j * drive * s, w


def _product_state(n_qubits: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dicke amplitudes sqrt(C(N, k)) a^{N-k} b^k of N copies of
    a|down> + b|up>, k counting flipped qubits; one row per (a, b) pair.

    For |a|^2 + |b|^2 = 1 this is the N-quantum part of the two-mode
    coherent state |sqrt(N) b>|sqrt(N) a> (Arecchi et al., Phys. Rev. A 6,
    2211 (1972)): <k|sqrt(N) b><N-k|sqrt(N) a> is the amplitude times a
    positive factor independent of k, which normalizing the row removes.
    Both factors are rows of one ``coherent_matrix``, so no binomial or
    power is formed and the state is accurate at any N.
    """
    rows = coherent_matrix(math.sqrt(n_qubits) * np.concatenate([b, a]), n_qubits)
    out = rows[:b.size] * rows[b.size:, ::-1]
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


@lru_cache(maxsize=32)
def _m_values(n_qubits: int) -> np.ndarray:
    """Read-only m = -J + k of the Dicke ladder, k = 0 .. N."""
    m = DickeSpace(n_qubits).m_values()
    m.flags.writeable = False
    return m


def _rabi_states(params: ModelParams, alphas, times) -> np.ndarray:
    """Lab-frame collective spin states, one row per entry of ``alphas``
    and ``times`` broadcast against each other.  The free phase is
    evaluated once per entry of ``times`` and broadcast over the
    amplitudes."""
    alphas, times = np.asarray(alphas), np.asarray(times)
    shape = np.broadcast_shapes(alphas.shape, times.shape)
    a, b, _ = _rabi_closed_form(params, np.broadcast_to(alphas, shape).ravel(),
                                np.broadcast_to(times, shape).ravel())
    m = _m_values(params.n_qubits)
    states = _product_state(params.n_qubits, a, b).reshape(shape + m.shape)
    return (states * np.exp(-1j * params.omega * times[..., None] * m)).reshape(-1, m.size)


def rabi_solution(params: ModelParams, alpha: complex, t: float) -> np.ndarray:
    """Lab-frame collective spin state for one classical field amplitude.

    The rotating wave closed form whatever ``params.rwa`` says (the full
    drive is ``classically_driven_state``); for alpha = 0 it reduces to the
    all-down state times its free phase e^{i J omega t}; t must be finite,
    and a negative t runs it backwards.  The scalar form of
    ``_rabi_states``: (a, b) in Python scalars and one two-row
    ``coherent_matrix`` for the product state of ``_product_state``.
    """
    if not math.isfinite(t):
        raise StateValidationError(f"time must be finite, got {t!r}")
    n = params.n_qubits
    a, b, _ = _rabi_amplitudes(params, alpha, t)
    root = math.sqrt(n)
    rows = coherent_matrix(np.array([root * b, root * a]), n)
    state = rows[0] * rows[1, ::-1]
    state *= np.exp(-1j * params.omega * t * _m_values(n)) / np.linalg.norm(state)
    return state


def _superposed(params: ModelParams, branches, weights, t: float) -> np.ndarray:
    """Normalized weighted sum of the branches' states under the model's drive."""
    if not math.isfinite(t):
        raise StateValidationError(f"time must be finite, got {t!r}")
    if params.rwa:
        states = _rabi_states(params, branches, t)
    else:
        states = np.array([classically_driven_state(params, alpha, t) for alpha in branches])
    total = np.asarray(weights) @ states
    nrm2 = float(np.real(np.vdot(total, total)))
    if nrm2 < DEGENERATE_NORM_ATOL:
        raise StateValidationError(
            "branch superposition cancels; state undefined at this time")
    return total / math.sqrt(nrm2)


def rabi_cat_state(params: ModelParams, alpha: complex, t: float,
                   parity: str = "even") -> np.ndarray:
    """Spin state driven by a balanced two-branch field superposition.

    The even field superposition takes the + sign between the alpha and
    -alpha spin trajectories, the odd one the - sign.  The trajectories,
    here and in ``rabi_kitten_state``, follow ``params.rwa``; t must be
    finite, and a negative t is taken by the RWA but not the full drive.

    Only the alpha branch is evaluated: the -alpha one is psi_alpha times
    (-1)^k, k the Dicke index (b(-alpha) = -b(alpha) in the closed form;
    under the full drive the -alpha drive is the alpha drive conjugated by
    sigma_z).  So the even cat keeps the even-k amplitudes of psi_alpha and
    the odd cat the odd-k ones.  The superposition is refused as cancelled
    where its unnormalized norm, |psi_alpha +- psi_-alpha|^2 =
    4 |P psi_alpha|^2, is below DEGENERATE_NORM_ATOL, as in ``_superposed``.
    """
    if parity not in ("even", "odd"):
        raise StateValidationError(f"unknown parity {parity!r}")
    psi = (rabi_solution(params, alpha, t) if params.rwa
           else classically_driven_state(params, alpha, t))
    psi[1 if parity == "even" else 0::2] = 0.0
    nrm2 = float(np.vdot(psi, psi).real)
    if 4.0 * nrm2 < DEGENERATE_NORM_ATOL:
        raise StateValidationError(
            "branch superposition cancels; state undefined at this time")
    return psi / math.sqrt(nrm2)


def rabi_kitten_state(params: ModelParams, alpha: complex, t: float) -> np.ndarray:
    """Spin state for the coherent-plus-vacuum field superposition.

    The vacuum branch leaves the spins in the freely precessing all-down
    state, so the result interpolates between no drive and a full Rabi
    rotation.  Times are taken as by ``rabi_cat_state``.
    """
    return _superposed(params, (alpha, 0.0), (1.0, 1.0), t)


def classically_driven_trajectory(params: ModelParams, alpha: complex,
                                  times) -> np.ndarray:
    """Lab-frame collective spin state under the classical drive, one row
    per sample time; each time is evaluated on its own, so the times may
    come in any order, but each must be finite and nonnegative.

    Rotating wave drive: the closed form ``rabi_solution``. Full drive: one
    qubit started down, raised to the symmetric N-fold product.  Its
    h(t) = h_0 + h_{+1} e^{i omega t} + h.c. on (down, up), with h_0 =
    diag(-delta/2, delta/2) and h_{+1} = (i g conj(alpha) / 2) sigma_x, gives
    U(t)|down> = sum_k e^{i k omega t} <k| exp(-i H_F t) |0, down> through
    Shirley's H_F[k, k'] = h_{k-k'} + k omega delta_{kk'}, cut at |k| = K by
    the Bessel tail J_k(g |alpha| / omega).  h_{+-1} flip the qubit, so only
    (even k, down) and (odd k, up) enter, where H_F is tridiagonal in k.
    """
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times < math.inf)):
        raise StateValidationError("sample times must be finite and nonnegative")
    if params.rwa:
        return _rabi_states(params, alpha, times)
    ks, energies, start, vecs = _floquet(params, complex(alpha))
    phi = (np.exp(-1j * np.outer(times, energies)) * start) @ vecs.T
    edge = float(np.max(np.abs(phi[:, [0, -1]]), initial=0.0))
    if edge > FLOQUET_EDGE_TOL:
        raise NumericalError(f"the full drive holds {edge:.3e} in its edge harmonics "
                             f"k = +-{ks[-1]}, more than {FLOQUET_EDGE_TOL:.0e}")
    terms = np.exp(1j * params.omega * np.outer(times, ks)) * phi
    down = ks % 2 == 0
    return _product_state(params.n_qubits, terms[:, down].sum(1), terms[:, ~down].sum(1))


@lru_cache(maxsize=4)
def _floquet(params: ModelParams, alpha: complex) -> tuple[np.ndarray, ...]:
    """Shirley's H_F of ``classically_driven_trajectory`` for one drive,
    solved once: (harmonics k, eigenvalues, conj of the eigenvectors' k = 0
    row, eigenvectors), all read-only.  Four drives are kept, enough for a
    kitten's two branches under two models; at the MAX_FLOQUET_ORDER cut
    each holds 64 MiB of eigenvectors."""
    k_max = bessel_cut(abs(params.coupling * alpha) / params.omega, MAX_FLOQUET_ORDER,
                       "the full drive's g |alpha| / omega =")
    ks = np.arange(-k_max, k_max + 1)
    hop = np.full(2 * k_max, 0.5j * params.coupling * np.conj(alpha))    # h_{+1}
    h_f = (np.diag(params.omega * ks + np.where(ks % 2 == 0, -0.5, 0.5) * params.delta)
           + np.diag(hop, -1) + np.diag(hop.conj(), 1))
    energies, vecs = np.linalg.eigh(h_f)
    start = vecs[k_max].conj()
    for array in (ks, energies, start, vecs):
        array.flags.writeable = False
    return ks, energies, start, vecs


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


@lru_cache(maxsize=16)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for ``nodes`` points.  Read-only."""
    u, wu = hermgauss(nodes)
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def expansion_weights(spec: PhotonicSpec, nodes: int = DEFAULT_GRID_NODES):
    """Gauss-Hermite discretization of the coherent-state expansion
    f(alpha) = <alpha|psi>/pi, one displaced grid per branch.

    Returns (alphas, weights) flattened over all branches, such that
    sum_k weights[k] |alphas[k]> reproduces the photonic state.  The nodes
    of smallest |weight| whose |weights| sum to at most
    PRUNED_WEIGHT_FRACTION of sum |w| are left out, nodes of equal |weight|
    together, so that the kept set does not hang on a sort's tie order; the
    rest keep their order.
    """
    centers = np.array(spec.branch_amplitudes())
    if np.any(np.abs(centers.imag) > 1e-12):
        raise StateValidationError(
            "expansion grid assumes branch centers on the real axis")
    c = centers.real
    bw = np.array(spec.branch_weights())
    # <c_i|c_j> = e^{-(c_i - c_j)^2 / 2} for real centers
    norm2 = float(np.real(np.conj(bw) @ np.exp(-0.5 * np.subtract.outer(c, c) ** 2) @ bw))
    # alpha = c + sqrt(2) u + i sqrt(2) v; the Gaussian of the kernel
    # becomes exactly the Gauss-Hermite weight in (u, v)
    u, wu = _hermite_rule(nodes)
    root2u = math.sqrt(2.0) * u
    c = c[:, None, None]
    grid = c + root2u[:, None] + 1j * root2u
    w2d = 2.0 * wu[:, None] * (wu * np.exp(-1j * root2u * c)) * \
        bw[:, None, None] / (math.pi * math.sqrt(norm2))
    size = np.abs(w2d.ravel())
    ordered = np.sort(size)
    tail = np.cumsum(ordered)
    keep = size >= ordered[np.searchsorted(tail, PRUNED_WEIGHT_FRACTION * tail[-1], "right")]
    return grid.ravel()[keep], w2d.ravel()[keep]


def _assemble(params: ModelParams, spec: PhotonicSpec, t: float,
              n_max: int, nodes: int) -> np.ndarray:
    alphas, weights = expansion_weights(spec, nodes)
    evolved = alphas * np.exp(-1j * params.omega * t)
    rows = max(1, EXPANSION_BLOCK_BYTES // (16 * (n_max + 1)))
    c = np.zeros((params.n_qubits + 1, n_max + 1), dtype=np.complex128)
    for lo in range(0, alphas.size, rows):
        block = slice(lo, lo + rows)
        spin = _rabi_states(params, alphas[block], t) * weights[block, None]
        c += spin.T @ coherent_matrix(evolved[block], n_max)
    nrm = np.linalg.norm(c)
    if nrm < DEGENERATE_NORM_ATOL:
        raise StateValidationError("expansion collapsed to the zero state")
    return c / nrm


def coherent_expansion_state(params: ModelParams, spec: PhotonicSpec,
                             t: float, n_max: int | None = None) -> CompositeState:
    """Composite state predicted by superposing classical-drive branches
    over the coherent-state expansion of the initial photonic state.

    The expansion integral is discretized on displaced Gauss-Hermite
    grids; a grid refined by 8 nodes must agree to 1e-6.  Its thousands of
    branches need the closed form, so only the rotating wave model is
    served; ``params.rwa = False`` raises ``ConfigError``.
    """
    if not params.rwa:
        raise ConfigError("the coherent-state expansion needs rwa = true")
    if n_max is None:
        n_max = required_n_max(spec.max_amplitude(), params.n_qubits)
    c = _assemble(params, spec, t, n_max, DEFAULT_GRID_NODES)
    finer = _assemble(params, spec, t, n_max, DEFAULT_GRID_NODES + 8)
    err = float(np.max(np.abs(finer - c)))
    if err > GRID_CONVERGENCE_ATOL:
        raise GridConvergenceError(
            f"expansion grid not converged: {DEFAULT_GRID_NODES} vs "
            f"{DEFAULT_GRID_NODES + 8} nodes differ by {err:.3e}")
    return CompositeState(finer, params.dicke(), FockSpace(n_max), time=t)
