"""Initial-state preparation: coherent, cat, and kitten photonic states.

Every emitter starts in its ground state, so the joint initial amplitude
array has a single nonzero row (m = -J) carrying the photonic vector.
Normalization constants are always recomputed numerically from the truncated
vectors rather than taken from closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TruncationError
from .hilbert import CompositeState, DickeSpace, FockSpace

PHOTONIC_KINDS = ("coherent", "general_cat", "even_cat", "kitten")

# Above this amplitude the n = 0 coefficient exp(-|alpha|^2 / 2) is small
# enough that the multiplicative recurrence risks underflow-contaminated
# leading terms; switch to log-scale evaluation.
LOG_SCALE_THRESHOLD = 25.0

LEAKAGE_ATOL = 1e-10


@dataclass(frozen=True)
class PhotonicSpec:
    """Declarative description of the initial photonic state.

    kind 'coherent'    -> |alpha>
    kind 'general_cat' -> |alpha> + e^{i phi_cat} |beta>, renormalized
    kind 'even_cat'    -> |alpha> + |-alpha>
    kind 'kitten'      -> |alpha> + |0>
    """

    kind: str
    alpha: complex
    beta: complex | None = None
    phi_cat: float = 0.0

    def __post_init__(self):
        if self.kind not in PHOTONIC_KINDS:
            raise ConfigError(f"unknown photonic kind {self.kind!r}; choose from {PHOTONIC_KINDS}")
        if self.kind == "general_cat":
            if self.beta is None:
                raise ConfigError("general_cat requires beta")
        elif self.beta is not None:
            raise ConfigError(f"beta is only meaningful for general_cat, not {self.kind!r}")
        if self.kind != "general_cat" and self.phi_cat != 0.0:
            raise ConfigError("phi_cat is only meaningful for general_cat")

    def branch_amplitudes(self) -> tuple[complex, ...]:
        if self.kind == "coherent":
            return (complex(self.alpha),)
        if self.kind == "general_cat":
            return (complex(self.alpha), complex(self.beta))
        if self.kind == "even_cat":
            return (complex(self.alpha), -complex(self.alpha))
        return (complex(self.alpha), 0.0 + 0.0j)

    def branch_weights(self) -> tuple[complex, ...]:
        """Unnormalized superposition weights, matching branch_amplitudes."""
        if self.kind == "coherent":
            return (1.0 + 0.0j,)
        if self.kind == "general_cat":
            return (1.0 + 0.0j,
                    complex(math.cos(self.phi_cat), math.sin(self.phi_cat)))
        return (1.0 + 0.0j, 1.0 + 0.0j)

    def max_amplitude(self) -> float:
        return max(abs(a) for a in self.branch_amplitudes())


# highest static Poisson weight allowed at the start of the truncation
# watch window; cat branches at most double it, still well under the
# preparation gate
STATIC_TAIL_ATOL = 1e-9


def _poisson_tails(mean: float, lo: int) -> np.ndarray:
    """Upper Poisson tails P(n' >= n) at mean ``mean`` for n = lo, lo + 1, ...
    up to where the tail is negligible, from one reverse cumulative sum of
    the weights e^{-mean} mean^n / n! taken in log scale."""
    if mean == 0.0:
        return np.array([float(lo == 0), 0.0])
    stop = math.ceil(max(lo, mean) + 15.0 * math.sqrt(mean) + 80.0)
    log_weights = np.empty(stop - lo + 1)
    log_weights[0] = lo * math.log(mean) - mean - math.lgamma(lo + 1.0)
    log_weights[1:] = np.log(mean / np.arange(lo + 1.0, stop + 1.0))
    np.cumsum(log_weights, out=log_weights)
    top = float(log_weights.max())
    return math.exp(top) * np.cumsum(np.exp(log_weights[::-1] - top))[::-1]


def required_n_max(spec_or_amplitude, n_qubits: int) -> int:
    """Cutoff heuristic: |alpha|^2 + 7|alpha| covers the Poisson tail, plus
    room for up to N emitted photons and the 10-wide watch window.

    At small amplitudes the 7|alpha| margin alone is too thin: the watch
    window would start inside the still-populated Poisson tail and the
    preparation gate would reject the automatic cutoff.  The floor below
    is the first n >= |alpha|^2 whose exact tail mass is at most
    STATIC_TAIL_ATOL.
    """
    if isinstance(spec_or_amplitude, PhotonicSpec):
        a = spec_or_amplitude.max_amplitude()
    else:
        a = abs(spec_or_amplitude)
    mean = a * a
    lo = max(1, math.ceil(mean))
    floor = lo + int(np.argmax(_poisson_tails(mean, lo) <= STATIC_TAIL_ATOL))
    return n_qubits + 10 + max(math.ceil(mean + 7.0 * a), floor)


def check_truncation(alpha: complex, n_max: int) -> None:
    """Reject cutoffs that clip a non-negligible Poisson tail.

    The clipped mass is the upper Poisson tail P(n > n_max) at mean
    |alpha|^2, summed in log scale by ``_poisson_tails``.
    """
    leak = float(_poisson_tails(abs(alpha) ** 2, n_max + 1)[0])
    if leak > LEAKAGE_ATOL:
        raise TruncationError(
            f"coherent amplitude |alpha| = {abs(alpha):.3f} leaks "
            f"{leak:.3e} > {LEAKAGE_ATOL:.1e} past n_max = {n_max}; "
            f"raise the cutoff")


def coherent_vector(alpha: complex, n_max: int, enforce_cutoff: bool = True) -> np.ndarray:
    """Fock coefficients <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!).

    Built by the multiplicative recurrence v[n] = v[n-1] * alpha / sqrt(n);
    for |alpha| > 25 each coefficient is evaluated in log scale instead.
    ``enforce_cutoff=False`` skips the tail precondition for callers that
    deliberately truncate negligible-weight branches.
    """
    alpha = complex(alpha)
    if enforce_cutoff:
        check_truncation(alpha, n_max)
    dim = n_max + 1
    if alpha == 0.0:
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        return v
    if abs(alpha) <= LOG_SCALE_THRESHOLD:
        sqn = np.sqrt(np.arange(1, dim, dtype=float))
        v = np.empty(dim, dtype=np.complex128)
        v[0] = math.exp(-0.5 * abs(alpha) ** 2)
        np.cumprod(alpha / sqn, out=v[1:])
        v[1:] *= v[0]
        return v
    n = np.arange(dim, dtype=float)
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * _lgamma(n + 1.0)
    phase = n * np.angle(alpha)
    return np.exp(logmag) * (np.cos(phase) + 1j * np.sin(phase))


def _lgamma(x: np.ndarray) -> np.ndarray:
    return np.vectorize(math.lgamma, otypes=[float])(x)


def coherent_matrix(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """Row i holds <n|alphas[i]>; recurrence vectorized across amplitudes.

    No cutoff precondition: rows with |alpha| beyond the reliable range are
    the caller's responsibility (used for weighted coherent-grid sums where
    far rows carry negligible weight).
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    dim = n_max + 1
    out = np.empty((alphas.size, dim), dtype=np.complex128)
    out[:, 0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    sqn = np.sqrt(np.arange(1, dim, dtype=float))
    ratios = alphas[:, None] / sqn[None, :]
    np.cumprod(ratios, axis=1, out=out[:, 1:])
    out[:, 1:] *= out[:, :1]
    return out


def photonic_vector(spec: PhotonicSpec, n_max: int) -> np.ndarray:
    """Normalized truncated Fock vector for the requested photonic state."""
    branches = spec.branch_amplitudes()
    v = coherent_vector(branches[0], n_max)
    if len(branches) == 2:
        phase = complex(math.cos(spec.phi_cat), math.sin(spec.phi_cat)) \
            if spec.kind == "general_cat" else 1.0 + 0.0j
        v = v + phase * coherent_vector(branches[1], n_max)
    nrm = np.linalg.norm(v)
    if nrm < 1e-12:
        raise ConfigError(
            "photonic branches cancel (destructive cat); adjust phi_cat or amplitudes")
    return v / nrm


def prepare_initial(spec: PhotonicSpec, n_qubits: int, n_max: int | None = None,
                    tail_tolerance: float = 1e-8) -> CompositeState:
    """All emitters down, photons in ``spec``; cutoff chosen automatically
    when ``n_max`` is None."""
    if n_max is None:
        n_max = required_n_max(spec, n_qubits)
    dicke = DickeSpace(n_qubits)
    fock = FockSpace(n_max, tail_tolerance=tail_tolerance)
    vec = photonic_vector(spec, n_max)
    c = np.zeros((dicke.dim, fock.dim), dtype=np.complex128)
    c[0, :] = vec
    state = CompositeState(c, dicke, fock, time=0.0, copy=False)
    tail = state.tail_population()
    if tail > tail_tolerance:
        raise TruncationError(
            f"initial state already has tail population {tail:.3e} > "
            f"{tail_tolerance:.1e} at n_max = {n_max}")
    return state
