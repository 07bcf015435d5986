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

# e^{-|alpha|^2/2} is subnormal below this exponent (|alpha| > 37.6)
_LOG_TINY = math.log(np.finfo(float).tiny)

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
    """Fock coefficients <n|alpha>, one row of ``coherent_matrix``.

    ``enforce_cutoff=False`` skips the tail precondition for callers that
    deliberately truncate negligible-weight branches.
    """
    if enforce_cutoff:
        check_truncation(alpha, n_max)
    return coherent_matrix([alpha], n_max)[0]


def coherent_matrix(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """Row i holds <n|alphas[i]> = e^{-|a|^2/2} a^n / sqrt(n!), a = alphas[i].

    Each row is the cumulative product of e^{-|a|^2/2}, a/sqrt(1), a/sqrt(2),
    ...; every partial product is a true coefficient, at most 1 in modulus,
    so nothing overflows.  Only where e^{-|a|^2/2} is subnormal does a row
    start instead from its Poisson mode (``_mode_anchored``).

    No cutoff precondition: rows with |alpha| beyond the reliable range are
    the caller's responsibility (used for weighted coherent-grid sums where
    far rows carry negligible weight).
    """
    alphas = np.asarray(alphas, dtype=np.complex128)
    dim = n_max + 1
    exponents = -0.5 * np.abs(alphas) ** 2
    out = np.empty((alphas.size, dim), dtype=np.complex128)
    np.divide(alphas[:, None], np.sqrt(np.arange(1.0, dim)), out=out[:, 1:])
    out[:, 0] = np.exp(exponents)
    np.cumprod(out, axis=1, out=out)
    far = exponents < _LOG_TINY
    if n_max > 0 and far.any():
        out[far] = _mode_anchored(alphas[far], n_max)
    return out


def _mode_anchored(alphas: np.ndarray, n_max: int) -> np.ndarray:
    """coherent_matrix rows anchored at n0 = min(floor(|a|^2), n_max) >= 1.

    log|<n0|a>| comes from Stirling's series for log n0!, written so that
    the large terms cancel analytically; the recurrence then runs from n0
    up by a/sqrt(n) and down by sqrt(n+1)/a, both at most 1 in modulus.
    """
    mean = np.abs(alphas) ** 2
    top = np.minimum(np.floor(mean), n_max)[:, None]
    a = alphas[:, None]
    excess = mean[:, None] - top
    log_anchor = (0.5 * top * np.log1p(excess / top) - 0.5 * excess
                  - 0.25 * np.log(2.0 * math.pi * top)
                  - 1.0 / (24.0 * top) + 1.0 / (720.0 * top ** 3))
    n = np.arange(n_max + 1)
    above, below = n > top, n < top
    steps = np.sqrt(n + 1.0) / a
    np.divide(a, np.sqrt(n), out=steps, where=above)
    np.put_along_axis(steps, top.astype(int),
                      np.exp(log_anchor + 1j * top * np.angle(a)), axis=1)
    ahead = np.cumprod(np.where(below, 1.0, steps), axis=1)
    steps[above] = 1.0
    behind = steps[:, ::-1]
    np.cumprod(behind, axis=1, out=behind)
    return np.where(below, steps, ahead)


def photonic_vector(spec: PhotonicSpec, n_max: int) -> np.ndarray:
    """Normalized truncated Fock vector: the branch weights times the rows
    of one ``coherent_matrix``, each branch's cutoff checked first."""
    branches = spec.branch_amplitudes()
    for alpha in branches:
        check_truncation(alpha, n_max)
    v = np.asarray(spec.branch_weights()) @ coherent_matrix(branches, n_max)
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
