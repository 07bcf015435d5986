"""Photonic state construction against high-precision references.

Frozen targets below were evaluated once with mpmath at 60 digits (the
helper lives in oracles.py and recomputes them on every run, so the
comparison is live, not copy-pasted).
"""

import math

import numpy as np
import pytest

import catqed as cq
from catqed.stateprep import check_truncation, coherent_matrix
from oracles import coherent_amplitudes_mpmath


@pytest.mark.parametrize("alpha", [0.7, 2.0, 1.0 + 2.0j, -1.3 + 0.4j])
def test_coherent_vector_matches_mpmath(alpha):
    n_max = cq.required_n_max(alpha, 1)
    v = cq.coherent_vector(alpha, n_max)
    ref = coherent_amplitudes_mpmath(alpha, n_max)
    assert np.abs(v - ref).max() < 1e-14


def test_coherent_vector_log_branch_matches_mpmath():
    # alpha = 30: e^{-|alpha|^2/2} = e^{-450} is the smallest start the
    # product recurrence is used from here; spot-check across the support
    alpha = 30.0
    n_max = cq.required_n_max(alpha, 1)
    v = cq.coherent_vector(alpha, n_max)
    ref = coherent_amplitudes_mpmath(alpha, n_max)
    for n in (0, 450, 860, 900, 940, n_max):
        if abs(ref[n]) > 1e-300:
            assert abs(v[n] - ref[n]) <= 1e-12 * abs(ref[n]) + 1e-300
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_coherent_vector_past_the_subnormal_prefactor_matches_mpmath():
    # e^{-800} is subnormal, so the row is anchored at its Poisson mode
    alpha = 40.0
    n_max = cq.required_n_max(alpha, 1)
    v = cq.coherent_vector(alpha, n_max)
    ref = coherent_amplitudes_mpmath(alpha, n_max)
    for n in (100, 400, 1500, 1599, 1600, 1601, 1700, n_max):
        assert abs(ref[n]) > 1e-300
        assert abs(v[n] - ref[n]) <= 1e-12 * abs(ref[n])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_coherent_matrix_rows_equal_coherent_vector():
    # |alpha| = 37.6 and 37.7 sit on either side of where e^{-|alpha|^2/2}
    # turns subnormal; 55 has its mode past n_max
    alphas = np.array([0.0, 1.5j, 37.6, -37.7, 26.0 + 28.0j, 55.0])
    n_max = 2000
    rows = coherent_matrix(alphas, n_max)
    for alpha, row in zip(alphas, rows):
        assert np.array_equal(row, cq.coherent_vector(alpha, n_max,
                                                      enforce_cutoff=False))
    assert np.all(np.isfinite(rows))
    assert np.all(np.abs(rows) <= 1.0)


def test_coherent_vacuum():
    v = cq.coherent_vector(0.0, 8)
    assert v[0] == 1.0
    assert np.count_nonzero(v) == 1


def test_coherent_mean_photon_number():
    v = cq.coherent_vector(1.0, 26)
    n = np.arange(27)
    assert float(n @ np.abs(v) ** 2) == pytest.approx(1.0, abs=1e-10)


def test_coherent_overlap_is_exp_minus_two_alpha_sq():
    vp = cq.coherent_vector(1.0, 26)
    vm = cq.coherent_vector(-1.0, 26)
    assert np.vdot(vm, vp).real == pytest.approx(math.exp(-2.0), abs=1e-12)


def test_even_cat_odd_amplitudes_exactly_zero():
    spec = cq.PhotonicSpec(kind="even_cat", alpha=2.0)
    v = cq.photonic_vector(spec, 40)
    assert np.all(v[1::2] == 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_general_cat_reproduces_even_cat_bitwise():
    even = cq.photonic_vector(cq.PhotonicSpec(kind="even_cat", alpha=1.5), 30)
    gen = cq.photonic_vector(
        cq.PhotonicSpec(kind="general_cat", alpha=1.5, beta=-1.5, phi_cat=0.0), 30)
    assert np.array_equal(even, gen)


def test_odd_cat_even_amplitudes_zero():
    spec = cq.PhotonicSpec(kind="general_cat", alpha=1.5, beta=-1.5,
                           phi_cat=math.pi)
    v = cq.photonic_vector(spec, 30)
    assert np.abs(v[0::2]).max() < 1e-16
    p_even, p_odd = np.abs(v[0::2]).sum(), np.linalg.norm(v[1::2])
    assert p_odd == pytest.approx(1.0, abs=1e-12)


def test_kitten_vacuum_amplitude_frozen():
    # (1 + e^{-8}) / sqrt(N) with N = 2 (1 + e^{-8}), alpha0 = 4
    spec = cq.PhotonicSpec(kind="kitten", alpha=4.0)
    v = cq.photonic_vector(spec, 60)
    norm_const = 2.0 * (1.0 + math.exp(-8.0))
    expected = (1.0 + math.exp(-8.0)) / math.sqrt(norm_const)
    assert v[0].real == pytest.approx(expected, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec, mean_n", [
    (cq.PhotonicSpec(kind="coherent", alpha=1.7), 1.7**2),
    (cq.PhotonicSpec(kind="even_cat", alpha=1.2),
     1.2**2 * math.tanh(1.2**2)),
    (cq.PhotonicSpec(kind="general_cat", alpha=1.2, beta=-1.2,
                     phi_cat=math.pi),
     1.2**2 / math.tanh(1.2**2)),
    (cq.PhotonicSpec(kind="general_cat", alpha=1.2, beta=-1.2, phi_cat=0.9),
     1.2**2 * (1.0 - math.cos(0.9) * math.exp(-2 * 1.2**2))
     / (1.0 + math.cos(0.9) * math.exp(-2 * 1.2**2))),
    (cq.PhotonicSpec(kind="kitten", alpha=2.0),
     4.0 / (2.0 * (1.0 + math.exp(-2.0)))),
])
def test_mean_photon_numbers_analytic(spec, mean_n):
    n_max = cq.required_n_max(spec, 1)
    v = cq.photonic_vector(spec, n_max)
    n = np.arange(n_max + 1)
    assert float(n @ np.abs(v) ** 2) == pytest.approx(mean_n, abs=1e-8)


def test_prepare_initial_layout_and_parity():
    spec = cq.PhotonicSpec(kind="even_cat", alpha=1.5)
    state = cq.prepare_initial(spec, 4)
    assert state.amplitudes.shape[0] == 5
    assert np.abs(state.amplitudes[1:, :]).max() == 0.0  # only m = -J occupied
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    p_even, p_odd = cq.parity_probabilities(state)
    assert p_even == pytest.approx(1.0, abs=1e-12)
    assert p_odd == 0.0


@pytest.mark.parametrize("n_qubits", [1, 2, 8])
def test_prepare_initial_auto_cutoff_consistent(n_qubits):
    # the automatic cutoff must satisfy its own leakage precondition,
    # including at small N where the watch window sits lowest
    for alpha in (0.5, 1.0, 2.0, 10.0):
        spec = cq.PhotonicSpec(kind="even_cat", alpha=alpha)
        state = cq.prepare_initial(spec, n_qubits)
        assert state.fock.n_max == cq.required_n_max(spec, n_qubits)


def test_required_n_max_rule():
    # large amplitude: plain |alpha|^2 + 7|alpha| headroom
    assert cq.required_n_max(10.0, 8) == math.ceil(100 + 70 + 8 + 10)
    # small amplitude: the static-tail floor wins over the 7|alpha| margin
    assert cq.required_n_max(1.0, 8) == 30
    assert cq.required_n_max(0.5, 1) == 19
    spec = cq.PhotonicSpec(kind="general_cat", alpha=1.0, beta=-3.0)
    assert cq.required_n_max(spec, 2) == cq.required_n_max(3.0, 2)


def test_truncation_error_when_cutoff_clips_tail():
    with pytest.raises(cq.TruncationError):
        cq.coherent_vector(5.0, 20)
    # explicit check helper agrees
    with pytest.raises(cq.TruncationError):
        check_truncation(5.0, 20)
    check_truncation(5.0, 80)  # ample headroom passes


def test_spec_validation():
    with pytest.raises(cq.ConfigError):
        cq.PhotonicSpec(kind="squeezed", alpha=1.0)
    with pytest.raises(cq.ConfigError):
        cq.PhotonicSpec(kind="general_cat", alpha=1.0)  # beta missing
    with pytest.raises(cq.ConfigError):
        cq.PhotonicSpec(kind="even_cat", alpha=1.0, beta=2.0)
    with pytest.raises(cq.ConfigError):
        cq.PhotonicSpec(kind="kitten", alpha=1.0, phi_cat=0.3)


def test_branch_structure():
    assert cq.PhotonicSpec(kind="coherent", alpha=2.0).branch_amplitudes() == (2.0,)
    spec = cq.PhotonicSpec(kind="even_cat", alpha=1.0 + 1.0j)
    assert spec.branch_amplitudes() == (1.0 + 1.0j, -1.0 - 1.0j)
    assert spec.branch_weights() == (1.0, 1.0)
    kit = cq.PhotonicSpec(kind="kitten", alpha=3.0)
    assert kit.branch_amplitudes() == (3.0, 0.0)
    assert kit.max_amplitude() == 3.0
    gen = cq.PhotonicSpec(kind="general_cat", alpha=1.0, beta=-1.0,
                          phi_cat=math.pi / 2)
    w = gen.branch_weights()
    assert w[0] == 1.0
    assert abs(w[1] - 1.0j) < 1e-15
