"""End-to-end checks of the headline regimes, one test per claim.

Ordered by scenario: bare trace-out readout at small, intermediate and large
drive amplitude, then measurement-conditioned readout, width and scaling
sweeps, the counter-rotating beat, an invariant bundle, the phase-space
fringes, the fixed-depletion ladder toward the thermodynamic limit, and
the window scaling carried to N = 64.
Each test prints the measured numbers next to the gate it is held
to, so a bare ``pytest -v`` gives one verdict line per claim and the captured
output carries the values.  The large-amplitude run is shared through a
module fixture; the whole file stays within a few minutes on one core.
"""

import math
import time

import numpy as np
import pytest

import catqed as cq
from oracles import (cg_ladder, dense_hamiltonian, dense_spin, evolve_exact,
                     partial_trace_electron, pearson, qfi_brute,
                     quadrature_overlap_closed_form)

GAMMA = 0.01          # weak coupling throughout: gamma / omega = 1e-2
N_FLAG = 8
ALPHA_FLAG = 10.0


@pytest.fixture(scope="module")
def flagship():
    """Even cat at alpha0 = 10 on resonance, three semiclassical periods."""
    params = cq.ModelParams(n_qubits=N_FLAG, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", ALPHA_FLAG), N_FLAG)
    period = cq.RabiDrive(params, ALPHA_FLAG).period()
    plan = cq.PropagationPlan(
        t_max=3.0 * period, sample_stride=100,
        monitors=("qfi_density", "qfi_density_even", "prob_even", "prob_odd",
                  "photon_number"))
    series = cq.run(state, params, plan)
    return params, period, series


def test_01_small_amplitude_cat_peak():
    """A small even cat (alpha0 = 1, N = 8) drives the emitters into a
    multipartite-entangled state: the trace-out peak certifies depth N/2.

    The peak qfi_density is 3.7334 at t = 116.8.  On resonance Jz + n
    commutes with H, so rho_e(t) is a z-rotation of a state that depends on
    gamma t alone: the peak is a function of (N, alpha0) only, and neither
    t_max (3.7334 over t <= 400) nor gamma moves it.  At N = 8 it grows with
    alpha0 as 2.66 (0.8), 3.17 (0.9), 3.73 (1.0), 4.02 (1.05), 4.32 (1.1),
    so a gate of F/N >= 4.0 holds only from alpha0 ~ 1.05.  The paper fixes
    no number at alpha0 = 1, so the claim is read through the package's own
    producibility bound: F/N > 3 certifies depth >= 4 = N/2, and F/N = 4.0
    sits on an integer boundary that certifies the same depth.  The peak
    sample is checked against the dense oracle (eigendecomposition of the
    kron Hamiltonian, brute-force QFI), which shares no code with the
    package.
    """
    t0 = time.perf_counter()
    n = 8
    params = cq.ModelParams(n_qubits=n, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 1.0), n)
    plan = cq.PropagationPlan(t_max=140.0, sample_stride=100,
                              monitors=("qfi_density",))
    series = cq.run(state, params, plan)
    dens = series.column("qfi_density")
    k = int(np.argmax(dens))
    t_peak = float(series.times[k])
    elapsed = time.perf_counter() - t0

    h = dense_hamiltonian(params, state.fock.n_max)
    psi = evolve_exact(h, state.amplitudes.ravel(), t_peak)
    rho = partial_trace_electron(psi.reshape(state.amplitudes.shape))
    ref = qfi_brute(rho, dense_spin(n)[:3]) / n
    diff = abs(dens[k] - ref)
    depth = cq.entanglement_depth_bound(n * dens[k], n)
    print(f"peak qfi_density {dens[k]:.4f} at t = {t_peak:.1f}"
          f" (oracle {ref:.4f}, |diff| {diff:.1e});"
          f" certified depth {depth} (gate {n // 2}) ({elapsed:.1f} s)")
    assert elapsed < 300.0
    assert diff <= 1e-8, f"peak off the oracle by {diff:.2e}"
    assert depth >= n // 2, f"peak qfi_density {dens[k]:.4f} certifies depth {depth}"


def test_02_intermediate_cat_nears_the_qfi_ceiling():
    params = cq.ModelParams(n_qubits=8, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 8)
    plan = cq.PropagationPlan(t_max=180.0, sample_stride=100,
                              monitors=("qfi_density", "photon_number"))
    series = cq.run(state, params, plan)
    dens = series.column("qfi_density")
    k = int(np.argmax(dens))
    photon = float(series.column("photon_number")[k])
    print(f"peak qfi_density {dens[k]:.4f} at t = {series.times[k]:.1f},"
          f" photon_number there {photon:.4f}")
    assert dens[k] >= 7.0, f"peak qfi_density {dens[k]:.4f} below 7.0"
    assert photon <= 0.5, f"photon_number {photon:.4f} above 0.5 at the peak"


def test_03_large_amplitude_trace_out_stays_classical(flagship):
    _, period, series = flagship
    dens = series.column("qfi_density")
    frac = float(np.mean(dens < 1.3))
    print(f"qfi_density < 1.3 at {100.0 * frac:.2f}% of samples"
          f" (max {dens.max():.4f}) over three periods of {period:.4g}")
    assert frac >= 0.95


def test_04_parity_conditioning_restores_the_peak(flagship):
    _, period, series = flagship
    sel = series.times <= 2.0 * period
    dens_even = series.column("qfi_density_even")[sel]
    k = int(np.nanargmax(dens_even))
    print(f"max even-conditioned qfi_density {dens_even[k]:.4f} at"
          f" t = {series.times[sel][k]:.2f} (gate {0.9 * N_FLAG})")
    assert dens_even[k] >= 0.9 * N_FLAG


def test_05_parity_outcomes_near_equiprobable_at_the_peak(flagship):
    _, _, series = flagship
    dens_even = series.column("qfi_density_even")
    k = int(np.nanargmax(dens_even))
    p_even = float(series.column("prob_even")[k])
    p_odd_start = float(series.column("prob_odd")[0])
    print(f"prob_even {p_even:.4f} at the conditioned peak"
          f" (t = {series.times[k]:.2f}); prob_odd(0) = {p_odd_start:.3e}")
    assert 0.45 <= p_even <= 0.55
    assert p_odd_start < 1e-12


def _max_model_deviation(params, alpha, series, t_max):
    """Largest |F_exact - F_model| / N^2 over samples with t <= t_max, where
    F_model is the pure spin state driven by the two classical branches."""
    sel = series.times <= t_max
    times = series.times[sel]
    f_exact = params.n_qubits * series.column("qfi_density_even")[sel]
    f_model = np.array([
        cq.qfi_pure(cq.rabi_cat_state(params, alpha, t, parity="even"),
                    params.n_qubits).value
        for t in times])
    dev = np.abs(f_exact - f_model) / params.n_qubits**2
    k = int(np.nanargmax(dev))
    return float(dev[k]), float(times[k])


def test_06_conditioned_qfi_tracks_the_driven_superposition(flagship):
    """The even-conditioned QFI approaches the external-field model as
    N/|alpha0|^2 -> 0: the one-period deviation falls as 1/|alpha0|^2.

    At alpha0 = 10, N = 8 the maximum of |F_exact - F_model| / N^2 over one
    period is 0.128 at t = 41.2, about 0.65 of the period and after the
    inversion at half a period; over the first half period it stays <= 0.037.
    An independent excitation-sector eigh with the brute-force QFI gives the
    same 0.128, so this is the finite-|alpha0| correction of the model, not
    integrator error.  It follows about 12.8 / |alpha0|^2 at N = 8 (0.476,
    0.254, 0.128, 0.064, 0.032 at alpha0 = 5, 7.07, 10, 14.1, 20) and grows
    with N at alpha0 = 10 (0.088, 0.128, 0.214 at N = 4, 8, 16).  A fixed gate of 0.1 therefore
    holds only from |alpha0| ~ 11.3 at N = 8; the test checks the scaling
    law instead, from the flagship curve and one at |alpha0|^2 = 50.  With
    the default dt, `run` at alpha0 = 20 now gives 0.0318 (n_max 558), on
    the same law; the second amplitude lies below 10 because that run is
    the cheaper one.
    """
    params, period, series = flagship
    dev_flag, t_flag = _max_model_deviation(params, ALPHA_FLAG, series, period)
    print(f"max |F_exact - F_model| / N^2 = {dev_flag:.4f} at t = {t_flag:.1f}"
          f" over one period")

    alpha_low = ALPHA_FLAG / math.sqrt(2.0)
    period_low = cq.RabiDrive(params, alpha_low).period()
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha_low), N_FLAG)
    plan = cq.PropagationPlan(t_max=period_low, sample_stride=100,
                              monitors=("qfi_density_even",))
    low = cq.run(state, params, plan)
    dev_low, t_low = _max_model_deviation(params, alpha_low, low, period_low)
    slope = math.log(dev_flag / dev_low) / math.log(ALPHA_FLAG / alpha_low)
    print(f"at alpha0 = {alpha_low:.3f}: {dev_low:.4f} at t = {t_low:.1f};"
          f" log-log slope against |alpha0| {slope:.4f} (target -2)")
    assert -2.2 <= slope <= -1.8, f"deviation scales as |alpha0|^{slope:.2f}"


def test_07_ideal_quadrature_readout_restores_the_kitten_peak():
    params = cq.ModelParams(n_qubits=N_FLAG, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("kitten", ALPHA_FLAG), N_FLAG)
    period = cq.RabiDrive(params, ALPHA_FLAG).period()
    quad = cq.QuadratureSpec(x=0.0, phi=0.5 * math.pi, delta_x=0.0,
                             phase_tracking=True)
    plan = cq.PropagationPlan(t_max=0.7 * period, sample_stride=100,
                              monitors=("qfi_density",))
    series = cq.run(state, params, plan,
                    extra_monitors=cq.build_quadrature_monitors(quad))
    dens_quad = series.column("qfi_density_quad")
    dens = series.column("qfi_density")
    k = int(np.nanargmax(dens_quad))
    print(f"peak conditioned qfi_density {dens_quad[k]:.4f} at"
          f" t = {series.times[k]:.2f}; trace-out max {dens.max():.4f}")
    assert dens_quad[k] >= 0.9 * N_FLAG
    assert dens.max() < 1.3


# scaled widths delta_x * alpha shared by both curves; the collapse is an
# asymptotic statement, so the grid stops where the window still resolves
# the two kitten branches
SCALED_WIDTHS = (0.4, 0.8, 1.2, 1.6, 2.0)


def _width_curve(alpha):
    params = cq.ModelParams(n_qubits=N_FLAG, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("kitten", alpha), N_FLAG)
    t_max = 1.2 * cq.RabiDrive(params, alpha).period()
    times = np.linspace(0.0, t_max, 121)[1:]  # the peak sits mid-period
    states = cq.snapshots(state, params, times)
    curve = []
    for scaled in SCALED_WIDTHS:
        quad = cq.QuadratureSpec(x=0.0, phi=0.5 * math.pi,
                                 delta_x=scaled / alpha, phase_tracking=True)
        dens = []
        for snap in states:
            try:
                res = cq.quadrature_postselect(snap, quad, omega=params.omega)
            except cq.ImpossibleOutcomeError:
                continue
            dens.append(cq.qfi_mixed(res.rho).value / N_FLAG)
        curve.append(max(dens))
    return np.asarray(curve)


def test_08_window_width_curves_collapse_when_rescaled():
    low = _width_curve(6.0)
    high = _width_curve(8.0)
    rel = np.abs(low - high) / np.maximum(low, high)
    print(f"max conditioned qfi_density at delta_x * alpha = {SCALED_WIDTHS}:")
    print(f"  alpha 6: {np.round(low, 4)}  alpha 8: {np.round(high, 4)}"
          f"  rel dev {np.round(rel, 4)}")
    assert float(rel.max()) < 0.10


def test_09_peak_time_and_width_scale_with_ensemble_size():
    sizes = (4, 8, 16)
    windows = {4: 450.0, 8: 250.0, 16: 150.0}  # brackets each peak
    t_peaks, fwhms = [], []
    for n in sizes:
        alpha = math.sqrt(n / 2.0)
        params = cq.ModelParams(n_qubits=n, gamma=GAMMA)
        state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha), n)
        plan = cq.PropagationPlan(t_max=windows[n], sample_stride=100,
                                  monitors=("qfi_density",))
        series = cq.run(state, params, plan)
        info = cq.peak_and_fwhm(series.times, series.column("qfi_density"))
        t_peaks.append(info.t_peak)
        fwhms.append(info.fwhm)
    logs = np.log(np.asarray(sizes, dtype=float))
    slope_fwhm = float(np.polyfit(logs, np.log(fwhms), 1)[0])
    slope_t = float(np.polyfit(logs, np.log(t_peaks), 1)[0])
    print(f"t_peak {np.round(t_peaks, 1)} fwhm {np.round(fwhms, 2)};"
          f" log-log slopes fwhm {slope_fwhm:.4f}, t_peak {slope_t:.4f}")
    assert -1.15 <= slope_fwhm <= -0.85
    assert -0.6 <= slope_t <= -0.4


def test_10_counter_rotating_terms_beat_at_twice_the_carrier():
    n, alpha = 4, 6.0
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha), n)
    plan = cq.PropagationPlan(t_max=30.0, sample_stride=10,
                              monitors=("qfi_density_even",))
    rotating = cq.run(state, cq.ModelParams(n_qubits=n, gamma=GAMMA), plan)
    full = cq.run(state, cq.ModelParams(n_qubits=n, gamma=GAMMA, rwa=False),
                  plan)
    diff = full.column("qfi_density_even") - rotating.column("qfi_density_even")
    sig = (diff - diff.mean()) * np.hanning(diff.size)
    amp = np.abs(np.fft.rfft(sig))
    amp[0] = 0.0
    step = rotating.times[1] - rotating.times[0]
    w = 2.0 * math.pi * np.fft.rfftfreq(sig.size, d=step)
    w_dom = float(w[int(np.argmax(amp))])
    print(f"dominant angular frequency of the difference signal {w_dom:.4f}"
          f" (target 2.0 = twice the mode frequency)")
    assert abs(w_dom - 2.0) <= 0.2


def test_11_invariant_bundle_holds_and_stays_fast():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)

    # norm, energy and excitation drift on a short resonant run
    params = cq.ModelParams(n_qubits=8, gamma=GAMMA)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 8)
    plan = cq.PropagationPlan(t_max=5.0, sample_stride=10,
                              monitors=("norm_drift", "energy",
                                        "excitation_number"))
    series = cq.run(state, params, plan)
    drift = float(series.column("norm_drift").max())
    energy_span = float(np.ptp(series.column("energy")))
    excitation_span = float(np.ptp(series.column("excitation_number")))
    assert drift < 1e-10, f"norm drift per sample interval {drift:.3e}"
    assert energy_span < 1e-8, f"energy drift {energy_span:.3e}"
    assert excitation_span < 1e-8, f"excitation drift {excitation_span:.3e}"

    # parity completeness and outcome-average consistency mid-run
    mid = cq.snapshots(state, params, [2.5])[0]
    p_even, p_odd = cq.parity_probabilities(mid)
    assert abs(p_even + p_odd - 1.0) < 1e-12
    even = cq.parity_postselect(mid, cq.ParityOutcome.EVEN)
    odd = cq.parity_postselect(mid, cq.ParityOutcome.ODD)
    averaged = (even.probability * even.rho.matrix
                + odd.probability * odd.rho.matrix)
    traced = cq.reduce_to_electron(mid).matrix
    assert np.max(np.abs(averaged - traced)) < 1e-10

    # pure-state qfi agrees between the pure and mixed code paths
    psi = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi /= np.linalg.norm(psi)
    rho = cq.ElectronDensityMatrix(np.outer(psi, psi.conj()), cq.DickeSpace(8))
    assert abs(cq.qfi_pure(psi, 8).value - cq.qfi_mixed(rho).value) < 1e-8

    # the balanced extremal superposition saturates N^2
    ghz = np.zeros(9, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / math.sqrt(2.0)
    assert abs(cq.qfi_pure(ghz, 8).value - 64.0) < 1e-9

    # Wigner kernel weights against the ladder recursion, N up to 8; the
    # ladder drifts from exact as N grows (2.4e-13 at N = 8, 3.9e-2 at 32)
    worst = 0.0
    for n in range(1, 9):
        j = n / 2
        ref = [sum((2 * k + 1) / (n + 1) * cg_ladder(j, m, k, 0.0, j, m)
                   for k in range(n + 1)) for m in np.arange(-j, j + 0.5)]
        worst = max(worst, float(np.max(np.abs(cq.kernel_weights(n) - ref))))
    assert worst <= 1e-10, f"kernel weight mismatch {worst:.3e}"

    # the quasiprobability integrates to one on a conditioned state; the
    # trapezoid rule needs a fine theta grid for the fringes of this rho
    grid = cq.wigner_function(even.rho, n_theta=4001, n_phi=72)
    assert abs(grid.integrate() - 1.0) < 1e-6

    # rotations are unitary
    r = cq.rotation_matrix(8, 1.1, -0.7)
    assert np.max(np.abs(r @ r.conj().T - np.eye(9))) < 1e-12

    # quadrature row against the closed-form coherent overlap
    x_pt, phase, alpha = 0.9, 0.6, 1.3 - 0.4j
    row = cq.quadrature_amplitudes(x_pt, phase, 60)
    col = cq.coherent_vector(alpha, 60)
    got = row @ col
    ref = quadrature_overlap_closed_form(x_pt, phase, alpha)
    assert abs(got - ref) < 1e-10

    # partial trace against the dense oracle on a random two-qubit state
    amps = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    amps /= np.linalg.norm(amps)
    comp = cq.CompositeState(amps, cq.DickeSpace(2), cq.FockSpace(3))
    ours = cq.reduce_to_electron(comp).matrix
    ref = partial_trace_electron(amps)
    assert np.max(np.abs(ours - ref)) < 1e-12

    elapsed = time.perf_counter() - t0
    print(f"bundle completed in {elapsed:.1f} s")
    assert elapsed < 120.0


def test_12_parity_conditioned_fringes_anticorrelate(flagship):
    params, _, _ = flagship
    t_cat = math.pi / (2.0 * GAMMA * ALPHA_FLAG)  # quarter period: cat time
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", ALPHA_FLAG), N_FLAG)
    snap = cq.snapshots(state, params, [t_cat])[0]
    even = cq.parity_postselect(snap, cq.ParityOutcome.EVEN)
    odd = cq.parity_postselect(snap, cq.ParityOutcome.ODD)
    grid_even = cq.wigner_function(even.rho, n_theta=181, n_phi=72)
    grid_odd = cq.wigner_function(odd.rho, n_theta=181, n_phi=72)
    col = 18  # phi = 2 pi * 18 / 72 = pi / 2, the fringe meridian
    r = pearson(grid_even.values[:, col], grid_odd.values[:, col])
    print(f"meridian correlation r = {r:.4f} at t = {t_cat:.5f};"
          f" min values {grid_even.values.min():.4f} (even),"
          f" {grid_odd.values.min():.4f} (odd)")
    assert r < -0.5
    assert grid_even.values.min() < 0.0
    assert grid_odd.values.min() < 0.0


def test_13_fixed_depletion_keeps_the_cat_as_n_grows():
    """At fixed depletion N/(2|alpha0|^2) = 0.04 parity conditioning keeps
    restoring a macroscopic cat as N grows: the thermodynamic-limit claim,
    at N = 8, 16 and 32 (alpha0 = 10, 14.1, 20; one Rabi period, 401
    samples).

    Measured: the even-conditioned peak F/N is 7.994, 15.993 and 31.993,
    so it certifies depth N; the trace-out maximum F/N is 1.0017, 1.0023
    and 1.0026; max |F_even - F_model| / N^2 over the period is 0.128,
    0.104 and 0.116.  The gates:
    - peak F/N >= 0.99 N, read through ``entanglement_depth_bound`` as
      depth N: a conditioned state that lost its cat reads well below
      (the trace-out state reads about 1);
    - trace-out F/N <= 1.05, about twenty times the measured excess over
      1: a readout that conditioned where it should trace out, or a state
      whose branches no longer decohere, reads of order N;
    - the deviation at N = 16 and 32 stays within 1.1 times that at N = 8.
      At fixed alpha0 = 10 it grows 1.45- and 1.67-fold per doubling of N
      (0.088, 0.128, 0.214 at N = 4, 8, 16; see ``test_06``), so a model that only
      holds at fixed |alpha0| fails here, while the measured ratios are
      0.81 and 0.91.
    """
    devs = []
    for n in (8, 16, 32):
        alpha = math.sqrt(n / (2.0 * 0.04))
        params = cq.ModelParams(n_qubits=n, gamma=GAMMA)
        assert cq.depletion_ratio(n, alpha) == pytest.approx(0.04, rel=1e-12)
        state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha), n)
        period = cq.RabiDrive(params, alpha).period()
        plan = cq.PropagationPlan(t_max=period, dt=period / 400, sample_stride=1,
                                  monitors=("qfi_density", "qfi_density_even",
                                            "prob_even"))
        series = cq.run(state, params, plan)
        assert series.times.size == 401
        f_even = n * series.column("qfi_density_even")
        k = int(np.nanargmax(f_even))
        depth = cq.entanglement_depth_bound(f_even[k], n)
        trace_max = float(series.column("qfi_density").max())
        dev, t_dev = _max_model_deviation(params, alpha, series, period)
        devs.append(dev)
        print(f"N = {n}, alpha0 = {alpha:.3f}: peak F_even/N {f_even[k] / n:.4f}"
              f" (depth {depth}) at t = {series.times[k]:.2f}; trace-out max"
              f" F/N {trace_max:.4f}; max |F_even - F_model|/N^2 {dev:.4f}"
              f" at t = {t_dev:.2f}; prob_even there"
              f" {series.column('prob_even')[k]:.4f}")
        assert f_even[k] / n >= 0.99 * n
        assert depth == n
        assert trace_max <= 1.05
    print(f"deviation ratios to N = 8: {devs[1] / devs[0]:.3f}, {devs[2] / devs[0]:.3f}")
    assert max(devs[1:]) <= 1.1 * devs[0]


def test_14_window_scaling_holds_to_64_emitters():
    """The ultrashort window of ``test_09`` (|alpha0|^2 = N/2, stride 100)
    carried to N = 32 and 64: fwhm ~ N^-1 and t_peak ~ N^-1/2 over
    N = 16, 32, 64.

    Measured: t_peak 92.6, 65.6, 46.4 and fwhm 20.25, 10.32, 5.19 (N = 64
    runs in about 2 s); the log-log slopes are -0.982 (fwhm) and -0.498
    (t_peak).  The law is asymptotic: the fwhm slope per doubling moves
    toward -1 with N (-0.972, then -0.993), and over N = 4, 8, 16
    ``test_09`` measures -0.915 and -0.489 against gates of +-0.15 and
    +-0.1.  Here the gates are +-0.05 and +-0.025, five percent of each
    exponent: about three times the measured offset for fwhm (0.018) and
    fifteen times for t_peak (0.0016), which is read off the 0.1 sample
    grid.
    """
    sizes = (16, 32, 64)
    windows = {16: 150.0, 32: 100.0, 64: 70.0}  # brackets each peak
    t_peaks, fwhms = [], []
    for n in sizes:
        alpha = math.sqrt(n / 2.0)
        params = cq.ModelParams(n_qubits=n, gamma=GAMMA)
        state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha), n)
        plan = cq.PropagationPlan(t_max=windows[n], sample_stride=100,
                                  monitors=("qfi_density",))
        series = cq.run(state, params, plan)
        info = cq.peak_and_fwhm(series.times, series.column("qfi_density"))
        t_peaks.append(info.t_peak)
        fwhms.append(info.fwhm)
    logs = np.log(np.asarray(sizes, dtype=float))
    slope_fwhm = float(np.polyfit(logs, np.log(fwhms), 1)[0])
    slope_t = float(np.polyfit(logs, np.log(t_peaks), 1)[0])
    print(f"t_peak {np.round(t_peaks, 1)} fwhm {np.round(fwhms, 2)};"
          f" log-log slopes fwhm {slope_fwhm:.4f}, t_peak {slope_t:.4f}")
    assert -1.05 <= slope_fwhm <= -0.95
    assert -0.525 <= slope_t <= -0.475
