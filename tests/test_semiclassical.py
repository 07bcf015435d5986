"""Classical-drive limit: closed Rabi form, branch superpositions, and the
coherent-state expansion against the full quantum dynamics."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import catqed as cq
from catqed import semiclassical
from oracles import dense_spin

RES = cq.ModelParams(n_qubits=3, gamma=0.7)
DET = cq.ModelParams(n_qubits=3, gamma=0.4, delta=1.4)


@pytest.mark.parametrize("params", [RES, DET], ids=["resonant", "detuned"])
@pytest.mark.parametrize("alpha", [1.0, 2.5, 1.0 + 0.5j])
def test_rabi_amplitudes_unit_norm(params, alpha):
    drive = cq.RabiDrive(params, alpha)
    for t in (0.0, 0.3, 1.7, 9.2):
        a, b = drive.amplitudes(t)
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_rabi_drive_derived_quantities():
    alpha = 1.5 - 0.5j
    drive = cq.RabiDrive(DET, alpha)
    assert drive.field_amplitude == pytest.approx(
        1j * DET.gamma * DET.omega * alpha)
    expected_w = math.hypot(DET.delta - DET.omega,
                            DET.gamma * DET.omega * DET.mu * abs(alpha))
    assert drive.rabi_frequency == pytest.approx(expected_w, rel=1e-14)
    assert drive.period() == pytest.approx(2.0 * math.pi / expected_w)


def test_undriven_resonant_qubit_has_no_period():
    drive = cq.RabiDrive(RES, 0.0)
    assert drive.rabi_frequency == 0.0
    with pytest.raises(cq.StateValidationError):
        drive.period()


def test_rabi_solution_alpha_zero_free_phase():
    # no drive: stays all-down, picks up the free phase e^{i J omega t}
    t = 2.3
    psi = cq.rabi_solution(RES, 0.0, t)
    j = RES.n_qubits / 2.0
    assert psi[0] == pytest.approx(np.exp(1j * j * RES.omega * t), abs=1e-12)
    assert np.max(np.abs(psi[1:])) == 0.0


@pytest.mark.parametrize("params,alpha", [
    (cq.ModelParams(n_qubits=2, gamma=0.5), 2.0),
    (cq.ModelParams(n_qubits=3, gamma=0.4, delta=1.3), 1.5),
    (cq.ModelParams(n_qubits=4, gamma=0.3, delta=0.8, mu=0.6), 1.0 + 1.0j),
], ids=["resonant", "detuned", "detuned-complex"])
def test_rabi_solution_matches_numerical_drive(params, alpha):
    # the rotating wave drive is static in the co-rotating frame: one dense
    # matrix exponential there, then the free rotation back to the lab frame
    t = 3.0
    _, _, jz, jp, jm = dense_spin(params.n_qubits)
    coeff = -0.5j * params.gamma * params.omega * params.mu * alpha
    h = (params.delta - params.omega) * jz + coeff * jp + np.conj(coeff) * jm
    down = np.zeros(params.n_qubits + 1, dtype=complex)
    down[0] = 1.0
    numeric = np.exp(-1j * params.omega * t * np.diag(jz).real) \
        * (expm(-1j * t * h) @ down)
    closed = cq.rabi_solution(params, alpha, t)
    assert np.max(np.abs(closed - numeric)) < 1e-12


def jz_expectation(params, psi):
    m = params.dicke().m_values()
    return float(np.real(np.sum(m * np.abs(psi) ** 2)))


def test_driven_jz_follows_rabi_oscillation():
    # resonance: <Jz> = -(N/2) cos(W t)
    params = cq.ModelParams(n_qubits=5, gamma=0.6)
    alpha = 1.2
    w = cq.RabiDrive(params, alpha).rabi_frequency
    for t in (0.0, 0.4, 1.1, 2.9):
        psi = cq.rabi_solution(params, alpha, t)
        expected = -0.5 * params.n_qubits * math.cos(w * t)
        assert jz_expectation(params, psi) == pytest.approx(expected, abs=1e-10)


def test_branch_superpositions_match_manual_assembly():
    params = cq.ModelParams(n_qubits=4, gamma=0.5)
    alpha, t = 1.8, 0.9

    def normalized(v):
        return v / np.linalg.norm(v)

    plus = cq.rabi_solution(params, alpha, t)
    minus = cq.rabi_solution(params, -alpha, t)
    down = cq.rabi_solution(params, 0.0, t)
    assert np.max(np.abs(cq.rabi_cat_state(params, alpha, t, parity="even")
                         - normalized(plus + minus))) < 1e-12
    assert np.max(np.abs(cq.rabi_cat_state(params, alpha, t, parity="odd")
                         - normalized(plus - minus))) < 1e-12
    assert np.max(np.abs(cq.rabi_kitten_state(params, alpha, t)
                         - normalized(plus + down))) < 1e-12


def test_rabi_cat_even_starts_all_down():
    psi = cq.rabi_cat_state(RES, 1.3, 0.0, parity="even")
    assert psi[0] == pytest.approx(1.0)
    assert np.max(np.abs(psi[1:])) == 0.0


def test_rabi_cat_odd_degenerate_at_t0():
    # the two branches coincide at t = 0, so the odd combination vanishes
    with pytest.raises(cq.StateValidationError):
        cq.rabi_cat_state(RES, 1.3, 0.0, parity="odd")


def test_rabi_cat_unknown_parity():
    with pytest.raises(cq.StateValidationError):
        cq.rabi_cat_state(RES, 1.3, 0.5, parity="huh")


def test_trajectory_matches_single_calls():
    times = [0.5, 1.25, 2.0]
    for params in (RES, cq.ModelParams(n_qubits=3, gamma=0.4, rwa=False)):
        traj = cq.classically_driven_trajectory(params, 1.1, times)
        for row, t in zip(traj, times):
            single = cq.classically_driven_state(params, 1.1, t)
            assert np.max(np.abs(row - single)) < 1e-12


def test_full_drive_matches_collective_integration():
    # the collective equation integrated directly on the Dicke ladder checks
    # the one-qubit-then-product construction of the full drive
    params = cq.ModelParams(n_qubits=3, gamma=0.4, rwa=False)
    alpha, t = 1.1 + 0.3j, 6.0
    jx, _, jz, _, _ = dense_spin(params.n_qubits)
    g = params.gamma * params.omega * params.mu

    def rhs(s, y):
        field = -2.0 * g * np.imag(alpha * np.exp(-1j * params.omega * s))
        return -1j * ((params.delta * jz - field * jx) @ y)

    down = np.zeros(params.n_qubits + 1, dtype=complex)
    down[0] = 1.0
    ref = solve_ivp(rhs, (0.0, t), down, method="DOP853",
                    rtol=1e-12, atol=1e-13).y[:, -1]
    got = cq.classically_driven_state(params, alpha, t)
    assert np.max(np.abs(got - ref)) < 1e-9


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(cq.StateValidationError):
        cq.classically_driven_trajectory(RES, 1.1, [1.0, 0.5])


def test_counter_rotating_terms_negligible_when_weak():
    # weak coupling: the full oscillating drive only dresses the rotating
    # wave answer with small 2 omega micromotion
    rwa = cq.ModelParams(n_qubits=3, gamma=0.01)
    full = cq.ModelParams(n_qubits=3, gamma=0.01, rwa=False)
    alpha, t = 2.0, 2.0
    a = cq.classically_driven_state(rwa, alpha, t)
    b = cq.classically_driven_state(full, alpha, t)
    assert abs(np.vdot(a, b)) > 0.999


@pytest.mark.parametrize("spec", [
    cq.PhotonicSpec("coherent", 1.5),
    cq.PhotonicSpec("even_cat", 2.0),
    cq.PhotonicSpec("kitten", 3.0),
    cq.PhotonicSpec("general_cat", 2.0, beta=-2.0, phi_cat=math.pi / 2),
], ids=["coherent", "even_cat", "kitten", "general_cat"])
def test_expansion_weights_reassemble_the_state(spec):
    n_max = 60
    alphas, weights = cq.expansion_weights(spec)
    rebuilt = cq.stateprep.coherent_matrix(alphas, n_max).T @ weights
    target = cq.stateprep.photonic_vector(spec, n_max)
    assert np.max(np.abs(rebuilt - target)) < 1e-6


def test_expansion_rejects_complex_branch_centers():
    spec = cq.PhotonicSpec("general_cat", 2.0, beta=2.0j)
    with pytest.raises(cq.StateValidationError):
        cq.expansion_weights(spec)


def test_expansion_grid_convergence_guard():
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    spec = cq.PhotonicSpec("even_cat", 2.0)
    with pytest.raises(cq.GridConvergenceError):
        cq.coherent_expansion_state(params, spec, 1.0, nodes=3)


@pytest.mark.parametrize("spec", [
    cq.PhotonicSpec("coherent", 4.0),
    cq.PhotonicSpec("even_cat", 4.0),
], ids=["coherent", "even_cat"])
def test_expansion_tracks_full_dynamics_when_undepleted(spec):
    # N/2 flips against |alpha|^2 = 16 photons: the reservoir picture
    # should hold to high fidelity over a fair fraction of a Rabi cycle
    params = cq.ModelParams(n_qubits=4, gamma=0.01)
    n_max = cq.required_n_max(4.0, params.n_qubits)
    t = 20.0
    initial = cq.prepare_initial(spec, params.n_qubits, n_max=n_max)
    exact = cq.propagate(initial, params, t)
    predicted = cq.coherent_expansion_state(params, spec, t, n_max=n_max)
    overlap = abs(np.vdot(predicted.amplitudes, exact.amplitudes))
    assert overlap > 0.999


def test_expansion_tracks_full_dynamics_at_large_amplitude():
    # grid amplitudes reach |alpha| ~ 45, where e^{-|alpha|^2/2} is subnormal
    params = cq.ModelParams(n_qubits=2, gamma=0.01)
    spec = cq.PhotonicSpec("even_cat", 30.0)
    n_max = cq.required_n_max(30.0, params.n_qubits)
    exact = cq.propagate(cq.prepare_initial(spec, 2, n_max=n_max), params, 1.0)
    predicted = cq.coherent_expansion_state(params, spec, 1.0, n_max=n_max)
    assert np.all(np.isfinite(predicted.amplitudes))
    assert abs(np.vdot(predicted.amplitudes, exact.amplitudes)) > 0.9999999


def test_expansion_builds_each_gauss_hermite_rule_once(monkeypatch):
    built = []

    def counted(nodes):
        built.append(nodes)
        return hermgauss(nodes)

    semiclassical._hermite_rule.cache_clear()
    monkeypatch.setattr(semiclassical, "hermgauss", counted)
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    spec = cq.PhotonicSpec("even_cat", 2.0)
    for t in (0.5, 1.0):
        cq.coherent_expansion_state(params, spec, t)
    assert built == [semiclassical.DEFAULT_GRID_NODES,
                     semiclassical.DEFAULT_GRID_NODES + 8]


def test_depletion_ratio():
    assert cq.depletion_ratio(8, 4.0) == pytest.approx(0.25)
    assert cq.depletion_ratio(2, 10.0) == pytest.approx(0.01)
    assert math.isinf(cq.depletion_ratio(4, 0.0))
