"""Classical-drive limit: closed Rabi form, branch superpositions, and the
coherent-state expansion against the full quantum dynamics."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from scipy.integrate import solve_ivp

import catqed as cq
from catqed import semiclassical
from oracles import dense_drive_state, dense_spin, spin_coherent_mpmath

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
                            DET.gamma * DET.omega * abs(alpha))
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
    (cq.ModelParams(n_qubits=4, gamma=0.3 * 0.6, delta=0.8), 1.0 + 1.0j),
], ids=["resonant", "detuned", "detuned-complex"])
def test_rabi_solution_matches_numerical_drive(params, alpha):
    t = 3.0
    closed = cq.rabi_solution(params, alpha, t)
    assert np.max(np.abs(closed - dense_drive_state(params, alpha, t))) < 1e-12


@pytest.mark.parametrize("n_qubits", [68, 200, 1000])
def test_product_state_matches_mpmath(n_qubits):
    # C(68, 34) is past 2^64, where a binomial table turns into Python ints;
    # p = |b|^2 spans both poles, phases are random
    rng = np.random.default_rng(n_qubits)
    p = np.array([0.0, 1e-3, 0.02, 0.3, 0.5, 0.77, 0.999, 1.0])
    a = np.sqrt(1.0 - p) * np.exp(2j * math.pi * rng.uniform(size=p.size))
    b = np.sqrt(p) * np.exp(2j * math.pi * rng.uniform(size=p.size))
    rows = semiclassical._product_state(n_qubits, a, b)
    for row, ai, bi in zip(rows, a, b):
        ref = spin_coherent_mpmath(n_qubits, ai, bi)
        kept = np.abs(ref) > 1e-280
        assert np.all(np.abs(row[kept] - ref[kept]) <= 1e-12 * np.abs(ref[kept]))
        assert np.all(np.abs(row[~kept]) <= 1e-280)


def test_rabi_cat_state_at_128_qubits_matches_dense_drive():
    params = cq.ModelParams(n_qubits=128, gamma=0.01, delta=1.2)
    alpha, t = 10.0 + 3.0j, 17.0
    ref = dense_drive_state(params, alpha, t) + dense_drive_state(params, -alpha, t)
    ref /= np.linalg.norm(ref)
    assert np.max(np.abs(cq.rabi_cat_state(params, alpha, t) - ref)) < 1e-12


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


def test_branch_superpositions_follow_the_full_drive():
    # without the RWA each branch is the Floquet-propagated full drive; at
    # these parameters the closed form would overstate the cat's QFI
    full = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=False)
    alpha, t = 10.0, 150.0

    def normalized(v):
        return v / np.linalg.norm(v)

    plus = cq.classically_driven_state(full, alpha, t)
    minus = cq.classically_driven_state(full, -alpha, t)
    down = cq.classically_driven_state(full, 0.0, t)
    even = cq.rabi_cat_state(full, alpha, t)
    assert np.max(np.abs(even - normalized(plus + minus))) < 1e-12
    assert np.max(np.abs(cq.rabi_cat_state(full, alpha, t, parity="odd")
                         - normalized(plus - minus))) < 1e-12
    assert np.max(np.abs(cq.rabi_kitten_state(full, alpha, t)
                         - normalized(plus + down))) < 1e-12
    closed = cq.rabi_cat_state(cq.ModelParams(n_qubits=8, gamma=0.01), alpha, t)
    assert cq.qfi_pure(even, 8).value == pytest.approx(26.87, abs=0.01)
    assert cq.qfi_pure(closed, 8).value == pytest.approx(29.32, abs=0.01)


def test_expansion_refuses_the_full_drive():
    full = cq.ModelParams(n_qubits=2, gamma=0.2, rwa=False)
    with pytest.raises(cq.ConfigError, match="rwa = true"):
        cq.coherent_expansion_state(full, cq.PhotonicSpec("even_cat", 2.0), 1.0)


def test_rabi_cat_even_starts_all_down():
    psi = cq.rabi_cat_state(RES, 1.3, 0.0, parity="even")
    assert psi[0] == pytest.approx(1.0)
    assert np.max(np.abs(psi[1:])) == 0.0


def test_rabi_cat_odd_degenerate_at_t0():
    # the two branches coincide at t = 0, so the odd combination vanishes
    with pytest.raises(cq.StateValidationError):
        cq.rabi_cat_state(RES, 1.3, 0.0, parity="odd")
    with pytest.raises(cq.StateValidationError, match="cancels"):
        cq.rabi_cat_state(cq.ModelParams(n_qubits=3, gamma=0.7, rwa=False), 1.3, 0.0,
                          parity="odd")


CAT_DRIVES = {
    "rwa": cq.ModelParams(n_qubits=5, gamma=0.4),
    "rwa-detuned": cq.ModelParams(n_qubits=8, gamma=0.3, delta=1.3),
    "full": cq.ModelParams(n_qubits=5, gamma=0.4, rwa=False),
    "full-detuned": cq.ModelParams(n_qubits=8, gamma=0.3, delta=1.3, rwa=False),
}


@pytest.mark.parametrize("params", CAT_DRIVES.values(), ids=CAT_DRIVES.keys())
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_one_branch_cat_matches_the_two_branch_sum(params, parity):
    # psi_-alpha = (-1)^k psi_alpha under either drive, so the cat is one
    # branch's even-k or odd-k half
    sign = 1.0 if parity == "even" else -1.0
    for alpha in (1.7, 2.0 - 1.5j):
        for t in (0.3, 2.9, 11.0):
            two = semiclassical._superposed(params, (alpha, -alpha), (1.0, sign), t)
            one = cq.rabi_cat_state(params, alpha, t, parity=parity)
            assert np.max(np.abs(one - two)) <= 1e-15


@pytest.mark.parametrize("rwa", [True, False])
def test_one_branch_cat_refuses_where_the_two_branch_sum_cancels(rwa):
    # near-cancelling odd cats: tiny amplitudes and times near 0
    params = cq.ModelParams(n_qubits=4, gamma=0.5, rwa=rwa)
    for alpha in (1e-7, 3e-6, 1e-5, 1e-3, 0.7):
        for t in (0.0, 1e-6, 1e-3, 0.4):
            try:
                semiclassical._superposed(params, (alpha, -alpha), (1.0, -1.0), t)
            except cq.StateValidationError:
                with pytest.raises(cq.StateValidationError, match="cancels"):
                    cq.rabi_cat_state(params, alpha, t, parity="odd")
            else:
                cq.rabi_cat_state(params, alpha, t, parity="odd")


def test_full_drive_cat_evaluates_one_branch(monkeypatch):
    params = cq.ModelParams(n_qubits=4, gamma=0.3, rwa=False)
    branches = []
    state = semiclassical.classically_driven_state

    def spy(params, alpha, t):
        branches.append(alpha)
        return state(params, alpha, t)

    monkeypatch.setattr(semiclassical, "classically_driven_state", spy)
    cq.rabi_cat_state(params, 1.5, 2.0)
    cq.rabi_cat_state(params, 1.5, 2.0, parity="odd")
    assert branches == [1.5, 1.5]


def test_full_drive_scan_solves_its_floquet_matrix_once(monkeypatch):
    params = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=False)
    times = np.linspace(0.0, 300.0, 101)
    uncached = []
    for t in times:
        semiclassical._floquet.cache_clear()
        uncached.append(cq.rabi_cat_state(params, 10.0, t))
    semiclassical._floquet.cache_clear()
    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(m.shape) or eigh(m))
    cached = [cq.rabi_cat_state(params, 10.0, t) for t in times]
    assert sizes == [(65, 65)]
    assert all(np.array_equal(a, b) for a, b in zip(cached, uncached))


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
    g = params.gamma * params.omega

    def rhs(s, y):
        field = -2.0 * g * np.imag(alpha * np.exp(-1j * params.omega * s))
        return -1j * ((params.delta * jz - field * jx) @ y)

    down = np.zeros(params.n_qubits + 1, dtype=complex)
    down[0] = 1.0
    ref = solve_ivp(rhs, (0.0, t), down, method="DOP853",
                    rtol=1e-12, atol=1e-13).y[:, -1]
    got = cq.classically_driven_state(params, alpha, t)
    assert np.max(np.abs(got - ref)) < 1e-9


# One qubit under the full drive: the points the other tests and `validate`
# use, a detuned complex drive, and a strong one (g |alpha| = 30, K = 101).
FULL_DRIVES = {
    "trajectory": (cq.ModelParams(n_qubits=1, gamma=0.4, rwa=False), 1.1),
    "collective": (cq.ModelParams(n_qubits=1, gamma=0.4, rwa=False), 1.1 + 0.3j),
    "weak": (cq.ModelParams(n_qubits=1, gamma=0.01, rwa=False), 2.0),
    "validate": (cq.ModelParams(n_qubits=1, gamma=0.01, rwa=False), 5.0),
    "detuned-complex": (cq.ModelParams(n_qubits=1, gamma=0.3, delta=1.4, omega=0.8,
                                       rwa=False), 1.2 - 0.7j),
    "strong": (cq.ModelParams(n_qubits=1, gamma=1.0, rwa=False), 30.0),
}


def _dop853_propagator(params, alpha, times):
    """U(t) of one qubit under the full drive, one 2 x 2 matrix per time."""
    def rhs(t, y):
        q = params.coupling * np.imag(alpha * np.exp(-1j * params.omega * t))
        h = np.array([[-0.5 * params.delta, q], [q, 0.5 * params.delta]])
        return -1j * (h @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, times[-1]), np.eye(2, dtype=complex).ravel(),
                    method="DOP853", t_eval=times, rtol=3e-14, atol=1e-16)
    return sol.y.T.reshape(-1, 2, 2)


@pytest.mark.parametrize("params,alpha", FULL_DRIVES.values(), ids=FULL_DRIVES.keys())
def test_floquet_full_drive_matches_dop853(params, alpha):
    # Worst measured over these drives: 2.9e-13 for t <= 63 and 3.3e-11 at
    # t = 10^3 T + s (2.3e-12 without the strong drive), the strong drive
    # worst in both.  The long-time reference is U(s) U(T)^1000 with U(s)
    # and U(T) from DOP853.  Loosening DOP853 to rtol 1e-13 triples both
    # deviations, so the reference carries much of them; the Floquet
    # eigenphase rounding, about 1e-16 |H_F| t, is of the same order.
    times = np.linspace(0.0, 63.0, 64)
    got = cq.classically_driven_trajectory(params, alpha, times)
    ref = _dop853_propagator(params, alpha, times)[:, :, 0]
    assert np.max(np.abs(got - ref)) < 1e-12
    period = 2.0 * math.pi / params.omega
    s = 0.37 * period
    u_s, u_period = _dop853_propagator(params, alpha, [s, period])
    ref = u_s @ np.linalg.matrix_power(u_period, 1000)[:, 0]
    got = cq.classically_driven_state(params, alpha, 1000 * period + s)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_full_drive_fails_loudly_past_its_floquet_cut(monkeypatch):
    params = cq.ModelParams(n_qubits=2, gamma=0.4, rwa=False)
    monkeypatch.setattr(semiclassical, "FLOQUET_EDGE_TOL", -1.0)
    with pytest.raises(cq.NumericalError, match="edge harmonics"):
        cq.classically_driven_trajectory(params, 1.1, [0.5, 2.0])
    monkeypatch.undo()
    # a cut past MAX_FLOQUET_ORDER is refused before any matrix is built
    with pytest.raises(cq.NumericalError, match="Bessel orders"):
        cq.classically_driven_state(params, 1e4, 1.0)


@pytest.mark.parametrize("params", [RES, cq.ModelParams(n_qubits=3, gamma=0.7, rwa=False)])
def test_trajectory_takes_times_in_any_order(params):
    # both paths evaluate each time on its own: shuffled times give the
    # sorted rows, shuffled
    times = np.array([0.0, 0.3, 1.7, 2.2, 5.0])
    order = np.array([3, 0, 4, 1, 2])
    sorted_rows = cq.classically_driven_trajectory(params, 1.1, times)
    shuffled = cq.classically_driven_trajectory(params, 1.1, times[order])
    assert np.abs(shuffled - sorted_rows[order]).max() < 1e-14


@pytest.mark.parametrize("rwa", [True, False])
@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
def test_trajectory_refuses_a_bad_time_anywhere(rwa, bad):
    params = cq.ModelParams(n_qubits=3, gamma=0.7, rwa=rwa)
    for times in ([bad, 1.0, 2.0], [1.0, bad, 2.0], [1.0, 2.0, bad]):
        with pytest.raises(cq.StateValidationError, match="finite and nonnegative"):
            cq.classically_driven_trajectory(params, 1.1, times)


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_the_drive_references_refuse_a_time_that_is_not_finite(rwa):
    params = cq.ModelParams(n_qubits=3, gamma=0.7, rwa=rwa)
    refs = (cq.rabi_solution, cq.rabi_cat_state, cq.rabi_kitten_state,
            cq.classically_driven_state)
    for bad in (math.nan, math.inf, -math.inf):
        for ref in refs:
            with pytest.raises(cq.StateValidationError, match="finite"):
                ref(params, 1.1, bad)
    # a negative time runs the closed form backwards (``rabi_solution`` is
    # that closed form under either model); the full drive and
    # ``classically_driven_state`` refuse it
    for ref in refs:
        if ref is cq.rabi_solution or (rwa and ref is not cq.classically_driven_state):
            assert np.linalg.norm(ref(params, 1.1, -0.4)) == pytest.approx(1.0, abs=1e-14)
        else:
            with pytest.raises(cq.StateValidationError, match="nonnegative"):
                ref(params, 1.1, -0.4)


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


@pytest.mark.parametrize("spec", [
    cq.PhotonicSpec("coherent", 1.5),
    cq.PhotonicSpec("even_cat", 4.0),
    cq.PhotonicSpec("kitten", 3.0),
    cq.PhotonicSpec("general_cat", 2.0, beta=-1.0, phi_cat=0.3),
], ids=["coherent", "even_cat", "kitten", "general_cat"])
def test_pruning_stays_within_its_bound(spec, monkeypatch):
    # the pruned nodes are a subset of the full grid, in its order, whose
    # dropped |weights| sum to at most 2^-53 of the total and share no value
    # with a kept |weight|; the state moves by at most 1e-15 against the sum
    # over every node
    params = cq.ModelParams(n_qubits=4, gamma=0.05)
    alphas, weights = cq.expansion_weights(spec, 49)
    pruned = semiclassical._assemble(params, spec, 2.0, 60, 49)
    monkeypatch.setattr(semiclassical, "PRUNED_WEIGHT_FRACTION", 0.0)
    all_alphas, all_weights = cq.expansion_weights(spec, 49)
    assert all_alphas.size == 49 * 49 * len(spec.branch_amplitudes()) > alphas.size
    kept = np.isin(all_alphas, alphas)
    assert np.array_equal(all_alphas[kept], alphas)
    assert np.array_equal(all_weights[kept], weights)
    size = np.abs(all_weights)
    assert size[~kept].sum() <= 2.0 ** -53 * size.sum()
    assert not np.isin(size[~kept], size[kept]).any()
    full = semiclassical._assemble(params, spec, 2.0, 60, 49)
    assert np.max(np.abs(pruned - full)) <= 1e-15


def test_expansion_rejects_complex_branch_centers():
    spec = cq.PhotonicSpec("general_cat", 2.0, beta=2.0j)
    with pytest.raises(cq.StateValidationError):
        cq.expansion_weights(spec)


def test_expansion_grid_convergence_guard(monkeypatch):
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    spec = cq.PhotonicSpec("even_cat", 2.0)
    monkeypatch.setattr(semiclassical, "DEFAULT_GRID_NODES", 3)
    with pytest.raises(cq.GridConvergenceError):
        cq.coherent_expansion_state(params, spec, 1.0)


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


def test_expansion_contracts_the_grid_in_blocks(monkeypatch):
    params = cq.ModelParams(n_qubits=2, gamma=0.01)
    # alpha 30: the 49-node check grid holds 4802 points of 1123 Fock
    # levels, 86 MB of coefficients if contracted at once
    tracemalloc.start()
    try:
        cq.coherent_expansion_state(params, cq.PhotonicSpec("even_cat", 30.0), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    # many uneven blocks against one block holding the whole grid
    spec = cq.PhotonicSpec("general_cat", 2.0, beta=-1.0, phi_cat=0.3)
    n_max = 40
    whole = semiclassical._assemble(params, spec, 1.5, n_max, 21)
    monkeypatch.setattr(semiclassical, "EXPANSION_BLOCK_BYTES", 7 * 16 * (n_max + 1))
    blocked = semiclassical._assemble(params, spec, 1.5, n_max, 21)
    assert np.max(np.abs(blocked - whole)) <= 1e-14


def test_expansion_memory_follows_the_block_budget(monkeypatch):
    """N = 16, alpha 4 (4802 check-grid nodes of 17 spin and 73 Fock
    levels): with a 64 KiB block budget the traced peak stays under 1 MiB
    (0.5 MiB measured, most of it the nodes' alphas and weights) and under
    half the peak at a 1 MiB budget.  Spin rows formed for every node at
    once peaked at 5.4 MiB at any budget."""
    params = cq.ModelParams(n_qubits=16, gamma=0.01)
    spec = cq.PhotonicSpec("even_cat", 4.0)
    cq.coherent_expansion_state(params, spec, 1.0)
    peaks = []
    for budget in (1 << 20, 1 << 16):
        monkeypatch.setattr(semiclassical, "EXPANSION_BLOCK_BYTES", budget)
        tracemalloc.start()
        try:
            cq.coherent_expansion_state(params, spec, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2**20 and peaks[1] < 0.5 * peaks[0]


def test_rwa_dynamics_approach_the_drive_away_from_unit_frequency():
    """At omega = delta = 1.5 the even-conditioned QFI approaches the
    external-field model as 1/|alpha0|^2, as test_06 checks at omega = 1.

    Both the RWA Hamiltonian and the closed-form drive couple at
    gamma omega / 2.  On resonance the rotating-frame dynamics depend
    on that rate alone, so the largest deviation over one period is the
    one at omega = 1: 0.128 at alpha0 = 10 and 0.254 at 7.07 (N = 8),
    slope -1.98.  An RWA rate of gamma / 2 leaves it near 0.87 at both
    amplitudes (slope 0.03).
    """
    params = cq.ModelParams(n_qubits=8, gamma=0.01, delta=1.5, omega=1.5)
    devs = []
    for alpha in (10.0, 10.0 / math.sqrt(2.0)):
        period = cq.RabiDrive(params, alpha).period()
        state = cq.prepare_initial(cq.PhotonicSpec("even_cat", alpha), 8)
        plan = cq.PropagationPlan(t_max=period, sample_stride=100,
                                  monitors=("qfi_density_even",))
        series = cq.run(state, params, plan)
        model = np.array([cq.qfi_pure(cq.rabi_cat_state(params, alpha, t), 8).value
                          for t in series.times])
        devs.append(np.max(np.abs(8 * series.column("qfi_density_even") - model)) / 64)
    slope = math.log(devs[0] / devs[1]) / math.log(math.sqrt(2.0))
    assert -2.2 <= slope <= -1.8, f"deviations {devs}, slope {slope:.3f}"


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
