"""Hamiltonian action and observable expectations against dense kron oracles."""

import tracemalloc

import numpy as np
import pytest

import catqed as cq
from catqed import hilbert
from catqed.propagator import _Chebyshev, _evolve, _live_sectors
from oracles import counter_rotating, dense_boson, dense_hamiltonian, dense_spin


def random_state(rng, n_qubits, n_max):
    shape = (n_qubits + 1, n_max + 1)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c /= np.linalg.norm(c)
    return cq.CompositeState(c, cq.DickeSpace(n_qubits), cq.FockSpace(n_max))


def gershgorin(h):
    """Dense Gershgorin interval (lo, hi), row discs read off the matrix."""
    centre = np.diag(h).real
    radius = np.abs(h).sum(axis=1) - np.abs(centre)
    return (centre - radius).min(), (centre + radius).max()


def test_spin_matrices_match_dense_loops():
    jx, jy, jz = cq.spin_matrices(5)
    ox, oy, oz, _, _ = dense_spin(5)
    assert np.abs(jx - ox).max() < 1e-14
    assert np.abs(jy - oy).max() < 1e-14
    assert np.abs(jz - oz).max() < 1e-14


def test_spin_commutator():
    jx, jy, jz = cq.spin_matrices(7)
    comm = jx @ jy - jy @ jx
    assert np.abs(comm - 1j * jz).max() < 1e-13


def start_of_run(initial, params, monkeypatch):
    """The evolver of a run and psi as ``_evolve`` starts it, slot 0 of the
    ring that the first ``_expand`` receives (a random state fills the
    truncation tail, which is not checked here)."""
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 2.0)
    started = []
    expand = _Chebyshev._expand

    def spied(self, coeffs, folds, ring, rows, drift):
        started.append((self, ring[0].copy()))
        return expand(self, coeffs, folds, ring, rows, drift)

    monkeypatch.setattr(_Chebyshev, "_expand", spied)
    next(_evolve(initial, params, [1], 1e-3))
    return started[0]


@pytest.mark.parametrize("params", [
    cq.ModelParams(n_qubits=3, gamma=0.2),
    cq.ModelParams(n_qubits=3, gamma=0.2, delta=1.3, omega=0.8),
    cq.ModelParams(n_qubits=2, gamma=0.15 * 0.7, rwa=False),
    cq.ModelParams(n_qubits=1, gamma=0.05, delta=0.9, omega=1.1, rwa=False),
])
def test_apply_hamiltonian_matches_dense(params, rng, monkeypatch):
    n_max = 7
    state = random_state(rng, params.n_qubits, n_max)
    psi = state.amplitudes.ravel()
    h = dense_hamiltonian(params, n_max)
    out = cq.apply_hamiltonian(state, params)
    assert np.abs(out.ravel() - h @ psi).max() < 1e-13
    lo, hi = cq.HamiltonianAction(params, state.dicke, state.fock).spectral_bounds()
    assert (lo, hi) == pytest.approx(gershgorin(h), abs=1e-12)
    # the propagator's one action, mapped onto 2 (H' - c) / r, where the RWA
    # model expands H' = H - omega K in the frame rotating with K = Jz + n
    _, _, jz, _, _ = dense_spin(params.n_qubits)
    _, _, nph = dense_boson(n_max)
    k = np.kron(jz, np.eye(n_max + 1)) + np.kron(np.eye(params.n_qubits + 1), nph)
    expanded = h - params.rwa * params.omega * k
    lo, hi = gershgorin(expanded)
    centre, half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    evolver, psi0 = start_of_run(state, params, monkeypatch)
    assert evolver._center == pytest.approx(centre, abs=1e-12)
    assert evolver._half_width == pytest.approx(half_width, abs=1e-12)
    # under the RWA the evolver holds psi on the band of excitation sectors
    # (every sector of a random state); at t = 0 its gather puts a band
    # array, one zero cell past its end, into the photon-parity parts of the
    # grid unchanged
    mapped = evolver.action.apply(psi0, np.empty_like(psi0))
    rows = mapped.reshape(1, -1)
    if params.rwa:
        assert not np.delete(mapped.ravel(), evolver._band_cells).any()
        rows = np.append(rows, 0.0).reshape(1, -1)
    on_grid = evolver._state(np.zeros(1), rows).amplitudes
    ref = 2.0 / half_width * (expanded @ psi - centre * psi)
    assert np.abs(on_grid.ravel() - ref).max() < 1e-13


def test_only_the_rwa_action_moves_onto_sectors():
    params = cq.ModelParams(n_qubits=2, gamma=0.1, rwa=False)
    with pytest.raises(cq.ConfigError, match="RWA"):
        cq.HamiltonianAction(params, cq.DickeSpace(2), cq.FockSpace(5), sectors=[0, 2, 4])


def band_reference(params, dicke, fock, sectors):
    """(cells, diag, coupling) of the band of ``sectors``: a real cell takes
    the grid action's coupling at its flat grid index, a padding cell none,
    and every cell the diagonal (delta - omega) m of H' = H - omega K at its
    sector's nearest real cell."""
    grid = cq.HamiltonianAction(params, dicke, fock)
    column, k = np.asarray(sectors)[:, None], np.arange(dicke.dim)
    n = column - k
    inside = (n >= 0) & (n <= fock.n_max)
    cells = np.where(inside, k * fock.dim + n, -1)
    nearest = np.clip(k, column - fock.n_max, column)
    diag = ((params.delta - params.omega) * dicke.m_values()[nearest]).astype(complex)
    pair = inside & (n >= 1) & (k < dicke.dim - 1)
    coupling = np.zeros(n.shape, dtype=complex)
    coupling[pair] = grid.coupling[cells[pair]]
    return cells, diag, coupling.reshape(-1)[:-1]


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("spec", [
    cq.PhotonicSpec("even_cat", 2.0), cq.PhotonicSpec("even_cat", 3.5),
    cq.PhotonicSpec("general_cat", 2.5, beta=1.0 - 1.5j, phi_cat=0.7),
    cq.PhotonicSpec("kitten", 3.0),
], ids=["even_cat_2", "even_cat_3.5", "general_cat", "kitten"])
def test_the_band_action_is_the_grid_arithmetic_on_its_cells(n_qubits, spec):
    # bit for bit, on the live sectors and on every sector, whose first N
    # (K < N) and last N (K > n_max) rows hold padding
    initial = cq.prepare_initial(spec, n_qubits)
    dicke, fock = initial.dicke, initial.fock
    every = np.arange(fock.n_max + n_qubits + 1)
    for params in (cq.ModelParams(n_qubits, gamma=0.2),
                   cq.ModelParams(n_qubits, gamma=0.13, delta=1.3, omega=0.7)):
        for sectors in (_live_sectors(initial.amplitudes), every):
            band = cq.HamiltonianAction(params, dicke, fock, sectors)
            cells, diag, coupling = band_reference(params, dicke, fock, sectors)
            assert band.cells.tobytes() == cells.tobytes()
            resonant = params.delta == params.omega
            # on resonance H' has no diagonal, and the band holds none
            assert band.diag is None if resonant else band.diag.tobytes() == diag.tobytes()
            assert band.coupling.tobytes() == coupling.tobytes()
            assert np.array_equal(band.sectors, sectors) and band.shape == cells.shape
            held = [v for v in vars(band).values() if isinstance(v, np.ndarray)]
            assert len(held) == 5 - resonant and max(v.size for v in held) <= cells.size
        assert (cells < 0).any() and (cells >= 0).all(axis=1).any()
        grid = cq.HamiltonianAction(params, dicke, fock)
        assert grid.cells is None and grid.sectors is None


def test_a_headline_band_action_allocates_less_than_one_grid():
    # even cat alpha 30 at N = 24, n_max = 1144: 283 live sectors of 25
    # cells; building the band action peaks below one complex grid
    params = cq.ModelParams(n_qubits=24, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 30.0), 24)
    assert initial.fock.n_max == 1144
    sectors = _live_sectors(initial.amplitudes)
    tracemalloc.start()
    try:
        band = cq.HamiltonianAction(params, initial.dicke, initial.fock, sectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert band.shape == (283, 25)
    assert peak < initial.amplitudes.nbytes == 25 * 1145 * 16


@pytest.mark.parametrize("rwa", [True, False])
def test_apply_refuses_an_out_that_is_not_contiguous(rwa, rng):
    # a flat copy of a strided out would take the exchange terms and lose
    # them while the diagonal landed in out: the apply raises before writing.
    # A strided psi is only read, through a copy, and gives the same H psi.
    params = cq.ModelParams(n_qubits=2, gamma=0.1, rwa=rwa)
    state = random_state(rng, 2, 5)
    action = cq.HamiltonianAction(params, state.dicke, state.fock)
    wide = np.zeros((3, 12), dtype=complex)
    with pytest.raises(ValueError, match="contiguous"):
        action.apply(state.amplitudes, wide[:, ::2])
    assert not wide.any()
    wide[:, ::2] = state.amplitudes
    got = action.apply(wide[:, ::2], np.empty_like(state.amplitudes))
    assert np.array_equal(got, cq.apply_hamiltonian(state, params))


@pytest.mark.parametrize("omega,gamma", [(1.5, 0.2), (0.8, 0.2 * 0.6)])
def test_full_minus_rwa_is_the_counter_rotating_pair(omega, gamma, rng):
    n_max = 6
    full = cq.ModelParams(n_qubits=3, gamma=gamma, delta=1.5, omega=omega, rwa=False)
    rwa = cq.ModelParams(n_qubits=3, gamma=gamma, delta=1.5, omega=omega)
    state = random_state(rng, 3, n_max)
    diff = cq.apply_hamiltonian(state, full) - cq.apply_hamiltonian(state, rwa)
    pair = counter_rotating(full, n_max) @ state.amplitudes.ravel()
    assert np.abs(diff - pair.reshape(diff.shape)).max() < 1e-14


def test_stacked_expectations_match_each_sample(rng):
    params = cq.ModelParams(n_qubits=2, gamma=0.3, omega=1.2, rwa=False)
    states = [random_state(rng, 2, 5) for _ in range(3)]
    stack = cq.CompositeState(np.stack([s.amplitudes for s in states]), cq.DickeSpace(2),
                              cq.FockSpace(5), time=[0.0, 1.0, 2.0])
    for name in cq.operators.OBSERVABLES:
        got = cq.expectation(stack, name, params)
        want = [cq.expectation(s, name, params) for s in states]
        assert isinstance(want[0], float)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), name


def test_hermiticity_of_action(rng):
    # <u|H v> == <H u|v> for both models
    for rwa in (True, False):
        params = cq.ModelParams(n_qubits=3, gamma=0.3, rwa=rwa)
        u = random_state(rng, 3, 6)
        v = random_state(rng, 3, 6)
        hu = cq.apply_hamiltonian(u, params)
        hv = cq.apply_hamiltonian(v, params)
        lhs = np.vdot(u.amplitudes, hv)
        rhs = np.vdot(hu, v.amplitudes)
        assert abs(lhs - rhs) < 1e-13


def test_expectations_match_dense(rng):
    params = cq.ModelParams(n_qubits=3, gamma=0.2, rwa=False)
    n_max = 6
    state = random_state(rng, 3, n_max)
    jx, jy, jz, _, _ = dense_spin(3)
    _, _, nph = dense_boson(n_max)
    ie = np.eye(4)
    ip = np.eye(n_max + 1)
    psi = state.amplitudes.ravel()

    def dense_expect(op):
        return float(np.vdot(psi, op @ psi).real)

    assert cq.expectation(state, "jx") == pytest.approx(
        dense_expect(np.kron(jx, ip)), abs=1e-12)
    assert cq.expectation(state, "jy") == pytest.approx(
        dense_expect(np.kron(jy, ip)), abs=1e-12)
    assert cq.expectation(state, "jz") == pytest.approx(
        dense_expect(np.kron(jz, ip)), abs=1e-12)
    assert cq.expectation(state, "photon_number") == pytest.approx(
        dense_expect(np.kron(ie, nph)), abs=1e-12)
    assert cq.expectation(state, "energy", params) == pytest.approx(
        dense_expect(dense_hamiltonian(params, n_max)), abs=1e-12)
    # excitations counted from the ground state: Jz + N/2 + n
    assert cq.expectation(state, "excitation_number", params) == pytest.approx(
        dense_expect(np.kron(jz, ip) + np.kron(ie, nph)) + 1.5, abs=1e-12)


def test_expectation_rejects_unknown_name(rng):
    state = random_state(rng, 2, 4)
    with pytest.raises(cq.ConfigError):
        cq.expectation(state, "entropy")


def test_energy_requires_params(rng):
    state = random_state(rng, 2, 4)
    with pytest.raises(cq.ConfigError):
        cq.expectation(state, "energy")


def test_field_expectation_matches_dense(rng):
    a, _, _ = dense_boson(6)
    states = [random_state(rng, 2, 6) for _ in range(3)]
    refs = [np.vdot(s.amplitudes.ravel(), np.kron(np.eye(3), a) @ s.amplitudes.ravel())
            for s in states]
    assert isinstance(cq.field_expectation(states[0]), complex)
    assert abs(cq.field_expectation(states[0]) - refs[0]) < 1e-13
    # a stack gives one complex value per sample
    stack = cq.CompositeState(np.stack([s.amplitudes for s in states]), cq.DickeSpace(2),
                              cq.FockSpace(6), time=[0.0, 1.0, 2.0])
    got = cq.field_expectation(stack)
    assert got.shape == (3,) and got.dtype == np.complex128
    assert np.abs(got - refs).max() < 1e-13


def test_model_params_validation():
    with pytest.raises(cq.ConfigError):
        cq.ModelParams(n_qubits=0, gamma=0.1)
    with pytest.raises(cq.ConfigError):
        cq.ModelParams(n_qubits=2, gamma=-0.1)
    with pytest.raises(cq.ConfigError):
        cq.ModelParams(n_qubits=2, gamma=0.1, omega=0.0)


@pytest.mark.parametrize("make,error", [
    (lambda: cq.ModelParams(n_qubits=True, gamma=0.01), cq.ConfigError),
    (lambda: cq.ModelParams(n_qubits=2, gamma=True), cq.ConfigError),
    (lambda: cq.ModelParams(n_qubits=2, gamma=0.01, delta=True), cq.ConfigError),
    (lambda: cq.ModelParams(n_qubits=2, gamma=0.01, omega=np.True_), cq.ConfigError),
    (lambda: cq.DickeSpace(True), cq.DimensionMismatchError),
    (lambda: cq.FockSpace(True), cq.DimensionMismatchError),
    (lambda: cq.PhotonicSpec("even_cat", True), cq.ConfigError),
    (lambda: cq.PhotonicSpec("general_cat", 1.0, beta=np.True_), cq.ConfigError),
    (lambda: cq.PhotonicSpec("general_cat", 1.0, beta=2.0, phi_cat=True), cq.ConfigError),
    (lambda: cq.PropagationPlan(t_max=True), cq.ConfigError),
    (lambda: cq.PropagationPlan(t_max=2.0, dt=True), cq.ConfigError),
    (lambda: cq.PropagationPlan(t_max="3"), cq.ConfigError),
    (lambda: cq.QuadratureSpec(x=True), cq.ConfigError),
    (lambda: cq.QuadratureSpec(delta_x=np.True_), cq.ConfigError),
    (lambda: cq.QuadratureSpec(phi=False), cq.ConfigError),
    (lambda: cq.ModelParams(n_qubits=2, gamma=10**400), cq.ConfigError),
], ids=["n_qubits", "gamma", "delta", "omega", "dicke", "fock", "alpha", "beta", "phi_cat",
        "t_max", "dt", "t_max-str", "x", "delta_x", "phi", "gamma-huge-int"])
def test_a_bool_is_not_a_number(make, error):
    # bool is an int, so a flag would pass for a count of 1 or a rate of 1.0;
    # a string, or an int no float can hold, is refused as a number too,
    # not by a raw TypeError or OverflowError
    with pytest.raises(error, match="must be a positive integer|must be a finite number"):
        make()


def test_observables_tuple_frozen():
    assert set(cq.OBSERVABLES) == {
        "photon_number", "jz", "jx", "jy", "energy", "excitation_number"}
