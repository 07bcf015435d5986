"""Propagator accuracy against dense matrix exponentials, plus run() plumbing."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catqed as cq
from catqed import hilbert, propagator
from catqed.propagator import MAX_AUTO_SAMPLES, _Chebyshev, _chebyshev_coefficients
from catqed.fileio import format_float
from catqed.stateprep import coherent_matrix
from oracles import dense_hamiltonian, evolve_exact, evolve_mpmath


def coherent_initial(n_qubits, alpha, n_max):
    spec = cq.PhotonicSpec(kind="coherent", alpha=alpha)
    return cq.prepare_initial(spec, n_qubits, n_max=n_max)


@pytest.mark.parametrize("params", [
    cq.ModelParams(n_qubits=1, gamma=0.3),
    cq.ModelParams(n_qubits=1, gamma=0.3, delta=1.4),
    cq.ModelParams(n_qubits=1, gamma=0.2, rwa=False),
    cq.ModelParams(n_qubits=2, gamma=0.25, omega=0.9, rwa=False),
])
def test_propagate_matches_expm(params):
    n_max = 30
    initial = coherent_initial(params.n_qubits, 1.2, n_max)
    h = dense_hamiltonian(params, n_max)
    for t in (0.5, 2.0, 7.0):
        got = cq.propagate(initial, params, t).amplitudes.ravel()
        ref = evolve_exact(h, initial.amplitudes.ravel(), t)
        assert np.abs(got - ref).max() < 1e-12


@pytest.mark.parametrize("delta", [1.0, 1.4])
def test_uncoupled_rwa_model_propagates_exactly(delta):
    # gamma = 0 leaves H' = (delta - omega) Jz; on resonance H' = 0, so its
    # interval has zero width and each advance is the phase alone
    params = cq.ModelParams(n_qubits=2, gamma=0.0, delta=delta)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 2)
    h = dense_hamiltonian(params, initial.fock.n_max)
    for t in (1.0, 7.3):
        got = cq.propagate(initial, params, t).amplitudes.ravel()
        ref = evolve_exact(h, initial.amplitudes.ravel(), t)
        assert np.abs(got - ref).max() < 1e-12


def _count_applies(monkeypatch, rwa):
    calls = []
    apply = cq.HamiltonianAction.apply

    def counted(self, psi, out):
        calls.append(None)
        return apply(self, psi, out)

    monkeypatch.setattr(cq.HamiltonianAction, "apply", counted)
    params = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=rwa)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    plan = cq.PropagationPlan(t_max=10.0, sample_stride=100,
                              monitors=("photon_number",))
    cq.run(initial, params, plan)
    return len(calls)


def test_rwa_model_expands_only_the_coupling(monkeypatch):
    # flagship parameters: in the frame rotating with omega K the sum runs
    # over the coupling half-width (0.61) instead of the Fock ladder's (98),
    # 139 applies against 1545; the full model stays in the lab frame.  A
    # block holds 9 samples, read off one recurrence.
    assert _count_applies(monkeypatch, rwa=True) <= 200
    assert _count_applies(monkeypatch, rwa=False) == 1545


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_one_recurrence_reads_out_a_block(monkeypatch, rwa):
    # a zero first offset and uneven offsets, all in one block: every sample
    # is exact, and the block costs the applies of its last sample alone
    params = cq.ModelParams(n_qubits=2, gamma=0.3, delta=1.2, rwa=rwa)
    initial = coherent_initial(2, 1.2, 25)
    times = [0.0, 0.013, 0.5, 2.0, 7.1, 19.3]
    calls = []
    apply = cq.HamiltonianAction.apply
    monkeypatch.setattr(cq.HamiltonianAction, "apply",
                        lambda self, psi, out: calls.append(None) or apply(self, psi, out))
    states = cq.snapshots(initial, params, times)
    half_width = _Chebyshev(initial, params, 1e-3)._half_width
    _, keeps = _chebyshev_coefficients(np.array([half_width * 19.3]))
    assert len(calls) == keeps[0] - 1
    assert np.array_equal(states[0].amplitudes, initial.amplitudes)
    h = dense_hamiltonian(params, 25)
    for state in states:
        ref = evolve_exact(h, initial.amplitudes.ravel(), state.time)
        assert np.abs(state.amplitudes.ravel() - ref).max() < 1e-12


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_a_block_spanning_a_thousand_rabi_periods(rwa, monkeypatch):
    # one emitter at strong coupling, sampled at 0, inside the first vacuum
    # Rabi period 2 pi / g and after 10^3 of them, all from one recurrence.
    # evolve_exact's own phases are off by 3e-12 at that span (eps ||h|| t),
    # so the reference there is mpmath's
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 1.0 - 1e-12)
    params = cq.ModelParams(n_qubits=1, gamma=20.0, rwa=rwa)
    gen = np.random.default_rng(0)
    amps = gen.normal(size=(2, 12)) + 1j * gen.normal(size=(2, 12))
    initial = cq.CompositeState(amps / np.linalg.norm(amps), cq.DickeSpace(1),
                                cq.FockSpace(11))
    period = 2.0 * math.pi / params.coupling
    states = cq.snapshots(initial, params, [0.0, 0.3 * period, 1e3 * period])
    h = dense_hamiltonian(params, 11)
    psi0 = initial.amplitudes.ravel()
    for state, oracle in zip(states[1:], (evolve_exact, evolve_mpmath)):
        ref = oracle(h, psi0, state.time)
        assert np.abs(state.amplitudes.ravel() - ref).max() < 1e-12


def full_kitten():
    """Full-model kitten of half-width r = 52: each unit interval needs 133
    Bessel orders, and two of them from one state 199."""
    params = cq.ModelParams(n_qubits=8, gamma=0.01, rwa=False)
    return params, cq.prepare_initial(cq.PhotonicSpec("kitten", 6.0), 8, n_max=96)


def test_a_block_past_the_term_limit_is_cut_short(monkeypatch):
    # under a limit of 200 values the four samples 0, 1, 2, 3 fit one block of
    # 18, but a table of two unit intervals would hold 2 x 199 values: the
    # block is cut into runs of one interval each instead of refusing the run
    params, initial = full_kitten()
    plan = cq.PropagationPlan(t_max=3.0, sample_stride=1000,
                              monitors=("photon_number", "jx", "energy"))
    free = cq.run(initial, params, plan)
    monkeypatch.setattr(propagator, "MAX_CHEBYSHEV_TERMS", 200)
    evolver = _Chebyshev(initial, params, 1e-3)
    assert evolver.block == 18
    assert evolver.blocks([0, 1000, 2000, 3000]) == [[0, 1000], [2000], [3000]]
    limited = cq.run(initial, params, plan)
    for name, want in free.columns.items():
        got = limited.column(name)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), name
    # a single interval past the limit is refused, named as the interval
    with pytest.raises(cq.NumericalError,
                       match=r"sample that interval more finely: its r \* tau = 156 "
                             r"needs 262 Bessel orders, more than 200"):
        cq.run(initial, params, cq.PropagationPlan(t_max=3.0, sample_stride=3000))


def test_each_block_is_read_off_one_table(monkeypatch):
    # samples 0.25 apart under a limit of 200 values: two intervals take a
    # table of 2 x 95, three would take 3 x 114
    params, initial = full_kitten()
    monkeypatch.setattr(propagator, "MAX_CHEBYSHEV_TERMS", 200)
    tables, expanded = [], []
    coefficients, expand = _Chebyshev._coefficients, _Chebyshev._expand

    def spied_coefficients(self, offsets):
        coeffs, folds = coefficients(self, offsets)
        tables.append(coeffs.size)
        return coeffs, folds

    def spied_expand(self, coeffs, folds, ring, rows, drift):
        expanded.append(len(coeffs))
        return expand(self, coeffs, folds, ring, rows, drift)

    monkeypatch.setattr(_Chebyshev, "_coefficients", spied_coefficients)
    monkeypatch.setattr(_Chebyshev, "_expand", spied_expand)
    sizes, tables_read = [], []
    for state, _ in propagator._evolve(initial, params, list(range(0, 3001, 250)), 1e-3):
        sizes.append(len(state.time))
        tables_read.append(expanded[:])
        expanded.clear()
    assert sizes == [3] + [2] * 5
    assert tables_read == [[2]] * 6
    assert tables and max(tables) <= 200


def test_the_block_cut_depends_on_the_steps_alone(monkeypatch):
    # each run starts from the last step of the one before, from step 0
    params, initial = full_kitten()
    monkeypatch.setattr(propagator, "MAX_CHEBYSHEV_TERMS", 200)
    evolver = _Chebyshev(initial, params, 1e-3)
    steps = [0, 250, 500, 750, 1000, 1700, 1800, 2950, 3000]
    runs = evolver.blocks(steps)
    assert evolver.blocks(steps) == runs
    assert [step for run in runs for step in run] == steps
    assert len(runs) > 3 and len(set(map(len, runs))) > 1


def spy_rings(monkeypatch):
    """(block, rows, ring) of every ``_expand`` call from here on."""
    rings = []
    expand = _Chebyshev._expand

    def spied(self, coeffs, folds, ring, rows, drift):
        rings.append((self.block, len(rows), ring))
        return expand(self, coeffs, folds, ring, rows, drift)

    monkeypatch.setattr(_Chebyshev, "_expand", spied)
    return rings


def test_the_ring_is_allocated_once(monkeypatch):
    # snapshots read in blocks of four and two samples: the ring holds one
    # vector per row of a full block from the start and is never replaced
    params = cq.ModelParams(n_qubits=1, gamma=0.3)
    initial = coherent_initial(1, 1.2, 25)
    monkeypatch.setattr(propagator, "SAMPLE_BLOCK_BYTES", 4 * initial.amplitudes.nbytes)
    rings = spy_rings(monkeypatch)
    cq.snapshots(initial, params, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
    assert [count for _, count, _ in rings] == [4, 2]
    assert len(rings[0][2]) == 4
    assert all(ring is rings[0][2] for _, _, ring in rings)


def test_the_ring_holds_one_slot_per_sample_of_the_longest_run(monkeypatch):
    # snapshots at three times read one run of three samples, so the ring
    # holds three slots, not one per sample of a full block; a run of many
    # samples fills whole blocks and holds max(block, 3).  A block is sized
    # on the two photon-parity parts of a sample: the even cat's live
    # sectors span all 73 columns, so u_0 holds 9 even rows x 37 even
    # columns and u_1 8 odd rows x 36 odd columns, 621 amplitudes, and
    # 256 KiB holds 26 samples (13 of the 17 x 73 grid)
    params = cq.ModelParams(n_qubits=16, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 4.0), 16)
    sample_bytes = 16 * (9 * 37 + 8 * 36)
    rings = spy_rings(monkeypatch)
    cq.snapshots(initial, params, [0.0, 7.85, 15.7])
    assert [(block, len(ring)) for block, _, ring in rings] == [(26, 3)]
    plan = cq.PropagationPlan(t_max=0.5, sample_stride=10, monitors=("norm_drift",))
    for block_bytes, block in ((propagator.SAMPLE_BLOCK_BYTES, 26), (sample_bytes, 1),
                               (2 * sample_bytes - 1, 1), (2 * sample_bytes, 2)):
        monkeypatch.setattr(propagator, "SAMPLE_BLOCK_BYTES", block_bytes)
        rings.clear()
        cq.run(initial, params, plan)
        assert {(block, len(ring)) for block, _, ring in rings} == {(block, max(block, 3))}
        assert len({id(ring) for _, _, ring in rings}) == 1


def test_a_state_that_stops_being_finite_is_refused(monkeypatch):
    monkeypatch.setattr(cq.HamiltonianAction, "apply",
                        lambda self, psi, out: out.fill(np.nan) or out)
    initial = coherent_initial(1, 0.5, 25)
    with pytest.raises(cq.NumericalError, match="state norm became nan"):
        cq.run(initial, cq.ModelParams(n_qubits=1, gamma=0.1),
               cq.PropagationPlan(t_max=0.5, dt=0.1, monitors=("norm_drift",)))


def _spins_not_all_down():
    # m = -2 and m = 0 of N = 4 times an even cat: only even sectors again
    spins = np.array([0.6, 0.0, 0.8j, 0.0, 0.0])
    photons = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 4).amplitudes[0]
    n_max = photons.size - 1
    return cq.product_state(spins, photons, cq.DickeSpace(4), cq.FockSpace(n_max))


BAND_CASES = {
    "even_cat": (cq.ModelParams(n_qubits=3, gamma=0.2),
                 lambda: cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.5), 3)),
    # two islands: the vacuum sector K = 0 and the coherent branch
    "kitten": (cq.ModelParams(n_qubits=2, gamma=0.05, delta=1.3),
               lambda: cq.prepare_initial(cq.PhotonicSpec("kitten", 10.0), 2)),
    # no K parity; the lower Poisson tail leaves K < 10 empty
    "general_cat": (cq.ModelParams(n_qubits=2, gamma=0.05, omega=0.8),
                    lambda: cq.prepare_initial(cq.PhotonicSpec(
                        "general_cat", 10.0, beta=6.0 + 8.0j, phi_cat=0.7), 2)),
    "spins_not_all_down": (cq.ModelParams(n_qubits=4, gamma=0.2), _spins_not_all_down),
}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_band_matches_the_full_grid_and_the_oracle(case, monkeypatch):
    # the live band drops sectors the state leaves empty; with the live
    # threshold below zero every sector is kept, which is the whole grid
    params, make = BAND_CASES[case]
    initial = make()
    times = [0.0, 1.3, 4.0]
    live = _Chebyshev(initial, params, 1e-3).action.cells.size
    band = cq.snapshots(initial, params, times)
    monkeypatch.setattr(propagator, "LIVE_SECTOR_POPULATION", -1.0)
    assert _Chebyshev(initial, params, 1e-3).action.cells.size > live
    grid = cq.snapshots(initial, params, times)
    h = dense_hamiltonian(params, initial.fock.n_max)
    for b, g in zip(band, grid):
        ref = evolve_exact(h, initial.amplitudes.ravel(), b.time)
        assert np.abs(b.amplitudes - g.amplitudes).max() < 1e-12
        assert np.abs(b.amplitudes.ravel() - ref).max() < 1e-12


def test_flagship_band_holds_at_most_half_the_grid():
    # even cat alpha 10, N = 8: the even sectors inside the Poisson tails,
    # 90 x 9 amplitudes against 9 x 189; a silent fallback to the grid fails
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    evolver = _Chebyshev(initial, params, 1e-3)
    assert evolver.action.cells.size <= 0.5 * initial.amplitudes.size
    assert np.all(evolver.action.sectors % 2 == 0)


@pytest.mark.parametrize("delta", [1.0, 1.3])
def test_detuned_rwa_run_keeps_its_diagonal(delta):
    # on resonance the mapped diagonal of H' is zero and the apply skips
    # it; detuned it stays, and the run matches the dense oracle
    params = cq.ModelParams(n_qubits=3, gamma=0.2, delta=delta)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 3)
    assert (_Chebyshev(initial, params, 1e-3).action.diag is None) == (delta == 1.0)
    h = dense_hamiltonian(params, initial.fock.n_max)
    for state in cq.snapshots(initial, params, [0.9, 6.1]):
        ref = evolve_exact(h, initial.amplitudes.ravel(), state.time)
        assert np.abs(state.amplitudes.ravel() - ref).max() < 1e-12


@pytest.mark.parametrize("spec,n_qubits,params", [
    (cq.PhotonicSpec("even_cat", 3.0), 6, cq.ModelParams(6, gamma=0.3, delta=1.3, omega=0.7)),
    (cq.PhotonicSpec("kitten", 2.5), 4, cq.ModelParams(4, gamma=0.3, delta=0.9, omega=1.15)),
], ids=["even_cat", "kitten"])
def test_detuned_band_is_mapped_from_its_own_diagonal(spec, n_qubits, params):
    # the band holds H' = H - omega K, so each mapped cell is
    # fl(fl((delta - omega) m - c) * 2 / r), with no rounding of omega K
    # in it; m is that of the sector's nearest real cell
    initial = cq.prepare_initial(spec, n_qubits)
    evolver = _Chebyshev(initial, params, 1e-2)
    sectors, n_max = evolver.action.sectors[:, None], initial.fock.n_max
    nearest = np.clip(np.arange(n_qubits + 1), sectors - n_max, sectors)
    lo, hi = cq.HamiltonianAction(params, initial.dicke, initial.fock, sectors[:, 0]).spectral_bounds()
    centre, half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
    ref = ((params.delta - params.omega) * initial.dicke.m_values()[nearest] - centre) \
        * (2.0 / half_width)
    assert evolver.action.diag.real.tobytes() == ref.tobytes()
    assert not evolver.action.diag.imag.any()


def test_result_is_independent_of_the_sampling_step():
    # dt only sets the sampling grid: sampled at every point of either grid,
    # the state at t = 1 is the exact one, not a step-dependent approximation
    params = cq.ModelParams(n_qubits=2, gamma=0.4)
    n_max = 25
    initial = coherent_initial(2, 1.0, n_max)
    h = dense_hamiltonian(params, n_max)
    ref = evolve_exact(h, initial.amplitudes.ravel(), 1.0)
    for dt in (4e-3, 2e-3):
        grid = np.arange(round(1.0 / dt) + 1) * dt
        last = cq.snapshots(initial, params, grid, dt=dt)[-1]
        assert last.time == pytest.approx(1.0, abs=1e-12)
        assert np.abs(last.amplitudes.ravel() - ref).max() < 1e-12


def test_norm_drift_stays_tiny_at_desk_scale():
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec(kind="even_cat", alpha=2.0), 8)
    plan = cq.PropagationPlan(t_max=5.0, monitors=("norm_drift",))
    series = cq.run(initial, params, plan)
    assert series.column("norm_drift").max() < 1e-10


def test_conservation_laws():
    params = cq.ModelParams(n_qubits=4, gamma=0.05)
    initial = coherent_initial(4, 1.5, 40)
    plan = cq.PropagationPlan(
        t_max=20.0, monitors=("energy", "excitation_number"))
    series = cq.run(initial, params, plan)
    for name in ("energy", "excitation_number"):
        col = series.column(name)
        assert col.max() - col.min() < 1e-8, name
    # energy is conserved without the RWA too, excitation is not
    params_full = cq.ModelParams(n_qubits=4, gamma=0.05, rwa=False)
    series_full = cq.run(initial, params_full, plan)
    col = series_full.column("energy")
    assert col.max() - col.min() < 1e-8


def test_run_is_deterministic():
    params = cq.ModelParams(n_qubits=2, gamma=0.1)
    initial = coherent_initial(2, 1.0, 25)
    plan = cq.PropagationPlan(t_max=2.0, monitors=("photon_number", "jz"))
    a = cq.run(initial, params, plan)
    b = cq.run(initial, params, plan)
    assert np.array_equal(a.times, b.times)
    for name in a.columns:
        assert np.array_equal(a.column(name), b.column(name))


def test_a_run_keeps_one_block_of_samples_alive():
    """Flagship monitors at N = 8, 189 Fock levels: a sample's two
    photon-parity parts hold 842 amplitudes, so a block is 19 samples,
    256 KB.  Six blocks peak within half a block of two (0.87 and 0.88 MiB
    traced, the short run one whole block and one sample).  While the
    previous block stayed referenced as the next was allocated and
    propagated, six peaked a block higher (1.14 MiB)."""
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    names = ("qfi_density", "qfi_density_even", "prob_even", "photon_number")
    evolver = propagator._Chebyshev(initial, params, 1e-3)
    block_bytes = evolver.block * 16 * sum(source.size for source in evolver._gather)
    assert evolver.block == 19
    peaks = []
    for t_max in (0.019, 0.1):
        plan = cq.PropagationPlan(t_max=t_max, sample_stride=1, monitors=names)
        cq.run(initial, params, plan)
        tracemalloc.start()
        try:
            cq.run(initial, params, plan)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * block_bytes


def test_snapshots_and_propagate_agree():
    # chained intervals (0.7 + 0.7) and one interval (1.4) round differently,
    # so the two agree through the exact state, not bit for bit
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    initial = coherent_initial(2, 1.0, 25)
    ref = evolve_exact(dense_hamiltonian(params, 25), initial.amplitudes.ravel(), 1.4)
    snaps = cq.snapshots(initial, params, [0.0, 0.7, 1.4])
    single = cq.propagate(initial, params, 1.4)
    assert np.abs(snaps[2].amplitudes.ravel() - ref).max() < 1e-12
    assert np.abs(single.amplitudes.ravel() - ref).max() < 1e-12
    assert np.array_equal(snaps[0].amplitudes, initial.amplitudes)
    assert snaps[1].time == pytest.approx(0.7, abs=1e-12)


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_a_sample_at_the_start_is_the_initial_state_itself(rwa):
    # not renormalized: an input 1e-11 off unit norm comes back as given,
    # with zero drift, and later samples are renormalized
    params = cq.ModelParams(n_qubits=2, gamma=0.2, rwa=rwa)
    base = coherent_initial(2, 1.0, 25)
    initial = cq.CompositeState(base.amplitudes * (1.0 + 1e-11), base.dicke, base.fock)
    plan = cq.PropagationPlan(t_max=0.2, dt=0.1, monitors=("norm_drift",))
    drift = cq.run(initial, params, plan).column("norm_drift")
    assert drift[0] == 0.0 and drift[1] == pytest.approx(1e-11, rel=1e-3)
    first, later = cq.snapshots(initial, params, [0.0, 0.1])
    assert np.array_equal(first.amplitudes, initial.amplitudes)
    assert np.linalg.norm(later.amplitudes) == pytest.approx(1.0, abs=1e-15)


def test_snapshot_times_snap_to_grid():
    params = cq.ModelParams(n_qubits=1, gamma=0.2)
    initial = coherent_initial(1, 0.5, 25)
    snap, = cq.snapshots(initial, params, [0.10042], dt=1e-3)
    assert snap.time == pytest.approx(0.100, abs=1e-12)
    # the rule the wigner command names its files by, to the bit
    assert snap.time == propagator.snapped_steps([0.10042], 1e-3)[0] * 1e-3


def test_sampling_grid_and_stride():
    params = cq.ModelParams(n_qubits=1, gamma=0.1)
    initial = coherent_initial(1, 0.5, 25)
    plan = cq.PropagationPlan(t_max=1.0, dt=1e-3, sample_stride=100,
                              monitors=("photon_number",))
    series = cq.run(initial, params, plan)
    assert np.allclose(series.times, np.arange(11) * 0.1)
    # default stride keeps the sample count bounded
    auto = cq.PropagationPlan(t_max=30.0, dt=1e-3, monitors=("photon_number",))
    assert auto.n_steps / auto.stride() <= MAX_AUTO_SAMPLES


def test_monitor_errors():
    params = cq.ModelParams(n_qubits=1, gamma=0.1)
    initial = coherent_initial(1, 0.5, 25)
    with pytest.raises(cq.ConfigError):
        cq.run(initial, params,
               cq.PropagationPlan(t_max=0.1, monitors=("no_such_monitor",)))
    with pytest.raises(cq.ConfigError):
        cq.run(initial, params,
               cq.PropagationPlan(t_max=0.1, monitors=("jz",)),
               extra_monitors=[("jz", lambda ctx: 0.0)])


@pytest.mark.parametrize("fn", [
    lambda ctx: 0.0,
    lambda ctx: np.zeros(2 * ctx.norm_drift.size),
], ids=["scalar", "two-per-sample"])
def test_a_monitor_of_the_wrong_shape_is_refused(fn):
    # a monitor returns one value per sample of its block; anything else
    # would leave its column out of step with the sample times
    params = cq.ModelParams(n_qubits=1, gamma=0.1)
    initial = coherent_initial(1, 0.5, 25)
    plan = cq.PropagationPlan(t_max=0.5, sample_stride=100, monitors=("photon_number",))
    with pytest.raises(cq.DimensionMismatchError, match="monitor 'bad'"):
        cq.run(initial, params, plan, extra_monitors=[("bad", fn)])


def test_plan_validation():
    with pytest.raises(cq.ConfigError):
        cq.PropagationPlan(t_max=-1.0)
    with pytest.raises(cq.ConfigError):
        cq.PropagationPlan(t_max=1.0, dt=2.0)
    for stride in (0, -3, 2.5, 2.0, True, "2"):
        with pytest.raises(cq.ConfigError, match="sample_stride must be a positive integer"):
            cq.PropagationPlan(t_max=1.0, sample_stride=stride)
    assert cq.PropagationPlan(t_max=1.0, sample_stride=np.int64(3)).stride() == 3
    for t_max, dt in [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan)]:
        with pytest.raises(cq.ConfigError):
            cq.PropagationPlan(t_max=t_max, dt=dt)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_snapshots_reject_non_finite_times(bad):
    initial = coherent_initial(1, 0.5, 25)
    with pytest.raises(cq.ConfigError, match="finite"):
        cq.snapshots(initial, cq.ModelParams(n_qubits=1, gamma=0.1), [0.5, bad])


def test_truncation_guard_trips_on_saturated_window():
    # static coherent tail already inside the watch window: the very first
    # sample must refuse to continue
    e = np.array([1.0, 0.0, 0.0], dtype=complex)
    p = coherent_matrix([3.0], 20)[0]
    p /= np.linalg.norm(p)
    state = cq.product_state(e, p, cq.DickeSpace(2), cq.FockSpace(20))
    params = cq.ModelParams(n_qubits=2, gamma=0.1)
    with pytest.raises(cq.TruncationError):
        cq.run(state, params, cq.PropagationPlan(t_max=0.5))


def test_truncation_guard_names_the_first_sample_of_a_block_over_the_tail(monkeypatch):
    # emitters up feed photons into the mode, so the tail grows; the
    # tolerance is put between the first sample's tail and a later one's
    params = cq.ModelParams(n_qubits=2, gamma=0.3)
    p = coherent_matrix([2.0], 20)[0]
    state = cq.product_state(np.array([0.0, 0.0, 1.0]), p / np.linalg.norm(p),
                             cq.DickeSpace(2), cq.FockSpace(20))
    plan = cq.PropagationPlan(t_max=4.0, dt=0.5, monitors=("tail_population",))
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 1.0)
    tails = cq.run(state, params, plan).column("tail_population")
    assert np.all(np.diff(tails[:4]) > 0.0)
    monkeypatch.setattr(hilbert, "TAIL_TOLERANCE", 0.5 * (tails[2] + tails[3]))
    with pytest.raises(cq.TruncationError, match=r"at t = 1\.5 for n_max = 20"):
        cq.run(state, params, plan)


def test_peak_and_fwhm_gaussian():
    t = np.linspace(0.0, 10.0, 2001)
    sigma = 0.8
    v = 3.0 * np.exp(-0.5 * ((t - 4.2) / sigma) ** 2)
    peak = cq.peak_and_fwhm(t, v)
    assert peak.t_peak == pytest.approx(4.2, abs=0.01)
    assert peak.peak_value == pytest.approx(3.0, abs=1e-6)
    expected = 2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma
    assert peak.fwhm == pytest.approx(expected, rel=1e-3)


def test_peak_and_fwhm_triangle_exact():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    v = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    peak = cq.peak_and_fwhm(t, v)
    assert peak.t_peak == 2.0
    assert peak.fwhm == pytest.approx(2.0, abs=1e-12)


def test_peak_and_fwhm_rejects_boundary_and_monotone():
    t = np.linspace(0.0, 1.0, 50)
    with pytest.raises(cq.PeakError):
        cq.peak_and_fwhm(t, t)  # monotone, max at boundary
    v = np.exp(-t)  # max at the left edge
    with pytest.raises(cq.PeakError):
        cq.peak_and_fwhm(t, v)
    # interior max whose flanks never reach half maximum
    v2 = 1.0 + 0.01 * np.exp(-0.5 * ((t - 0.5) / 0.05) ** 2)
    with pytest.raises(cq.PeakError):
        cq.peak_and_fwhm(t, v2)


def test_timeseries_csv_roundtrip(tmp_path):
    times = np.array([0.0, 0.1, 0.2])
    series = cq.TimeSeries(times=times, columns={
        "a": np.array([1.0, 0.5, 0.25]),
        "b": np.array([0.0, -1.0, 3.5e-11]),
    })
    path = tmp_path / "series.csv"
    series.to_csv(str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "time,a,b"
    data = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], times)
    assert np.array_equal(data[:, 1], series.column("a"))
    assert np.array_equal(data[:, 2], series.column("b"))
    # the row template writes the bytes of one format_float per value
    series = cq.TimeSeries(times=np.array([0.0, 1e-300, 2.0, 0.1]), columns={
        "nan": np.array([math.nan, 1.0, -0.0, 3.0]),
        "mixed": np.array([-0.0, 42.0, 1e-300, 1.0 / 3.0]),
    })
    series.to_csv(str(path))
    rows = [",".join(format_float(v) for v in (t, a, b))
            for t, a, b in zip(series.times, *series.columns.values())]
    assert path.read_text() == "\n".join(["time,nan,mixed", *rows]) + "\n"
    assert "nan" in rows[0] and "-0" in rows[0] and "1e-300" in rows[1]
    cq.TimeSeries(times=np.array([]), columns={"a": np.array([])}).to_csv(str(path))
    assert path.read_text() == "time,a\n"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(n_qubits=st.integers(1, 4), n_max=st.integers(15, 30),
       gamma=st.floats(0.0, 0.5), delta=st.floats(0.5, 2.0),
       omega=st.floats(0.5, 2.0), rwa=st.booleans(),
       times=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_propagation_matches_the_dense_oracle(n_qubits, n_max, gamma, delta,
                                              omega, rwa, times, seed):
    # a random state over the whole grid; the oracle works on the same
    # truncated space, so the tail guard is widened out of the way
    params = cq.ModelParams(n_qubits=n_qubits, gamma=gamma, delta=delta,
                            omega=omega, rwa=rwa)
    gen = np.random.default_rng(seed)
    amps = gen.normal(size=(n_qubits + 1, n_max + 1)) \
        + 1j * gen.normal(size=(n_qubits + 1, n_max + 1))
    initial = cq.CompositeState(amps / np.linalg.norm(amps),
                                cq.DickeSpace(n_qubits), cq.FockSpace(n_max))
    h = dense_hamiltonian(params, n_max)
    psi0 = initial.amplitudes.ravel()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "TAIL_TOLERANCE", 1.0 - 1e-12)
        states = cq.snapshots(initial, params, sorted(times))
        states.append(cq.propagate(initial, params, times[0]))
    for state in states:
        ref = evolve_exact(h, psi0, state.time)
        assert np.abs(state.amplitudes.ravel() - ref).max() < 1e-12


def test_a_block_lets_go_of_its_rows_before_it_is_handed_out(monkeypatch):
    # an RWA block is gathered out of its band rows into the parts; rows
    # held across the hand-out raised a flagship run's peak by a block
    rows_of = []
    state_of = _Chebyshev._state

    def spied(self, times, rows):
        rows_of.append(weakref.ref(rows))
        return state_of(self, times, rows)

    monkeypatch.setattr(_Chebyshev, "_state", spied)
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    handed = 0
    for state, _ in propagator._evolve(initial, params, list(range(0, 60, 2)), 1e-3):
        handed += 1
        assert len(rows_of) == handed and len(state.time) in (19, 11)
        assert rows_of[-1]() is None
    assert handed == 2
