"""Monitors form each reduced or conditioned electron state once per block
of samples, and every column equals the single-state public calls."""

import math

import numpy as np
import pytest

import catqed as cq
from catqed import hilbert, measurement, monitors, propagator
from catqed.stateprep import coherent_matrix


def _counted(monkeypatch, module, name, log):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _block_bytes(state, samples):
    """SAMPLE_BLOCK_BYTES that holds exactly ``samples`` samples of ``state``."""
    return samples * state.amplitudes.nbytes


@pytest.mark.parametrize("per_block,blocks", [(None, 1), (4, 3)],
                         ids=["one-block", "three-blocks"])
def test_each_state_is_formed_once_per_block(monkeypatch, per_block, blocks):
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    state = cq.prepare_initial(cq.PhotonicSpec("kitten", 2.0), 2)
    spec = cq.QuadratureSpec(x=0.1, delta_x=0.3, phase_tracking=True)
    plan = cq.PropagationPlan(t_max=1.0, dt=0.1,
                              monitors=("qfi_density", "prob_even", "prob_odd"))
    if per_block is not None:
        monkeypatch.setattr(propagator, "SAMPLE_BLOCK_BYTES", _block_bytes(state, per_block))
    measurement._window_rule.cache_clear()
    log, norms = [], []
    _counted(monkeypatch, monitors, "quadrature_postselect", log)
    _counted(monkeypatch, monitors, "reduce_to_electron", log)
    _counted(monkeypatch, measurement, "hermite_functions", log)
    real_norm, real_window_norm = hilbert.squared_norm, hilbert._window_norm
    monkeypatch.setattr(hilbert, "squared_norm", lambda u: norms.append(u.shape) or real_norm(u))
    monkeypatch.setattr(hilbert, "_window_norm", lambda u, at, width:
                        norms.append(u.shape) or real_window_norm(u, at, width))
    series = cq.run(state, params, plan,
                    extra_monitors=cq.build_quadrature_monitors(spec))
    assert series.times.size == 11
    for name in ("quadrature_postselect", "reduce_to_electron"):
        assert log.count(name) == blocks, name
    # prob_even and prob_odd are the state's two photon-parity weights, formed
    # once per block (on its parts under the RWA, summed over the grid's
    # columns); check_tail's sums span the top TAIL_WIDTH + 1 levels
    assert sum(shape[-1] != hilbert.TAIL_WIDTH + 1 for shape in norms) == 2 * blocks
    # the window tables are built inside the first block's readout only
    first, *later = [i for i, name in enumerate(log) if name == "quadrature_postselect"]
    tables = [i for i, name in enumerate(log) if name == "hermite_functions"]
    assert tables and first < min(tables)
    assert all(max(tables) < i for i in later)

    # sharing a block's states changes no value
    last = cq.snapshots(state, params, [1.0], dt=0.1)[0]
    res = cq.quadrature_postselect(last, spec, omega=params.omega)
    p_even, p_odd = cq.parity_probabilities(last)
    expected = {
        "prob_quad": res.probability,
        "qfi_density_quad": cq.qfi_mixed(res.rho).value / 2,
        "qfi_density": cq.qfi_mixed(cq.reduce_to_electron(last)).value / 2,
        "prob_even": p_even, "prob_odd": p_odd}
    for name, value in expected.items():
        assert math.isclose(series.column(name)[-1], value, abs_tol=1e-10), name


def _single_state_columns(states, params, spec):
    """Every monitor column from the public single-state calls."""
    n = params.n_qubits

    def qfi_density(read):
        try:
            return cq.qfi_mixed(read().rho).value / n
        except cq.ImpossibleOutcomeError:
            return math.nan

    def prob_quad(s):
        try:
            return cq.quadrature_postselect(s, spec, omega=params.omega).probability
        except cq.ImpossibleOutcomeError:
            return 0.0

    rows = []
    for s in states:
        row = {name: cq.expectation(s, name, params) for name in cq.operators.OBSERVABLES}
        row["tail_population"] = s.tail_population()
        row["qfi_density"] = cq.qfi_mixed(cq.reduce_to_electron(s)).value / n
        row["prob_even"], row["prob_odd"] = cq.parity_probabilities(s)
        for outcome in (cq.ParityOutcome.EVEN, cq.ParityOutcome.ODD):
            row[f"qfi_density_{outcome.label}"] = qfi_density(
                lambda: cq.parity_postselect(s, outcome))
        row["prob_quad"] = prob_quad(s)
        row["qfi_density_quad"] = qfi_density(
            lambda: cq.quadrature_postselect(s, spec, omega=params.omega))
        rows.append(row)
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


@pytest.mark.parametrize("per_block", [1, 4, None], ids=["blocks-of-one", "4-4-3", "one-block"])
@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_block_columns_equal_single_state_calls(monkeypatch, per_block, rwa):
    params = cq.ModelParams(n_qubits=3, gamma=0.3, delta=1.2, rwa=rwa)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 1.5), 3)
    spec = cq.QuadratureSpec(x=0.3, delta_x=0.4, phase_tracking=True)
    if per_block is not None:
        monkeypatch.setattr(propagator, "SAMPLE_BLOCK_BYTES", _block_bytes(state, per_block))
    plan = cq.PropagationPlan(t_max=1.0, dt=0.1, monitors=cq.monitor_names())
    series = cq.run(state, params, plan,
                    extra_monitors=cq.build_quadrature_monitors(spec))
    states = cq.snapshots(state, params, series.times.tolist(), dt=0.1)
    expected = _single_state_columns(states, params, spec)
    assert set(expected) | {"norm_drift"} == set(series.columns)
    for name, want in expected.items():
        got = series.column(name)
        assert np.array_equal(np.isnan(got), np.isnan(want)), name
        both = ~np.isnan(want)
        assert np.all(np.abs(got[both] - want[both])
                      <= 1e-12 * np.maximum(1.0, np.abs(want[both]))), name
    # an even cat has odd photon parity only once the field has driven the spins
    odd = series.column("qfi_density_odd")
    assert math.isnan(odd[0]) and not np.any(np.isnan(odd[1:]))
    assert series.column("prob_odd")[0] == 0.0


@pytest.mark.parametrize("rwa", [True, False], ids=["rwa", "full"])
def test_monitors_agree_across_block_sizes(monkeypatch, rwa):
    # the block decides where the recurrence restarts, so columns from
    # blocks of 1, 3 and all 11 samples agree to rounding, not bit for bit;
    # reruns at one block size are byte-identical
    params = cq.ModelParams(n_qubits=2, gamma=0.3, delta=1.2, rwa=rwa)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 2)
    spec = cq.QuadratureSpec(x=0.3, delta_x=0.4, phase_tracking=True)
    plan = cq.PropagationPlan(t_max=1.0, dt=0.1, monitors=cq.monitor_names())
    columns = {}
    for per_block in (1, 3, 11):
        monkeypatch.setattr(propagator, "SAMPLE_BLOCK_BYTES", _block_bytes(state, per_block))
        first, again = (cq.run(state, params, plan,
                               extra_monitors=cq.build_quadrature_monitors(spec))
                        for _ in range(2))
        for name, col in first.columns.items():
            assert np.array_equal(again.column(name), col, equal_nan=True), name
        columns[per_block] = first.columns
    for per_block in (3, 11):
        for name, want in columns[1].items():
            got = columns[per_block][name]
            assert np.array_equal(np.isnan(got), np.isnan(want)), name
            both = ~np.isnan(want)
            assert np.all(np.abs(got[both] - want[both])
                          <= 1e-12 * np.maximum(1.0, np.abs(want[both]))), name
    drift = columns[11]["norm_drift"]
    assert drift[0] == 0.0 and np.all(drift[1:] < 1e-12)


def test_impossible_outcome_records_nan_and_zero():
    # the even cat has no odd-parity weight at t = 0
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 1.0), 2)
    plan = cq.PropagationPlan(t_max=0.2, dt=0.1,
                              monitors=("prob_odd", "qfi_density_odd"))
    far = cq.QuadratureSpec(x=40.0)
    series = cq.run(state, params, plan,
                    extra_monitors=cq.build_quadrature_monitors(far))
    assert series.column("prob_odd")[0] == 0.0
    assert math.isnan(series.column("qfi_density_odd")[0])
    assert np.all(series.column("prob_quad") == 0.0)
    assert np.all(np.isnan(series.column("qfi_density_quad")))


def _even_cat_block_from_rest():
    """Three samples of an even cat from t = 0, where the odd photon parity
    has no weight at all."""
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 1.0), 2)
    return next(propagator._evolve(initial, params, [0, 100, 300], 1e-3))[0], params


def _vacuum_and_coherent():
    """Emitters down with the field in the vacuum, and in |alpha> with
    alpha = 8/sqrt(2): an x = 8 readout sits on the coherent state's peak
    and some 10^-28 into the vacuum's tail."""
    n_max = 80
    c = np.zeros((2, 3, n_max + 1), dtype=complex)
    c[:, 0] = coherent_matrix([0.0, 8.0 / math.sqrt(2.0)], n_max)
    c /= np.linalg.norm(c, axis=(1, 2))[:, None, None]
    return (cq.CompositeState(c, cq.DickeSpace(2), cq.FockSpace(n_max), time=[0.0, 0.0]),
            cq.ModelParams(n_qubits=2, gamma=0.2))


@pytest.mark.parametrize("make, outcome, possible", [
    (_even_cat_block_from_rest, cq.ParityOutcome.ODD, [False, True, True]),
    (_vacuum_and_coherent, cq.QuadratureSpec(x=8.0), [False, True]),
    (_vacuum_and_coherent, cq.QuadratureSpec(x=8.0, delta_x=0.2), [False, True]),
], ids=["odd-parity-from-rest", "ideal-quadrature", "window"])
def test_a_stack_with_impossible_samples_is_masked(make, outcome, possible):
    # the refusal masks the caller's stack sample by sample, and the monitors
    # read only the possible samples, each to its own single-state readout
    state, params = make()
    if isinstance(outcome, cq.ParityOutcome):
        read = lambda s: cq.parity_postselect(s, outcome)
        fns = [("qfi", monitors.MONITORS["qfi_density_odd"])]
    else:
        read = lambda s: cq.quadrature_postselect(s, outcome, omega=params.omega)
        fns = list(zip(("prob", "qfi"), dict(cq.build_quadrature_monitors(outcome)).values()))
    with pytest.raises(cq.ImpossibleOutcomeError) as refusal:
        read(state)
    alone = []
    for amplitudes, time in zip(state.amplitudes, state.time):
        try:
            alone.append(read(cq.CompositeState(amplitudes, state.dicke, state.fock,
                                                time=time)))
        except cq.ImpossibleOutcomeError as single:
            assert single.possible.shape == () and not single.possible
            alone.append(None)
    assert refusal.value.possible.tolist() == possible
    assert [r is not None for r in alone] == possible

    ctx = monitors.MonitorContext(state, params, np.zeros(len(possible)))
    columns = {name: fn(ctx) for name, fn in fns}
    expected = {
        "prob": [0.0 if r is None else r.probability for r in alone],
        "qfi": [math.nan if r is None else cq.qfi_mixed(r.rho).value / 2 for r in alone]}
    for name, column in columns.items():
        assert np.array_equal(column, expected[name], equal_nan=True), name


def test_a_sample_refused_only_by_a_finer_window_rule_is_masked_too(monkeypatch, rng):
    # the first Gram refuses the middle sample; reading the other two, the
    # first node doubling then refuses the last one, so the monitors read
    # the first sample alone.  A stand-in Gram makes both refusals
    amplitudes = rng.normal(size=(3, 3, 9)) + 1j * rng.normal(size=(3, 3, 9))
    amplitudes /= np.linalg.norm(amplitudes, axis=(1, 2))[:, None, None]
    state = cq.CompositeState(amplitudes, cq.DickeSpace(2), cq.FockSpace(8),
                              time=[0.0, 0.5, 1.0])
    params, spec = cq.ModelParams(n_qubits=2, gamma=0.2), cq.QuadratureSpec(x=0.3, delta_x=0.4)
    real, refusals = measurement._gram, {1: [True, False, True], 3: [True, False]}
    sizes = []

    def gram(u, what):
        sizes.append(len(u))
        if len(sizes) in refusals:
            raise cq.ImpossibleOutcomeError(what, np.array(refusals[len(sizes)]))
        return real(u, what)
    monkeypatch.setattr(measurement, "_gram", gram)
    ctx = monitors.MonitorContext(state, params, np.zeros(3))
    prob, qfi = (fn(ctx) for _, fn in cq.build_quadrature_monitors(spec))
    assert sizes[:4] == [3, 2, 2, 1]
    monkeypatch.setattr(measurement, "_gram", real)
    first = cq.quadrature_postselect(
        cq.CompositeState(amplitudes[0], state.dicke, state.fock), spec)
    assert prob.tolist() == [first.probability, 0.0, 0.0]
    assert np.array_equal(qfi, [cq.qfi_mixed(first.rho).value / 2, math.nan, math.nan],
                          equal_nan=True)


def test_tail_population_monitor_matches_direct_calls():
    params = cq.ModelParams(n_qubits=2, gamma=0.3)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 2)
    times = [0.0, 0.5, 1.0]
    plan = cq.PropagationPlan(t_max=1.0, dt=0.5, monitors=("tail_population",))
    column = cq.run(state, params, plan).column("tail_population")
    direct = [s.tail_population() for s in cq.snapshots(state, params, times, dt=0.5)]
    assert column.tolist() == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert column[0] > 0.0
