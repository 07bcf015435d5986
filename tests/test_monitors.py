"""Monitors form each reduced or conditioned electron state once per sample."""

import math

import numpy as np
import pytest

import catqed as cq
from catqed import measurement, monitors


def _counted(monkeypatch, module, name, log):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        log.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_each_state_is_formed_once_per_sample(monkeypatch):
    params = cq.ModelParams(n_qubits=2, gamma=0.2)
    state = cq.prepare_initial(cq.PhotonicSpec("kitten", 2.0), 2)
    spec = cq.QuadratureSpec(x=0.1, delta_x=0.3, phase_tracking=True)
    plan = cq.PropagationPlan(t_max=1.0, dt=0.1,
                              monitors=("qfi_density", "prob_even", "prob_odd"))
    measurement._window_rule.cache_clear()
    log = []
    _counted(monkeypatch, monitors, "quadrature_postselect", log)
    _counted(monkeypatch, monitors, "parity_probabilities", log)
    _counted(monkeypatch, measurement, "hermite_functions", log)
    series = cq.run(state, params, plan,
                    extra_monitors=cq.build_quadrature_monitors(spec))
    samples = series.times.size
    assert samples == 11
    assert log.count("quadrature_postselect") == samples
    assert log.count("parity_probabilities") == samples
    # the window tables are built inside the first sample's readout only
    second = [i for i, name in enumerate(log)
              if name == "quadrature_postselect"][1]
    assert "hermite_functions" in log[:second]
    assert "hermite_functions" not in log[second:]

    # sharing a sample's states changes no value
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


def test_tail_population_monitor_matches_direct_calls():
    params = cq.ModelParams(n_qubits=2, gamma=0.3)
    state = cq.prepare_initial(cq.PhotonicSpec("even_cat", 2.0), 2)
    times = [0.0, 0.5, 1.0]
    plan = cq.PropagationPlan(t_max=1.0, dt=0.5, monitors=("tail_population",))
    column = cq.run(state, params, plan).column("tail_population")
    direct = [s.tail_population() for s in cq.snapshots(state, params, times, dt=0.5)]
    assert column.tolist() == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert column[0] > 0.0
