"""Parity and homodyne conditioning against dense projectors and closed forms."""

import math

import numpy as np
import pytest

import catqed as cq
from oracles import (hermite_psi_mpmath, parity_projectors,
                     partial_trace_electron, quadrature_overlap_closed_form)


def random_joint(rng, n_qubits, n_max):
    shape = (n_qubits + 1, n_max + 1)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c /= np.linalg.norm(c)
    return cq.CompositeState(c, cq.DickeSpace(n_qubits), cq.FockSpace(n_max))


@pytest.mark.parametrize("n, x", [(0, 0.3), (1, 1.234), (4, 1.234),
                                  (9, -0.7), (30, 2.5)])
def test_hermite_functions_match_mpmath(n, x):
    psi = cq.hermite_functions(x, n)
    assert psi[n] == pytest.approx(hermite_psi_mpmath(x, n), abs=1e-13)


def test_hermite_deep_forbidden_region():
    # x far outside the classical turning point: psi_0 underflows in naive
    # evaluation long before psi_300 does
    x = 10.0
    psi = cq.hermite_functions(x, 300)
    ref = hermite_psi_mpmath(x, 300)
    assert psi[300] == pytest.approx(ref, rel=1e-10)
    assert psi[0] == pytest.approx(math.pi ** -0.25 * math.exp(-50.0), rel=1e-12)


def test_hermite_array_shape_and_orthonormality():
    xs = np.linspace(-12.0, 12.0, 4001)
    psi = cq.hermite_functions(xs, 6)
    assert psi.shape == (4001, 7)
    gram = psi.T @ psi * (xs[1] - xs[0])
    assert np.abs(gram - np.eye(7)).max() < 1e-8


def test_quadrature_series_matches_closed_form():
    # sum_n <x; phi|n><n|alpha> against the Gaussian closed form
    alpha, phi, x = 2.0, 0.3, 1.1
    n_max = 60
    bra = cq.quadrature_amplitudes(x, phi, n_max)
    ket = cq.coherent_vector(alpha, n_max)
    series = bra @ ket
    ref = quadrature_overlap_closed_form(x, phi, alpha)
    assert abs(series - ref) < 1e-10


def test_kitten_equal_weight_condition():
    # at x = 0, phi = pi/2 the two kitten branches project with equal weight;
    # n_max = 100 so the truncated series itself is converged past 1e-12
    alpha = 4.0
    n_max = 100
    bra = cq.quadrature_amplitudes(0.0, math.pi / 2, n_max)
    overlap_alpha = bra @ cq.coherent_vector(alpha, n_max)
    overlap_vac = bra[0]  # <x; phi|0>
    assert abs(abs(overlap_alpha) - abs(overlap_vac)) < 1e-12


def test_parity_probabilities_complete(rng):
    state = random_joint(rng, 3, 12)
    p_even, p_odd = cq.parity_probabilities(state)
    assert p_even + p_odd == pytest.approx(1.0, abs=1e-12)


def test_parity_postselect_matches_dense_projector(rng):
    state = random_joint(rng, 2, 9)
    p_even_mat, p_odd_mat = parity_projectors(9)
    for outcome, proj in [(cq.ParityOutcome.EVEN, p_even_mat),
                          (cq.ParityOutcome.ODD, p_odd_mat)]:
        res = cq.parity_postselect(state, outcome)
        projected = state.amplitudes @ proj.T
        prob_ref = float(np.sum(np.abs(projected) ** 2))
        rho_ref = partial_trace_electron(projected) / prob_ref
        assert res.probability == pytest.approx(prob_ref, abs=1e-12)
        assert np.abs(res.rho.matrix - rho_ref).max() < 1e-12


def test_parity_outcome_average_equals_trace_out(rng):
    state = random_joint(rng, 3, 10)
    rho_traced = cq.reduce_to_electron(state).matrix
    acc = np.zeros_like(rho_traced)
    for outcome in cq.ParityOutcome:
        res = cq.parity_postselect(state, outcome)
        acc += res.probability * res.rho.matrix
    assert np.abs(acc - rho_traced).max() < 1e-10


def test_impossible_parity_outcome():
    state = cq.prepare_initial(cq.PhotonicSpec(kind="even_cat", alpha=1.5), 2)
    with pytest.raises(cq.ImpossibleOutcomeError):
        cq.parity_postselect(state, cq.ParityOutcome.ODD)


def test_ideal_quadrature_rank_one(rng):
    state = random_joint(rng, 3, 20)
    res = cq.quadrature_postselect(state, cq.QuadratureSpec(x=0.4, phi=0.2))
    assert res.is_density
    evals = np.linalg.eigvalsh(res.rho.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-10)
    assert evals[-2] < 1e-10


def test_ideal_quadrature_density_closed_form():
    # product state: the conditioned electron state is untouched and the
    # density is |<x; phi|alpha>|^2
    alpha, x, phi = 1.3, 0.9, 0.5
    e = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2)
    p = cq.coherent_vector(alpha, 40)
    state = cq.product_state(e, p, cq.DickeSpace(1), cq.FockSpace(40))
    res = cq.quadrature_postselect(state, cq.QuadratureSpec(x=x, phi=phi))
    ref = abs(quadrature_overlap_closed_form(x, phi, alpha)) ** 2
    assert res.probability == pytest.approx(ref, rel=1e-10)
    assert np.abs(res.rho.matrix - np.outer(e, e.conj())).max() < 1e-12


def test_ideal_quadrature_completeness(rng):
    state = random_joint(rng, 2, 25)
    spec = lambda x: cq.QuadratureSpec(x=x, phi=0.7)
    xs = np.linspace(-12.0, 12.0, 3001)
    dens = []
    for x in xs:
        try:
            dens.append(cq.quadrature_postselect(state, spec(x)).probability)
        except cq.ImpossibleOutcomeError:
            dens.append(0.0)
    total = np.trapezoid(dens, xs)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_window_quadrature_matches_riemann_oracle(rng):
    # spec-scale case: N=2, n_max=5, delta_x=0.4 vs 1e4-point midpoint sum
    state = random_joint(rng, 2, 5)
    x0, dx, phi = 0.3, 0.4, 0.0
    res = cq.quadrature_postselect(state, cq.QuadratureSpec(x=x0, delta_x=dx))
    xs = x0 - dx / 2 + dx * (np.arange(10_000) + 0.5) / 10_000
    psi = cq.hermite_functions(xs, 5)
    u = state.amplitudes @ psi.T    # (3, 10000)
    w = dx / 10_000
    prob_ref = float(np.sum(np.abs(u) ** 2) * w)
    rho_ref = (u * w) @ u.conj().T / prob_ref
    assert res.probability == pytest.approx(prob_ref, abs=1e-6)
    assert np.abs(res.rho.matrix - rho_ref).max() < 1e-6
    assert not res.is_density


def test_window_average_recovers_trace_out(rng):
    # integrating windows across the real line reproduces the traced state
    state = random_joint(rng, 2, 8)
    rho_traced = cq.reduce_to_electron(state).matrix
    width = 1.0
    centers = np.arange(-10.0, 10.0, width) + width / 2
    acc = np.zeros_like(rho_traced)
    total = 0.0
    for c in centers:
        try:
            res = cq.quadrature_postselect(
                state, cq.QuadratureSpec(x=c, delta_x=width))
        except cq.ImpossibleOutcomeError:
            continue
        acc += res.probability * res.rho.matrix
        total += res.probability
    assert total == pytest.approx(1.0, abs=1e-8)
    assert np.abs(acc - rho_traced).max() < 1e-8


def test_phase_tracking_convention():
    spec = cq.QuadratureSpec(x=0.0, phi=0.3, phase_tracking=True)
    assert spec.phase_at(0.0, 1.0) == pytest.approx(math.pi / 2)
    assert spec.phase_at(2.0, 1.0) == pytest.approx(math.pi / 2 - 2.0)
    static = cq.QuadratureSpec(x=0.0, phi=0.3)
    assert static.phase_at(5.0, 1.0) == 0.3


def test_quadrature_postselect_rejects_unreachable_x(rng):
    state = random_joint(rng, 1, 10)
    with pytest.raises(cq.ImpossibleOutcomeError):
        cq.quadrature_postselect(state, cq.QuadratureSpec(x=40.0))


def test_a_refusal_after_a_node_doubling_masks_the_whole_stack(monkeypatch, rng):
    # only the samples still pending take the finer rule, so a refusal there
    # comes from a Gram over part of the stack; its mask still indexes the
    # whole stack.  A stand-in Gram keeps the middle sample pending after the
    # first doubling and then refuses it
    stack = cq.CompositeState([random_joint(rng, 2, 8).amplitudes for _ in range(3)],
                              cq.DickeSpace(2), cq.FockSpace(8), time=[0.0, 0.5, 1.0])
    real, sizes = cq.measurement._gram, []

    def gram(u, what):
        sizes.append(len(u))
        if len(sizes) == 3:
            raise cq.ImpossibleOutcomeError(what, np.zeros(len(u), dtype=bool))
        prob, rho = real(u, what)
        if len(sizes) == 2:
            rho[1] += 1.0
        return prob, rho
    monkeypatch.setattr(cq.measurement, "_gram", gram)
    with pytest.raises(cq.ImpossibleOutcomeError) as refusal:
        cq.quadrature_postselect(stack, cq.QuadratureSpec(x=0.3, delta_x=0.4))
    assert sizes == [3, 3, 1]
    assert refusal.value.possible.tolist() == [True, False, True]


def test_window_that_never_settles_raises(monkeypatch, rng):
    # no two node counts can agree to a negative tolerance
    monkeypatch.setattr(cq.measurement, "WINDOW_RHO_ATOL", -1.0)
    state = random_joint(rng, 2, 8)
    with pytest.raises(cq.QuadratureConvergenceError, match="node doublings"):
        cq.quadrature_postselect(state, cq.QuadratureSpec(x=0.3, delta_x=0.4))


def test_negative_window_width_is_config_error():
    with pytest.raises(cq.ConfigError, match="delta_x"):
        cq.QuadratureSpec(x=0.0, delta_x=-0.1)


def test_window_samples_of_a_stack_keep_their_own_node_count(monkeypatch):
    # The default node counts settle every natural sample at the first
    # doubling, so the rule is coarsened 32-fold: then the alpha = 3 branch
    # needs one more doubling than the alpha = 4 one.  One doubling more
    # would move the alpha = 4 sample by 1.4e-12, far above the gate.
    rule = cq.measurement._window_rule
    counts = []

    def coarse(x, delta_x, n_max, count):
        counts.append(count)
        return rule(x, delta_x, n_max, max(1, count // 32))

    monkeypatch.setattr(cq.measurement, "_window_rule", coarse)
    n_max = 60
    dicke, fock = cq.DickeSpace(1), cq.FockSpace(n_max)
    spec = cq.QuadratureSpec(x=0.5, delta_x=2.0)
    amplitudes, singles, needed = [], [], []
    for alpha in (3.0, 4.0):
        c = np.stack([cq.coherent_vector(0.0, n_max), cq.coherent_vector(alpha, n_max)])
        amplitudes.append(c / np.linalg.norm(c))
        counts.clear()
        singles.append(cq.quadrature_postselect(
            cq.CompositeState(amplitudes[-1], dicke, fock), spec))
        needed.append(max(counts))
    assert needed[0] == 2 * needed[1]
    for order in ([0, 1], [1, 0]):
        stack = cq.CompositeState(np.stack([amplitudes[k] for k in order]), dicke, fock,
                                  time=[0.0, 0.0])
        res = cq.quadrature_postselect(stack, spec)
        for slot, k in enumerate(order):
            assert res.probability[slot] == pytest.approx(singles[k].probability,
                                                          rel=1e-14, abs=0.0)
            assert np.max(np.abs(res.rho.matrix[slot] - singles[k].rho.matrix)) <= 1e-14


def test_stacked_readouts_keep_single_state_types(rng):
    state = random_joint(rng, 2, 9)
    stack = cq.CompositeState(np.stack([state.amplitudes] * 3), state.dicke, state.fock,
                              time=[0.0, 0.5, 1.0])
    single = cq.parity_postselect(state, cq.ParityOutcome.ODD)
    assert isinstance(single.probability, float)
    assert all(isinstance(p, float) for p in cq.parity_probabilities(state))
    res = cq.parity_postselect(stack, cq.ParityOutcome.ODD)
    assert res.probability.shape == (3,) and res.rho.matrix.shape == (3, 3, 3)
    assert np.max(np.abs(res.rho.matrix - single.rho.matrix)) <= 1e-15
    assert res.probability == pytest.approx([single.probability] * 3, rel=1e-15)
    # a fixed readout phase sees the same state at every time
    quad = cq.quadrature_postselect(stack, cq.QuadratureSpec(x=0.2, delta_x=0.5))
    alone = cq.quadrature_postselect(state, cq.QuadratureSpec(x=0.2, delta_x=0.5))
    assert np.max(np.abs(quad.rho.matrix - alone.rho.matrix)) <= 1e-14
