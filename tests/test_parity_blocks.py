"""Readouts of definite-parity states against the generic full-grid path.

Both models conserve Pi = (-1)^(n + k), k the Dicke index, so an even or odd
cat started with the emitters down keeps exactly zero amplitude on the other
parity; the readouts then take half- and quarter-size blocks.  Each block
path is compared here with the generic one, forced by making every state
report no parity.  A state decides its parity once, on first use, so a
block of samples is scanned once however many readouts it feeds.
"""

import numpy as np
import pytest

import catqed as cq
from catqed import hilbert, qfi
from catqed.propagator import _evolve
from catqed.stateprep import coherent_matrix

N_QUBITS, N_MAX = 4, 56
MODELS = {
    "rwa": cq.ModelParams(n_qubits=N_QUBITS, gamma=0.3, delta=1.2),
    "full": cq.ModelParams(n_qubits=N_QUBITS, gamma=0.3, delta=1.2, rwa=False),
}


def cat_initial(alpha, sign):
    """Emitters down, photons in |alpha> + sign |-alpha>: Pi = 0 for the even
    cat and 1 for the odd one, with the other parity's cells exactly zero."""
    rows = coherent_matrix([alpha, -alpha], N_MAX)
    c = np.zeros((N_QUBITS + 1, N_MAX + 1), dtype=complex)
    c[0] = rows[0] + sign * rows[1]
    c[0] /= np.linalg.norm(c[0])
    return cq.CompositeState(c, cq.DickeSpace(N_QUBITS), cq.FockSpace(N_MAX))


def sampled_block(initial, params):
    """The first block of samples the propagator reads out, t = 0.7 .. 31."""
    steps = [700, 3100, 9000, 17000, 31000]
    return next(_evolve(initial, params, steps, 1e-3))[0]


CASES = [(model, alpha, sign) for model in MODELS for alpha in (3.0, 2.0 + 1.0j)
         for sign in (1.0, -1.0)]
IDS = [f"{model}-{alpha}-{'even' if sign > 0 else 'odd'}" for model, alpha, sign in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def cat_block(request):
    model, alpha, sign = request.param
    block = sampled_block(cat_initial(alpha, sign), MODELS[model])
    return block, 0 if sign > 0 else 1


def generic(monkeypatch):
    monkeypatch.setattr(hilbert.CompositeState, "parity", property(lambda state: None))
    monkeypatch.setattr(qfi, "_eigh", np.linalg.eigh)


def count_scans(monkeypatch):
    """The states whose parity is decided from here on, one entry per scan
    of their amplitudes."""
    scanned = []
    decide = hilbert.CompositeState.parity.fget

    def counted(state):
        if not hasattr(state, "_parity"):
            scanned.append(state)
        return decide(state)
    monkeypatch.setattr(hilbert.CompositeState, "parity", property(counted))
    return scanned


def one(amplitudes, time):
    return cq.CompositeState(amplitudes, cq.DickeSpace(N_QUBITS), cq.FockSpace(N_MAX),
                             time=time)


def close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    return np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def readouts(state):
    traced = cq.reduce_to_electron(state)
    even = cq.parity_postselect(state, cq.ParityOutcome.EVEN)
    odd = cq.parity_postselect(state, cq.ParityOutcome.ODD)
    return {
        "trace-out": traced.matrix,
        "even": (even.probability, even.rho.matrix),
        "odd": (odd.probability, odd.rho.matrix),
        "probabilities": cq.parity_probabilities(state),
        "qfi": [cq.qfi_mixed(rho).value for rho in (traced, even.rho, odd.rho)],
        "fisher": [cq.qfi_mixed(rho).matrix for rho in (traced, even.rho, odd.rho)],
    }


def test_sampled_cats_keep_their_parity_exactly(cat_block):
    block, parity = cat_block
    assert block.parity == parity
    for sample, time in zip(block.amplitudes, block.time):
        assert one(sample, time).parity == parity


def test_parity_readouts_match_the_generic_path(cat_block, monkeypatch):
    # a fresh state of the same amplitudes: the block keeps the photon-parity
    # split its own readouts formed
    block, _ = cat_block
    fast = readouts(block)
    generic(monkeypatch)
    slow = readouts(one(block.amplitudes, block.time))
    for name in ("trace-out", "qfi", "fisher"):
        assert close(fast[name], slow[name]), name
    for name in ("even", "odd", "probabilities"):
        for got, ref in zip(fast[name], slow[name]):
            assert close(got, ref), name


def test_each_parity_outcome_is_one_block_of_the_trace_out(cat_block):
    # the photon parity is the parity of k + Pi, so each outcome's rho is the
    # trace-out's block on those rows, renormalized by its probability
    block, parity = cat_block
    traced = cq.reduce_to_electron(block).matrix
    for outcome in cq.ParityOutcome:
        res = cq.parity_postselect(block, outcome)
        rows = (outcome.offset + parity) % 2
        part = np.zeros_like(traced)
        part[:, rows::2, rows::2] = traced[:, rows::2, rows::2]
        assert close(res.rho.matrix * res.probability[:, None, None], part)


def test_impossible_outcome_is_refused_at_the_same_floor(monkeypatch):
    # at t = 0 the odd cat holds no even photon number; both paths refuse
    with pytest.raises(cq.ImpossibleOutcomeError, match="'even' has probability"):
        cq.parity_postselect(cat_initial(2.0, -1.0), cq.ParityOutcome.EVEN)
    generic(monkeypatch)
    with pytest.raises(cq.ImpossibleOutcomeError, match="'even' has probability"):
        cq.parity_postselect(cat_initial(2.0, -1.0), cq.ParityOutcome.EVEN)


@pytest.mark.parametrize("spec", [cq.PhotonicSpec("kitten", 2.0),
                                  cq.PhotonicSpec("coherent", 2.0)],
                         ids=["kitten", "coherent"])
@pytest.mark.parametrize("model", MODELS)
def test_kittens_and_coherent_states_take_the_generic_path(spec, model, monkeypatch):
    block = sampled_block(cq.prepare_initial(spec, N_QUBITS, n_max=N_MAX), MODELS[model])
    assert block.parity is None
    calls = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or real_eigh(m))
    cq.qfi_mixed(cq.reduce_to_electron(block))
    # the trace-out has coherences between the parities of k: one full eigh
    assert (len(block.amplitudes), N_QUBITS + 1, N_QUBITS + 1) in calls


def test_even_cat_trace_out_at_eight_qubits_splits_its_eigh(monkeypatch):
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    block = next(_evolve(initial, params, [0, 2000, 5000], 1e-3))[0]
    rho = cq.reduce_to_electron(block)
    shapes = []
    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: shapes.append(m.shape[-2:])
                        or real_eigh(m))
    cq.qfi_mixed(rho)
    # the 3 x 3 is the Fisher matrix's own eigh
    assert sorted(set(shapes)) == [(3, 3), (4, 4), (5, 5)]


def test_a_stack_of_both_parities_takes_the_generic_path(monkeypatch):
    # the decision covers the whole stack: an even-cat sample stacked with an
    # odd-cat one has no parity, and each keeps the readouts it has alone
    params = MODELS["full"]
    even, odd = (sampled_block(cat_initial(3.0, sign), params) for sign in (1.0, -1.0))
    pair = [(even.amplitudes[2], even.time[2]), (odd.amplitudes[3], odd.time[3])]
    stack = cq.CompositeState(np.stack([a for a, _ in pair]), cq.DickeSpace(N_QUBITS),
                              cq.FockSpace(N_MAX), time=[t for _, t in pair])
    assert stack.parity is None
    assert [one(*sample).parity for sample in pair] == [0, 1]
    together = readouts(stack)
    for i, sample in enumerate(pair):
        alone = readouts(one(*sample))
        assert close(together["trace-out"][i], alone["trace-out"])
        for name in ("even", "odd", "probabilities", "qfi", "fisher"):
            for got, ref in zip(together[name], alone[name]):
                assert close(got[i], ref), name
    # the even sample alone has a parity the stack does not: its sub-stack
    # decides it afresh and reads its own half-size Grams
    scanned = count_scans(monkeypatch)
    part = stack[[True, False]]
    assert part.parity == 0
    assert scanned == [part]
    alone = readouts(one(*pair[0]))
    assert close(readouts(part)["trace-out"][0], alone["trace-out"])


def test_a_sub_stack_keeps_its_parity_and_readouts(monkeypatch):
    block = sampled_block(cat_initial(3.0, 1.0), MODELS["full"])
    whole = readouts(block)
    scanned = count_scans(monkeypatch)
    for index in ([True, False, True, False, True], slice(1, 3)):
        part = block[index]
        assert part.parity == 0
        picked = np.arange(len(block.time))[index]
        got = readouts(part)
        assert np.array_equal(got["trace-out"], whole["trace-out"][index])
        for j, i in enumerate(picked):
            alone = readouts(one(block.amplitudes[i], block.time[i]))
            assert np.array_equal(got["trace-out"][j], alone["trace-out"])
            for name in ("even", "odd", "probabilities", "qfi", "fisher"):
                for value, ref in zip(got[name], alone[name]):
                    assert np.array_equal(value[j], ref), name
    # an integer selects one state, whose readouts are those it has alone
    got, alone = readouts(block[3]), readouts(one(block.amplitudes[3], block.time[3]))
    assert np.array_equal(got["trace-out"], alone["trace-out"])
    for name in ("even", "odd", "probabilities", "qfi", "fisher"):
        for value, ref in zip(got[name], alone[name]):
            assert np.array_equal(value, ref) and type(value) is type(ref), name
    # only the single states read alone were scanned
    assert [np.ndim(state.time) for state in scanned] == [0] * 6


def test_parity_probabilities_are_the_postselection_probabilities():
    blocks = {
        "even-cat block": sampled_block(cat_initial(3.0, 1.0), MODELS["rwa"]),
        "odd-cat snapshot": cq.snapshots(cat_initial(3.0, -1.0), MODELS["rwa"], [2.5])[0],
        "kitten block": sampled_block(cq.prepare_initial(cq.PhotonicSpec("kitten", 2.0),
                                                         N_QUBITS, n_max=N_MAX),
                                      MODELS["full"]),
    }
    for name, state in blocks.items():
        probabilities = cq.parity_probabilities(state)
        for outcome in cq.ParityOutcome:
            conditioned = cq.parity_postselect(state, outcome).probability
            assert np.array_equal(probabilities[outcome.offset], conditioned), name


FLAGSHIP_MONITORS = ("qfi_density", "qfi_density_even", "prob_even", "prob_odd")


@pytest.mark.parametrize("monitors", [FLAGSHIP_MONITORS, FLAGSHIP_MONITORS + ("qfi_density_odd",)],
                         ids=["flagship", "with-odd-outcome"])
def test_a_run_scans_each_block_once(monitors, monkeypatch):
    # flagship inputs: 101 samples in 6 blocks of at most 19.  Both models
    # conserve the parity, so the run scans its initial state once and every
    # block carries that parity.  The odd outcome is impossible at t = 0, so
    # that monitor reads the first block's 18 possible samples as a
    # sub-stack, which keeps the block's parity
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    plan = cq.PropagationPlan(t_max=10.0, sample_stride=100, monitors=monitors)
    scanned, blocks = count_scans(monkeypatch), []
    spy = ("blocks", lambda ctx: blocks.append(ctx.state) or np.zeros(ctx.norm_drift.size))
    series = cq.run(initial, params, plan, extra_monitors=[spy])
    assert series.times.size == 101
    assert [np.size(state.time) for state in blocks] == [19] * 5 + [6]
    assert all(state.parity == 0 for state in blocks)
    assert scanned == [initial]


def test_a_snapshot_is_scanned_once_for_its_three_parity_readouts(monkeypatch):
    # the one scan is the initial state's; the snapshot carries its parity
    params = MODELS["rwa"]
    initial = cat_initial(3.0, -1.0)
    scanned = count_scans(monkeypatch)
    snap = cq.snapshots(initial, params, [2.5])[0]
    cq.reduce_to_electron(snap)
    for outcome in cq.ParityOutcome:
        cq.parity_postselect(snap, outcome)
    assert scanned == [initial]
    assert snap.parity == 1


@pytest.mark.parametrize("monitors, per_block", [
    (("qfi_density", "qfi_density_even", "prob_even", "prob_odd"), 2),
    (("qfi_density", "qfi_density_even", "qfi_density_odd"), 2),
    (("qfi_density_odd", "qfi_density"), 2),
    (("prob_even", "prob_odd"), 0)],
    ids=["flagship", "with-odd-outcome", "odd-outcome-first", "probabilities"])
def test_a_block_forms_each_photon_parity_gram_once(monitors, per_block, monkeypatch):
    # the trace-out and the parity readouts share the two Grams of each of
    # the 6 blocks, also where the odd outcome is refused at t = 0 and its 18
    # possible samples are read as a sub-stack; the parity probabilities
    # are the weights, which need none
    formed = []
    real_gram = hilbert.gram
    monkeypatch.setattr(hilbert, "gram", lambda u: formed.append(u.shape) or real_gram(u))
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    plan = cq.PropagationPlan(t_max=10.0, sample_stride=100, monitors=monitors)
    cq.run(initial, params, plan)
    assert len(formed) == 6 * per_block
    assert sorted(set(shape[-2] for shape in formed)) == ([4, 5] if per_block else [])


def test_a_block_forms_each_photon_parity_weight_once(monkeypatch):
    # prob_even and prob_odd read the two weights each of the 6 blocks keeps,
    # formed on its parts: the live sectors K = 10 .. 188 span the columns
    # 2 .. 188, so u_0 holds 5 even rows x 94 even columns and u_1 4 odd rows
    # x 93 odd columns.  check_tail's sums span the top TAIL_WIDTH + 1 levels
    formed = []
    real_norm, real_window_norm = hilbert.squared_norm, hilbert._window_norm
    monkeypatch.setattr(hilbert, "squared_norm",
                        lambda u: formed.append(u.shape) or real_norm(u))
    monkeypatch.setattr(hilbert, "_window_norm", lambda u, at, width:
                        formed.append(u.shape) or real_window_norm(u, at, width))
    params = cq.ModelParams(n_qubits=8, gamma=0.01)
    initial = cq.prepare_initial(cq.PhotonicSpec("even_cat", 10.0), 8, n_max=188)
    plan = cq.PropagationPlan(t_max=10.0, sample_stride=100, monitors=("prob_even", "prob_odd"))
    cq.run(initial, params, plan)
    weights = [shape[-2:] for shape in formed if shape[-1] != hilbert.TAIL_WIDTH + 1]
    assert sorted(weights) == [(4, 93)] * 6 + [(5, 94)] * 6
