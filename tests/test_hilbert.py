"""Spaces, joint states, and the electron reduction.

The partial-trace oracle in oracles.py is a plain double loop; agreement
with reduce_to_electron pins both the index layout (m-major) and the
conjugation side.
"""

import numpy as np
import pytest

import catqed as cq
from oracles import partial_trace_electron


def random_joint(rng, n_qubits, n_max):
    shape = (n_qubits + 1, n_max + 1)
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    c /= np.linalg.norm(c)
    return cq.CompositeState(c, cq.DickeSpace(n_qubits), cq.FockSpace(n_max))


def test_dicke_space_basics():
    space = cq.DickeSpace(4)
    assert space.dim == 5
    assert np.allclose(space.m_values(), [-2, -1, 0, 1, 2])


def test_dicke_space_rejects_bad_n():
    with pytest.raises(cq.DimensionMismatchError):
        cq.DickeSpace(0)


def test_fock_space_rejects_bad_cutoff():
    with pytest.raises(cq.DimensionMismatchError):
        cq.FockSpace(0)


def test_composite_state_normalization_enforced(rng):
    c = np.zeros((3, 4), dtype=complex)
    c[0, 0] = 2.0  # norm 2, not 1
    with pytest.raises(cq.StateValidationError):
        cq.CompositeState(c, cq.DickeSpace(2), cq.FockSpace(3))


def test_composite_state_shape_mismatch():
    c = np.zeros((3, 4), dtype=complex)
    c[0, 0] = 1.0
    with pytest.raises(cq.DimensionMismatchError):
        cq.CompositeState(c, cq.DickeSpace(4), cq.FockSpace(3))


def test_composite_state_copy_isolation(rng):
    state = random_joint(rng, 2, 5)
    before = state.amplitudes.copy()
    ext = state.amplitudes
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    # mutating the source array after construction must not leak in
    c = before.copy()
    s2 = cq.CompositeState(c, state.dicke, state.fock)
    c[0, 0] += 1.0
    assert np.array_equal(s2.amplitudes, before)
    del ext


def test_product_state_layout():
    e = np.array([0.0, 0.0, 1.0], dtype=complex)  # m = +J
    p = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    state = cq.product_state(e, p, cq.DickeSpace(2), cq.FockSpace(3))
    assert state.amplitudes[2, 0] == pytest.approx(1.0)
    assert np.count_nonzero(state.amplitudes) == 1


def test_reduce_to_electron_matches_dense_oracle(rng):
    state = random_joint(rng, 3, 6)
    rho = cq.reduce_to_electron(state)
    ref = partial_trace_electron(state.amplitudes)
    assert np.abs(rho.matrix - ref).max() < 1e-12
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_reduce_pure_product_is_rank_one():
    e = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
    p = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    state = cq.product_state(e, p, cq.DickeSpace(2), cq.FockSpace(3))
    rho = cq.reduce_to_electron(state)
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-12)
    assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_validation():
    bad = np.array([[0.7, 0.5], [0.1, 0.3]])  # not hermitian
    with pytest.raises(cq.StateValidationError):
        cq.ElectronDensityMatrix(bad, cq.DickeSpace(1))


def test_density_matrix_trace_enforced():
    bad = np.eye(2) * 0.7
    with pytest.raises(cq.StateValidationError):
        cq.ElectronDensityMatrix(bad, cq.DickeSpace(1))


def test_photon_distribution_and_tail(rng):
    state = random_joint(rng, 2, 30)
    p = state.photon_distribution()
    assert p.shape == (31,)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    # the watch window is the last 11 columns; zeroing them zeroes the tail
    c = state.amplitudes.copy()
    c[:, -11:] = 0.0
    c /= np.linalg.norm(c)
    s2 = cq.CompositeState(c, state.dicke, state.fock)
    assert s2.tail_population() == pytest.approx(0.0, abs=1e-15)
    assert state.tail_population() > 0.1  # random state fills the window


def _corrupt_norm(a):
    a[2] *= 1.01


def _corrupt_finite(a):
    a[1, 0, 0] = np.nan


@pytest.mark.parametrize("corrupt", [_corrupt_norm, _corrupt_finite], ids=["norm", "finite"])
def test_corrupted_sample_in_a_state_stack_is_refused(rng, corrupt):
    amps = np.stack([random_joint(rng, 2, 6).amplitudes for _ in range(4)])
    dicke, fock = cq.DickeSpace(2), cq.FockSpace(6)
    state = cq.CompositeState(amps, dicke, fock, time=[0.0, 0.1, 0.2, 0.3])
    assert state.norm() == pytest.approx([1.0] * 4, abs=1e-14)
    corrupt(amps)
    with pytest.raises(cq.StateValidationError):
        cq.CompositeState(amps, dicke, fock, time=[0.0, 0.1, 0.2, 0.3])


def _non_hermitian(rho):
    rho[1, 0, 2] += 1e-10


def _trace(rho):
    rho[2, 1, 1] += 1e-10


def _non_finite(rho):
    rho[0, 2, 2] = np.inf


def _negative(rho):
    rho[1] = np.diag([1.1, -0.1, 0.0])


@pytest.mark.parametrize("corrupt", [_non_hermitian, _trace, _non_finite, _negative],
                         ids=["hermiticity", "trace", "finite", "eigenvalue"])
def test_corrupted_sample_in_a_density_stack_is_refused(rng, corrupt):
    dicke = cq.DickeSpace(2)
    rho = cq.reduce_to_electron(
        cq.CompositeState(np.stack([random_joint(rng, 2, 5).amplitudes for _ in range(3)]),
                          dicke, cq.FockSpace(5), time=[0.0, 1.0, 2.0])).matrix.copy()
    cq.ElectronDensityMatrix(rho, dicke)
    corrupt(rho)
    with pytest.raises(cq.StateValidationError):
        cq.ElectronDensityMatrix(rho, dicke)


def test_stack_needs_one_time_per_sample(rng):
    amps = np.stack([random_joint(rng, 1, 4).amplitudes] * 2)
    with pytest.raises(cq.DimensionMismatchError):
        cq.CompositeState(amps, cq.DickeSpace(1), cq.FockSpace(4), time=0.0)


def test_a_single_state_cannot_be_indexed(rng):
    state = random_joint(rng, 1, 4)
    with pytest.raises(cq.DimensionMismatchError, match="not a stack of samples"):
        state[0]


def test_stacked_reduction_matches_each_sample(rng):
    states = [random_joint(rng, 3, 7) for _ in range(5)]
    stack = cq.CompositeState(np.stack([s.amplitudes for s in states]), cq.DickeSpace(3),
                              cq.FockSpace(7), time=np.arange(5.0))
    rho = cq.reduce_to_electron(stack)
    assert rho.matrix.shape == (5, 4, 4)
    for k, s in enumerate(states):
        assert np.max(np.abs(rho.matrix[k] - partial_trace_electron(s.amplitudes))) < 1e-14
    assert stack.tail_population() == pytest.approx([s.tail_population() for s in states],
                                                    rel=1e-14)
    assert isinstance(states[0].tail_population(), float)
    assert stack.time.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
