"""Fisher-information values against closed forms and a brute-force oracle."""

import numpy as np
import pytest

import catqed as cq
from catqed import qfi
from oracles import dense_spin, qfi_brute, rotation_expm


def dicke_vector(n_qubits, m):
    v = np.zeros(n_qubits + 1, dtype=complex)
    v[int(m + n_qubits / 2)] = 1.0
    return v


def density(matrix, n_qubits):
    return cq.ElectronDensityMatrix(matrix, cq.DickeSpace(n_qubits))


@pytest.mark.parametrize("n_qubits", [2, 5, 8])
def test_dicke_state_closed_form(n_qubits):
    # F(|J, m>) = 2 (J(J+1) - m^2): variance of Jx/Jy in a ladder state
    j = n_qubits / 2.0
    for k in range(n_qubits + 1):
        m = -j + k
        res = cq.qfi_pure(dicke_vector(n_qubits, m), n_qubits)
        assert res.value == pytest.approx(2.0 * (j * (j + 1) - m * m), abs=1e-9)


def test_ghz_reaches_n_squared():
    n = 4
    psi = (dicke_vector(n, -2) + dicke_vector(n, 2)) / np.sqrt(2)
    res = cq.qfi_pure(psi, n)
    assert res.value == pytest.approx(16.0, abs=1e-9)
    # optimal direction is the z axis
    assert abs(res.direction[2]) == pytest.approx(1.0, abs=1e-9)


def test_product_state_density_is_one():
    for n in (3, 6):
        res = cq.qfi_pure(dicke_vector(n, -n / 2), n)
        assert res.value / n == pytest.approx(1.0, abs=1e-12)


def test_pure_vs_mixed_agree(rng):
    for n in (2, 4, 7):
        psi = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        psi /= np.linalg.norm(psi)
        pure = cq.qfi_pure(psi, n)
        mixed = cq.qfi_mixed(density(np.outer(psi, psi.conj()), n))
        assert mixed.value == pytest.approx(pure.value, abs=1e-8)


def test_mixed_matches_brute_force_oracle(random_density):
    for n in (2, 4, 6):
        rho = random_density(n + 1)
        got = cq.qfi_mixed(density(rho, n)).value
        jx, jy, jz, _, _ = dense_spin(n)
        ref = qfi_brute(rho, (jx, jy, jz))
        assert got == pytest.approx(ref, abs=1e-9)


def test_rank_deficient_density(random_density):
    # low-rank mixtures exercise the lambda_i + lambda_j ~ 0 pairs
    n = 6
    rho = random_density(n + 1, rank=2)
    got = cq.qfi_mixed(density(rho, n)).value
    jx, jy, jz, _, _ = dense_spin(n)
    assert got == pytest.approx(qfi_brute(rho, (jx, jy, jz)), abs=1e-9)


def test_pair_floor_insensitivity(random_density, monkeypatch):
    n = 5
    rho = random_density(n + 1, rank=3)
    values = []
    for floor in (1e-15, 1e-12, 1e-9):
        monkeypatch.setattr(qfi, "PAIR_WEIGHT_FLOOR", floor)
        values.append(cq.qfi_mixed(density(rho, n)).value)
    assert max(values) - min(values) < 1e-8


def test_direction_is_unit_and_consistent(random_density):
    n = 4
    rho = random_density(n + 1)
    res = cq.qfi_mixed(density(rho, n))
    assert np.linalg.norm(res.direction) == pytest.approx(1.0, abs=1e-12)
    # the quadratic form along the optimal direction equals the value
    quad = res.direction @ res.matrix @ res.direction
    assert quad == pytest.approx(res.value, rel=1e-10)


def test_rotation_invariance(rng):
    # conjugating by a collective rotation permutes the generator set, so
    # the optimized value is unchanged
    n = 5
    psi = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    psi /= np.linalg.norm(psi)
    base = cq.qfi_pure(psi, n).value
    r = rotation_expm(n, 0.9, 2.1)
    rotated = cq.qfi_pure(r @ psi, n).value
    assert rotated == pytest.approx(base, rel=1e-10)


def test_mixing_never_increases_qfi(random_density):
    # convexity spot check: mixture value <= weighted sum of components
    n = 4
    rho1 = random_density(n + 1)
    rho2 = random_density(n + 1)
    mix = 0.5 * rho1 + 0.5 * rho2
    f_mix = cq.qfi_mixed(density(mix, n)).value
    bound = 0.5 * (cq.qfi_mixed(density(rho1, n)).value
                   + cq.qfi_mixed(density(rho2, n)).value)
    assert f_mix <= bound + 1e-9


def test_entanglement_depth_bound():
    assert cq.entanglement_depth_bound(16.0, 4) == 4     # GHZ: full depth
    assert cq.entanglement_depth_bound(4.0, 4) == 1      # product level
    assert cq.entanglement_depth_bound(3.73 * 8, 8) == 4  # F/N = 3.73 -> depth 4
    assert cq.entanglement_depth_bound(4.29 * 8, 8) == 5


def test_maximally_mixed_has_zero_qfi():
    n = 3
    rho = np.eye(n + 1) / (n + 1)
    assert cq.qfi_mixed(density(rho, n)).value == pytest.approx(0.0, abs=1e-10)


def _dense_pure_fisher(psi, n_qubits):
    """4x the (Jx, Jy, Jz) covariance from the dense spin matrices."""
    mats = cq.spin_matrices(n_qubits)
    means = [np.vdot(psi, j @ psi).real for j in mats]
    return np.array([[4.0 * (np.vdot(a @ psi, b @ psi).real - ma * mb)
                      for b, mb in zip(mats, means)] for a, ma in zip(mats, means)])


@pytest.mark.parametrize("n_qubits", [1, 2, 8, 40, 64])
def test_pure_qfi_matches_the_dense_spin_matrices(rng, n_qubits):
    # the O(N) moments against 4 Cov(J) of the dense matrices and against
    # the mixed-state pair sum of |psi><psi|
    for _ in range(3):
        psi = rng.normal(size=n_qubits + 1) + 1j * rng.normal(size=n_qubits + 1)
        psi /= np.linalg.norm(psi)
        res = cq.qfi_pure(psi, n_qubits)
        dense = _dense_pure_fisher(psi, n_qubits)
        scale = max(1.0, np.max(np.abs(dense)))
        assert np.max(np.abs(res.matrix - dense)) <= 1e-12 * scale
        assert res.value == pytest.approx(np.linalg.eigvalsh(dense)[-1], rel=1e-12)
        mixed = cq.qfi_mixed(density(np.outer(psi, psi.conj()), n_qubits))
        assert abs(res.value - mixed.value) <= 1e-12 * n_qubits**2
        assert np.max(np.abs(res.matrix - mixed.matrix)) <= 1e-12 * n_qubits**2


def test_pure_qfi_out_of_bounds_is_refused(monkeypatch):
    # the single-matrix path keeps the stacked path's bound check and message
    # a negative slack moves the upper bound below the GHZ value N^2 = 9
    monkeypatch.setattr(qfi, "QFI_BOUND_SLACK", -1.0)
    ghz = (dicke_vector(3, -1.5) + dicke_vector(3, 1.5)) / np.sqrt(2)
    message = r"QFI 9 outside \[0, N\^2\] within slack \(N = 3\)"
    with pytest.raises(cq.StateValidationError, match=message):
        cq.qfi_pure(ghz, 3)
    with pytest.raises(cq.StateValidationError, match=message):
        cq.qfi_mixed(density(np.array([np.outer(ghz, ghz.conj())] * 2), 3))


def test_pure_qfi_at_ten_thousand_qubits_builds_no_dense_matrix(monkeypatch):
    import tracemalloc

    def refuse(n_qubits):
        raise AssertionError("dense spin matrices built")

    monkeypatch.setattr(cq.qfi, "spin_matrices", refuse)
    n = 10_000
    ghz = (dicke_vector(n, -n / 2) + dicke_vector(n, n / 2)) / np.sqrt(2)
    tracemalloc.start()
    try:
        res = cq.qfi_pure(ghz, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.value == pytest.approx(float(n) ** 2, rel=1e-12)
    assert abs(res.direction[2]) == pytest.approx(1.0, abs=1e-12)
    assert peak < 2_000_000        # one (N + 1)^2 complex matrix is 1.6 GB
    product = cq.qfi_pure(dicke_vector(n, -n / 2), n)
    assert product.value == pytest.approx(float(n), rel=1e-12)


def test_stacked_mixed_qfi_matches_each_sample(rng):
    n = 4
    mats = []
    for _ in range(6):
        a = rng.normal(size=(n + 1, 3)) + 1j * rng.normal(size=(n + 1, 3))
        rho = a @ a.conj().T
        mats.append(rho / np.trace(rho).real)
    mats[2] = np.outer(mats[2][:, 0], mats[2][:, 0].conj())
    mats[2] /= np.trace(mats[2]).real      # pure: pairs at the floor are skipped
    stacked = cq.qfi_mixed(density(np.array(mats), n))
    assert stacked.value.shape == (6,) and stacked.direction.shape == (6, 3)
    jx, jy, jz, _, _ = dense_spin(n)
    for k, rho in enumerate(mats):
        single = cq.qfi_mixed(density(rho, n))
        assert isinstance(single.value, float) and single.direction.shape == (3,)
        assert stacked.value[k] == pytest.approx(single.value, rel=1e-12, abs=1e-12)
        assert np.max(np.abs(stacked.matrix[k] - single.matrix)) <= 1e-12
        assert single.value == pytest.approx(qfi_brute(rho, (jx, jy, jz)), rel=1e-9)
