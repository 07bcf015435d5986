"""Wigner kernel weights, rotations, and the spherical phase-space map.

The package builds its kernel weights from Gram polynomials and never
evaluates a Clebsch-Gordan coefficient.  Its references here are the exact
rational Racah sum in oracles.py, itself checked against a frozen table and
the ladder-constructed table, which never touches the Racah sum, so their
agreement checks the closed form against the defining recursion.
"""

import math

import numpy as np
import pytest

import catqed as cq
from catqed.fileio import format_float
from catqed.wigner import _column_period
from oracles import (cg_exact, cg_ladder, kernel_weights_exact, rotation_expm,
                     wigner_d_expm)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
SQ6 = 1.0 / math.sqrt(6.0)


def half_range(tj_max):
    return [t / 2.0 for t in range(1, tj_max + 1)]


@pytest.mark.parametrize("args, expected", [
    ((0.5, 0.5, 0.5, -0.5, 0.0, 0.0), SQ2),     # singlet, Condon-Shortley +
    ((0.5, -0.5, 0.5, 0.5, 0.0, 0.0), -SQ2),
    ((0.5, 0.5, 0.5, -0.5, 1.0, 0.0), SQ2),
    ((0.5, 0.5, 0.5, 0.5, 1.0, 1.0), 1.0),      # stretched
    ((1.0, 1.0, 1.0, -1.0, 0.0, 0.0), SQ3),
    ((1.0, 0.0, 1.0, 0.0, 0.0, 0.0), -SQ3),
    ((1.0, 1.0, 1.0, -1.0, 2.0, 0.0), SQ6),
    ((1.0, 0.0, 1.0, 0.0, 2.0, 0.0), math.sqrt(2.0 / 3.0)),
    ((1.0, 1.0, 1.0, 0.0, 2.0, 1.0), SQ2),
    ((1.0, 1.0, 1.0, 0.0, 1.0, 1.0), SQ2),
])
def test_clebsch_gordan_frozen_table(args, expected):
    assert cg_exact(*args) == pytest.approx(expected, abs=1e-12)


def test_clebsch_gordan_matches_ladder_oracle():
    # every coefficient with j1, j2 <= 2 against the highest-weight descent
    for j1 in half_range(4):
        for j2 in half_range(4):
            js = np.arange(abs(j1 - j2), j1 + j2 + 0.5)
            for j in js:
                for m1 in np.arange(-j1, j1 + 0.5):
                    for m2 in np.arange(-j2, j2 + 0.5):
                        m = m1 + m2
                        if abs(m) > j:
                            continue
                        got = cg_exact(j1, m1, j2, m2, j, m)
                        ref = cg_ladder(j1, m1, j2, m2, j, m)
                        assert got == pytest.approx(ref, abs=1e-10), (
                            j1, m1, j2, m2, j, m)


def test_clebsch_gordan_large_spins_spot():
    for args in [(4.0, 2.0, 3.0, -1.0, 5.0, 1.0),
                 (3.5, 0.5, 2.5, 0.5, 4.0, 1.0),
                 (4.0, 4.0, 4.0, -4.0, 0.0, 0.0)]:
        assert cg_exact(*args) == pytest.approx(
            cg_ladder(*args), abs=1e-10)


def test_clebsch_gordan_selection_rules():
    assert cg_exact(1.0, 1.0, 1.0, 1.0, 2.0, 1.0) == 0.0  # m1+m2 != m
    assert cg_exact(1.0, 0.0, 1.0, 0.0, 3.0, 0.0) == 0.0  # j too big
    assert cg_exact(0.5, 0.5, 0.5, 0.5, 0.0, 1.0) == 0.0


def test_clebsch_gordan_rejects_bad_input():
    with pytest.raises(ValueError):
        cg_exact(0.3, 0.3, 0.5, 0.5, 1.0, 0.8)
    with pytest.raises(ValueError):
        cg_exact(-1.0, 0.0, 1.0, 0.0, 1.0, 0.0)


def test_kernel_weights_spin_half_frozen():
    w = cq.kernel_weights(1)
    expected = sorted([(1 - math.sqrt(3.0)) / 2.0, (1 + math.sqrt(3.0)) / 2.0])
    assert sorted(w) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_qubits", [1, 2, 4, 9, 32, 60, 128])
def test_kernel_weights_trace_one(n_qubits):
    assert cq.kernel_weights(n_qubits).sum() == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n_qubits", [8, 16, 32, 40, 60])
def test_kernel_weights_match_exact_rational_sum(n_qubits):
    # includes N > 32, where a factorial-sum CG loses digits (4.8e-9 at 60)
    err = np.abs(cq.kernel_weights(n_qubits) - kernel_weights_exact(n_qubits)).max()
    assert err <= 1e-13


def test_rotation_matrix_unitary_large_spin():
    r = cq.rotation_matrix(32, 0.7, 1.3)
    eye = r.conj().T @ r
    assert np.abs(eye - np.eye(33)).max() < 1e-12


def test_rotation_matrix_matches_expm_oracle():
    for n, th, ph in [(1, 0.4, 0.0), (5, 0.7, 1.3), (8, 2.9, 5.0)]:
        got = cq.rotation_matrix(n, th, ph)
        ref = rotation_expm(n, th, ph)
        assert np.abs(got - ref).max() < 1e-12


def test_rotation_composition():
    d1 = cq.rotation_matrix(6, 0.5, 0.0)
    d2 = cq.rotation_matrix(6, 1.1, 0.0)
    d12 = cq.rotation_matrix(6, 1.6, 0.0)
    assert np.abs(d1 @ d2 - d12).max() < 1e-12


def all_down_density(n_qubits):
    dim = n_qubits + 1
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return cq.ElectronDensityMatrix(rho, cq.DickeSpace(n_qubits))


def test_wigner_identity_is_flat():
    n = 4
    rho = cq.ElectronDensityMatrix(np.eye(5) / 5.0, cq.DickeSpace(n))
    grid = cq.wigner_function(rho, n_theta=61, n_phi=60)
    assert np.abs(grid.values - 1.0 / 5.0).max() < 1e-12


def test_wigner_all_down_spin_half_closed_form():
    # rho = |1/2, -1/2><1/2, -1/2|: W(theta) = (1 - sqrt(3) cos(theta)) / 2
    grid = cq.wigner_function(all_down_density(1), n_theta=91, n_phi=16)
    ref = (1.0 - math.sqrt(3.0) * np.cos(grid.theta)) / 2.0
    assert np.abs(grid.values - ref[:, None]).max() < 1e-12


def test_wigner_all_down_peaks_south():
    grid = cq.wigner_function(all_down_density(6), n_theta=121, n_phi=24)
    profile = grid.values.mean(axis=1)
    assert np.argmax(profile) == 120  # theta = pi
    assert profile[0] < profile[-1]


@pytest.mark.parametrize("n_qubits", [1, 3, 8])
def test_wigner_integrates_to_one(n_qubits, random_density):
    rho = cq.ElectronDensityMatrix(random_density(n_qubits + 1),
                                   cq.DickeSpace(n_qubits))
    # trapezoid in theta converges like h^2, so the 1e-6 target needs a
    # fine polar grid; phi is a rectangle rule on a trig polynomial and
    # is exact for any n_phi > 2J
    grid = cq.wigner_function(rho, n_theta=2001, n_phi=72)
    assert grid.integrate() == pytest.approx(1.0, abs=1e-6)


def test_wigner_azimuthal_covariance():
    # rotating the state about z shifts W along phi by the same angle
    n = 4
    n_phi = 72
    shift_steps = 6
    phi0 = 2.0 * math.pi * shift_steps / n_phi
    psi = np.zeros(5, dtype=complex)
    psi[0] = math.sqrt(0.5)
    psi[4] = math.sqrt(0.5)  # GHZ, strong phi dependence
    rho = np.outer(psi, psi.conj())
    r = cq.rotation_matrix(n, 0.0, phi0)
    rho_rot = r @ rho @ r.conj().T
    base = cq.wigner_function(
        cq.ElectronDensityMatrix(rho, cq.DickeSpace(n)), n_theta=61, n_phi=n_phi)
    rot = cq.wigner_function(
        cq.ElectronDensityMatrix(rho_rot, cq.DickeSpace(n)), n_theta=61,
        n_phi=n_phi)
    rolled = np.roll(base.values, shift_steps, axis=1)
    assert np.abs(rot.values - rolled).max() < 1e-10


def test_wigner_ghz_equatorial_fringes():
    n = 4
    psi = np.zeros(5, dtype=complex)
    psi[0] = psi[4] = math.sqrt(0.5)
    rho = cq.ElectronDensityMatrix(np.outer(psi, psi.conj()), cq.DickeSpace(n))
    grid = cq.wigner_function(rho, n_theta=91, n_phi=360)
    equator = grid.values[45, :]  # theta = pi/2
    signs = np.sign(equator)
    flips = int(np.sum(signs[1:] * signs[:-1] < 0))
    assert flips == 2 * n  # cos(N phi) oscillation
    assert equator.min() < -0.01  # genuine negativity


def test_wigner_ghz_fringes_at_64_qubits():
    # default 181 x 360 grid; the cos(N phi) fringe needs n_phi > 2N
    n = 64
    psi = np.zeros(n + 1, dtype=complex)
    psi[0] = psi[-1] = math.sqrt(0.5)
    rho = np.outer(psi, psi.conj())
    grid = cq.wigner_function(cq.ElectronDensityMatrix(rho, cq.DickeSpace(n)))
    assert grid.values.shape == (181, 360)
    d = np.diag(kernel_weights_exact(n))
    worst = 0.0
    for it in (30, 90, 151):
        for ip in range(0, 360, 45):
            r = rotation_expm(n, grid.theta[it], grid.phi[ip])
            want = np.trace(rho @ r @ d @ r.conj().T).real
            worst = max(worst, abs(grid.values[it, ip] - want))
    assert worst <= 1e-12
    spectrum = np.abs(np.fft.rfft(grid.values[90]))  # theta = pi/2
    assert int(np.argmax(spectrum[1:])) + 1 == n


@pytest.mark.parametrize("n_qubits", [1, 16, 40])
@pytest.mark.parametrize("n_theta", [2, 33, 181])  # below, one past, default
def test_wigner_blocks_match_expm_oracle(n_qubits, n_theta, random_density):
    # every theta row, across the block boundaries, against the expm
    # rotation and the exact kernel.  R(theta, phi) = R(0, phi) R(theta, 0),
    # and on the uniform grid R(theta_k, 0) = R(theta_1, 0)^k (2.4e-15 from
    # a direct expm at N = 40), so the oracle needs few expm calls
    rho = random_density(n_qubits + 1)
    grid = cq.wigner_function(
        cq.ElectronDensityMatrix(rho, cq.DickeSpace(n_qubits)),
        n_theta=n_theta, n_phi=3)
    d = np.diag(kernel_weights_exact(n_qubits))
    turns = [rotation_expm(n_qubits, 0.0, ph) for ph in grid.phi]
    step = rotation_expm(n_qubits, grid.theta[1], 0.0)
    tilt = np.eye(n_qubits + 1)
    want = np.empty_like(grid.values)
    for it in range(n_theta):
        kernel = tilt @ d @ tilt.conj().T
        for ip, turn in enumerate(turns):
            want[it, ip] = np.trace(rho @ turn @ kernel @ turn.conj().T).real
        tilt = tilt @ step
    assert np.abs(grid.values - want).max() <= 1e-12


@pytest.mark.parametrize("pole", [0, -1])
def test_wigner_imaginary_residue_checked_in_every_block(pole):
    # an anti-Hermitian defect i eps |m><m| adds i eps W_m to the grid; W_m
    # peaks at theta = pi for m = -J (index 0) and at theta = 0 for m = +J,
    # and eps keeps the residue below tolerance in the block at the far pole
    n, eps = 16, 1e-9
    dim = n + 1
    proj = np.zeros((dim, dim), dtype=complex)
    proj[pole, pole] = 1.0
    reach = eps * np.abs(cq.wigner_function(
        cq.ElectronDensityMatrix(proj, cq.DickeSpace(n))).values).max(axis=1)
    blocks = set(np.flatnonzero(reach > cq.wigner.IMAG_RESIDUE_ATOL)
                 // cq.wigner.THETA_BLOCK)
    far = 0 if pole == 0 else (reach.size - 1) // cq.wigner.THETA_BLOCK
    assert blocks and far not in blocks
    rho = cq.ElectronDensityMatrix(np.eye(dim) / dim, cq.DickeSpace(n))
    object.__setattr__(rho, "matrix", rho.matrix + 1j * eps * proj)
    with pytest.raises(cq.NumericalError, match="imaginary residue"):
        cq.wigner_function(rho)


def test_wigner_grid_to_file(tmp_path):
    grid = cq.wigner_function(all_down_density(2), n_theta=5, n_phi=4)
    path = tmp_path / "w.dat"
    grid.to_file(str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# J=1 n_theta=5 n_phi=4"
    assert len(lines) == 1 + 5 * 4
    data = np.loadtxt(str(path))
    assert data.shape == (20, 3)
    assert data[:, 2].reshape(5, 4) == pytest.approx(grid.values, abs=1e-15)

    # byte for byte the per-value rendering, on negative, non-round values,
    # for rows of column period 2 and 1, whose repeated values are formatted
    # once, and for aperiodic grids: random, with a constant pole row, with
    # the last column equal to the first (3 is no period of 4 columns),
    # period 2 but for one value moved by one ulp, and period 2 but for a
    # 0.0 where the period holds -0.0 (equal values, different strings)
    theta = np.linspace(0.0, math.pi, 3)
    phi = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    values = np.random.default_rng(7).normal(size=(3, 4)) * [[1.0], [-1e-7], [3e5]]
    pole = values.copy()
    pole[0] = values[0, 0]
    wrap = values.copy()
    wrap[:, 3] = values[:, 0]
    ulp = np.tile(values[:, :2], 2)
    ulp[1, 3] = np.nextafter(ulp[1, 3], np.inf)
    zeros = np.tile(values[:, :2], 2)
    zeros[:, 1] = -0.0
    zeros[2, 3] = 0.0
    for cells, period in ((values, 4), (np.tile(values[:, :2], 2), 2),
                          (np.tile(values[:, :1], 4), 1), (pole, 4), (wrap, 4),
                          (ulp, 4), (zeros, 4), (np.tile(zeros[:, :2], 2), 2)):
        assert _column_period(cells) == period
        grid = cq.WignerGrid(theta=theta, phi=phi, values=cells, n_qubits=3)
        grid.to_file(str(path))
        expected = ["# J=1.5 n_theta=3 n_phi=4"] + [
            f"{format_float(th)} {format_float(ph)} {format_float(cells[i, k])}"
            for i, th in enumerate(theta) for k, ph in enumerate(phi)]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()


def full_phi_values(rho, n_theta, n_phi):
    """The grid with the phase product taken over every phi column, one
    diagonal sum per offset: the evaluation before the period rule."""
    n = rho.dicke.n_qubits
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    d = cq.wigner._small_d(n, thetas)
    g = (d.conj() * cq.kernel_weights(n)) @ d.swapaxes(1, 2)
    offsets = np.arange(-n, n + 1)
    diagonals = np.array([[np.trace(row, offset=k) for k in offsets]
                          for row in g * rho.matrix])
    return (diagonals @ np.exp(1j * np.outer(offsets, phis))).real


def expm_values(rho, grid):
    """W at every grid point from expm rotations and the exact kernel:
    W = sum_{m m'} rho_{m m'} K(theta)_{m' m} e^{i phi (m' - m)}."""
    n = grid.n_qubits
    d = np.diag(kernel_weights_exact(n))
    m = np.arange(n + 1) - n / 2.0
    phases = np.exp(1j * np.multiply.outer(grid.phi, m[None, :] - m[:, None]))
    want = np.empty_like(grid.values)
    for it, th in enumerate(grid.theta):
        tilt = wigner_d_expm(n, th)
        kernel = tilt @ d @ tilt.conj().T
        want[it] = np.einsum("pij,ij,ji->p", phases, rho.matrix, kernel).real
    return want


def evolved_rho(kind, rwa, readout="none", n_qubits=8):
    """Electron state of a cat or kitten, emitters down, after t = 3."""
    spec = {"even_cat": cq.PhotonicSpec("even_cat", 1.5),
            "kitten": cq.PhotonicSpec("kitten", 1.5),
            "general_cat": cq.PhotonicSpec("general_cat", 1.5, beta=-1.2j,
                                           phi_cat=0.4)}[kind]
    params = cq.ModelParams(n_qubits=n_qubits, gamma=0.1, rwa=rwa)
    (snap,) = cq.snapshots(cq.prepare_initial(spec, n_qubits), params, [3.0])
    if readout == "none":
        return cq.reduce_to_electron(snap)
    return cq.parity_postselect(snap, cq.ParityOutcome.EVEN).rho


def ghz_density(n_qubits):
    psi = np.zeros(n_qubits + 1, dtype=complex)
    psi[0] = psi[-1] = math.sqrt(0.5)
    return cq.ElectronDensityMatrix(np.outer(psi, psi.conj()), cq.DickeSpace(n_qubits))


@pytest.mark.parametrize("make, period", [
    (lambda: evolved_rho("even_cat", rwa=True), 180),
    (lambda: evolved_rho("even_cat", rwa=False), 180),
    (lambda: evolved_rho("even_cat", rwa=True, readout="even"), 180),
    (lambda: all_down_density(8), 1),
    (lambda: ghz_density(4), 90),                  # period 2 pi / N
], ids=["even_cat_rwa", "even_cat_full", "even_cat_rwa_even", "all_down", "ghz4"])
def test_wigner_period_grid_matches_full_phi_evaluation(make, period):
    rho = make()
    grid = cq.wigner_function(rho)
    assert _column_period(grid.values) == period
    assert np.abs(grid.values - full_phi_values(rho, 181, 360)).max() <= 1e-12
    assert np.abs(grid.values - expm_values(rho, grid)).max() <= 1e-12


def test_wigner_even_cat_halves_repeat_exactly():
    # every offset of an even-cat state is even, so W(phi + pi) = W(phi)
    # holds bit for bit on the default grid
    grid = cq.wigner_function(evolved_rho("even_cat", rwa=True))
    assert np.array_equal(grid.values[:, 180:], grid.values[:, :180])


def off_pole_coherence_density(n_qubits):
    """Half all-down, half (|1> + |2>)/sqrt 2: the odd offset lies off row 0."""
    rho = np.zeros((n_qubits + 1, n_qubits + 1), dtype=complex)
    rho[0, 0] = 0.5
    rho[1:3, 1:3] = 0.25
    return cq.ElectronDensityMatrix(rho, cq.DickeSpace(n_qubits))


@pytest.mark.parametrize("make, n_phi", [
    (lambda: evolved_rho("kitten", rwa=True), 360),
    (lambda: evolved_rho("general_cat", rwa=True), 360),
    (lambda: evolved_rho("even_cat", rwa=True), 7),
    (lambda: evolved_rho("even_cat", rwa=True), 181),
    (lambda: off_pole_coherence_density(4), 360),
], ids=["kitten", "general_cat", "even_cat_7", "even_cat_181", "off_pole"])
def test_wigner_without_a_column_period_evaluates_every_column(make, n_phi):
    rho = make()
    grid = cq.wigner_function(rho, n_theta=61, n_phi=n_phi)
    assert _column_period(grid.values) == n_phi
    assert np.abs(grid.values - full_phi_values(rho, 61, n_phi)).max() <= 1e-12
    assert np.abs(grid.values - expm_values(rho, grid)).max() <= 1e-12
