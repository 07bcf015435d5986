"""The numpy kernels against the scipy functions they stand in for, and a
guard that catqed itself loads no scipy module on any path.

scipy serves here only as the reference; the package never imports it.
"""

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammainc, jv, roots_hermite, roots_legendre

import catqed as cq
from catqed.hilbert import DickeSpace
from catqed.propagator import (CHEBYSHEV_TOL, MAX_CHEBYSHEV_TERMS, _bessel_j,
                               _chebyshev_coefficients, bessel_cut)
from catqed.semiclassical import DEFAULT_GRID_NODES
from catqed.stateprep import STATIC_TAIL_ATOL, _poisson_tails
from oracles import legendre_rule_mpmath


def _cut(values):
    return int(np.flatnonzero(np.abs(values) >= CHEBYSHEV_TOL)[-1])


def test_bessel_matches_jv_and_cuts_on_the_same_term():
    # each value against jv, and all of them as the rows of one table
    xs = np.concatenate([[0.0, 1e-30, 1e-12, 1e-8, 1e-6, 1e-3],
                         np.geomspace(0.01, 10.0, 40),
                         np.linspace(0.0, 1500.0, 121)[1:]])
    coeffs, keeps = _chebyshev_coefficients(xs)
    assert coeffs.shape == (xs.size, keeps.max())
    for j, x in enumerate(xs):
        count = bessel_cut(float(x), MAX_CHEBYSHEV_TERMS, "x =")
        ref = jv(np.arange(count), x)
        mine = _bessel_j(float(x), count)
        assert np.max(np.abs(mine - ref)) <= 1e-13, x
        assert _cut(mine) == _cut(ref), x
        assert keeps[j] == _cut(ref) + 1, x
        k = np.arange(keeps[j])
        assert np.array_equal(coeffs[j, k], (2.0 - (k == 0)) * (-1j) ** (k % 4) * mine[k]), x
        assert not coeffs[j, keeps[j]:].any(), x


def test_bessel_at_zero_is_the_identity_term():
    coeffs, keeps = _chebyshev_coefficients(np.zeros(1))
    assert np.array_equal(coeffs, [[1.0]]) and keeps.tolist() == [1]


def test_poisson_tail_matches_gammainc():
    for mean in np.concatenate([[0.0, 1e-6, 0.01, 0.5],
                                np.linspace(0.1, 1600.0, 81)]):
        sigma = math.sqrt(mean)
        for lo in sorted({0, 1, int(0.5 * mean), int(mean),
                          int(mean + 3.0 * sigma), int(mean + 8.0 * sigma) + 10}):
            mine = _poisson_tails(float(mean), lo)
            n = np.arange(lo, lo + mine.size)
            ref = np.where(n == 0, 1.0, gammainc(np.maximum(n, 1), mean))
            big = ref >= 1e-30
            assert np.all(np.abs(mine[big] / ref[big] - 1.0) <= 1e-10), (mean, lo)
            assert mine[-1] < 1e-30         # the sum ran past the negligible tail


def _scipy_cutoff(a):
    """The former rule less the n_qubits + 10 room: the first n >=
    ceil(|alpha|^2) with gammainc(n, |alpha|^2) <= STATIC_TAIL_ATOL, in one
    vector call (the tail decreases in n, so this is the n the former
    one-call-per-candidate loop stopped on)."""
    mean = a * a
    lo = max(1, math.ceil(mean))
    tails = gammainc(np.arange(lo, lo + 60 + 8 * math.ceil(a + 1.0)), mean)
    floor = lo + int(np.argmax(tails <= STATIC_TAIL_ATOL))
    return max(math.ceil(mean + 7.0 * a), floor)


def test_required_n_max_is_unchanged_on_the_amplitude_grid():
    mismatches = []
    for a in np.arange(0.0, 40.0 + 1e-9, 0.005).tolist():
        cutoff = _scipy_cutoff(a)
        mismatches += [(a, n) for n in (1, 8, 24)
                       if cq.required_n_max(a, n) != n + 10 + cutoff]
    assert mismatches == []
    assert cq.required_n_max(30.0, 24) == 1144


@pytest.mark.parametrize("count", [8, 16, 32, 64])
def test_legendre_rule_matches_scipy(count):
    nodes, weights = np.polynomial.legendre.leggauss(count)
    ref_nodes, ref_weights = roots_legendre(count)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


def test_legendre_rule_matches_exact_weights_at_window_refinement_counts():
    # Past 64 nodes scipy's own weights drift from the exact ones (2.5e-14 at
    # 128 and 4.4e-14 at 512), so the window refinements are checked against
    # weights polished at high precision instead.
    nodes, weights = np.polynomial.legendre.leggauss(128)
    ref_nodes, ref_weights = legendre_rule_mpmath(nodes)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


@pytest.mark.parametrize("count", [3, DEFAULT_GRID_NODES, DEFAULT_GRID_NODES + 8])
def test_hermite_rule_matches_scipy(count):
    # both use the physicists' weight e^{-x^2}
    nodes, weights = np.polynomial.hermite.hermgauss(count)
    ref_nodes, ref_weights = roots_hermite(count)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


@pytest.mark.parametrize("n_qubits", [1, 2, 5, 8, 16, 31, 32])
def test_rotation_matrix_matches_tridiagonal_construction(n_qubits):
    space = DickeSpace(n_qubits)
    evals, evecs = eigh_tridiagonal(np.zeros(space.dim),
                                    -0.5 * space.raising_coefficients())
    gauge = np.array([1.0, 1j, -1.0, -1j])[np.arange(space.dim) % 4]
    for theta, phi in [(0.0, 0.0), (0.7, 1.9), (math.pi, 0.3), (2.4, 5.5)]:
        core = (evecs * np.exp(1j * theta * evals)) @ evecs.T
        ref = np.exp(1j * phi * space.m_values())[:, None] * (
            gauge[:, None] * core * gauge.conj()[None, :])
        assert np.max(np.abs(cq.rotation_matrix(n_qubits, theta, phi) - ref)) <= 1e-13


_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import sys
    import catqed as cq
    import catqed.config, catqed.cli, catqed.validation

    spec = cq.PhotonicSpec(kind="even_cat", alpha=1.5)
    state = cq.prepare_initial(spec, 2)
    rwa = cq.ModelParams(n_qubits=2, gamma=0.2)
    cq.run(state, rwa, cq.PropagationPlan(t_max=0.5, dt=0.05))
    full = cq.ModelParams(n_qubits=2, gamma=0.2, rwa=False)
    window = cq.build_quadrature_monitors(cq.QuadratureSpec(x=0.0, delta_x=0.5))
    cq.run(state, full, cq.PropagationPlan(t_max=0.2, dt=0.05),
           extra_monitors=window)
    (late,) = cq.snapshots(state, rwa, [0.3])
    cq.wigner_function(cq.reduce_to_electron(late), n_theta=9, n_phi=8)
    cq.coherent_expansion_state(rwa, spec, 0.3)
    cq.classically_driven_trajectory(full, 1.5, [0.0, 0.5, 60.0])
    assert all(check.ok for check in catqed.validation.run_checks())
    print(" ".join(sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))))
""")


def test_catqed_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
