"""Exact references for the benchmark's correctness checks.

Nothing here imports catqed: the joint evolution, the readouts and the
semiclassical expansion are rebuilt from their definitions so that agreement
with a pass's recorded outputs means something.

* Rotating-wave model: H conserves k = m_index + n, so it is block-diagonal
  in excitation sectors of at most N + 1 states.  One batched ``eigh`` over
  the padded sectors gives psi(t) = V exp(-iEt) V^dag psi0 at any time.
* Full model (small sizes only): one dense ``eigh`` of the joint H.

Amplitude layout matches the package: index (i, n) with i = m + J.  Units
are the package defaults used by every workload: delta = omega = mu = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import expm
from scipy.special import gammaln

PAIR_FLOOR = 1e-12


def spin_ladder(n_qubits):
    """(m values, raising coefficients s with J+|i> = s[i] |i+1>)."""
    j = 0.5 * n_qubits
    m = np.arange(n_qubits + 1) - j
    s = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    return m, s


def spin_operators(n_qubits):
    """Dense (Jx, Jy, Jz)."""
    m, s = spin_ladder(n_qubits)
    jp = np.diag(s.astype(complex), -1)
    jm = jp.conj().T
    return 0.5 * (jp + jm), -0.5j * (jp - jm), np.diag(m).astype(complex)


def coherent(alpha, n_max):
    """<n|alpha>, evaluated in log scale for every n."""
    alpha = complex(alpha)
    v = np.zeros(n_max + 1, dtype=complex)
    if alpha == 0:
        v[0] = 1.0
        return v
    n = np.arange(n_max + 1)
    logmag = -0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    return np.exp(logmag + 1j * n * np.angle(alpha))


def initial_state(kind, alpha, n_qubits, n_max):
    """All emitters down; the field holds an even cat or a kitten."""
    other = -alpha if kind == "even_cat" else 0.0
    field = coherent(alpha, n_max) + coherent(other, n_max)
    c = np.zeros((n_qubits + 1, n_max + 1), dtype=complex)
    c[0] = field / np.linalg.norm(field)
    return c


def evolve_rwa(c0, gamma, times):
    """Exact RWA states at ``times`` by excitation-sector eigendecomposition.

    H = Jz + n - i (gamma/2)(a J+ - a^dag J-); the block of
    sector k couples (i, k - i) to (i + 1, k - i - 1) with -i g s[i] sqrt(n).
    """
    dim_e, dim_f = c0.shape
    n_qubits, n_max = dim_e - 1, dim_f - 1
    m, s = spin_ladder(n_qubits)
    g = 0.5 * gamma
    sectors = np.arange(n_qubits + n_max + 1)
    i = np.arange(dim_e)
    n = sectors[:, None] - i[None, :]                     # (K, dim_e)
    valid = (n >= 0) & (n <= n_max)
    h = np.zeros((sectors.size, dim_e, dim_e), dtype=complex)
    diag = np.where(valid, m[None, :] + n, 0.0)
    # padding states get distinct far-away energies and no coupling
    diag = np.where(valid, diag, 1e6 + i[None, :])
    h[:, i, i] = diag
    nn = np.clip(n[:, :-1], 0, None)
    link = valid[:, :-1] & valid[:, 1:]
    cpl = np.where(link, -1j * g * s[None, :] * np.sqrt(nn), 0.0)
    h[:, i[1:], i[:-1]] = cpl
    h[:, i[:-1], i[1:]] = cpl.conj()
    energies, vecs = np.linalg.eigh(h)
    ncl = np.clip(n, 0, n_max)
    psi0 = np.where(valid, c0[i[None, :], ncl], 0.0)       # (K, dim_e)
    coeff = np.einsum("kji,kj->ki", vecs.conj(), psi0)
    out = []
    for t in times:
        psi = np.einsum("kij,kj->ki", vecs, np.exp(-1j * energies * t) * coeff)
        c = np.zeros_like(c0)
        c[i[None, :].repeat(sectors.size, 0)[valid], n[valid]] = psi[valid]
        out.append(c)
    return out


def dense_hamiltonian_full(n_qubits, n_max, gamma):
    """Full model with counter-rotating terms, index i * (n_max + 1) + n."""
    jx, jy, jz = spin_operators(n_qubits)
    jp = jx + 1j * jy
    jm = jp.conj().T
    a = np.diag(np.sqrt(np.arange(1, n_max + 1)).astype(complex), 1)
    ad = a.conj().T
    ie, ip = np.eye(n_qubits + 1), np.eye(n_max + 1)
    g = 0.5 * gamma
    h = np.kron(jz, ip) + np.kron(ie, np.diag(np.arange(n_max + 1.0)))
    h = h - 1j * g * (np.kron(jp, a) - np.kron(jm, ad))
    h = h - 1j * g * (np.kron(jm, a) - np.kron(jp, ad))
    return h


def evolve_full(c0, gamma, times):
    dim_e, dim_f = c0.shape
    h = dense_hamiltonian_full(dim_e - 1, dim_f - 1, gamma)
    w, u = np.linalg.eigh(h)
    coeff = u.conj().T @ c0.ravel()
    return [(u @ (np.exp(-1j * w * t) * coeff)).reshape(c0.shape) for t in times]


def qfi(rho, n_qubits):
    """Largest eigenvalue of the 3x3 QFI matrix over (Jx, Jy, Jz)."""
    lam, vecs = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    lam = np.clip(lam, 0.0, None)
    lam = lam / lam.sum()
    lsum = lam[:, None] + lam[None, :]
    weight = np.where(lsum > PAIR_FLOOR,
                      2.0 * (lam[:, None] - lam[None, :]) ** 2 / np.where(lsum > 0, lsum, 1.0),
                      0.0)
    rot = [vecs.conj().T @ op @ vecs for op in spin_operators(n_qubits)]
    f = np.array([[np.sum(weight * ra * rb.conj()).real for rb in rot] for ra in rot])
    return float(np.linalg.eigvalsh(0.5 * (f + f.T))[-1])


def qfi_pure_state(psi, n_qubits):
    """4 x largest eigenvalue of the symmetrized (Jx, Jy, Jz) covariance."""
    ops = spin_operators(n_qubits)
    jpsi = [op @ psi for op in ops]
    mean = [np.vdot(psi, v).real for v in jpsi]
    cov = np.array([[np.vdot(a, b).real - ma * mb for b, mb in zip(jpsi, mean)]
                    for a, ma in zip(jpsi, mean)])
    return float(4.0 * np.linalg.eigvalsh(cov)[-1])


def photon_number(c):
    return float(np.sum(np.abs(c) ** 2 * np.arange(c.shape[1])))


def parity_probs(c):
    p = np.sum(np.abs(c) ** 2, axis=0)
    return float(p[0::2].sum()), float(p[1::2].sum())


def conditioned_rho(c, offset):
    sub = c[:, offset::2]
    return sub @ sub.conj().T / np.sum(np.abs(sub) ** 2)


def hermite_table(xs, n_max):
    """psi_n(x) by the plain normalized recurrence (fine for |x| of order 1)."""
    out = np.empty((xs.size, n_max + 1))
    out[:, 0] = math.pi ** -0.25 * np.exp(-0.5 * xs * xs)
    if n_max:
        out[:, 1] = math.sqrt(2.0) * xs * out[:, 0]
    for n in range(1, n_max):
        out[:, n + 1] = (math.sqrt(2.0 / (n + 1)) * xs * out[:, n]
                         - math.sqrt(n / (n + 1.0)) * out[:, n - 1])
    return out


@lru_cache(maxsize=4)
def _window_rule(x, delta_x, n_max, nodes):
    """Gauss-Legendre weights and psi_n at the nodes of one window."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    xs = x + 0.5 * delta_x * u
    return hermite_table(xs, n_max), 0.5 * delta_x * w


def window_readout(c, x, delta_x, phi, nodes=160):
    """Probability and conditioned rho for a quadrature window at phase phi."""
    table, ws = _window_rule(x, delta_x, c.shape[1] - 1, nodes)
    n = np.arange(c.shape[1])
    bra = table * np.exp(-1j * phi * n)[None, :]
    amp = c @ bra.T                                   # (dim_e, nodes)
    rho = (amp * ws[None, :]) @ amp.conj().T
    prob = float(np.trace(rho).real)
    return prob, rho / prob


def rabi_spin_state(n_qubits, gamma, alpha, t):
    """Lab-frame Dicke state driven on resonance by the classical field
    alpha e^{-i t}: each qubit has a = cos(W t / 2), b = -(alpha / |alpha|)
    sin(W t / 2) with Rabi frequency W = gamma |alpha|."""
    w = gamma * abs(alpha)
    a = math.cos(0.5 * w * t)
    b = -complex(alpha) / abs(alpha) * math.sin(0.5 * w * t) if w else 0.0
    m, _ = spin_ladder(n_qubits)
    k = np.arange(n_qubits + 1)
    binom = np.array([math.comb(n_qubits, int(q)) for q in k], dtype=float)
    amps = np.sqrt(binom) * np.power(complex(a), n_qubits - k) * np.power(complex(b), k)
    return amps * np.exp(-1j * t * m)


def rabi_even_cat_state(n_qubits, gamma, alpha, t):
    v = rabi_spin_state(n_qubits, gamma, alpha, t) + rabi_spin_state(n_qubits, gamma, -alpha, t)
    return v / np.linalg.norm(v)


def expansion_state(n_qubits, gamma, alpha, t, n_max, nodes):
    """Even-cat coherent-state expansion on displaced Gauss-Hermite grids:
    sum_k w_k |spin(alpha_k, t)> |alpha_k e^{-i t}>, normalized."""
    u, wu = np.polynomial.hermite.hermgauss(nodes)
    centers = (alpha, -alpha)
    norm2 = sum(math.exp(-0.5 * (ci - cj) ** 2) for ci in centers for cj in centers)
    total = np.zeros((n_qubits + 1, n_max + 1), dtype=complex)
    for center in centers:
        for ua, wa in zip(u, wu):
            for ub, wb in zip(u, wu):
                grid = center + math.sqrt(2.0) * ua + 1j * math.sqrt(2.0) * ub
                weight = 2.0 * wa * wb * np.exp(-1j * math.sqrt(2.0) * ub * center) \
                    / (math.pi * math.sqrt(norm2))
                spin = rabi_spin_state(n_qubits, gamma, grid, t)
                field = coherent(grid * np.exp(-1j * t), n_max)
                total += weight * np.outer(spin, field)
    return total / np.linalg.norm(total)


def _fact(n):
    return math.factorial(n)


def clebsch_gordan_exact(tj1, tm1, tj2, tm2, tj, tm):
    """<j1 m1; j2 m2|j m> from the Racah sum in exact rational arithmetic.

    Arguments are doubled quantum numbers; the square root is taken once.
    """
    if tm1 + tm2 != tm or tj > tj1 + tj2 or tj < abs(tj1 - tj2):
        return 0.0
    a, b, c = (tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2, (-tj1 + tj2 + tj) // 2
    radicand = Fraction((tj + 1) * _fact(a) * _fact(b) * _fact(c), _fact((tj1 + tj2 + tj) // 2 + 1))
    for q in (tj1 + tm1, tj1 - tm1, tj2 + tm2, tj2 - tm2, tj + tm, tj - tm):
        radicand *= _fact(q // 2)
    total = Fraction(0)
    for k in range(0, a + 1):
        dens = (a - k, (tj1 - tm1) // 2 - k, (tj2 + tm2) // 2 - k,
                (tj - tj2 + tm1) // 2 + k, (tj - tj1 - tm2) // 2 + k)
        if min(dens) < 0:
            continue
        term = Fraction(1, _fact(k) * math.prod(_fact(d) for d in dens))
        total += -term if k % 2 else term
    value = math.sqrt(float(total * total * radicand))
    return -value if total < 0 else value


@lru_cache(maxsize=8)
def wigner_kernel_weights(n_qubits):
    """D_m = sum_{j'} (2j'+1)/(2J+1) <J m; j' 0|J m>."""
    tj = n_qubits
    return np.array([sum((tjp + 1) / (tj + 1) * clebsch_gordan_exact(tj, tm, tjp, 0, tj, tm)
                         for tjp in range(0, 2 * tj + 1, 2))
                     for tm in range(-tj, tj + 1, 2)])


def wigner_points(rho, n_qubits, thetas, phis):
    """W(theta, phi) = Tr[rho R diag(D) R^dag], R = e^{i phi Jz} e^{i theta Jy}."""
    _, jy, jz = spin_operators(n_qubits)
    d = wigner_kernel_weights(n_qubits)
    out = np.empty((len(thetas), len(phis)))
    for a, th in enumerate(thetas):
        small = expm(1j * th * jy)
        for b, ph in enumerate(phis):
            r = expm(1j * ph * jz) @ small
            out[a, b] = np.trace(rho @ (r * d[None, :]) @ r.conj().T).real
    return out


def sphere_integral(values, thetas, n_qubits):
    """(2J+1)/(4 pi) * integral of W sin(theta): Simpson in theta, periodic
    rectangle rule in phi."""
    per_theta = values.mean(axis=1) * 2.0 * math.pi * np.sin(thetas)
    return float(simpson(per_theta, x=thetas) * (n_qubits + 1) / (4.0 * math.pi))
