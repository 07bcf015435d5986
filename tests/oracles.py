"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: dense kron matrices, explicit index
loops, matrix exponentials, ladder-constructed and exact rational
Clebsch-Gordan tables.
Nothing imports from catqed, so agreement between the two code paths is
meaningful.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import expm


def dense_spin(n_qubits):
    """(jx, jy, jz, jp, jm) on the Dicke ladder, index k -> m = -J + k."""
    j = n_qubits / 2.0
    dim = n_qubits + 1
    m = np.arange(dim) - j
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag(m).astype(complex)
    return jx, jy, jz, jp, jm


def dense_boson(n_max):
    """(a, adag, n) truncated at n_max."""
    dim = n_max + 1
    a = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        a[k, k + 1] = math.sqrt(k + 1)
    return a, a.conj().T, np.diag(np.arange(dim, dtype=float)).astype(complex)


def dense_hamiltonian(params, n_max):
    """Joint Hamiltonian as one dense matrix, photon index fastest.

    Both models couple with gamma*omega/2; the RWA model keeps the
    co-rotating pair only, the full model adds ``counter_rotating``.
    """
    jx, jy, jz, jp, jm = dense_spin(params.n_qubits)
    a, ad, nph = dense_boson(n_max)
    ie = np.eye(params.n_qubits + 1)
    ip = np.eye(n_max + 1)
    h = params.delta * np.kron(jz, ip) + np.kron(ie, params.omega * nph)
    g = 0.5 * params.gamma * params.omega
    h += -1j * g * (np.kron(jp, a) - np.kron(jm, ad))
    if not params.rwa:
        h += counter_rotating(params, n_max)
    return h


def counter_rotating(params, n_max):
    """-i (gamma*omega/2) (a J- - a^dag J+) as one dense matrix."""
    jx, jy, jz, jp, jm = dense_spin(params.n_qubits)
    a, ad, nph = dense_boson(n_max)
    g = 0.5 * params.gamma * params.omega
    return -1j * g * (np.kron(jm, a) - np.kron(jp, ad))


def evolve_exact(h, psi0, t):
    """expm(-i h t) @ psi0 via eigendecomposition."""
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * t) * (u.conj().T @ psi0))


def evolve_mpmath(h, psi0, t, dps=30):
    """expm(-i h t) @ psi0 via mpmath's Hermitian eigensolver at ``dps``
    digits, for small h.  The phases of ``evolve_exact`` drift by about
    eps ||h|| t, which passes 1e-12 after some 10^3 periods of h."""
    import mpmath

    with mpmath.workdps(dps):
        w, u = mpmath.eighe(mpmath.matrix(h.tolist()))
        c = u.transpose_conj() * mpmath.matrix(psi0.tolist())
        for i in range(len(w)):
            c[i] *= mpmath.expj(-w[i] * mpmath.mpf(t))
        return np.array([complex(z) for z in u * c])


def partial_trace_electron(amplitudes):
    """rho_e[m, m'] = sum_n c[m, n] conj(c[m', n]), written as plain loops."""
    dim_e, dim_p = amplitudes.shape
    rho = np.zeros((dim_e, dim_e), dtype=complex)
    for m1 in range(dim_e):
        for m2 in range(dim_e):
            acc = 0.0 + 0.0j
            for n in range(dim_p):
                acc += amplitudes[m1, n] * np.conj(amplitudes[m2, n])
            rho[m1, m2] = acc
    return rho


def parity_projectors(n_max):
    """(P_even, P_odd) as dense diagonal matrices on the Fock ladder."""
    signs = np.array([(-1.0) ** n for n in range(n_max + 1)])
    even = np.diag((1.0 + signs) / 2.0)
    odd = np.diag((1.0 - signs) / 2.0)
    return even, odd


def qfi_brute(rho, generators):
    """Largest eigenvalue of the QFI matrix, full double loop, no floors."""
    lam, vecs = np.linalg.eigh(rho)
    lam = np.clip(lam.real, 0.0, None)
    lam = lam / lam.sum()
    rotated = [vecs.conj().T @ g @ vecs for g in generators]
    k = len(generators)
    f = np.zeros((k, k))
    dim = rho.shape[0]
    for a in range(k):
        for b in range(k):
            acc = 0.0
            for i in range(dim):
                for j in range(dim):
                    den = lam[i] + lam[j]
                    if den < 1e-15:
                        continue
                    term = rotated[a][i, j] * np.conj(rotated[b][i, j])
                    acc += 2.0 * (lam[i] - lam[j]) ** 2 / den * term.real
            f[a, b] = acc
    return float(np.linalg.eigvalsh(f)[-1])


def coherent_amplitudes_mpmath(alpha, n_max, dps=60):
    """<n|alpha> at high precision; returns complex128 after rounding."""
    import mpmath

    with mpmath.workdps(dps):
        a = mpmath.mpmathify(alpha)
        pref = mpmath.exp(-abs(a) ** 2 / 2)
        out = []
        for n in range(n_max + 1):
            val = pref * a ** n / mpmath.sqrt(mpmath.factorial(n))
            out.append(complex(val))
    return np.array(out, dtype=complex)


def spin_coherent_mpmath(n_qubits, a, b, dps=60):
    """sqrt(C(N, k)) a^{N-k} b^k at high precision, (a, b) first scaled to
    |a|^2 + |b|^2 = 1; returns complex128 after rounding."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = mpmath.mpmathify(complex(a)), mpmath.mpmathify(complex(b))
        scale = mpmath.sqrt(abs(a) ** 2 + abs(b) ** 2)
        a, b = a / scale, b / scale
        out = [complex(mpmath.sqrt(mpmath.binomial(n_qubits, k))
                       * a ** (n_qubits - k) * b ** k)
               for k in range(n_qubits + 1)]
    return np.array(out, dtype=complex)


def dense_drive_state(params, alpha, t):
    """Lab-frame collective state under the rotating wave drive: the drive is
    static in the co-rotating frame, so one dense matrix exponential there,
    then the free rotation back to the lab frame."""
    _, _, jz, jp, jm = dense_spin(params.n_qubits)
    coeff = -0.5j * params.gamma * params.omega * alpha
    h = (params.delta - params.omega) * jz + coeff * jp + np.conj(coeff) * jm
    down = np.zeros(params.n_qubits + 1, dtype=complex)
    down[0] = 1.0
    return np.exp(-1j * params.omega * t * np.diag(jz).real) * (expm(-1j * t * h) @ down)


def hermite_psi_mpmath(x, n, dps=60):
    """psi_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)) at high precision."""
    import mpmath

    with mpmath.workdps(dps):
        xm = mpmath.mpf(x)
        val = (mpmath.hermite(n, xm) * mpmath.exp(-xm * xm / 2)
               / mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))
        return float(val)


def legendre_rule_mpmath(guesses, dps=40):
    """Gauss-Legendre nodes and weights w = 2 (1 - x^2) / (n P_{n-1}(x))^2,
    each node polished from its double-precision guess by Newton steps on
    the three-term recurrence at high precision; rounded to float."""
    import mpmath

    n = len(guesses)
    nodes, weights = [], []
    with mpmath.workdps(dps):
        for guess in guesses:
            x = mpmath.mpf(float(guess))
            for _ in range(3):
                p_prev, p = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
                x -= p * (x * x - 1) / (n * (x * p - p_prev))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p_prev) ** 2))
    return np.array(nodes), np.array(weights)


def quadrature_overlap_closed_form(x, phi, alpha):
    """<x; phi|alpha> = pi^{-1/4} exp(-x^2/2 + sqrt(2) x b - b^2/2 - |b|^2/2),

    with b = alpha e^{-i phi} (the rotated-frame amplitude).
    """
    b = alpha * np.exp(-1j * phi)
    return (math.pi ** -0.25
            * np.exp(-0.5 * x * x + math.sqrt(2) * x * b - 0.5 * b * b
                     - 0.5 * abs(b) ** 2))


@lru_cache(maxsize=None)
def cg_table_ladder(tj1, tj2, tj):
    """Clebsch-Gordan table for j1 (x) j2 -> j by highest-weight descent.

    Arguments are doubled (integer) spins.  Returns a dict keyed by doubled
    (m1, m2, m).  The |j, j> row is the null vector of J+ on the m = j
    subspace, then J- is applied repeatedly.  Condon-Shortley sign: the
    m1 = j1 coefficient of the top row is positive.
    """
    j1, j2, j = tj1 / 2.0, tj2 / 2.0, tj / 2.0
    if j > j1 + j2 or j < abs(j1 - j2):
        return {}

    def mvals(tj_):
        return [(-tj_ + 2 * k) / 2.0 for k in range(tj_ + 1)]

    # Top row |j, j> = sum_{m1} c_{m1} |m1, j - m1>: the zero-eigenvalue
    # vector of J+ acting on the m = j subspace, solved by the two-term
    # recursion from applying J1+ + J2+ and collecting components.
    pairs = [(m1, j - m1) for m1 in mvals(tj1) if abs(j - m1) <= j2]
    pairs.sort()

    def sp(jj, mm):  # raising coefficient <j, m+1|J+|j, m>
        return math.sqrt(jj * (jj + 1) - mm * (mm + 1))

    # J+ |j,j> = 0 couples neighbours: the |m1, j - m1 + 1> component gets
    # sp(j1, m1 - 1) c_{m1-1} + sp(j2, j - m1) c_{m1}, so
    # c_{m1} = -c_{m1-1} sp(j1, m1 - 1) / sp(j2, j - m1)
    coeffs = {pairs[0][0]: 1.0}
    for (m1_prev, _), (m1, _) in zip(pairs, pairs[1:]):
        coeffs[m1] = -coeffs[m1_prev] * sp(j1, m1_prev) / sp(j2, j - m1)
    norm = math.sqrt(sum(c * c for c in coeffs.values()))
    top_m1 = max(coeffs)
    sign = 1.0 if coeffs[top_m1] > 0 else -1.0
    table = {}
    row = {(m1, j - m1): sign * c / norm for m1, c in coeffs.items()}
    m = j
    while True:
        for (m1, m2), c in row.items():
            table[(round(2 * m1), round(2 * m2), round(2 * m))] = c
        if m <= -j + 1e-9:
            break
        # apply J- = J1- + J2- and renormalize by sm(j, m)
        sm = math.sqrt(j * (j + 1) - m * (m - 1))
        new = {}
        for (m1, m2), c in row.items():
            if m1 - 1 >= -j1 - 1e-9 and abs(m1 - 1) <= j1 + 1e-9:
                new[(m1 - 1, m2)] = new.get((m1 - 1, m2), 0.0) + c * sp(j1, m1 - 1)
            if m2 - 1 >= -j2 - 1e-9 and abs(m2 - 1) <= j2 + 1e-9:
                new[(m1, m2 - 1)] = new.get((m1, m2 - 1), 0.0) + c * sp(j2, m2 - 1)
        row = {k: v / sm for k, v in new.items() if abs(v) > 0.0}
        m -= 1
    return table


def cg_ladder(j1, m1, j2, m2, j, m):
    """Single Clebsch-Gordan coefficient from the ladder-built table."""
    table = cg_table_ladder(round(2 * j1), round(2 * j2), round(2 * j))
    return table.get((round(2 * m1), round(2 * m2), round(2 * m)), 0.0)


def cg_exact(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2|j m> from the Racah sum in exact rational arithmetic.

    Selection-rule violations return 0; non-half-integer or negative
    spins raise ValueError.
    """
    doubled = []
    for value in (j1, m1, j2, m2, j, m):
        twice = round(2 * value)
        if abs(2 * value - twice) > 1e-9:
            raise ValueError(f"{value!r} is not a half-integer")
        doubled.append(twice)
    if min(doubled[0], doubled[2], doubled[4]) < 0:
        raise ValueError("angular momenta must be nonnegative")
    return _cg_exact_twice(*doubled)


@lru_cache(maxsize=None)
def _cg_exact_twice(tj1, tm1, tj2, tm2, tj, tm):
    """Doubled quantum numbers; the square root is taken once, at the end."""
    pairs = ((tj1, tm1), (tj2, tm2), (tj, tm))
    if (tm1 + tm2 != tm or tj > tj1 + tj2 or tj < abs(tj1 - tj2)
            or (tj1 + tj2 + tj) % 2
            or any(abs(tm_) > tj_ or (tj_ - tm_) % 2 for tj_, tm_ in pairs)):
        return 0.0
    fact = math.factorial
    a, b, c = (tj1 + tj2 - tj) // 2, (tj1 - tj2 + tj) // 2, (tj2 - tj1 + tj) // 2
    radicand = Fraction((tj + 1) * fact(a) * fact(b) * fact(c),
                        fact((tj1 + tj2 + tj) // 2 + 1))
    for tj_, tm_ in pairs:
        radicand *= fact((tj_ + tm_) // 2) * fact((tj_ - tm_) // 2)
    total = Fraction(0)
    for k in range(a + 1):
        dens = (a - k, (tj1 - tm1) // 2 - k, (tj2 + tm2) // 2 - k,
                (tj - tj2 + tm1) // 2 + k, (tj - tj1 - tm2) // 2 + k)
        if min(dens) >= 0:
            total += Fraction((-1) ** k, fact(k) * math.prod(map(fact, dens)))
    return math.copysign(math.sqrt(float(total * total * radicand)), total)


@lru_cache(maxsize=None)
def kernel_weights_exact(n_qubits):
    """Wigner kernel weights D_m = sum_K (2K+1)/(N+1) <J m; K 0|J m> in
    ascending m, each coefficient exact before its rounding to double and
    the sum correctly rounded."""
    tj = n_qubits
    return np.array([math.fsum((tk + 1) / (tj + 1) * _cg_exact_twice(tj, tm, tk, 0, tj, tm)
                               for tk in range(0, 2 * tj + 1, 2))
                     for tm in range(-tj, tj + 1, 2)])


def wigner_d_expm(n_qubits, theta):
    """Small Wigner d-matrix as expm(+i theta Jy) (package sign convention)."""
    _, jy, _, _, _ = dense_spin(n_qubits)
    return expm(1j * theta * np.asarray(jy))


def rotation_expm(n_qubits, theta, phi):
    """e^{+i phi Jz} e^{+i theta Jy} built from expm; shares no code with
    the package's eigendecomposition route."""
    _, _, jz, _, _ = dense_spin(n_qubits)
    return expm(1j * phi * np.asarray(jz)) @ wigner_d_expm(n_qubits, theta)


def pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))
