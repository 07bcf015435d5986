"""Spin Wigner quasiprobability on the sphere for the Dicke ladder.

W(theta, phi) = Tr[rho Delta(theta, phi)] with the kernel

    Delta(theta, phi) = sum_m D_{J,m} R |J,m><J,m| R^dag,
    R(theta, phi) = e^{i phi Jz} e^{i theta Jy},
    D_{J,m} = sum_{j=0}^{2J} (2j+1)/(2J+1) <J,m; j,0|J,m>,

and normalized measure dOmega = (2J+1)/(4 pi) sin(theta) dtheta dphi.
As a function of m, <J,m; K,0|J,m> = sqrt((2J+1)/(2K+1)) p_K(m), with p_K
the K-th Gram (discrete Chebyshev) polynomial, orthonormal on m = -J..J.
``kernel_weights`` reads every p_K(m) off the eigenvectors of their Jacobi
matrix, each signed so that p_0 > 0 (Golub and Welsch, Math. Comp. 23, 221
(1969)).  p_K(J) is no sign reference: for K near 2J it is rounding noise.

The rotated kernel g(theta) = conj(d) diag(D) d^T, d the small-d matrix,
does not depend on the state: up to ``KEPT_KERNEL_BYTES`` the kernel of
the last grid shape is kept read-only for the next grid of that shape,
and a larger one is built block by block on every call.

``WignerGrid.to_file`` makes a grid file's text as bytes, a block of theta
rows at a time, and streams each block into the file, so a write takes
memory by the block, not by the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NumericalError
from .fileio import ChunkedText, atomic_write_text, float_cells
from .hilbert import DickeSpace, ElectronDensityMatrix

IMAG_RESIDUE_ATOL = 1e-10
DEFAULT_GRID = (181, 360)
# theta rows per block of ``wigner_function``
THETA_BLOCK = 32
# grid lines per block of ``WignerGrid.to_file``: 16 theta rows of 360 phi
# columns, 4 of 1440.  Larger blocks raised a write's peak memory, smaller
# ones its time.
TEXT_BLOCK_LINES = 16 * 360
# Largest kernel stack g(theta) that ``wigner_function`` keeps, read-only,
# for the next grid of the same shape: 0.84 MB at N = 16 on the default
# grid.  One shape is kept at a time, so this bounds the memory held
# between calls; a larger kernel is built a block at a time on every call.
KEPT_KERNEL_BYTES = 1 << 20


@lru_cache(maxsize=64)
def _jy_eigensystem(n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of Jy via its real tridiagonal gauge transform,
    by a dense eigh of the (N+1) x (N+1) matrix."""
    space = DickeSpace(n_qubits)
    off = -0.5 * space.raising_coefficients()
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


@lru_cache(maxsize=64)
def _jy_gauge(n_qubits: int) -> np.ndarray:
    cycle = np.array([1.0, 1j, -1.0, -1j])
    return cycle[np.arange(n_qubits + 1) % 4]


def rotation_matrix(n_qubits: int, theta: float, phi: float) -> np.ndarray:
    """R(theta, phi) = e^{i phi Jz} e^{i theta Jy} on the Dicke ladder."""
    d = _small_d(n_qubits, theta)
    m = DickeSpace(n_qubits).m_values()
    return np.exp(1j * phi * m)[:, None] * d


def _small_d(n_qubits: int, theta: float | np.ndarray) -> np.ndarray:
    """d(theta) = e^{i theta Jy} for a scalar or an array of angles; the
    matrices stack along the leading axes, shape theta.shape + (dim, dim)."""
    evals, evecs = _jy_eigensystem(n_qubits)
    gauge = _jy_gauge(n_qubits)
    phases = np.exp(1j * np.asarray(theta)[..., None, None] * evals)
    core = (evecs * phases) @ evecs.T
    return gauge[:, None] * core * gauge.conj()


def _kernel_blocks(n_qubits: int, thetas: np.ndarray):
    """g(theta) = conj(d) diag(D) d^T, d = d(theta), for ``THETA_BLOCK``
    angles of ``thetas`` at a time."""
    weights = kernel_weights(n_qubits)
    for start in range(0, len(thetas), THETA_BLOCK):
        d = _small_d(n_qubits, thetas[start:start + THETA_BLOCK])
        yield (d.conj() * weights) @ d.swapaxes(1, 2)


@lru_cache(maxsize=1)
def _kept_kernel(n_qubits: int, n_theta: int) -> tuple[np.ndarray, ...]:
    """The blocks of ``_kernel_blocks`` over the grid's theta, read-only."""
    blocks = tuple(_kernel_blocks(n_qubits, np.linspace(0.0, math.pi, n_theta)))
    for g in blocks:
        g.flags.writeable = False
    return blocks


@lru_cache(maxsize=64)
def kernel_weights(n_qubits: int) -> np.ndarray:
    """Diagonal kernel weights D_{J,m} in ascending m; their sum is Tr Delta = 1.
    Row K, column i of the sign-fixed eigenvectors holds p_K(m_i)."""
    dim = DickeSpace(n_qubits).dim
    k = np.arange(1, dim)
    off = k * np.sqrt((dim ** 2 - k ** 2) / (4.0 * (4.0 * k ** 2 - 1.0)))
    _, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    polys = vecs * np.sign(vecs[0])
    weights = np.sqrt((2.0 * np.arange(dim) + 1.0) / dim) @ polys
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True)
class WignerGrid:
    """W sampled on a regular (theta, phi) grid, theta in [0, pi] inclusive,
    phi in [0, 2 pi) exclusive."""

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray
    n_qubits: int

    def integrate(self) -> float:
        """Integral with measure (2J+1)/(4 pi) sin(theta): trapezoid in
        theta, periodic rectangle rule in phi."""
        j = self.n_qubits / 2.0
        dphi = 2.0 * math.pi / self.phi.size
        weighted = self.values * np.sin(self.theta)[:, None]
        per_theta = weighted.sum(axis=1) * dphi
        return float(np.trapezoid(per_theta, self.theta) * (2 * j + 1) / (4 * math.pi))

    def to_file(self, path: str) -> None:
        """Write a "# J= n_theta= n_phi=" header, then one "theta phi W" line
        per grid point, theta-major, every float as ``FLOAT_FORMAT``.

        The bytes are those of formatting every value on its own.  They are
        made and written a block of theta rows at a time, about
        ``TEXT_BLOCK_LINES`` lines each, so the memory a write takes does not
        grow with the grid.  ``float_cells`` formats the block's first s
        columns, s the smallest column period (bitwise, see
        ``wigner_function``), and one byte matrix lays out the block's lines
        from those cells, reused in every period, and from the theta and phi
        cells, which are formatted once per set of angles.  One pass then
        drops the cells' NUL padding.
        """
        atomic_write_text(path, ChunkedText(self._text_blocks))

    def _text_blocks(self):
        """The file's bytes: the header, then one chunk per block of theta rows."""
        n_theta, n_phi = self.values.shape
        j = self.n_qubits / 2.0
        yield f"# J={j:g} n_theta={self.theta.size} n_phi={self.phi.size}\n".encode()
        period = _column_period(self.values)
        theta = _angle_fields(np.asarray(self.theta, dtype=np.float64).tobytes())
        phi = _angle_fields(np.asarray(self.phi, dtype=np.float64).tobytes()).reshape(-1, period)
        rows = max(1, TEXT_BLOCK_LINES // n_phi)
        for start in range(0, n_theta, rows):
            block = self.values[start:start + rows, :period]
            cells = _cell_fields(float_cells(block), "\n").reshape(len(block), 1, period)
            lines = np.empty((len(block),) + phi.shape, dtype=[
                ("theta", theta.dtype), ("phi", phi.dtype), ("w", cells.dtype)])
            lines["theta"] = theta[start:start + len(block), None, None]
            lines["phi"] = phi
            lines["w"] = cells
            chunk = lines.tobytes()
            del lines                    # before the compaction copy
            chunk = chunk.translate(None, b"\0")
            yield chunk


@lru_cache(maxsize=8)
def _angle_fields(raw: bytes) -> np.ndarray:
    """Space-ended cells of the float64 angles whose bytes are ``raw``;
    read-only.  Keyed on the bits, not the shape, so a grid on other angles
    writes its own."""
    fields = _cell_fields(float_cells(np.frombuffer(raw)), " ")
    fields.flags.writeable = False
    return fields


def _cell_fields(cells: np.ndarray, end: str) -> np.ndarray:
    """Each row of ``cells`` followed by ``end``, as one fixed-width field."""
    fields = np.empty((len(cells), cells.shape[1] + 1), dtype=np.uint8)
    fields[:, :-1] = cells
    fields[:, -1] = ord(end)
    return fields.view(f"V{fields.shape[1]}")[:, 0]


def _column_period(values: np.ndarray) -> int:
    """Smallest s dividing the column count such that every row repeats
    bit for bit after s columns.  Bits, not values, are compared: 0.0 and
    -0.0 are equal but format differently.  Each divisor is screened on
    the first row before the whole grid is compared."""
    n_cols = values.shape[1]
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    first = bits[:1]
    for s in range(1, n_cols):
        if (n_cols % s == 0 and np.array_equal(first[:, s:], first[:, :-s])
                and np.array_equal(bits[:, s:], bits[:, :-s])):
            return s
    return n_cols


def check_grid_size(n_theta: int, n_phi: int) -> None:
    """A grid needs both poles in theta and at least one phi column."""
    if n_theta < 2 or n_phi < 1:
        raise ConfigError(f"the Wigner grid needs n_theta >= 2 (both poles) and "
                          f"n_phi >= 1, got {n_theta} x {n_phi}")


def wigner_function(rho: ElectronDensityMatrix, n_theta: int = DEFAULT_GRID[0],
                    n_phi: int = DEFAULT_GRID[1]) -> WignerGrid:
    """Evaluate W on the grid, a block of ``THETA_BLOCK`` theta rows at a time.

    With g(theta) = conj(d) diag(D) d^T and d = d(theta) the small-d matrix,
    W(theta, phi) = sum_k e^{i phi k} sum_{m' - m = k} g_{mm'} rho_{mm'}:
    phi enters only through the diagonal offset k.  g does not depend on
    rho: its blocks over all theta, at most ``KEPT_KERNEL_BYTES`` together,
    are kept read-only for the last grid shape; a larger g is built
    per block on every call (one stack of d matrices and one batched
    product), so the memory held after a call stays bounded at any N.  Per
    block, one sum of g o rho along its diagonals and one (rows, 2 dim - 1)
    x (2 dim - 1, period) phase product give every row.

    If every nonzero entry of rho lies on an offset k that is a multiple of
    q (exact test; q = 0 for a diagonal rho), W has period 2 pi / q in phi.
    Only the first period = n_phi / gcd(q, n_phi) columns are evaluated and
    the rest of each row copies them.  A state of definite photon-plus-
    excitation parity, as a cat drive leaves it (q = 2), evaluates half the
    columns of an even n_phi; the diagonal all-down state evaluates one.
    The copies differ from a direct evaluation only by rounding.  The
    largest imaginary part over the evaluated columns must stay within
    ``IMAG_RESIDUE_ATOL``.  ``rho`` is one density matrix; a stack of
    samples is refused.
    """
    if rho.matrix.ndim != 2:
        raise DimensionMismatchError(
            f"wigner_function takes one density matrix, got a stack of "
            f"{len(rho.matrix)}; evaluate each sample on its own")
    check_grid_size(n_theta, n_phi)
    n_qubits = rho.dicke.n_qubits
    dim = rho.dicke.dim
    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    blocks = (_kept_kernel(n_qubits, n_theta) if n_theta * dim * dim * 16 <= KEPT_KERNEL_BYTES
              else _kernel_blocks(n_qubits, thetas))
    rows_nz, cols_nz = np.nonzero(rho.matrix)
    step = int(np.gcd.reduce(cols_nz - rows_nz))
    period = n_phi // math.gcd(step, n_phi)
    offsets = np.arange(-(dim - 1), dim)
    phase = np.exp(1j * np.outer(offsets, phis[:period]))   # (2 dim - 1, period)
    values = np.empty((n_theta, n_phi))
    tiled = values.reshape(n_theta, n_phi // period, period)
    worst_imag = 0.0
    # Rows of width 2 dim read back with width 2 dim - 1 shift row r right
    # by r.  With the rows of g o rho stored in reverse order, entry (m, m')
    # lands in column m' - m + dim - 1, so a column sum is a diagonal sum.
    skew = np.zeros((THETA_BLOCK, dim, 2 * dim), dtype=complex)
    flipped = rho.matrix[::-1]
    for start, g in zip(range(0, n_theta, THETA_BLOCK), blocks):
        rows = len(g)
        np.multiply(g[:, ::-1], flipped, out=skew[:rows, :, :dim])
        skewed = skew[:rows].reshape(rows, -1)[:, :dim * (2 * dim - 1)]
        diagonals = skewed.reshape(rows, dim, 2 * dim - 1).sum(axis=1)
        block = diagonals @ phase
        worst_imag = max(worst_imag, float(np.max(np.abs(block.imag))))
        tiled[start:start + rows] = block.real[:, None, :]
    if worst_imag > IMAG_RESIDUE_ATOL:
        raise NumericalError(
            f"Wigner imaginary residue {worst_imag:.3e} exceeds {IMAG_RESIDUE_ATOL}")
    return WignerGrid(theta=thetas, phi=phis, values=values, n_qubits=n_qubits)
