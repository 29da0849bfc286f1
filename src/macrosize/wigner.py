"""Wigner-function grids: file I/O, synthesis, and state reconstruction.

Grids sample W(x, p) on dimensionless quadratures with vacuum variance
1/2, so that the vacuum peak is 1/pi and the grid integrates to one.
Reconstruction projects the grid onto the Wigner kernels of the Fock
operators |m><n| (no iterative tomography), repairs positivity by
clipping negative eigenvalues, and reports the fit residual.

Synthesis goes through the position basis, W(x, p) = (1/pi) int
<x - y|rho|x + y> e^{2ipy} dy (Leonhardt, *Measuring the Quantum State of
Light*, 1997, ch. 3; the route of QuTiP's ``wigner(method='fft')``,
Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)): Hermite
functions psi_n by their three-term recurrence on a q-grid aligned with the
x axis, one GEMM psi^T rho psi, and a Fourier sum along its anti-diagonals.
The q-step is dx / s, with s the smallest integer that keeps pi / step at or
above p_max + sqrt(2d + 1) + HERMITE_MARGIN, so the y-sum does not alias.
The overlap reconstruction is the exact adjoint of that chain.
``fock_kernel`` evaluates one kernel |m><n| in closed form and is kept as
the reference both are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from . import fisher, quantum
from .errors import DomainError, MacrosizeError

WIGNER_BOUND = 1.0 / math.pi
NORMALIZATION_ATOL = 0.02
BOUND_SLACK = 0.05
RESIDUAL_LIMIT = 0.05
DEFAULT_DIM = 40
DIM_CAP = 200
DIAGONAL_TAIL_LIMIT = 1e-3
# A synthesized grid must cover the Fock levels up to the last one whose
# upper population tail exceeds this.
SUPPORT_TAIL = 1e-6
# Hermite functions psi_n, n < d, are cut to 0 beyond sqrt(2d + 1) plus this
# margin.  Past its turning point sqrt(2n + 1) each psi_n decays at least as
# fast as a Gaussian, so the dropped terms change W by less than 1e-14 (4e-15
# for the vacuum at d = 1, rounding level from d = 2 on).
HERMITE_MARGIN = 6.0


class WignerFormatError(MacrosizeError):
    """Base class for grid-file format problems."""


class GridHeaderError(WignerFormatError):
    """Missing or malformed header line."""


class GridAxisError(WignerFormatError):
    """Axis metadata inconsistent with the data block."""


class GridValueError(WignerFormatError):
    """Non-finite or unparseable numeric payload."""


class ReconstructionError(MacrosizeError):
    """Kernel-overlap reconstruction residual above the acceptance limit."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class WignerGrid:
    """Rectangular phase-space sampling of a Wigner function."""

    x_min: float
    x_max: float
    x_count: int
    p_min: float
    p_max: float
    p_count: int
    values: np.ndarray  # shape (p_count, x_count), row i = p index i ascending

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.p_count, self.x_count):
            raise GridAxisError(
                f"value block shape {values.shape} does not match axes "
                f"({self.p_count}, {self.x_count})"
            )
        if not np.all(np.isfinite(values)):
            raise GridValueError("grid contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_count)

    @property
    def p_axis(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.p_count)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.x_count - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.p_count - 1)

    def normalization(self) -> float:
        return float(np.sum(self.values) * self.dx * self.dp)

    def check(self) -> "WignerGrid":
        norm = self.normalization()
        if abs(norm - 1.0) > NORMALIZATION_ATOL:
            raise DomainError(
                f"grid normalization {norm:.4f} outside 1 +/- {NORMALIZATION_ATOL}"
            )
        peak = float(np.max(np.abs(self.values)))
        if peak > WIGNER_BOUND + BOUND_SLACK:
            raise DomainError(
                f"grid magnitude {peak:.4f} exceeds the Wigner bound 1/pi "
                f"plus sampling slack"
            )
        return self


# ---------------------------------------------------------------------------
# File format:  wigner-grid v1
# ---------------------------------------------------------------------------

HEADER = "wigner-grid v1"


def save_grid(grid: WignerGrid, path) -> None:
    lines = [HEADER]
    lines.append(f"x {grid.x_min:.17g} {grid.x_max:.17g} {grid.x_count}")
    lines.append(f"p {grid.p_min:.17g} {grid.p_max:.17g} {grid.p_count}")
    lines.append("scale 1")
    for row in grid.values:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _parse_axis(line: str, name: str):
    parts = line.split()
    if len(parts) != 4 or parts[0] != name:
        raise GridHeaderError(f"expected '{name} <min> <max> <count>', got {line!r}")
    try:
        lo, hi = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError as exc:
        raise GridHeaderError(f"unparseable axis line {line!r}") from exc
    if not math.isfinite(hi - lo):
        raise GridHeaderError(f"non-finite axis {line!r}")
    if count < 2 or hi <= lo:
        raise GridHeaderError(f"degenerate axis {line!r}")
    return lo, hi, count


def load_grid(path) -> WignerGrid:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except UnicodeDecodeError as exc:
        raise GridHeaderError(f"grid file is not UTF-8 text: {exc}") from exc
    if not lines or lines[0] != HEADER:
        raise GridHeaderError(
            f"missing/unknown header; expected {HEADER!r}, "
            f"got {lines[0]!r}" if lines else "empty file"
        )
    if len(lines) < 3:
        raise GridHeaderError("truncated header: need x and p axis lines")
    x_min, x_max, x_count = _parse_axis(lines[1], "x")
    p_min, p_max, p_count = _parse_axis(lines[2], "p")
    scale = 1.0
    data_start = 3
    if len(lines) > 3 and lines[3].startswith("scale"):
        parts = lines[3].split()
        if len(parts) != 2:
            raise GridHeaderError(f"malformed scale line {lines[3]!r}")
        try:
            scale = float(parts[1])
        except ValueError as exc:
            raise GridHeaderError(f"malformed scale line {lines[3]!r}") from exc
        data_start = 4
    rows = lines[data_start:]
    if len(rows) != p_count:
        raise GridAxisError(f"expected {p_count} data rows, found {len(rows)}")
    # Rows are checked before any array is sized from the header's counts.
    values = []
    for i, row in enumerate(rows):
        fields = row.split()
        if len(fields) != x_count:
            raise GridAxisError(
                f"row {i} has {len(fields)} columns, expected {x_count}"
            )
        try:
            values.append([float(f) for f in fields])
        except ValueError as exc:
            raise GridValueError(f"unparseable value in data row {i}") from exc
    values = np.array(values) * scale
    return WignerGrid(x_min, x_max, x_count, p_min, p_max, p_count, values)


# ---------------------------------------------------------------------------
# Fock-basis Wigner kernels
# ---------------------------------------------------------------------------

def fock_kernel(m: int, n: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner transform of |m><n| on meshgrid arrays (vacuum variance 1/2)."""
    if m < n:
        return np.conj(fock_kernel(n, m, x, p))
    r2 = x * x + p * p
    damping = np.exp(-r2)
    # Where exp(-r^2) underflows the kernel is exactly 0; zeroing r there
    # keeps the polynomial factors finite, so the product is 0, not 0 * inf.
    inside = damping > 0.0
    log_coeff = 0.5 * ((m - n) * math.log(2.0) + gammaln(n + 1) - gammaln(m + 1))
    base = ((-1.0) ** n / math.pi) * math.exp(log_coeff)
    poly = eval_genlaguerre(n, m - n, 2.0 * np.where(inside, r2, 0.0))
    if m == n:
        return base * damping * poly
    return base * np.where(inside, x - 1j * p, 0.0) ** (m - n) * damping * poly


def _position_chain(dim: int, xs: np.ndarray, ps: np.ndarray):
    """Hermite functions, anti-diagonal pairs and phases of the position-basis chain.

    The q-grid q_k = x_0 + (k + k_lo) h covers [-R, R], R the cut radius,
    with h = dx / s, so every x_i +- j h on it is a grid point.  s is the
    smallest integer with pi / h >= p_max + R: the y-sum at step h adds to
    W(x, p) its copies at p + k pi / h, k != 0, which lie beyond R where
    the kernels of the dim-level basis vanish.

    Returns ``(psi, h, valid, pairs, phase)``: ``psi[n, k]`` = psi_n(q_k)
    for n < dim; ``valid[i, j]`` marks the j >= 0 whose x_i -+ j h both lie
    on the q-grid, ``pairs`` holds their q-indices (of x_i - j h, of
    x_i + j h) in the order of ``valid``, and ``phase[j, l]`` = e^{2i p_l j h}.
    """
    radius = math.sqrt(2.0 * dim + 1.0) + HERMITE_MARGIN
    dx = float(xs[-1] - xs[0]) / (xs.size - 1)
    p_max = float(np.max(np.abs(ps)))
    s = max(1, math.ceil(dx * (p_max + radius) / math.pi))
    h = dx / s
    k_lo = math.ceil((-radius - xs[0]) / h)
    q = xs[0] + h * np.arange(k_lo, math.floor((radius - xs[0]) / h) + 1)

    # psi_{n+1} = sqrt(2/(n+1)) q psi_n - sqrt(n/(n+1)) psi_{n-1}.  On
    # |q| <= R, e^{-q^2/2} stays a normal float for every dim up to 500.
    psi = np.empty((dim, q.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * q * q)
    for n in range(1, dim):
        psi[n] = math.sqrt(2.0 / n) * q * psi[n - 1]
        if n > 1:
            psi[n] -= math.sqrt((n - 1) / n) * psi[n - 2]

    centre = s * np.arange(xs.size) - k_lo
    reach = np.minimum(centre, q.size - 1 - centre)
    j = np.arange(max(int(reach.max()) + 1, 0))
    valid = j <= reach[:, None]
    pairs = ((centre[:, None] - j)[valid], (centre[:, None] + j)[valid])
    phase = np.exp(2j * h * np.outer(j, ps))
    return psi, h, valid, pairs, phase


def synth_values(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W(x, p) of a density matrix on the given axes."""
    xs, ps = np.asarray(x_axis, float), np.asarray(p_axis, float)
    psi, h, valid, pairs, phase = _position_chain(rho.shape[0], xs, ps)
    # W(x, p) = (h/pi) sum_j <x - jh|rho|x + jh> e^{2ipjh}; the terms at -j
    # are the conjugates of those at j, so j >= 0 counts twice (j = 0 once).
    # kernel[b, a] = <q_b|rho|q_a> = (psi^T rho psi)[b, a], one real GEMM on
    # the interleaved real and imaginary parts.
    right = np.ascontiguousarray(rho @ psi, dtype=complex)
    kernel = (psi.T @ right.view(float)).view(complex)
    g = np.zeros(valid.shape, dtype=complex)
    g[valid] = kernel[pairs]
    g[:, 1:] *= 2.0
    return (h / math.pi) * np.real(g @ phase).T


def _support_radius(rho: np.ndarray) -> float:
    pops = np.real(np.diag(rho))
    cum = np.cumsum(pops[::-1])[::-1]
    occupied = np.flatnonzero(cum > SUPPORT_TAIL)
    n_max = int(occupied[-1]) if occupied.size else 0
    return math.sqrt(2.0 * n_max + 1.0)


def synth_grid(
    rho: np.ndarray,
    x_axis: tuple[float, float, int],
    p_axis: tuple[float, float, int],
) -> WignerGrid:
    """Synthesize a Wigner grid; axes must clear the state support by five
    vacuum widths so the normalization lands within 1e-3."""
    rho = quantum.validate_density(rho)
    margin = _support_radius(rho) + 5.0 * math.sqrt(0.5)
    for lo, hi, _count in (x_axis, p_axis):
        if lo > -margin or hi < margin:
            raise DomainError(
                f"axis [{lo}, {hi}] does not cover the state support +/- {margin:.2f}"
            )
    xs = np.linspace(*x_axis)
    ps = np.linspace(*p_axis)
    values = synth_values(rho, xs, ps)
    return WignerGrid(
        x_axis[0], x_axis[1], x_axis[2], p_axis[0], p_axis[1], p_axis[2], values
    ).check()


@dataclass(frozen=True)
class ReconstructionReport:
    rho: np.ndarray
    dim: int
    clipped_mass: float
    residual: float
    diagonal_tail: float


def _overlap_reconstruct(grid: WignerGrid, dim: int) -> np.ndarray:
    """Raw rho_mn = 2 pi <W, conj(K_mn)> dx dp, the adjoint of ``synth_values``.

    With K_mn = (1/pi) sum_j psi_m(x - jh) psi_n(x + jh) e^{2ipjh} h, the
    p-sum G = W^T e^{-2ipjh} lands on the anti-diagonal (x - jh, x + jh) of
    a q x q matrix M, and rho = 2 dx dp h psi M psi^T.  M holds only j >= 0,
    with j = 0 halved; the j < 0 half is its conjugate transpose, so
    rho = X + X^H with X from the j >= 0 half, Hermitian by construction.
    """
    psi, h, valid, pairs, phase = _position_chain(dim, grid.x_axis, grid.p_axis)
    g = grid.values.T @ phase.conj().T
    g[:, :1] *= 0.5
    m = np.zeros((psi.shape[1], psi.shape[1]), dtype=complex)
    m[pairs] = g[valid]
    half = (psi @ m.view(float)).view(complex) @ psi.T
    return 2.0 * grid.dx * grid.dp * h * (half + half.conj().T)


def reconstruct(grid: WignerGrid, dim: int | None = None) -> ReconstructionReport:
    """Reconstruct a density matrix from a grid by kernel overlaps.

    When ``dim`` is omitted, starts at 40 and raises it until the diagonal
    tail drops below 1e-3 (or the cap of 200).  Positivity is repaired by
    clipping negative eigenvalues (clipped mass reported) and the residual
    is the relative L2 misfit of the re-synthesized grid; a residual above
    ``RESIDUAL_LIMIT`` raises ``ReconstructionError``.
    """
    auto = dim is None
    dim = DEFAULT_DIM if auto else int(dim)
    if dim < 2 or dim > DIM_CAP:
        raise DomainError(f"reconstruction dim must be in [2, {DIM_CAP}], got {dim}")
    while True:
        raw = _overlap_reconstruct(grid, dim)
        # Weight outside the basis: a normalized grid carries unit trace, so
        # the raw overlap trace measures how much of the state fits in dim.
        tail = max(0.0, 1.0 - float(np.real(np.trace(raw))))
        if auto and tail > DIAGONAL_TAIL_LIMIT and dim < DIM_CAP:
            dim = min(int(dim * 1.5) + 1, DIM_CAP)
            continue
        break

    values, vectors = np.linalg.eigh(raw)
    clipped_mass = float(np.sum(np.abs(values[values < 0.0])))
    clipped = np.clip(values, 0.0, None)
    trace = float(np.sum(clipped))
    if trace <= 0:
        raise ReconstructionError("reconstruction produced a zero state", 1.0)
    clipped /= trace
    rho = (vectors * clipped) @ vectors.conj().T
    rho = 0.5 * (rho + rho.conj().T)

    resynth = synth_values(rho, grid.x_axis, grid.p_axis)
    scale = float(np.linalg.norm(grid.values))
    residual = float(np.linalg.norm(resynth - grid.values)) / max(scale, 1e-300)
    report = ReconstructionReport(rho, dim, clipped_mass, residual, tail)
    if not residual <= RESIDUAL_LIMIT:  # a NaN residual fails too
        raise ReconstructionError(
            f"unfaithful reconstruction: residual {residual:.4f} > {RESIDUAL_LIMIT}",
            residual,
        )
    return report


def qfi_from_grid(grid: WignerGrid, dim: int | None = None):
    """Reconstruct and maximize the QFI over quadrature directions.

    Returns ``(theta_star, fhat, report)`` with ``fhat`` in the convention
    where the vacuum value is 2.0 (quadrature vacuum variance 1/2).
    """
    report = reconstruct(grid, dim)
    _a, x_op, p_op = quantum.fock_operators(report.dim, nu=0.5, hbar=1.0)
    theta, result = fisher.qfi_max_quadrature(report.rho, x_op, p_op)
    return theta, result.value, report


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = quantum.validate_density(rho, "rho")
    sigma = quantum.validate_density(sigma, "sigma")
    lam, vec = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    sqrt_rho = (vec * np.sqrt(lam)) @ vec.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(eigs)) ** 2)
