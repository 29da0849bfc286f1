"""Wigner-function grids: file I/O, synthesis, and state reconstruction.

Grids sample W(x, p) on dimensionless quadratures with vacuum variance
1/2, so that the vacuum peak is 1/pi and the grid integrates to one.
Reconstruction projects the grid onto the Wigner kernels of the Fock
operators |m><n| (no iterative tomography), repairs positivity by
clipping negative eigenvalues, and reports the fit residual.

Synthesis and reconstruction stream the kernels diagonal by diagonal with
the three-term Laguerre recurrence (Leonhardt, *Measuring the Quantum State
of Light*, 1997; the iterative method of QuTiP, Johansson, Nation & Nori,
Comput. Phys. Commun. 184, 1234 (2013)), so each (m, n) pair costs a few
array operations.  ``fock_kernel`` evaluates one kernel in closed form and
is kept as the reference the streamed kernels are tested against.
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


def _fock_diagonals(x: np.ndarray, p: np.ndarray, dim: int):
    """Stream the Fock kernels K_{n+k,n} below dim, diagonal k = m - n by diagonal.

    Yields ``(k, angular, laguerre)`` with K_{n+k,n} = (-1)^n / pi * angular
    * l_n, where ``angular`` is E_k = exp(-r^2) (x - ip)^k sqrt(2^k / k!) and
    ``laguerre`` lazily yields the real l_n = sqrt(n! k! / (n+k)!) L_n^k(2 r^2)
    for n < dim - k by the three-term recurrence.  Both factors stay O(1) in
    magnitude, and a diagonal holds only two real grid arrays at a time.
    Where exp(-r^2) underflows to 0, y = 2 r^2 is set to 0 so that l_n stays
    finite and the kernel is exactly 0; for dim <= 200 the true kernel there
    is below e^-140.
    """
    r2 = x * x + p * p
    damping = np.exp(-r2)
    y = np.where(damping > 0.0, 2.0 * r2, 0.0)
    z = x - 1j * p

    def laguerre(k: int):
        prev, ell = 0.0, np.ones_like(y)
        yield ell
        for n in range(dim - k - 1):
            nxt = (2 * n + 1 + k - y) * ell
            nxt -= math.sqrt(n * (n + k)) * prev
            nxt /= math.sqrt((n + 1) * (n + k + 1))
            prev, ell = ell, nxt
            yield ell

    angular = damping.astype(complex)
    for k in range(dim):
        if k:
            angular = angular * z * math.sqrt(2.0 / k)
        yield k, angular, laguerre(k)


def _mesh(grid_or_axes):
    if isinstance(grid_or_axes, WignerGrid):
        x, p = grid_or_axes.x_axis, grid_or_axes.p_axis
    else:
        x, p = grid_or_axes
    return np.meshgrid(np.asarray(x, float), np.asarray(p, float), indexing="xy")


def synth_values(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W(x, p) of a density matrix on the given axes."""
    xg, pg = _mesh((x_axis, p_axis))
    dim = rho.shape[0]
    signs = (-1.0) ** np.arange(dim)
    w = np.zeros(xg.shape, dtype=float)
    # W = sum_k w_k Re[E_k sum_n (-1)^n rho_{n+k,n} l_n] / pi, w_0 = 1, w_k = 2.
    for k, angular, laguerre in _fock_diagonals(xg, pg, dim):
        coeffs = np.diagonal(rho, -k) * signs[: dim - k]
        nonzero = np.flatnonzero(coeffs)
        if not nonzero.size:
            continue
        acc = np.zeros(xg.shape, dtype=complex)
        for c, ell in zip(coeffs[: nonzero[-1] + 1], laguerre):
            acc += c * ell
        w += (2.0 if k else 1.0) * np.real(angular * acc)
    return w / math.pi


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
    xg, pg = _mesh(grid)
    area = grid.dx * grid.dp
    rho = np.zeros((dim, dim), dtype=complex)
    # rho_mn = 2 pi <W, conj(K_mn)>;  tr[AB] = 2 pi int W_A W_B.  With
    # K_{n+k,n} = (-1)^n / pi E_k l_n and l_n real, the complex factor
    # W conj(E_k) is formed once per diagonal.
    for k, angular, laguerre in _fock_diagonals(xg, pg, dim):
        weighted = grid.values * np.conj(angular)
        parts = np.stack((weighted.real.ravel(), weighted.imag.ravel()))
        for n, ell in enumerate(laguerre):
            re, im = parts @ ell.ravel()
            rho[n + k, n] = 2.0 * area * (-1.0) ** n * complex(re, im)
    return rho + np.tril(rho, -1).conj().T


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
