"""Wigner-function grids: file I/O, synthesis, and state reconstruction.

Grids sample W(x, p) on dimensionless quadratures with vacuum variance
1/2, so that the vacuum peak is 1/pi and the grid integrates to one.
``load_grid`` parses a data block of JSON numbers separated by single spaces
as one JSON array of rows (orjson rounds them as ``float()`` does), and any
other block token by token with ``float()``, the one path that raises.
Reconstruction projects the grid onto the Wigner kernels of the Fock
operators |m><n| (no iterative tomography), repairs positivity by
clipping negative eigenvalues, and reports the fit residual.  The state
arrives already decomposed: a ``quantum.Density`` (the type of
``quantum.density``, the package's one check of a density matrix) built
from its clipped spectrum, which the QFI reads.

Synthesis goes through the position basis, W(x, p) = (1/pi) int
<x - y|rho|x + y> e^{2ipy} dy (Leonhardt, *Measuring the Quantum State of
Light*, 1997, ch. 3; the route of QuTiP's ``wigner(method='fft')``,
Johansson, Nation & Nori, Comput. Phys. Commun. 184, 1234 (2013)): Hermite
functions psi_n by their three-term recurrence on a q-grid aligned with the
x axis, the GEMM psi^T rho psi, and a Fourier sum along its anti-diagonals.
The q-step is dx / s, with s the smallest integer that keeps pi / step at or
above p_max + sqrt(2d + 1) + HERMITE_MARGIN, so the y-sum does not alias.
The overlap reconstruction is the exact adjoint of that chain.  The
anti-diagonal pairs (x - y, x + y) read psi^T rho psi only in the box of
rows x - y and columns x + y, so a chain keeps psi_n on those q-points
alone and forms only that block: on a patch around a displaced state the
box is a quarter to two fifths of the q x q square.  Both Fourier sums
are real GEMMs against one interleaved (cos, -sin) phase matrix: the grid
is real, and synthesis reads only the real part.

A chain depends only on the axes and the dim, so it is a plan for its grid,
as an FFT plan is: ``reconstruct`` and ``synth_values`` take it from one
process-wide ``functools.lru_cache`` keyed on the dim and the bytes of the
axes, which builds it on a miss, so the frames of one grid (``macrosize
wigner`` with several grid files, or a loop over ``reconstruct``) build it
once.  Chains are read-only, so every thread shares them; each thread
writes into its own grow-only complex workspace, sized for the largest
rows x cols box it has used.  The cache keeps the CHAIN_CACHE_SIZE = 6
chains used last, on any axes (the auto-dim ladder 40, 61, 92, 139, 200
plus one), and no chain above ``DIM_CAP`` (only synthesis asks for one, and
``reconstruct`` could never reuse it).  The ladder's five chains take 4.8 MB
on +-7 x 71 axes, 14.9 MB on 321 x 161 points over +-16 and 30.0 MB on
+-22 x 481, whose largest workspaces take 3.9, 11.3 and 17.6 MB.
``fock_kernel`` evaluates one kernel |m><n| in closed form and is kept as
the reference both are tested against; it is the one function here that
needs scipy, and imports it when called.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# The Hermite recurrence starts from psi_0 = pi^(-1/4) e^{-q^2/2}, which must
# stay a normal float out to the turning point sqrt(2d + 1) of the top level,
# so up to d of about 707.  On every axes tried, the norms of the chain's
# psi_n hold to 8e-15 up to dim 676, pass 1e-13 at dim 684 and are off by 0.16
# at dim 800, so chains stop well short of that.
HERMITE_DIM_CAP = 600


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
        for name, lo, hi, count in (
            ("x", self.x_min, self.x_max, self.x_count),
            ("p", self.p_min, self.p_max, self.p_count),
        ):
            if not (count >= 2 and math.isfinite(hi - lo) and hi > lo):
                raise GridAxisError(
                    f"{name} axis [{lo}, {hi}] with {count} points: need at least "
                    f"2 points and finite bounds with {name}_min < {name}_max"
                )
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
    """Write ``grid`` as a ``wigner-grid v1`` file that ``load_grid`` reads back bit for bit.

    The file is UTF-8 text::

        wigner-grid v1
        x <min> <max> <count>
        p <min> <max> <count>
        scale 1
        <p count rows of x count values, ascending p, one space between values>

    Every number is written with 17 significant digits, so it reads back as
    the same double, and the data block takes ``load_grid``'s JSON pass.
    """
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


# The JSON pass maps a data block byte for byte: a space to the comma between
# two values, and every byte outside a JSON number's digits, signs, point and
# exponent (a tab, a carriage return, a letter, a quote, a bracket, a comma) to
# "x", which no JSON text holds outside a string.
_TO_JSON = bytes(
    c if chr(c) in "0123456789eE+-.\n" else ord(",") if c == ord(" ") else ord("x")
    for c in range(256)
)
# A whole token -0: JSON reads it as the integer 0, float() as -0.0.
_NEGATIVE_ZERO = re.compile(rb"-0(?<![^ \n]-0)(?![^ \n])")


def _json_values(rows: list[str], shape: tuple[int, int]) -> np.ndarray | None:
    """The data rows parsed as one JSON array of rows, or None where that pass does not apply.

    Rows of JSON numbers joined by single spaces pass, and orjson rounds each
    as ``float()`` does; anything else (a tab, a double space, ``1_0``,
    ``.5``, ``+1``, ``01``, ``inf``, ``1e400``, ``true``, a ragged row, a
    shape other than ``shape``) returns None.  The array is sized from the
    data, never from the header.
    """
    import orjson

    def parse(block: bytes) -> np.ndarray:
        text = b"".join((b"[[", block.translate(_TO_JSON).replace(b"\n", b"],["), b"]]"))
        return np.array(orjson.loads(text), dtype=float)

    block = "\n".join(rows).encode()
    try:
        values = parse(block)
        if values.shape == shape and not values.all():
            # A zero may come from a whole token -0, which JSON reads as +0.
            values = parse(_NEGATIVE_ZERO.sub(b"-0.0", block))
    except ValueError:
        return None
    return values if values.shape == shape else None


def load_grid(path) -> WignerGrid:
    """Read a ``wigner-grid v1`` file (see ``save_grid``).

    Blank lines and blanks around a line are ignored, values are separated
    by any whitespace, and the ``scale <s>`` line is optional (default 1);
    every value is multiplied by it.  A value is any token that ``float()``
    reads; non-finite values are rejected.  Errors, all ``WignerFormatError``:
    ``GridHeaderError`` for a file that is not UTF-8, a missing or malformed
    header, axis or scale line, or a non-finite or degenerate axis;
    ``GridAxisError`` for a row or column count that does not match the axes;
    ``GridValueError`` for an unparseable (naming its row) or non-finite value.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line for line in map(str.strip, handle) if line]
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
    values = _json_values(rows, (p_count, x_count))
    if values is None:
        values = _float_values(rows, x_count).reshape(p_count, x_count)
    return WignerGrid(x_min, x_max, x_count, p_min, p_max, p_count, values * scale)


def _float_values(rows: list[str], x_count: int) -> np.ndarray:
    """The data rows parsed token by token as ``float()`` does: the one path that raises."""
    # Rows are checked before any array is sized from the header's counts.
    tokens = []
    for i, row in enumerate(rows):
        fields = row.split()
        if len(fields) != x_count:
            raise GridAxisError(
                f"row {i} has {len(fields)} columns, expected {x_count}"
            )
        tokens.extend(fields)
    # numpy parses each token as float() does, in one call.
    try:
        return np.array(tokens, dtype=float)
    except ValueError:
        for i, row in enumerate(rows):
            try:
                [float(f) for f in row.split()]
            except ValueError as exc:
                raise GridValueError(f"unparseable value in data row {i}") from exc
        raise GridValueError("unparseable value in the data block") from None


# ---------------------------------------------------------------------------
# Fock-basis Wigner kernels
# ---------------------------------------------------------------------------

def fock_kernel(m: int, n: int, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner transform of |m><n| on meshgrid arrays (vacuum variance 1/2)."""
    from scipy.special import eval_genlaguerre, gammaln

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


class _Chain(NamedTuple):
    """The position-basis chain of one dim on one pair of axes, read-only.

    On the q-grid of step ``h``, ``valid[i, j]`` marks the j >= 0 whose
    x_i -+ j h both lie on it.  Only the q-points these pairs use are kept:
    ``rows[n, b]`` = psi_n at the b-th q-point that occurs as an x_i - j h,
    ``cols[n, a]`` = psi_n at the a-th that occurs as an x_i + j h (two views
    of one array, which overlap on the x range), and ``pairs`` holds the
    indices (into ``rows``, into ``cols``) in the order of ``valid``.
    ``phase[l, 2j:2j + 2]`` = (cos, -sin)(2 p_l j h), halved at j = 0: the
    real and imaginary parts of e^{-2i p_l j h}, interleaved, which both
    Fourier sums multiply as one real matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    h: float
    valid: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    phase: np.ndarray


def _q_grid(dim: int, xs: np.ndarray, ps: np.ndarray):
    """The q-grid of the chain of ``dim``: ``(h, k_lo, size, centre, reach)``.

    Its points are q_k = x_0 + (k + k_lo) h, 0 <= k < size; x_i is its point
    ``centre[i]``, and ``reach[i]`` is the largest j with x_i -+ j h both on
    it, negative when x_i is not.
    """
    radius = math.sqrt(2.0 * dim + 1.0) + HERMITE_MARGIN
    dx = float(xs[-1] - xs[0]) / (xs.size - 1)
    p_max = float(np.max(np.abs(ps)))
    s = max(1, math.ceil(dx * (p_max + radius) / math.pi))
    h = dx / s
    k_lo = math.ceil((-radius - xs[0]) / h)
    size = math.floor((radius - xs[0]) / h) - k_lo + 1
    centre = s * np.arange(xs.size) - k_lo
    return h, k_lo, size, centre, np.minimum(centre, size - 1 - centre)


def _build_chain(dim: int, xs: np.ndarray, ps: np.ndarray) -> _Chain:
    """Hermite functions, anti-diagonal pairs and phases of the position-basis chain.

    The q-grid q_k = x_0 + (k + k_lo) h covers [-R, R], R the cut radius,
    with h = dx / s, so every x_i +- j h on it is a grid point.  s is the
    smallest integer with pi / h >= p_max + R: the y-sum at step h adds to
    W(x, p) its copies at p + k pi / h, k != 0, which lie beyond R where
    the kernels of the dim-level basis vanish.  The Hermite functions are
    evaluated only from the lowest x_i - j h to the highest x_i + j h.
    """
    h, k_lo, size, centre, reach = _q_grid(dim, xs, ps)
    j = np.arange(max(int(reach.max()) + 1, 0))
    valid = j <= reach[:, None]
    lo, hi = (centre[:, None] - j)[valid], (centre[:, None] + j)[valid]
    # Rows run from the lowest x_i - j h to the highest x_i, columns from the
    # lowest x_i to the highest x_i + j h; no pair, no q-point.
    if lo.size:
        first, last = int(lo.min()), int(hi.max())
        n_rows, split = int(lo.max()) - first + 1, int(hi.min()) - first
    else:
        first, last, n_rows, split = 0, -1, 0, 0
    q = xs[0] + h * np.arange(k_lo + first, k_lo + last + 1)

    # psi_{n+1} = sqrt(2/(n+1)) q psi_n - sqrt(n/(n+1)) psi_{n-1}
    psi = np.empty((dim, q.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * q * q)
    for n in range(1, dim):
        psi[n] = math.sqrt(2.0 / n) * q * psi[n - 1]
        if n > 1:
            psi[n] -= math.sqrt((n - 1) / n) * psi[n - 2]

    pairs = (lo - first, hi - first - split)
    phase = np.exp(-2j * h * np.outer(ps, j)).view(float)
    phase[:, :2] *= 0.5
    for array in (psi, valid, *pairs, phase):
        array.flags.writeable = False
    return _Chain(psi[:, :n_rows], psi[:, split:], h, valid, pairs, phase)


def _next_dim(dim: int) -> int:
    """The auto-dim step from ``dim``."""
    return min(int(dim * 1.5) + 1, DIM_CAP)


# The chains kept per process: the auto-dim ladder 40, 61, 92, 139, 200 plus
# one other dim.
CHAIN_CACHE_SIZE = 6


@functools.lru_cache(maxsize=CHAIN_CACHE_SIZE)
def _cached_chain(dim: int, xs: bytes, ps: bytes) -> _Chain:
    """The chain of ``dim`` on the float64 axes with these bytes, built on a miss."""
    return _build_chain(dim, np.frombuffer(xs), np.frombuffer(ps))


# Each thread's one grow-only workspace: threads share the read-only chains,
# but two reconstructions on the same axes must not share a buffer.
_THREAD = threading.local()


def _require_chain_dim(dim: int) -> None:
    if dim > HERMITE_DIM_CAP:
        raise DomainError(
            f"dim {dim} exceeds HERMITE_DIM_CAP = {HERMITE_DIM_CAP}, the largest dim "
            f"whose Hermite recurrence stays accurate"
        )


def _position_chain(dim: int, xs: np.ndarray, ps: np.ndarray) -> _Chain:
    """The chain of ``dim`` on these axes, from the process-wide cache; a chain
    above ``DIM_CAP`` is built and not kept."""
    _require_chain_dim(dim)
    if dim > DIM_CAP:
        return _build_chain(dim, xs, ps)
    return _cached_chain(dim, xs.tobytes(), ps.tobytes())


def _workspace(chain: _Chain) -> np.ndarray:
    """A rows x cols complex workspace for ``chain``, its contents left over
    from the last chain that used it: a view of this thread's one buffer,
    which grows for the chains up to ``DIM_CAP``; a chain above ``DIM_CAP``
    that does not fit it gets a buffer of its own."""
    shape = (chain.rows.shape[1], chain.cols.shape[1])
    size = shape[0] * shape[1]
    work = getattr(_THREAD, "work", None)
    if work is None or work.size < size:
        work = np.empty(size, dtype=complex)
        if chain.rows.shape[0] <= DIM_CAP:
            _THREAD.work = work
    return work[:size].reshape(shape)


def _synthesize(rho: np.ndarray, chain: _Chain) -> np.ndarray:
    """W of ``rho`` on the axes of ``chain``; overwrites the thread's workspace.

    W(x, p) = (h/pi) sum_j <x - jh|rho|x + jh> e^{2ipjh}; the terms at -j
    are the conjugates of those at j, so W = (2h/pi) Re sum_{j >= 0} of
    g[x, j] = <x - jh|rho|x + jh> times the phase, halved at j = 0.  g is
    read off the block rows^T rho cols of psi^T rho psi, one real GEMM on the
    interleaved real and imaginary parts of rho cols, and Re(g phase) is one
    real GEMM of the interleaved g against the interleaved conjugate phase,
    (Re g, Im g) . (cos, -sin).
    """
    rows, cols, h, valid, pairs, phase = chain
    kernel = _workspace(chain)
    right = np.ascontiguousarray(rho @ cols, dtype=complex)
    np.matmul(rows.T, right.view(float), out=kernel.view(float))
    g = np.zeros(valid.shape, dtype=complex)
    g[valid] = kernel[pairs]
    return (2.0 * h / math.pi) * (phase @ g.view(float).T)


def synth_values(rho: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """W(x, p) of a density matrix on the given axes.

    ``rho`` must be a non-empty square matrix and each axis a finite,
    increasing 1-D array of at least 2 points, x evenly spaced (the q-grid
    is aligned with it); ``DomainError`` otherwise.
    """
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] == 0:
        raise DomainError(f"rho must be a non-empty square matrix, got shape {rho.shape}")
    xs, ps = np.asarray(x_axis, float), np.asarray(p_axis, float)
    for name, axis in (("x", xs), ("p", ps)):
        if not (axis.ndim == 1 and axis.size >= 2 and np.all(np.isfinite(axis))):
            raise DomainError(f"{name} axis must be a finite 1-D array of at least 2 points")
        if not np.all(np.diff(axis) > 0.0):
            raise DomainError(f"{name} axis must be increasing")
    steps = np.diff(xs)
    if np.max(np.abs(steps - steps.mean())) > 1e-9 * steps.mean():
        raise DomainError("x axis must be evenly spaced")
    return _synthesize(rho, _position_chain(rho.shape[0], xs, ps))


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
    shape = np.shape(rho)
    if len(shape) == 2 and shape[0] == shape[1]:  # the density check names other shapes
        _require_chain_dim(shape[0])
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
    """The clipped ``state`` the QFI reads, and the symmetrised ``rho`` re-synthesized."""

    state: quantum.Density
    dim: int
    clipped_mass: float
    residual: float
    diagonal_tail: float
    rho: np.ndarray


def _overlap_reconstruct(grid: WignerGrid, chain: _Chain) -> np.ndarray:
    """Raw rho_mn = 2 pi <W, conj(K_mn)> dx dp, the adjoint of ``_synthesize``.

    With K_mn = (1/pi) sum_j psi_m(x - jh) psi_n(x + jh) e^{2ipjh} h, the
    p-sum G = W^T e^{-2ipjh} (one real GEMM of the real grid against the
    interleaved phase) lands on the anti-diagonal (x - jh, x + jh) of a
    rows x cols matrix M, and rho = 2 dx dp h rows M cols^T.  M holds only
    j >= 0, with j = 0 halved; the j < 0 half is its conjugate transpose, so
    rho = X + X^H with X from the j >= 0 half, Hermitian by construction.
    M is built in the thread's workspace.
    """
    rows, cols, h, valid, pairs, phase = chain
    m = _workspace(chain)
    g = (grid.values.T @ phase).view(complex)
    m.fill(0.0)
    m[pairs] = g[valid]
    half = (rows @ m.view(float)).view(complex) @ cols.T
    return 2.0 * grid.dx * grid.dp * h * (half + half.conj().T)


def reconstruct(grid: WignerGrid, dim: int | None = None) -> ReconstructionReport:
    """Reconstruct a density matrix from a grid by kernel overlaps.

    ``dim`` must be a whole number in [2, 200] (``DomainError`` otherwise).
    When it is omitted, starts at 40 and raises it until the diagonal
    tail drops below 1e-3 (or the cap of 200); on a grid where no chain up
    to the cap has a pair, the dim-40 chain's zero overlaps raise "zero
    state" at once.  Positivity is repaired by
    clipping negative eigenvalues (clipped mass reported) and the residual
    is the relative L2 misfit of the re-synthesized grid; a residual above
    ``RESIDUAL_LIMIT`` raises ``ReconstructionError``.
    """
    auto = dim is None
    if auto:
        dim = DEFAULT_DIM
    # The range test comes first: NaN fails it, and float() of a huge int overflows.
    if not (2 <= dim <= DIM_CAP and float(dim).is_integer()):
        raise DomainError(
            f"reconstruction dim must be a whole number in [2, {DIM_CAP}], got {dim}"
        )
    dim = int(dim)
    xs, ps = grid.x_axis, grid.p_axis
    while True:
        chain = _position_chain(dim, xs, ps)
        raw = _overlap_reconstruct(grid, chain)
        # Weight outside the basis: a normalized grid carries unit trace, so
        # the raw overlap trace measures how much of the state fits in dim.
        tail = max(0.0, 1.0 - float(np.real(np.trace(raw))))
        if auto and tail > DIAGONAL_TAIL_LIMIT and dim < DIM_CAP:
            # A chain with no pairs leaves raw zero, a tail of 1.  Climb only
            # if the widest chain, DIM_CAP's, has pairs on this grid.
            if chain.valid.size or _q_grid(DIM_CAP, xs, ps)[-1].max() >= 0:
                dim = _next_dim(dim)
                continue
        break

    values, vectors = quantum._eigh(raw)  # raw = X + X^H is exactly Hermitian
    clipped_mass = float(np.sum(np.abs(values[values < 0.0])))
    clipped = np.clip(values, 0.0, None)
    trace = float(np.sum(clipped))
    if trace <= 0:
        raise ReconstructionError("reconstruction produced a zero state", 1.0)
    clipped /= trace
    rho = (vectors * clipped) @ vectors.conj().T
    rho = 0.5 * (rho + rho.conj().T)

    resynth = _synthesize(rho, chain)
    scale = float(np.linalg.norm(grid.values))
    residual = float(np.linalg.norm(resynth - grid.values)) / max(scale, 1e-300)
    spectrum = quantum.Spectrum(clipped, vectors)
    state = quantum.Density(float(clipped @ clipped), None, spectrum)
    report = ReconstructionReport(state, dim, clipped_mass, residual, tail, rho)
    if not residual <= RESIDUAL_LIMIT:  # a NaN residual fails too
        raise ReconstructionError(
            f"unfaithful reconstruction: residual {residual:.4f} > {RESIDUAL_LIMIT}",
            residual,
        )
    return report


def qfi_from_grid(grid: WignerGrid, dim: int | None = None):
    """Reconstruct and maximize the QFI over quadrature directions.

    The QFI is the spectral one of the reported state's clipped spectrum.
    Returns ``(theta_star, result, report)``, with the ``FisherResult`` in the
    convention where the vacuum value is 2.0 (quadrature vacuum variance 1/2).
    """
    report = reconstruct(grid, dim)
    theta, result = fisher._max_quadrature(report.state)
    return theta, result, report


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2; <psi|sigma|psi> if rho is pure."""
    state = quantum.density(rho)
    sigma = quantum.validate_density(sigma, "sigma")
    if sigma.shape != np.shape(rho):
        raise DomainError(f"dimension mismatch: rho {np.shape(rho)} vs sigma {sigma.shape}")
    if state.psi is not None:
        return float(np.real(np.vdot(state.psi, sigma @ state.psi)))
    lam, vec = state.spectrum
    sqrt_rho = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(eigs)) ** 2)
