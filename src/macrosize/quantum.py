"""Complex-Hermitian operator algebra, Fock-space and qubit-register states.

Everything here works on plain ``numpy`` arrays.  On the dense path
operators are ``(d, d)`` complex matrices, and density matrices
additionally satisfy Hermiticity, unit trace and positivity:
:func:`density` is the package's one check of them, and keeps its
decomposition for the QFI.  Two kinds of state arrive already decomposed
and need no check: a Fock state from :func:`build_state` and a Wigner-grid
reconstruction.  A built Fock state carries only its decomposition, which
is all the QFI reads: a pure psi, or a thermal state's descending weights
on the Fock basis itself (eigenvectors ``None``), so building one costs
O(d) memory and no d x d array.  Its rho is formed only when asked for, by
:func:`make_state` and the per-kind constructors.  :func:`build_state`
checks its parameters finite and a number-state index whole, where they
enter.  The QFI takes the quadrature pair as one operator
A = (x + ip) / sqrt2, which for nu = 1/2 is the ladder operator: it applies
A and A^+ as the O(d) row shifts :func:`annihilate` and :func:`create`,
never the dense :func:`annihilation`.  Pure qubit registers also
have a structured path: a 1-D state vector with real 1-D diagonals for
observables that are diagonal in the computational basis (see
:func:`ghz_vector`), which costs O(2**n) per observable instead of
O(4**n) storage and O(8**n) algebra.
All functions are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationError, require_nonnegative, require_positive

# Dense matrices need at most a few hundred Fock levels or <= 2**12 qubit
# dimensions (GHZ_DENSE_MAX_QUBITS).  State-vector registers with diagonal
# observables go to GHZ_VECTOR_MAX_QUBITS: ghz_vector writes the n site
# diagonals in place into one (n, 2**n) float block, 168 MB at n = 20, where
# state plus report take about 0.14 s with a 210 MB tracemalloc peak (2 cores).
DIM_CAP = 4096
GHZ_DENSE_MAX_QUBITS = 12
GHZ_VECTOR_MAX_QUBITS = 20

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
EIG_FLOOR = -1e-10
TAIL_THRESHOLD = 1e-8
PURITY_PURE_THRESHOLD = 1.0 - 1e-10
# Rows per panel of the Hermiticity check (see max_asymmetry).
ASYMMETRY_PANEL = 64


class Spectrum(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are sorted descending; ``eigenvectors[:, k]`` is the
    orthonormal eigenvector for ``eigenvalues[k]``, with the first
    significant component's phase fixed positive-real so repeated runs
    produce identical output.  ``eigenvectors`` is ``None`` when they are
    the basis vectors themselves: the matrix is diagonal, with the
    eigenvalues in order on its diagonal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


def max_asymmetry(matrix: np.ndarray) -> float:
    """Largest absolute deviation of a square ``matrix`` from its conjugate transpose.

    D = m - m^H has D_ji = -conj(D_ij), so |D| is symmetric and its upper
    triangle, read in panels of ASYMMETRY_PANEL rows, holds the maximum;
    no temporary holds more than one panel.  A NaN anywhere gives NaN.
    """
    m = np.asarray(matrix)
    if not m.size:
        return 0.0
    panel_maxima = []
    for i in range(0, m.shape[0], ASYMMETRY_PANEL):
        rows = slice(i, i + ASYMMETRY_PANEL)
        panel_maxima.append(np.max(np.abs(m[rows, i:] - m[i:, rows].conj().T)))
    return float(np.max(panel_maxima))


def require_hermitian(matrix: np.ndarray, name: str = "operator") -> np.ndarray:
    """``matrix`` as a complex array if square with max asymmetry <= ATOL * max(1, max|m_ij|).

    The scale is read only when the asymmetry exceeds ATOL (HERMITICITY_ATOL),
    since it is at least 1.  A NaN asymmetry fails.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {matrix.shape}")
    asymmetry = max_asymmetry(matrix)
    if not asymmetry <= HERMITICITY_ATOL:
        scale = max(1.0, float(np.max(np.abs(matrix))))
        if not asymmetry <= HERMITICITY_ATOL * scale:
            raise DomainError(f"{name} is not Hermitian: max asymmetry {asymmetry:.3e}")
    return matrix


def purity(rho: np.ndarray) -> float:
    """tr(rho^2) of a Hermitian rho, summed as |rho_ij|^2 in memory order."""
    return float(np.real(np.vdot(rho, rho)))


class Density(NamedTuple):
    """A state's one decomposition, a pure ``psi`` or a ``spectrum``, and its purity.

    The spectrum is that of :func:`eigh`, or of a state decomposed by
    construction: descending eigenvalues and orthonormal eigenvectors, or
    ``None`` for a state diagonal in the Fock basis.  It holds no dense
    matrix: :attr:`rho` forms one from the decomposition on request.
    """

    purity: float
    psi: np.ndarray | None
    spectrum: Spectrum | None

    @property
    def rho(self) -> np.ndarray:
        """The dense rho: psi psi^+, else V diag(l) V^+."""
        if self.psi is not None:
            return np.outer(self.psi, self.psi.conj())
        weights, vectors = self.spectrum
        if vectors is None:
            return np.diag(weights.astype(complex))
        return (vectors * weights) @ vectors.conj().T


def density(rho: np.ndarray, name: str = "rho") -> Density:
    """The one check of a density matrix: Hermiticity, unit trace, then positivity.

    A state with purity above PURITY_PURE_THRESHOLD is tried as psi =
    rho[:, k] / sqrt(rho_kk), k its largest diagonal entry, and certified
    pure when sqrt(2) ||rho - psi psi^+||_F <= -EIG_FLOOR: LAPACK reads only
    the lower triangle, whose Hermitian matrix then lies within -EIG_FLOOR
    of psi psi^+ in spectral norm, so by Weyl's inequality its eigenvalues
    clear EIG_FLOOR.  Any other state takes one unchecked eigh, held to that floor.
    """
    rho = require_hermitian(rho, name)
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise DomainError(f"{name} has trace {trace!r}, expected 1 within {TRACE_ATOL}")
    pur = purity(rho)
    if pur > PURITY_PURE_THRESHOLD:
        k = int(np.argmax(np.real(np.diagonal(rho))))
        psi = rho[:, k] / math.sqrt(rho[k, k].real)
        defect = np.outer(psi, -psi.conj())
        defect += rho
        if math.sqrt(2.0) * np.linalg.norm(defect) <= -EIG_FLOOR:
            return Density(pur, psi, None)
    spectrum = _eigh(rho)
    min_eig = float(spectrum.eigenvalues[-1])
    if min_eig < EIG_FLOOR:
        raise DomainError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return Density(pur, None, spectrum)


def validate_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """``rho`` as the complex array that :func:`density` checks, if it passes."""
    rho = np.asarray(rho, dtype=complex)
    density(rho, name)
    return rho


def populations(psi: np.ndarray) -> np.ndarray:
    """Populations |psi_i|^2 of a pure state vector with unit norm.

    Raises :class:`DomainError` when the norm squared is not 1 within
    TRACE_ATOL, which includes every vector with a non-finite amplitude.
    """
    psi = np.asarray(psi)
    p = psi.real**2 + psi.imag**2
    norm2 = float(np.sum(p))
    if not abs(norm2 - 1.0) <= TRACE_ATOL:
        raise DomainError(f"state vector has norm^2 {norm2!r}, expected 1 within {TRACE_ATOL}")
    return p


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above tolerance is positive-real.

    Columns are unit eigenvectors, so each has a component of at least
    1/sqrt(d) >> 1e-12.
    """
    first = np.argmax(np.abs(vectors) > 1e-12, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    # np.hypot rounds |lead| as abs() of each entry does, so the phases are
    # those of a column-by-column loop; np.abs of a complex array can differ
    # from it in the last bit.
    return vectors * (np.conj(lead) / np.hypot(lead.real, lead.imag))


def eigh(matrix: np.ndarray) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix, descending eigenvalues.

    Raises :class:`DomainError` on non-Hermitian input (reporting the max
    asymmetry) and on eigensolver non-convergence.  LAPACK's Hermitian
    solver is backward stable, so the decomposition reproduces the input to
    a rounding-level residual and is not rebuilt to check it.
    """
    return _eigh(require_hermitian(matrix, "eigh input"))


def _eigh(matrix: np.ndarray) -> Spectrum:
    """:func:`eigh` of a complex array already checked Hermitian."""
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DomainError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = _fix_phases(np.ascontiguousarray(vectors[:, order]))
    return Spectrum(values, vectors)


# ---------------------------------------------------------------------------
# Fock-space operators and states
# ---------------------------------------------------------------------------

def annihilation(dim: int) -> np.ndarray:
    """The annihilation operator, <m|a|n> = sqrt(n) delta_{m,n-1}, on ``dim`` Fock levels.

    At nu = 1/2 and hbar = 1 it is the quadrature pair A = (x + ip) / sqrt2
    of :func:`fock_operators` (to rounding).  The best-quadrature QFI takes
    it as its action, :func:`annihilate` and :func:`create`, and never forms
    this matrix.
    """
    if dim < 2:
        raise DomainError(f"Fock dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    a[np.arange(dim - 1), np.arange(1, dim)] = np.sqrt(np.arange(1.0, dim))
    return a


def _rungs(v: np.ndarray) -> np.ndarray:
    """sqrt(1), ..., sqrt(d - 1) for the d Fock levels of ``v``, shaped to scale its rows."""
    return np.sqrt(np.arange(1.0, v.shape[0])).reshape((-1,) + (1,) * (v.ndim - 1))


def annihilate(v: np.ndarray) -> np.ndarray:
    """a v for a vector or the columns of a matrix ``v`` on its Fock levels.

    (a v)_m = sqrt(m + 1) v_{m+1}: a scaled row shift, O(d) per column,
    equal to ``annihilation(d) @ v`` and of the dtype of ``v``.
    """
    v = np.asarray(v)
    out = np.zeros_like(v)
    np.multiply(_rungs(v), v[1:], out=out[:-1])
    return out


def create(v: np.ndarray) -> np.ndarray:
    """a^+ v for a vector or the columns of a matrix ``v``: (a^+ v)_m = sqrt(m) v_{m-1}.

    The row shift of :func:`annihilate` the other way, equal to
    ``annihilation(d).conj().T @ v``.
    """
    v = np.asarray(v)
    out = np.zeros_like(v)
    np.multiply(_rungs(v), v[:-1], out=out[1:])
    return out


def fock_operators(dim: int, nu: float = 0.5, hbar: float = 1.0):
    """Annihilation, position and momentum operators on a truncated Fock space.

    a is :func:`annihilation`.  ``nu`` is the ground-state position
    variance, so x = sqrt(nu) (a + a+) and p = (hbar / 2 sqrt(nu)) i (a+ - a).
    Truncation artifacts (the missing ladder rung) only affect row/column
    ``dim - 1``.
    """
    a = annihilation(dim)
    require_positive(nu=nu)
    # Written straight onto the off-diagonals: <n-1|x|n> = <n|x|n-1> =
    # sqrt(nu n) and <n-1|p|n> = -<n|p|n-1> = -i c sqrt(n), c = hbar / 2 sqrt(nu).
    rungs = np.sqrt(np.arange(1.0, dim))
    upper = (np.arange(dim - 1), np.arange(1, dim))
    lower = upper[::-1]
    x = np.zeros((dim, dim), dtype=complex)
    x[upper] = x[lower] = math.sqrt(nu) * rungs
    p = np.zeros((dim, dim), dtype=complex)
    p_rungs = (hbar / (2.0 * math.sqrt(nu))) * rungs
    p.imag[upper] = -p_rungs
    p.imag[lower] = p_rungs
    return a, x, p


def _suggest_dim(tail_of_dim, start: int) -> int | None:
    """First dim of the ladder start, 1.5 start + 1, ... (capped at DIM_CAP) whose
    tail weight drops below TAIL_THRESHOLD, or None when DIM_CAP does not."""
    dim = max(start, 2)
    while tail_of_dim(dim) >= TAIL_THRESHOLD:
        if dim >= DIM_CAP:
            return None
        dim = min(int(dim * 1.5) + 1, DIM_CAP)
    return dim


BEYOND_CAP = f"no dim up to DIM_CAP = {DIM_CAP} holds the state"


def _check_tail(tail: float, dim: int, tail_of_dim, label: str) -> float:
    if tail >= TAIL_THRESHOLD:
        suggested = _suggest_dim(tail_of_dim, dim + 1)
        advice = BEYOND_CAP if suggested is None else f"use dim >= {suggested}"
        raise TruncationError(
            f"{label}: truncated tail weight {tail:.3e} >= {TAIL_THRESHOLD:.1e}; {advice}",
            tail_weight=tail,
            suggested_dim=suggested,
        )
    return tail


# Each Fock-state kind has a private builder that returns the state as a
# Density decomposed by construction, so it needs no check by density(): a
# pure state carries its normalized psi, a thermal state its descending
# weights on the Fock basis.  Neither carries a dense rho; the public
# constructors form it through make_state, so build_state checks their inputs.


def _pure_density(psi: np.ndarray) -> Density:
    """The pure state of a unit vector ``psi``, with purity ||psi||^4."""
    norm2 = float(np.real(np.vdot(psi, psi)))
    return Density(norm2 * norm2, psi, None)


def _number(n: int, dim: int) -> Density:
    if not (n >= 0 and float(n).is_integer()):
        raise DomainError(f"number state index must be a whole number >= 0, got {n}")
    n = int(n)
    if not n < dim:
        if n >= DIM_CAP:
            raise TruncationError(
                f"number state |{n}> does not fit in dim {dim}; {BEYOND_CAP}", 1.0, None
            )
        raise TruncationError(f"number state |{n}> does not fit in dim {dim}", 1.0, n + 1)
    psi = np.zeros(dim, dtype=complex)
    psi[n] = 1.0
    return _pure_density(psi)


def vacuum_state(dim: int) -> np.ndarray:
    return make_state("vacuum", dim)


def number_state(n: int, dim: int) -> np.ndarray:
    return make_state("number", dim, n=n)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    log_mag = n * math.log(abs(alpha)) - 0.5 * log_factorial
    phases = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag - 0.5 * abs(alpha) ** 2) * phases


def _pure_state(amplitudes, dim: int, exact_norm2: float, label: str) -> Density:
    """The pure state of the normalized ``amplitudes(dim)``.

    ``exact_norm2`` is the untruncated norm squared of the amplitudes;
    a truncated tail weight at or above TAIL_THRESHOLD raises
    :class:`TruncationError` with a suggested dimension.
    """
    amps = amplitudes(dim)
    norm2 = float(np.sum(np.abs(amps) ** 2))

    def tail_of(d: int) -> float:
        return 1.0 - float(np.sum(np.abs(amplitudes(d)) ** 2)) / exact_norm2

    _check_tail(1.0 - norm2 / exact_norm2, dim, tail_of, label)
    return _pure_density(amps / math.sqrt(norm2))


def _coherent(alpha: complex, dim: int) -> Density:
    return _pure_state(
        lambda d: coherent_amplitudes(alpha, d), dim, 1.0, f"coherent alpha={alpha}"
    )


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    return make_state("coherent", dim, alpha=alpha)


def _cat(alpha: complex, dim: int) -> Density:
    # Exact (untruncated) norm of |a> + |-a> is 2(1 + exp(-2|a|^2)).
    exact_norm2 = 2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2))
    return _pure_state(
        lambda d: coherent_amplitudes(alpha, d) + coherent_amplitudes(-alpha, d),
        dim,
        exact_norm2,
        f"cat alpha={alpha}",
    )


def cat_state(alpha: complex, dim: int) -> np.ndarray:
    """Normalized superposition of |alpha> and |-alpha>."""
    return make_state("cat", dim, alpha=alpha)


def _thermal(nbar: float, dim: int) -> Density:
    require_nonnegative(nbar=nbar)
    if nbar == 0:
        return _number(0, dim)
    p = nbar / (1.0 + nbar)
    tail_of = lambda d: p**d
    _check_tail(p**dim, dim, tail_of, f"thermal nbar={nbar}")
    weights = (1.0 - p) * p ** np.arange(dim)
    weights /= weights.sum()
    return Density(float(weights @ weights), None, Spectrum(weights, None))


def thermal_state(nbar: float, dim: int) -> np.ndarray:
    """Bose thermal state with mean occupation ``nbar``, p = nbar/(1+nbar)."""
    return make_state("thermal", dim, nbar=nbar)


def squeezed_amplitudes(r: float, dim: int) -> np.ndarray:
    """Fock amplitudes of squeezed vacuum with Var(x) = nu exp(-2r)."""
    amps = np.zeros(dim, dtype=complex)
    t = math.tanh(r)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    # c_{2n+2}/c_{2n} = -tanh(r) sqrt(2n+1)/sqrt(2n+2)
    for n2 in range(0, dim - 2, 2):
        amps[n2 + 2] = -t * math.sqrt((n2 + 1.0) / (n2 + 2.0)) * amps[n2]
    return amps


def _squeezed(r: float, dim: int) -> Density:
    return _pure_state(lambda d: squeezed_amplitudes(r, d), dim, 1.0, f"squeezed r={r}")


def squeezed_state(r: float, dim: int) -> np.ndarray:
    return make_state("squeezed", dim, r=r)


# kind -> (its parameter names, builder(dim, **parameters) of its Density)
STATE_BUILDERS = {
    "vacuum": ((), lambda dim: _number(0, dim)),
    "number": (("n",), lambda dim, n: _number(n, dim)),
    "coherent": (("alpha",), lambda dim, alpha: _coherent(alpha, dim)),
    "cat": (("alpha",), lambda dim, alpha: _cat(alpha, dim)),
    "thermal": (("nbar",), lambda dim, nbar: _thermal(nbar, dim)),
    "squeezed": (("r",), lambda dim, r: _squeezed(r, dim)),
}


def build_state(kind: str, dim: int, **params) -> Density:
    """The Density of a Fock state, kind in {vacuum, number, coherent, cat, thermal,
    squeezed}, decomposed by construction.

    ``dim`` must be a whole number in [2, DIM_CAP] and every parameter
    finite (a complex alpha in both parts), else :class:`DomainError`; a
    number state's ``n`` must be a whole number >= 0.
    """
    try:
        names, builder = STATE_BUILDERS[kind]
    except KeyError:
        raise DomainError(
            f"unknown state kind {kind!r}; choose from {sorted(STATE_BUILDERS)}"
        ) from None
    if set(params) != set(names):
        raise DomainError(f"{kind} state takes parameters {list(names)}, got {sorted(params)}")
    for name, value in params.items():
        if not np.isfinite(value):
            raise DomainError(f"{kind} state parameter {name} must be finite, got {value}")
    # The range test comes first: NaN fails it, and float() of a huge int overflows.
    if not (2 <= dim <= DIM_CAP and float(dim).is_integer()):
        raise DomainError(f"dim must be a whole number in [2, {DIM_CAP}], got {dim}")
    return builder(int(dim), **params)


def make_state(kind: str, dim: int, **params) -> np.ndarray:
    """The density matrix of :func:`build_state`."""
    return build_state(kind, dim, **params).rho


# ---------------------------------------------------------------------------
# Multi-qubit states and composition
# ---------------------------------------------------------------------------

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def ghz_vector(n: int, q: float, phase: float = 0.0):
    """GHZ-form state vector sqrt(1-q)|0...0> + sqrt(q) e^{i phase}|1...1>.

    Returns ``(psi, observable)``: the complex 2**n amplitudes and the
    collective sigma_z partitioned into one real diagonal per site,
    ``1 - 2 b_i`` for the bit b_i of site i, held as the rows of one
    (n, 2**n) float block.  Site 0 is the most significant bit, the
    Kronecker order of :func:`qubit_site_operator`.
    """
    from .measures import PartitionedObservable

    if not n >= 1:  # NaN fails too
        raise DomainError(f"subsystem count must be >= 1, got {n}")
    if n > GHZ_VECTOR_MAX_QUBITS:
        # psi at 16 B and the n local diagonals plus their sum at 8 B per entry.
        bytes_needed = (16 + 8 * (n + 1)) * 2**n
        raise DomainError(
            f"n={n} qubits needs a {2**n}-entry state vector and {n + 1} "
            f"diagonals (~{bytes_needed / 1e9:.1f} GB); "
            f"capped at n={GHZ_VECTOR_MAX_QUBITS}"
        )
    if not float(n).is_integer():
        raise DomainError(f"subsystem count must be a whole number, got {n}")
    n = int(n)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"weight q must lie in [0, 1], got {q}")
    if not math.isfinite(phase):
        raise DomainError(f"phase must be finite, got {phase}")
    dim = 2**n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = math.sqrt(1.0 - q)
    # At q = 1 the phase is global, and |e^{i phase}|^2 may round below 1,
    # which would leave rounding-level local variances instead of zeros.
    psi[-1] = math.sqrt(q) * np.exp(1j * phase) if q < 1.0 else 1.0
    # Row i holds site i's diagonal, written in place: its bit alternates in
    # runs of 2**(n-1-i) basis states, +1 then -1, repeated 2**i times.
    block = np.empty((n, dim))
    for site, row in enumerate(block):
        row.reshape(2**site, 2, -1)[...] = ((1.0,), (-1.0,))
    return psi, PartitionedObservable.from_locals(block, label="qubits")


def ghz_state(n: int, q: float, phase: float = 0.0):
    """Density matrix |psi><psi| of :func:`ghz_vector`, for the dense path.

    Returns ``(rho, observable)`` with the same diagonal observable as
    :func:`ghz_vector`.
    """
    if n > GHZ_DENSE_MAX_QUBITS:
        bytes_needed = 16 * 4**n
        raise DomainError(
            f"n={n} qubits needs a dense {2**n}x{2**n} density matrix "
            f"(~{bytes_needed / 1e9:.1f} GB); capped at n={GHZ_DENSE_MAX_QUBITS}"
        )
    psi, observable = ghz_vector(n, q, phase)
    return np.outer(psi, psi.conj()), observable


def qubit_site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-qubit operator at ``site`` of an n-qubit register."""
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = op
    return tensor(*mats)


def tensor(*operators: np.ndarray) -> np.ndarray:
    """Kronecker product of operators or density matrices."""
    if not operators:
        raise DomainError("tensor() needs at least one operator")
    total_dim = 1
    for op in operators:
        total_dim *= np.asarray(op).shape[0]
    if total_dim > DIM_CAP:
        raise DomainError(f"tensor dimension {total_dim} exceeds cap {DIM_CAP}")
    out = np.asarray(operators[0], dtype=complex)
    for op in operators[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def mix(p: float, rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Convex mixture p*rho + (1-p)*sigma."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"mixing probability must lie in [0, 1], got {p}")
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise DomainError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return p * rho + (1.0 - p) * sigma
