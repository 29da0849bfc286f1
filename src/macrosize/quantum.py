"""Dense complex-Hermitian operator algebra and Fock-space state constructors.

Everything here works on plain ``numpy`` arrays: operators are ``(d, d)``
complex matrices, density matrices additionally satisfy Hermiticity,
unit trace and positivity (see :func:`validate_density`).  All functions
are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, TruncationError

# Dense storage only; all computations in this package need at most a few
# hundred Fock levels or <= 2**12 qubit dimensions.
DIM_CAP = 4096

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-10
EIG_FLOOR = -1e-10
RECONSTRUCTION_RTOL = 1e-9
TAIL_THRESHOLD = 1e-8
PURITY_PURE_THRESHOLD = 1.0 - 1e-10


class Spectrum(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are sorted descending; ``eigenvectors[:, k]`` is the
    orthonormal eigenvector for ``eigenvalues[k]``, with the first
    significant component's phase fixed positive-real so repeated runs
    produce identical output.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def max_asymmetry(matrix: np.ndarray) -> float:
    """Largest absolute deviation of ``matrix`` from its conjugate transpose."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def is_hermitian(matrix: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(matrix)))) if np.asarray(matrix).size else 1.0
    return max_asymmetry(matrix) <= HERMITICITY_ATOL * scale


def require_hermitian(matrix: np.ndarray, name: str = "operator") -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {matrix.shape}")
    if not is_hermitian(matrix):
        raise DomainError(
            f"{name} is not Hermitian: max asymmetry {max_asymmetry(matrix):.3e}"
        )
    return matrix


def expectation(rho: np.ndarray, operator: np.ndarray) -> float:
    """Real expectation value ``tr(rho @ operator)`` for Hermitian input.

    Summed elementwise as sum_ij rho_ij A_ji, with no matrix product.
    """
    return float(np.real(np.sum(np.asarray(rho) * np.asarray(operator).T)))


def purity(rho: np.ndarray) -> float:
    rho = np.asarray(rho)
    return float(np.real(np.sum(rho * rho.T)))


def validate_density(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the array."""
    rho = require_hermitian(rho, name)
    trace = float(np.real(np.trace(rho)))
    if abs(trace - 1.0) > TRACE_ATOL:
        raise DomainError(f"{name} has trace {trace!r}, expected 1 within {TRACE_ATOL}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < EIG_FLOOR:
        raise DomainError(f"{name} has negative eigenvalue {min_eig:.3e}")
    return rho


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first component above tolerance is positive-real."""
    fixed = vectors.copy()
    for k in range(fixed.shape[1]):
        col = fixed[:, k]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            lead = col[idx[0]]
            fixed[:, k] = col * (np.conj(lead) / abs(lead))
    return fixed


def eigh(matrix: np.ndarray) -> Spectrum:
    """Spectral decomposition of a Hermitian matrix, descending eigenvalues.

    Raises :class:`DomainError` on non-Hermitian input (reporting the max
    asymmetry) and on eigensolver non-convergence.
    """
    matrix = require_hermitian(matrix, "eigh input")
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise DomainError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(values)[::-1]
    values = np.ascontiguousarray(values[order])
    vectors = _fix_phases(np.ascontiguousarray(vectors[:, order]))
    spectrum = Spectrum(values, vectors)
    scale = max(float(np.max(np.abs(matrix))), 1e-300)
    residual = float(np.max(np.abs(spectrum.reconstruct() - matrix)))
    if residual > RECONSTRUCTION_RTOL * scale:
        raise DomainError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"{RECONSTRUCTION_RTOL:.1e} * {scale:.3e}"
        )
    return spectrum


# ---------------------------------------------------------------------------
# Fock-space operators and states
# ---------------------------------------------------------------------------

def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator, <m|a|n> = sqrt(n) delta_{m,n-1}."""
    if dim < 2:
        raise DomainError(f"Fock dimension must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)


def fock_operators(dim: int, nu: float = 0.5, hbar: float = 1.0):
    """Annihilation, position and momentum operators on a truncated Fock space.

    ``nu`` is the ground-state position variance, so x = sqrt(nu) (a + a+)
    and p = (hbar / 2 sqrt(nu)) i (a+ - a).  Truncation artifacts (the missing
    ladder rung) only affect row/column ``dim - 1``.
    """
    if dim < 2:
        raise DomainError(f"Fock dimension must be >= 2, got {dim}")
    if nu <= 0:
        raise DomainError(f"ground-state variance nu must be positive, got {nu}")
    a = annihilation(dim)
    adag = a.conj().T
    x = math.sqrt(nu) * (a + adag)
    p = (hbar / (2.0 * math.sqrt(nu))) * 1j * (adag - a)
    return a, x, p


def _suggest_dim(weights_tail: "callable", start: int) -> int:
    """Smallest dimension whose analytic tail weight drops below TAIL_THRESHOLD."""
    dim = max(start, 2)
    while weights_tail(dim) >= TAIL_THRESHOLD and dim < DIM_CAP:
        dim = min(int(dim * 1.5) + 1, DIM_CAP)
    return dim


def _check_tail(tail: float, dim: int, tail_of_dim, label: str) -> float:
    if tail >= TAIL_THRESHOLD:
        suggested = _suggest_dim(tail_of_dim, dim + 1)
        raise TruncationError(
            f"{label}: truncated tail weight {tail:.3e} >= {TAIL_THRESHOLD:.1e}; "
            f"use dim >= {suggested}",
            tail_weight=tail,
            suggested_dim=suggested,
        )
    return tail


def vacuum_state(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def number_state(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise TruncationError(
            f"number state |{n}> does not fit in dim {dim}", 1.0, n + 1
        )
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    if alpha == 0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return amps
    n = np.arange(dim)
    log_mag = n * math.log(abs(alpha)) - 0.5 * gammaln(n + 1.0)
    phases = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag - 0.5 * abs(alpha) ** 2) * phases


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    amps = coherent_amplitudes(alpha, dim)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    tail = 1.0 - norm2

    def tail_of(d: int) -> float:
        return 1.0 - float(np.sum(np.abs(coherent_amplitudes(alpha, d)) ** 2))

    _check_tail(tail, dim, tail_of, f"coherent alpha={alpha}")
    psi = amps / math.sqrt(norm2)
    return np.outer(psi, psi.conj())


def cat_state(alpha: complex, dim: int) -> np.ndarray:
    """Normalized superposition of |alpha> and |-alpha>."""
    plus = coherent_amplitudes(alpha, dim)
    minus = coherent_amplitudes(-alpha, dim)
    psi = plus + minus
    norm2 = float(np.sum(np.abs(psi) ** 2))
    # Exact (untruncated) norm of |a> + |-a| is 2(1 + exp(-2|a|^2)).
    exact_norm2 = 2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2))
    tail = max(0.0, 1.0 - norm2 / exact_norm2)

    def tail_of(d: int) -> float:
        amps = coherent_amplitudes(alpha, d) + coherent_amplitudes(-alpha, d)
        return max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)) / exact_norm2)

    _check_tail(tail, dim, tail_of, f"cat alpha={alpha}")
    psi = psi / math.sqrt(norm2)
    return np.outer(psi, psi.conj())


def thermal_state(nbar: float, dim: int) -> np.ndarray:
    """Bose thermal state with mean occupation ``nbar``, p = nbar/(1+nbar)."""
    if nbar < 0:
        raise DomainError(f"mean occupation must be >= 0, got {nbar}")
    if nbar == 0:
        return vacuum_state(dim)
    p = nbar / (1.0 + nbar)
    tail_of = lambda d: p**d
    _check_tail(p**dim, dim, tail_of, f"thermal nbar={nbar}")
    weights = (1.0 - p) * p ** np.arange(dim)
    weights /= weights.sum()
    return np.diag(weights).astype(complex)


def squeezed_amplitudes(r: float, dim: int) -> np.ndarray:
    """Fock amplitudes of squeezed vacuum with Var(x) = nu exp(-2r)."""
    amps = np.zeros(dim, dtype=complex)
    t = math.tanh(r)
    amps[0] = 1.0 / math.sqrt(math.cosh(r))
    # c_{2n+2}/c_{2n} = -tanh(r) sqrt(2n+1)/sqrt(2n+2)
    for n2 in range(0, dim - 2, 2):
        amps[n2 + 2] = -t * math.sqrt((n2 + 1.0) / (n2 + 2.0)) * amps[n2]
    return amps


def squeezed_state(r: float, dim: int) -> np.ndarray:
    amps = squeezed_amplitudes(r, dim)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    tail = 1.0 - norm2

    def tail_of(d: int) -> float:
        return 1.0 - float(np.sum(np.abs(squeezed_amplitudes(r, d)) ** 2))

    _check_tail(tail, dim, tail_of, f"squeezed r={r}")
    psi = amps / math.sqrt(norm2)
    return np.outer(psi, psi.conj())


_STATE_BUILDERS = {
    "vacuum": ((), lambda dim: vacuum_state(dim)),
    "number": (("n",), lambda dim, n=0: number_state(int(n), dim)),
    "coherent": (("alpha",), lambda dim, alpha=1.0: coherent_state(alpha, dim)),
    "cat": (("alpha",), lambda dim, alpha=1.0: cat_state(alpha, dim)),
    "thermal": (("nbar",), lambda dim, nbar=0.0: thermal_state(nbar, dim)),
    "squeezed": (("r",), lambda dim, r=0.0: squeezed_state(r, dim)),
}


def make_state(kind: str, dim: int, **params) -> np.ndarray:
    """Dispatch constructor: kind in {vacuum, number, coherent, cat, thermal, squeezed}."""
    try:
        allowed, builder = _STATE_BUILDERS[kind]
    except KeyError:
        raise DomainError(
            f"unknown state kind {kind!r}; choose from {sorted(_STATE_BUILDERS)}"
        ) from None
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise DomainError(f"{kind} state does not take parameters {unknown}")
    if dim < 2 or dim > DIM_CAP:
        raise DomainError(f"dim must be in [2, {DIM_CAP}], got {dim}")
    return builder(dim, **params)


# ---------------------------------------------------------------------------
# Multi-qubit states and composition
# ---------------------------------------------------------------------------

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def ghz_state(n: int, q: float, phase: float = 0.0):
    """GHZ-form state sqrt(1-q)|0...0> + sqrt(q) e^{i phi}|1...1>.

    Returns ``(rho, observable)`` where ``observable`` is the collective
    sigma_z partitioned into its single-qubit addends (one per site).
    """
    from .measures import PartitionedObservable

    if n < 1:
        raise DomainError(f"subsystem count must be >= 1, got {n}")
    if n > 12:
        # rho, the n local sigma_z and their sum, 16 B per complex entry.
        bytes_needed = (n + 2) * 16 * 4**n
        raise DomainError(
            f"n={n} qubits needs {n + 2} dense {2**n}x{2**n} matrices "
            f"(~{bytes_needed / 1e9:.1f} GB); capped at n=12"
        )
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"weight q must lie in [0, 1], got {q}")
    dim = 2**n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = math.sqrt(1.0 - q)
    # At q = 1 the phase is global, and |e^{i phase}|^2 may round below 1,
    # which would leave rounding-level local variances instead of zeros.
    psi[-1] = math.sqrt(q) * np.exp(1j * phase) if q < 1.0 else 1.0
    rho = np.outer(psi, psi.conj())
    locals_ = [qubit_site_operator(SIGMA_Z, i, n) for i in range(n)]
    observable = PartitionedObservable.from_locals(locals_, label="qubits")
    return rho, observable


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
