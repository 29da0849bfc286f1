"""Quantum and classical Fisher-information kernels.

The central quantity is the quantum Fisher information (QFI) of a state
``rho`` with respect to a Hermitian generator ``A``, evaluated from the
spectral decomposition

    F(rho, A) = 2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) |<i|A|j>|^2,

restricted to pairs with ``l_i + l_j`` above a deterministic threshold.
For pure states this reduces to four times the variance, which is used
as a fast path.  Both paths give the QFI matrix of several generators,

    F_ab = 2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) Re(<i|A|j> conj(<i|B|j>)),

or 4 Re tr(rho B_a B_b) with centred B_a = A_a - <A_a> for pure states,
with the QFI of one generator its 1x1 case.  Variances are likewise
tr(rho B^2): the two-moment form tr(rho A^2) - <A>^2 cancels near an
eigenstate of A, while the centred form keeps full relative accuracy.
The QFI of a quadrature cos(theta) x + sin(theta) p is the quadratic
form of the 2x2 matrix of (x, p), so its maximum over theta is the
matrix's top eigenvalue (Paris, Int. J. Quantum Inf. 7, 125 (2009); Liu
et al., J. Phys. A 53, 023001 (2020)).  When the two
eigenvalues agree to ``ISOTROPY_FACTOR`` the state is isotropic and the
maximizing angle is 0 by convention.  The state is validated once, where
it enters a public function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .errors import DomainError

# Spectral pairs with l_i + l_j below this times the top eigenvalue are 0/0
# artifacts of rank deficiency and are excluded (count reported).
PAIR_THRESHOLD_FACTOR = 1e-12
# A 2x2 QFI matrix whose eigengap is at most this times its top eigenvalue
# is isotropic: every quadrature is a maximum and theta_star is 0.0.
ISOTROPY_FACTOR = 1e-9
# Grid cells with p below this times max(p) would let numerical tails of
# p'^2/p dominate the classical FI integral; they are excluded instead.
FLOOR_FACTOR = 1e-12


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value plus how it was obtained."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


def _check_pair(rho: np.ndarray, operator: np.ndarray):
    rho = quantum.validate_density(rho)
    operator = quantum.require_hermitian(operator, "observable")
    if rho.shape != operator.shape:
        raise DomainError(
            f"dimension mismatch: state {rho.shape} vs observable {operator.shape}"
        )
    return rho, operator


def variance(rho: np.ndarray, operator: np.ndarray) -> float:
    """Var(rho, A) = tr(rho B^2) with B = A - tr(rho A)."""
    return _variance(*_check_pair(rho, operator))


def _centered(rho: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """B = A - <A> I for a checked state and observable."""
    return operator - quantum.expectation(rho, operator) * np.eye(operator.shape[0])


def _variance(rho: np.ndarray, operator: np.ndarray) -> float:
    """``variance`` of an already checked state and observable."""
    centered = _centered(rho, operator)
    return quantum.expectation(rho @ centered, centered)  # tr(rho B B)


def covariance(rho: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized covariance 0.5 tr[rho (AB + BA)] - tr[rho A] tr[rho B]."""
    rho, a = _check_pair(rho, a)
    b = quantum.require_hermitian(b, "observable B")
    if b.shape != a.shape:
        raise DomainError(f"dimension mismatch: {a.shape} vs {b.shape}")
    sym = 0.5 * (a @ b + b @ a)
    return quantum.expectation(rho, sym) - quantum.expectation(
        rho, a
    ) * quantum.expectation(rho, b)


def _qfi_matrix(rho: np.ndarray, operators):
    """QFI matrix F_ab of a validated ``rho`` for Hermitian generators A_a.

    Returns ``(F, method, diagnostics, discarded)``.  ``discarded`` is None on
    the pure path; on the spectral path it is the matrix sum over the
    discarded pairs of Re(<i|A_a|j> conj(<i|A_b|j>)), which callers contract
    with the direction they report.
    """
    count = len(operators)
    matrix = np.empty((count, count))
    pur = quantum.purity(rho)
    if pur > quantum.PURITY_PURE_THRESHOLD:
        # For Hermitian rho, B_a and B_b, 0.5 tr rho{B_a, B_b} = Re tr(rho B_a B_b),
        # from one rho B_a product per generator.
        centered = [_centered(rho, op) for op in operators]
        products = [rho @ op for op in centered]
        for a in range(count):
            for b in range(a, count):
                second = quantum.expectation(products[a], centered[b])
                matrix[a, b] = matrix[b, a] = 4.0 * second
        return matrix, "pure-variance", {"purity": pur}, None

    lam, vec = quantum.eigh(rho)
    rotated = [vec.conj().T @ op @ vec for op in operators]
    sums = lam[:, None] + lam[None, :]
    diffs = lam[:, None] - lam[None, :]
    threshold = PAIR_THRESHOLD_FACTOR * float(lam[0])
    keep = sums > threshold
    weights = np.zeros_like(sums)
    weights[keep] = diffs[keep] ** 2 / sums[keep]
    discarded = np.empty((count, count))
    for a in range(count):
        for b in range(a, count):
            if a == b:
                overlap = np.abs(rotated[a]) ** 2
            else:
                overlap = np.real(rotated[a] * np.conj(rotated[b]))
            matrix[a, b] = matrix[b, a] = 2.0 * float(np.sum(weights * overlap))
            discarded[a, b] = discarded[b, a] = float(np.sum(overlap[~keep]))
    diagnostics = {
        "purity": pur,
        "discarded_pairs": int(np.count_nonzero(~keep)),
        "pair_threshold": threshold,
    }
    return matrix, "spectral", diagnostics, discarded


def _result(value, method, diagnostics, discarded, direction) -> FisherResult:
    """FisherResult clamped at 0, with the discarded mass along ``direction``."""
    if discarded is not None:
        mass = float(direction @ discarded @ direction)
        diagnostics = dict(diagnostics, discarded_overlap_mass=mass)
    return FisherResult(max(value, 0.0), method, diagnostics)


def qfi(rho: np.ndarray, operator: np.ndarray) -> FisherResult:
    """Quantum Fisher information of ``rho`` with respect to ``operator``."""
    rho, operator = _check_pair(rho, operator)
    matrix, method, diagnostics, discarded = _qfi_matrix(rho, [operator])
    return _result(float(matrix[0, 0]), method, diagnostics, discarded, np.ones(1))


def sub_qfi_f2(rho: np.ndarray, operator: np.ndarray) -> FisherResult:
    """Lower bound F2(rho, A) = -2 tr([rho, A]^2) <= F(rho, A)."""
    rho, operator = _check_pair(rho, operator)
    comm = rho @ operator - operator @ rho
    value = -2.0 * float(np.real(np.trace(comm @ comm)))
    return FisherResult(max(value, 0.0), "sub-qfi", {})


def classical_fi_grid(p: np.ndarray, h: float) -> FisherResult:
    """Classical Fisher information of a sampled density under translations.

    ``p`` is a probability density sampled on a uniform grid of step ``h``;
    the derivative is taken by central differences and cells below a floor
    (and the two boundary cells) are excluded, with the count reported.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size < 3:
        raise DomainError("density must be a 1-D array with at least 3 samples")
    if h <= 0:
        raise DomainError(f"grid step must be positive, got {h}")
    if np.any(p < 0):
        raise DomainError("density has negative entries")
    total = float(np.sum(p) * h)
    if abs(total - 1.0) > 1e-6:
        raise DomainError(f"density integrates to {total!r}, expected 1 within 1e-6")
    deriv = (p[2:] - p[:-2]) / (2.0 * h)
    interior = p[1:-1]
    floor = FLOOR_FACTOR * float(np.max(p))
    keep = interior > floor
    value = float(np.sum(deriv[keep] ** 2 / interior[keep]) * h)
    return FisherResult(
        value,
        "classical",
        {"excluded_cells": int(np.count_nonzero(~keep)), "floor": floor},
    )


def binary_trial_fi(probability: float, derivative: float) -> float:
    """FI of a two-outcome trial {R, 1-R}: R'^2 / (R (1 - R))."""
    if not 0.0 < probability < 1.0:
        raise DomainError(
            f"binary-trial probability must lie strictly in (0, 1), got {probability}"
        )
    return derivative**2 / (probability * (1.0 - probability))


def qfi_max_quadrature(rho: np.ndarray, x_op: np.ndarray, p_op: np.ndarray):
    """Maximize QFI over quadratures A(theta) = cos(theta) x + sin(theta) p.

    F(theta) = u^T F u with u = (cos theta, sin theta) and F the 2x2 QFI
    matrix of the generators (x, p) (Paris, Int. J. Quantum Inf. 7, 125
    (2009); Liu et al., J. Phys. A 53, 023001 (2020)), built from one
    density check and at most one spectral decomposition.  Returns
    ``(theta_star, result)``: the top eigenvalue of F and the angle of its
    eigenvector modulo pi.  When the eigengap is at most ``ISOTROPY_FACTOR``
    times the top eigenvalue every quadrature is a maximum, and
    ``theta_star`` is 0.0 by convention.  ``result.diagnostics`` reports
    ``eigengap`` and ``isotropic``.
    """
    rho = quantum.validate_density(rho)
    x_op = quantum.require_hermitian(x_op, "x quadrature")
    p_op = quantum.require_hermitian(p_op, "p quadrature")
    if not rho.shape == x_op.shape == p_op.shape:
        raise DomainError(
            f"dimension mismatch: state {rho.shape} vs quadratures "
            f"{x_op.shape}, {p_op.shape}"
        )
    matrix, method, diagnostics, discarded = _qfi_matrix(rho, [x_op, p_op])
    (f_xx, f_xp), (_f_px, f_pp) = matrix
    # F(theta) = (f_xx + f_pp) / 2 + (f_xx - f_pp) / 2 cos 2theta + f_xp sin 2theta
    eigengap = math.hypot(f_xx - f_pp, 2.0 * f_xp)
    top = 0.5 * (f_xx + f_pp + eigengap)
    isotropic = bool(eigengap <= ISOTROPY_FACTOR * top)
    theta = 0.5 * math.atan2(2.0 * f_xp, f_xx - f_pp)
    if isotropic:
        theta = 0.0
    elif theta < 0.0:
        # atan2 gives 2 theta in (-pi, pi]; a rounding-level negative angle
        # folds to 0.0, not to pi.
        theta = (theta + math.pi) % math.pi
    diagnostics.update(eigengap=eigengap, isotropic=isotropic)
    direction = np.array([math.cos(theta), math.sin(theta)])
    return theta, _result(float(top), method, diagnostics, discarded, direction)
