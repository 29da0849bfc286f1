"""Quantum and classical Fisher-information kernels.

The central quantity is the quantum Fisher information (QFI) of a state
``rho`` with respect to a Hermitian generator ``A``, evaluated from the
spectral decomposition

    F(rho, A) = 2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) |<i|A|j>|^2,

restricted to pairs with ``l_i + l_j`` above a deterministic threshold.
For pure states this reduces to four times the variance.  Both paths give
the QFI matrix of several generators,

    F_ab = 2 sum_{i,j} (l_i - l_j)^2 / (l_i + l_j) Re(<i|A|j> conj(<i|B|j>)),

or F_ab = 4 Re<B_a psi|B_b psi> with centred B_a = A_a - <A_a> for a pure
state psi, with the QFI of one generator its 1x1 case (Liu et al., J.
Phys. A 53, 023001 (2020)).  Variances are likewise ||B psi||^2 or
sum_k l_k ||B v_k||^2: the two-moment form tr(rho A^2) - <A>^2 cancels
near an eigenstate of A, while the centred form keeps full relative
accuracy.
The QFI of a quadrature cos(theta) x + sin(theta) p is the quadratic
form of the 2x2 matrix of (x, p), so its maximum over theta is the
matrix's top eigenvalue (Paris, Int. J. Quantum Inf. 7, 125 (2009)).
When the two eigenvalues agree to ``ISOTROPY_FACTOR`` the state is
isotropic and the maximizing angle is 0 by convention.

``qfi``, ``variance`` and ``qfi_max_quadrature`` check a state and its
operators once, where they enter; the state with ``quantum.density``, the
package's one check of a density matrix, which gives a certified pure psi
(no eigensolver) or the one spectrum the QFI reads.  The private cores
``_qfi``, ``_state_variance`` and ``_max_quadrature`` check nothing: they
read a ``quantum.Density`` only through psi or its l and V, and an operator
(a matrix, or a ``measures.PartitionedObservable``'s 1-D diagonal) only
through its action ``_apply``; a spectrum's QFI is 2 S0 of the rotation
below and its variance reads the same image A V.  Two kinds of state arrive
decomposed and go straight to ``_max_quadrature``: a Fock state from
``quantum.build_state`` (psi, or a thermal state's weights on the Fock
basis, eigenvectors ``None``), which ``macrosize measure`` uses, and a
Wigner-grid reconstruction from ``wigner.qfi_from_grid``.

``_max_quadrature`` takes the quadrature pair as one operator
A = (x + ip) / sqrt2, so x = (A + A^+) / sqrt2 and p = (A - A^+) / (i sqrt2)
for any Hermitian x, p, and reads A only through its action v -> A v,
v -> A^+ v.  For the nu = 1/2 quadratures A is the ladder operator, whose
action is the O(d) row shifts ``quantum.annihilate`` and ``quantum.create``;
``qfi_max_quadrature`` passes the action of the dense A it builds from its
checked x and p.  The 2x2 matrix then needs two sums, S0 and S1: from
A psi and A^+ psi for a pure state, and from one rotation
A_hat = V^+ (A V), a row shift and one GEMM, for a spectrum.  A spectrum
on the Fock basis, a built thermal state's, needs no rotation: A_hat is the
ladder's one band, so S1 = 0 and S0 is an O(d) sum over it, and the count
of dropped pairs an O(d log d) search of the sorted weights.  On 2 cores
building a state and its best quadrature take about 0.1 ms at dim 400 and
0.4 ms at dim 2000 for squeezed vacuum, and 0.06 ms and 0.1 ms for a
thermal state, with a tracemalloc peak of 0.2 MB at dim 2000.  Through
``qfi_max_quadrature`` squeezed vacuum takes about 9 ms and 0.16 s, most of
it the Hermiticity checks of rho, x and p and forming A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .errors import DomainError, require_positive

# Spectral pairs with l_i + l_j below this times the top eigenvalue are 0/0
# artifacts of rank deficiency and are excluded (count reported).
PAIR_THRESHOLD_FACTOR = 1e-12
# A 2x2 QFI matrix whose eigengap is at most this times its top eigenvalue
# is isotropic: every quadrature is a maximum and theta_star is 0.0.
ISOTROPY_FACTOR = 1e-9
# A maximizing angle within this of 0 is 0 up to rounding: it folds to 0.0,
# not to a rounding-level angle or a value a rounding step below pi.
ANGLE_FOLD_ATOL = 1e-12
# Grid cells with p below this times max(p) would let numerical tails of
# p'^2/p dominate the classical FI integral; they are excluded instead.
FLOOR_FACTOR = 1e-12
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FisherResult:
    """A Fisher-information value plus how it was obtained."""

    value: float
    method: str
    diagnostics: dict = field(default_factory=dict)

    def __float__(self) -> float:
        return self.value


def _checked_operator(shape: tuple, operator: np.ndarray, name: str = "observable") -> np.ndarray:
    """A Hermitian operator of the state's ``shape``."""
    operator = quantum.require_hermitian(operator, name)
    if shape != operator.shape:
        raise DomainError(f"dimension mismatch: state {shape} vs {name} {operator.shape}")
    return operator


def variance(rho: np.ndarray, operator: np.ndarray) -> float:
    """Var(rho, A) = <B^2> with centred B = A - <A>."""
    return _state_variance(quantum.density(rho), _checked_operator(np.shape(rho), operator))


def _apply(operator: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A v for a vector or matrix ``v``: A a matrix, or a 1-D diagonal applied elementwise."""
    if operator.ndim == 1:
        return operator.reshape((-1,) + (1,) * (v.ndim - 1)) * v
    return operator @ v


def _state_variance(state: quantum.Density, operator: np.ndarray) -> float:
    """``variance`` of a checked state and an operator of its shape:
    ||B psi||^2 if certified pure, else sum_k l_k ||B v_k||^2 from one image A V."""
    if state.psi is not None:
        psi = state.psi
        centered = _apply(operator, psi)
        centered -= float(np.real(np.vdot(psi, centered))) * psi
        return float(np.real(np.vdot(centered, centered)))
    lam, vec = state.spectrum
    centered = _apply(operator, vec)
    centered -= float(lam @ np.real(np.einsum("ij,ij->j", vec.conj(), centered))) * vec
    return float(lam @ np.real(np.einsum("ij,ij->j", centered.conj(), centered)))


def _pair_weights(state: quantum.Density):
    """The spectral QFI's pair weights w_ij = (l_i - l_j)^2 / (l_i + l_j).

    Pairs with l_i + l_j at or below PAIR_THRESHOLD_FACTOR * l_0 are 0/0
    artifacts of rank deficiency: their weight is 0, and they come back as
    the boolean mask ``dropped``, whose overlap mass callers report.  Returns
    ``(weights, dropped, diagnostics)``.
    """
    lam = state.spectrum.eigenvalues
    sums = lam[:, None] + lam[None, :]
    threshold = PAIR_THRESHOLD_FACTOR * float(lam[0])
    keep = sums > threshold
    dropped = ~keep
    weights = lam[:, None] - lam[None, :]
    weights *= weights
    np.divide(weights, sums, out=weights, where=keep)
    weights[dropped] = 0.0
    return weights, dropped, _spectral_diagnostics(state, int(np.count_nonzero(dropped)), threshold)


def _spectral_diagnostics(state: quantum.Density, discarded_pairs: int, threshold: float) -> dict:
    return {"purity": state.purity, "discarded_pairs": discarded_pairs, "pair_threshold": threshold}


def _count_dropped_pairs(lam: np.ndarray, threshold: float) -> int:
    """How many of the d^2 pairs of the descending ``lam`` have l_i + l_j <= threshold,
    the pairs ``_pair_weights`` drops, in O(d log d).

    Rounding is monotone, so the j whose rounded l_i + l_j is at or below the
    threshold form a suffix of each row.  Its start is guessed from the
    unrounded l_j <= threshold - l_i, and kept where the comparison
    ``_pair_weights`` makes confirms it on both sides; a bisection of the
    other rows at once finds it there.
    """
    d = lam.size
    guess = d - np.searchsorted(lam[::-1], threshold - lam, side="right")
    starts = (guess == d) | (lam + lam[np.minimum(guess, d - 1)] <= threshold)
    sure = starts & ((guess == 0) | (lam + lam[guess - 1] > threshold))
    first = np.where(sure, guess, 0)  # the suffix of row i starts in [first, last]
    last = np.where(sure, guess, d)
    while True:
        open_rows = first < last
        if not open_rows.any():
            return int(np.sum(d - first))
        mid = (first + last) // 2
        drop = lam + lam[np.minimum(mid, d - 1)] <= threshold
        last = np.where(open_rows & drop, mid, last)
        first = np.where(open_rows & ~drop, mid + 1, first)


def qfi(rho: np.ndarray, operator: np.ndarray) -> FisherResult:
    """Quantum Fisher information of ``rho`` with respect to ``operator``."""
    return _qfi(quantum.density(rho), _checked_operator(np.shape(rho), operator))


def _qfi(state: quantum.Density, operator: np.ndarray) -> FisherResult:
    """``qfi`` of a checked state: 4 Var if certified pure, else 2 S0 = 2 sum w |<i|A|j>|^2
    over its spectrum's pair weights w, and the dropped pairs' S0 as discarded mass."""
    if state.psi is not None:
        value = 4.0 * _state_variance(state, operator)  # a sum of squares
        return FisherResult(value, "pure-variance", {"purity": state.purity})
    (s0, _s1), (d0, _d1), diagnostics = _rotated_sums(state, lambda v: _apply(operator, v))
    diagnostics["discarded_overlap_mass"] = d0
    return FisherResult(max(2.0 * s0, 0.0), "spectral", diagnostics)


def sub_qfi_f2(rho: np.ndarray, operator: np.ndarray) -> FisherResult:
    """Lower bound F2(rho, A) = -2 tr([rho, A]^2) <= F(rho, A)."""
    rho = quantum.validate_density(rho)
    operator = _checked_operator(rho.shape, operator)
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
    require_positive(h=h)
    if not np.all(p >= 0):
        raise DomainError("density has negative or NaN entries")
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


def qfi_max_quadrature(rho: np.ndarray, x_op: np.ndarray, p_op: np.ndarray):
    """Maximize QFI over quadratures A(theta) = cos(theta) x + sin(theta) p.

    F(theta) = u^T F u with u = (cos theta, sin theta) and F the 2x2 QFI
    matrix of the generators (x, p) (Paris, Int. J. Quantum Inf. 7, 125
    (2009); Liu et al., J. Phys. A 53, 023001 (2020)), built from one
    check and one decomposition of the state.  Returns ``(theta_star,
    result)``: the top eigenvalue of F and the angle of its eigenvector
    modulo pi, in [0, pi), with an angle within ``ANGLE_FOLD_ATOL`` of 0 or pi
    folded to 0.0.  When the eigengap is at most ``ISOTROPY_FACTOR``
    times the top eigenvalue every quadrature is a maximum, and
    ``theta_star`` is 0.0 by convention.  ``result.diagnostics`` reports
    ``eigengap`` and ``isotropic``.
    """
    state = quantum.density(rho)
    x_op = _checked_operator(np.shape(rho), x_op, "x quadrature")
    p_op = _checked_operator(np.shape(rho), p_op, "p quadrature")
    a_op = (x_op + 1j * p_op) / SQRT2
    # A^+ v = (v^+ A)^+, with no conjugate copy of A.
    pair = (lambda v: a_op @ v, lambda v: (v.conj().T @ a_op).conj().T)
    return _max_quadrature(state, pair)


# The action (v -> a v, v -> a^+ v) of the ladder operator, A for nu = 1/2.
LADDER = (quantum.annihilate, quantum.create)


def _pair_sums(a_hat: np.ndarray, weights: np.ndarray):
    """S0 = sum_ij w_ij |A_ij|^2 and S1 = sum_ij w_ij A_ij A_ji of a rotated A."""
    weighted = weights * a_hat
    s1 = complex(np.einsum("ij,ji->", weighted, a_hat))
    return float(np.real(np.vdot(a_hat, weighted))), s1


def _rotated_sums(state: quantum.Density, action):
    """The ``_pair_sums`` of A_hat = V^+ (A V), A v = ``action(v)``, over the kept and
    the dropped pairs of a spectrum: ``((S0, S1), (D0, D1), diagnostics)``."""
    # Rotate first: with the weights formed first, the frees of a spectral
    # job leave glibc's heap top above its trim threshold, and the next
    # job faults the trimmed pages back in.
    vec = state.spectrum.eigenvectors
    a_hat = vec.conj().T @ action(vec)
    weights, dropped, diagnostics = _pair_weights(state)
    return _pair_sums(a_hat, weights), _pair_sums(a_hat, dropped), diagnostics


def _max_quadrature(state: quantum.Density, pair=LADDER):
    """``qfi_max_quadrature`` of a checked state, with its quadrature pair given
    as the action ``(v -> A v, v -> A^+ v)`` of one operator A = (x + ip) / sqrt2,
    x and p Hermitian; by default the ladder operator as row shifts.

    The QFI matrix of (x, p) is F = 2 [[S0 + Re S1, Im S1], [Im S1, S0 - Re S1]],
    so its top eigenvalue is 2 (S0 + |S1|), its eigengap 4 |S1| and its
    angle arg(S1) / 2.  A pure state takes a = A psi - <A> psi and
    b = A^+ psi - <A^+> psi: S0 = ||a||^2 + ||b||^2 and S1 = 2 <b|a>.  A
    spectrum takes the ``_rotated_sums`` of A, whose D0, D1 give the discarded
    mass D0 + Re(e^{-2i theta} D1) along theta.  A spectrum on the Fock basis
    (eigenvectors ``None``) has A_hat = a, one band A_{n,n+1} = sqrt(n + 1)
    (the ladder is the only pair it is given), so S1 = D1 = 0, and S0 and D0
    sum w_{n,n+1} (n + 1) and n + 1 over the kept and the dropped pairs of
    that band, in O(d).
    """
    annihilate, create = pair
    if state.psi is not None:
        psi = state.psi
        image = annihilate(psi)
        mean = np.vdot(psi, image)
        a = image - mean * psi
        b = create(psi) - np.conj(mean) * psi
        s0 = float(np.real(np.vdot(a, a))) + float(np.real(np.vdot(b, b)))
        s1 = 2.0 * complex(np.vdot(b, a))
        method, diagnostics, discarded = "pure-variance", {"purity": state.purity}, None
    elif state.spectrum.eigenvectors is None:
        lam = state.spectrum.eigenvalues
        threshold = PAIR_THRESHOLD_FACTOR * float(lam[0])
        sums = lam[:-1] + lam[1:]
        keep = sums > threshold
        rungs = np.arange(1.0, lam.size)
        gaps = lam[:-1][keep] - lam[1:][keep]
        s0 = float(np.sum(gaps * gaps / sums[keep] * rungs[keep]))
        s1 = 0j
        diagnostics = _spectral_diagnostics(
            state, _count_dropped_pairs(lam, threshold), threshold
        )
        method, discarded = "spectral", (float(np.sum(rungs[~keep])), 0j)
    else:
        (s0, s1), discarded, diagnostics = _rotated_sums(state, annihilate)
        method = "spectral"
    eigengap = 4.0 * abs(s1)
    top = 2.0 * (s0 + abs(s1))
    isotropic = bool(eigengap <= ISOTROPY_FACTOR * top)
    theta = 0.0 if isotropic else _fold_angle(0.5 * math.atan2(s1.imag, s1.real))
    diagnostics.update(eigengap=eigengap, isotropic=isotropic)
    if discarded is not None:
        d0, d1 = discarded
        # D0 + Re(e^{-2i theta} D1)
        mass = d0 + math.cos(2.0 * theta) * d1.real + math.sin(2.0 * theta) * d1.imag
        diagnostics["discarded_overlap_mass"] = mass
    return theta, FisherResult(max(top, 0.0), method, diagnostics)


def _fold_angle(theta: float) -> float:
    """Map an angle in (-pi/2, pi/2] to [0, pi), with |theta| < ANGLE_FOLD_ATOL to 0.0."""
    if abs(theta) < ANGLE_FOLD_ATOL:
        return 0.0
    return theta if theta > 0.0 else theta + math.pi
