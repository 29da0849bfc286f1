"""Extensive size, entangled size, normalization units, and the depth witness.

Extensive size expresses a QFI value in atomic-scale units:
``N_ext = F / (4 A0^2)`` with ``Q0 = m_u a0`` for mass-weighted position and
``P0 = hbar / 2 a0`` for momentum.  Entangled size divides the QFI by four
times the sum of local variances over a partition; values above an integer
``k`` witness (k+1)-partite entanglement.  ``quantum.density``, the one
check of a density matrix, decomposes a state once for the QFI and the
local variances; a Wigner-grid reconstruction arrives already decomposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fisher, quantum
from .errors import DomainError, require_nonnegative, require_positive


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 values, frozen to 10 significant digits."""

    m_u: float = 1.660539067e-27  # kg
    a0: float = 5.291772109e-11  # m
    hbar: float = 1.054571817e-34  # J s
    k_B: float = 1.380649e-23  # J / K
    m_e: float = 9.109383702e-31  # kg
    e: float = 1.602176634e-19  # C

    @property
    def Q0(self) -> float:
        """Mass-weighted-position unit m_u * a0 (kg m)."""
        return self.m_u * self.a0

    @property
    def P0(self) -> float:
        """Momentum unit hbar / (2 a0) (kg m / s)."""
        return self.hbar / (2.0 * self.a0)

    @property
    def J0(self) -> float:
        """Angular-momentum unit (Q0 / m_u) * P0 = hbar / 2 (J s)."""
        return self.hbar / 2.0


_CODATA = PhysicalConstants()


def constants() -> PhysicalConstants:
    """The one constants record that every formula in the package reads."""
    return _CODATA


def extensive_size(qfi_value: float, unit: float) -> float:
    """N_ext = F / (4 A0^2) for a QFI carrying units of A^2."""
    require_positive(unit=unit)
    require_nonnegative(qfi_value=qfi_value)
    return qfi_value / (4.0 * unit * unit)


@dataclass(frozen=True)
class PartitionedObservable:
    """An extensive observable ``total`` together with its local addends.

    Build it with ``from_locals``, the one check of a partition.  A local is
    either a square Hermitian matrix or a 1-D real, finite array: the
    diagonal of an observable that is diagonal in the computational basis.
    All locals share one shape, so a partition is wholly dense or wholly
    diagonal, and ``total`` is their sum.  Diagonal locals live in one
    C-contiguous (n, d) float block, and ``locals_`` holds its row views.
    Functions that take a partition rely on these invariants and do not
    check them again.
    """

    total: np.ndarray
    locals_: tuple
    partition_label: str = ""

    @classmethod
    def from_locals(cls, locals_: Sequence[np.ndarray] | np.ndarray, label: str = ""):
        """Check a partition; a 2-D array is a block of diagonal locals, one per row.

        1-D locals given as a sequence are stacked into such a block, which
        is checked once and used as given when it is already C-contiguous
        and float.
        """
        if isinstance(locals_, np.ndarray) and locals_.ndim == 2:
            return cls._from_block(locals_, label)
        locals_ = [np.asarray(a) for a in locals_]
        shapes = sorted({a.shape for a in locals_})
        if len(shapes) == 1 and len(shapes[0]) == 1:
            return cls._from_block(np.stack(locals_), label)
        # Dense locals, or locals that share no one shape.
        locals_ = tuple(
            _checked_diagonals(a) if a.ndim == 1
            else quantum.require_hermitian(a, "local observable")
            for a in locals_
        )
        if not locals_:
            raise DomainError("partition needs at least one local observable")
        if len(shapes) > 1:
            raise DomainError(f"local observables differ in shape: {shapes}")
        return cls(total=_summed(locals_), locals_=locals_, partition_label=label)

    @classmethod
    def _from_block(cls, block: np.ndarray, label: str):
        if not len(block):
            raise DomainError("partition needs at least one local observable")
        block = _checked_diagonals(block)
        return cls(total=_summed(block), locals_=tuple(block), partition_label=label)

    @property
    def diagonal(self) -> bool:
        """True when the locals are 1-D diagonals rather than matrices."""
        return self.total.ndim == 1


def _checked_diagonals(diagonals: np.ndarray) -> np.ndarray:
    """``diagonals`` as a C-contiguous float array, if real and finite.

    NaN and +-inf show in the minimum or the maximum, so two reductions
    check the whole array with no temporary.
    """
    if np.iscomplexobj(diagonals) or (
        diagonals.size
        and not (math.isfinite(diagonals.min()) and math.isfinite(diagonals.max()))
    ):
        raise DomainError("a diagonal local observable must be real and finite")
    return np.ascontiguousarray(diagonals, dtype=float)


def _summed(locals_) -> np.ndarray:
    """The sum of the locals, added in order into a copy of the first.

    A running sum, not np.sum of the stacked locals, which would hold a
    second copy of all of them; both add in the same order.
    """
    total = locals_[0].copy()
    for a in locals_[1:]:
        total += a
    return total


def witness_depth(n_ent: float) -> int:
    """Entanglement depth witnessed by an entangled-size value: ceil(n_ent).

    A value above k rules out k-producibility, so the certified depth is
    the smallest integer not below the value.
    """
    require_nonnegative(n_ent=n_ent)
    return int(math.ceil(n_ent - 1e-12))


@dataclass(frozen=True)
class SizeReport:
    """Extensive and entangled sizes for one system, with the inputs echoed."""

    n_ext: float
    n_ent: float
    n_ext_momentum: float | None = None
    n_ent_momentum: float | None = None
    inputs: Mapping = field(default_factory=dict)

    @property
    def witness_depth(self) -> int:
        return witness_depth(self.n_ent)


def _qfi_and_variances(state: np.ndarray, observable: PartitionedObservable):
    """QFI of the total and the local variances, from one check of the state.

    ``state`` is a density matrix or, if 1-D, a pure state vector of the
    observable's dimension.  A vector with diagonal locals needs only its
    populations p = |psi|^2: Var(a) = sum p (a - <a>)^2 and QFI 4 Var(total).
    With dense locals a vector is the pure state whose psi is the one
    ``quantum.density`` reads off |psi><psi|, rho[:, k] / sqrt(rho_kk) with
    k the largest population, formed without the d x d matrix.  A density
    matrix takes one ``quantum.density``.  ``fisher``'s cores take the
    total and locals as ``from_locals`` checked them.
    """
    state = np.asarray(state)
    if state.shape[:1] != observable.total.shape[:1]:
        raise DomainError(
            f"dimension mismatch: state {state.shape} vs observable {observable.total.shape}"
        )
    if state.ndim == 1:
        populations = quantum.populations(state)
        if observable.diagonal:
            return _diagonal_qfi_and_variances(populations, observable)
        # rho's diagonal and its column k, rounded as np.outer rounds them.
        k = int(np.argmax((state * state.conj()).real))
        column = np.asarray(state * state[k].conj(), dtype=complex)
        density = quantum._pure_density(column / math.sqrt(column[k].real))
    else:
        density = quantum.density(state)
    total_qfi = fisher._qfi(density, observable.total).value
    return total_qfi, [fisher._state_variance(density, a) for a in observable.locals_]


def _diagonal_qfi_and_variances(p: np.ndarray, observable: PartitionedObservable):
    """4 Var(total) and the local variances of diagonal observables under p."""

    def variance(a):
        return float(np.dot(p, (a - np.dot(p, a)) ** 2))

    return 4.0 * variance(observable.total), [variance(a) for a in observable.locals_]


def entangled_size(rho: np.ndarray, observable: PartitionedObservable) -> float:
    """N_ent = F(rho, A) / (4 sum_i Var(rho, A_i)) for a partitioned observable.

    ``rho`` is a density matrix or a pure state vector.
    """
    return entangled_size_from_values(*_qfi_and_variances(rho, observable))


def entangled_size_from_values(
    qfi_value: float, local_variances: Sequence[float]
) -> float:
    """Closed-form entangled size from a QFI value and local variances."""
    if not len(local_variances):
        raise DomainError("partition needs at least one local variance")
    if not (math.isfinite(qfi_value) and np.all(np.isfinite(local_variances))):
        raise DomainError("the QFI and the local variances must be finite")
    denom = 4.0 * float(np.sum(local_variances))
    if not denom > 0.0:
        if qfi_value <= 1e-12:
            raise DomainError(
                "incoherent-local: all local variances vanish and the QFI is zero"
            )
        raise DomainError(
            "incoherent-local: local variances sum to zero but the QFI does not"
        )
    return qfi_value / denom


def two_branch_entangled_size(n: float, branch_ratio: float) -> float:
    """Entangled size N r^2 / (1 + r^2) of an N-body two-branch superposition.

    ``branch_ratio`` is the per-particle branch separation over the
    per-branch spread; the value grows monotonically to N, reached at r = inf.
    """
    if not (math.isfinite(n) and n >= 1):
        raise DomainError(f"particle count must be finite and >= 1, got {n}")
    if branch_ratio == math.inf:
        return float(n)
    require_nonnegative(branch_ratio=branch_ratio)
    r2 = branch_ratio * branch_ratio
    return float(n) * r2 / (1.0 + r2)


def size_report_for_state(
    rho: np.ndarray, observable: PartitionedObservable
) -> SizeReport:
    """Compute both measures for an explicit state and partitioned observable.

    ``rho`` is a density matrix or a pure state vector.  The extensive size
    is in units of the observable itself (A0 = 1).
    """
    total_qfi, local_vars = _qfi_and_variances(rho, observable)
    n_ext = extensive_size(total_qfi, 1.0)
    n_ent = entangled_size_from_values(total_qfi, local_vars)
    return SizeReport(
        n_ext=n_ext,
        n_ent=n_ent,
        inputs={"qfi": total_qfi, "partition": observable.partition_label},
    )


__all__ = [
    "PhysicalConstants",
    "constants",
    "extensive_size",
    "PartitionedObservable",
    "witness_depth",
    "SizeReport",
    "entangled_size",
    "entangled_size_from_values",
    "two_branch_entangled_size",
    "size_report_for_state",
]
