"""Extensive size, entangled size, normalization units, and the depth witness.

Extensive size expresses a QFI value in atomic-scale units:
``N_ext = F / (4 A0^2)`` with ``Q0 = m_u a0`` for mass-weighted position and
``P0 = hbar / 2 a0`` for momentum.  Entangled size divides the QFI by four
times the sum of local variances over a partition; values above an integer
``k`` witness (k+1)-partite entanglement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fisher, quantum
from .errors import DomainError


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
    if unit <= 0:
        raise DomainError(f"normalization unit must be positive, got {unit}")
    if qfi_value < 0:
        raise DomainError(f"QFI must be >= 0, got {qfi_value}")
    return qfi_value / (4.0 * unit * unit)


@dataclass(frozen=True)
class PartitionedObservable:
    """An extensive observable ``total`` together with its local addends.

    Build it with ``from_locals``, the one check of a partition: every local
    is a square Hermitian matrix, all locals share one shape, and ``total``
    is their sum.  Functions that take a partition rely on these invariants
    and do not check them again.
    """

    total: np.ndarray
    locals_: tuple
    partition_label: str = ""

    @classmethod
    def from_locals(cls, locals_: Sequence[np.ndarray], label: str = ""):
        locals_ = tuple(quantum.require_hermitian(a, "local observable") for a in locals_)
        if not locals_:
            raise DomainError("partition needs at least one local observable")
        shapes = sorted({a.shape for a in locals_})
        if len(shapes) > 1:
            raise DomainError(f"local observables differ in shape: {shapes}")
        return cls(total=np.sum(locals_, axis=0), locals_=locals_, partition_label=label)


def witness_depth(n_ent: float) -> int:
    """Entanglement depth witnessed by an entangled-size value: ceil(n_ent).

    A value above k rules out k-producibility, so the certified depth is
    the smallest integer not below the value.
    """
    if n_ent < 0:
        raise DomainError(f"entangled size must be >= 0, got {n_ent}")
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


def _qfi_and_variances(rho: np.ndarray, observable: PartitionedObservable):
    """QFI of the total and the local variances, from one density check.

    ``fisher.qfi`` validates ``rho`` and its dimension against the total; the
    locals share that shape, so their variances need no second check.
    """
    total_qfi = fisher.qfi(rho, observable.total).value
    rho = np.asarray(rho, dtype=complex)
    return total_qfi, [fisher._variance(rho, a) for a in observable.locals_]


def entangled_size(rho: np.ndarray, observable: PartitionedObservable) -> float:
    """N_ent = F(rho, A) / (4 sum_i Var(rho, A_i)) for a partitioned observable."""
    return entangled_size_from_values(*_qfi_and_variances(rho, observable))


def entangled_size_from_values(
    qfi_value: float, local_variances: Sequence[float]
) -> float:
    """Closed-form entangled size from a QFI value and local variances."""
    if not len(local_variances):
        raise DomainError("partition needs at least one local variance")
    denom = 4.0 * float(np.sum(local_variances))
    if denom <= 0.0:
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
    per-branch spread; the value grows monotonically to N as it increases.
    """
    if n < 1:
        raise DomainError(f"particle count must be >= 1, got {n}")
    if branch_ratio < 0:
        raise DomainError(f"branch ratio must be >= 0, got {branch_ratio}")
    if math.isinf(branch_ratio):
        return float(n)
    r2 = branch_ratio * branch_ratio
    return float(n) * r2 / (1.0 + r2)


def size_report_for_state(
    rho: np.ndarray, observable: PartitionedObservable
) -> SizeReport:
    """Compute both measures for an explicit state and partitioned observable.

    The extensive size is in units of the observable itself (A0 = 1).
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
