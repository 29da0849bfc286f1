"""Vibrational-mode geometry and closed-form oscillator sizes.

A mode of a solid oscillator is summarized by its mode volume ``V_k``
(the integral of the squared mode function, normalized to unit peak
amplitude), effective mass ``M_k = density * V_k``, particle number
``N_k = N V_k / V`` and zero-point spread ``sqrt(hbar / 2 M_k omega)``.
Thermal closed forms then give both size measures directly; a 1-D chain
model provides an exact brute-force check of the continuum partition
formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import integrate
from scipy.special import j0, j1

from .errors import DomainError
from .measures import SizeReport, constants

# First zero of the Bessel function J0; the drum fundamental J0(b01 r / R)
# has mode volume pi R^2 t J1(b01)^2 ~ 0.2695 V.
BESSEL_J0_FIRST_ZERO = 2.404825557696

# Thermal single-atom rms displacements (m) at room temperature; the
# default is used when no material value is supplied.
DELTA_U_PRESETS: Mapping[str, float] = {
    "Al": 1.7e-11,
    "SiO2": 2.5e-11,
    "Si3N4": 2.0e-11,
    "sapphire": 6.5e-12,
}
DELTA_U_DEFAULT = 1.0e-11


@dataclass(frozen=True)
class ModeGeometry:
    """Shape, density and mean atomic mass of an oscillating body."""

    shape: str
    dimensions: Mapping[str, float]
    density: float
    mean_atomic_mass: float

    def __post_init__(self):
        if self.density <= 0:
            raise DomainError(f"density must be positive, got {self.density}")
        if self.mean_atomic_mass <= 0:
            raise DomainError(
                f"mean atomic mass must be positive, got {self.mean_atomic_mass}"
            )
        for key, value in self.dimensions.items():
            if value <= 0:
                raise DomainError(f"{self.shape} dimension {key} must be positive")

    @property
    def volume(self) -> float:
        d = self.dimensions
        if self.shape == "circular-drum":
            return math.pi * d["radius"] ** 2 * d["thickness"]
        if self.shape == "square-drum":
            return d["side"] ** 2 * d["thickness"]
        if self.shape == "uniform":
            return d["volume"]
        if self.shape == "torus":
            return 2.0 * math.pi**2 * d["minor_radius"] ** 2 * d["major_radius"]
        raise DomainError(f"unknown geometry shape {self.shape!r}")

    @property
    def total_mass(self) -> float:
        return self.density * self.volume

    @property
    def atom_count(self) -> float:
        return self.total_mass / self.mean_atomic_mass


def circular_drum(radius, thickness, density, mean_atomic_mass) -> ModeGeometry:
    return ModeGeometry(
        "circular-drum",
        {"radius": radius, "thickness": thickness},
        density,
        mean_atomic_mass,
    )


def square_drum(side, thickness, density, mean_atomic_mass) -> ModeGeometry:
    return ModeGeometry(
        "square-drum", {"side": side, "thickness": thickness}, density, mean_atomic_mass
    )


def uniform_body(volume, density, mean_atomic_mass) -> ModeGeometry:
    return ModeGeometry("uniform", {"volume": volume}, density, mean_atomic_mass)


def torus_body(minor_radius, major_radius, density, mean_atomic_mass) -> ModeGeometry:
    return ModeGeometry(
        "torus",
        {"minor_radius": minor_radius, "major_radius": major_radius},
        density,
        mean_atomic_mass,
    )


@dataclass(frozen=True)
class OscillatorMode:
    """Effective mass, spread and particle number of one vibrational mode."""

    mode_mass: float
    zero_point: float
    mode_particle_number: float = 1.0
    omega: float | None = None
    mode_volume: float | None = None

    def __post_init__(self):
        if self.mode_mass <= 0:
            raise DomainError(f"mode mass must be positive, got {self.mode_mass}")
        if self.zero_point <= 0:
            raise DomainError(f"zero-point spread must be positive, got {self.zero_point}")
        if self.mode_particle_number <= 0:
            raise DomainError("mode particle number must be positive")

    @classmethod
    def from_mass_and_omega(
        cls,
        mode_mass: float,
        omega: float,
        mode_particle_number: float = 1.0,
        mode_volume: float | None = None,
    ) -> "OscillatorMode":
        if omega <= 0:
            raise DomainError(f"frequency must be positive, got {omega}")
        zp = math.sqrt(constants().hbar / (2.0 * mode_mass * omega))
        return cls(mode_mass, zp, mode_particle_number, omega, mode_volume)


def _fundamental_volume_fraction(geometry: ModeGeometry) -> float:
    if geometry.shape == "circular-drum":
        return float(j1(BESSEL_J0_FIRST_ZERO) ** 2)
    if geometry.shape == "square-drum":
        return 0.25
    if geometry.shape in ("uniform", "torus"):
        # Inhomogeneous bodies are handled with a constant mode function.
        return 1.0
    raise DomainError(f"no fundamental mode formula for shape {geometry.shape!r}")


def _quadrature_volume_fraction(geometry: ModeGeometry, rtol: float = 1e-6) -> float:
    """Integrate w^2 over the footprint numerically (fundamental modes)."""
    if geometry.shape == "circular-drum":
        radius = geometry.dimensions["radius"]
        integrand = lambda r: j0(BESSEL_J0_FIRST_ZERO * r / radius) ** 2 * 2.0 * r
        value, _ = integrate.quad(integrand, 0.0, radius, epsrel=rtol)
        return value / radius**2
    if geometry.shape == "square-drum":
        side = geometry.dimensions["side"]
        value, _ = integrate.dblquad(
            lambda y, x: (math.sin(math.pi * x / side) * math.sin(math.pi * y / side))
            ** 2,
            0.0,
            side,
            0.0,
            side,
            epsrel=rtol,
        )
        return value / side**2
    raise DomainError(f"no quadrature route for shape {geometry.shape!r}")


def mode_volume(
    geometry: ModeGeometry,
    mode: str | np.ndarray = "fundamental",
    omega: float | None = None,
    *,
    numerical: bool = False,
    grid_spacing: tuple[float, float] | None = None,
) -> OscillatorMode:
    """Mode volume, mass and particle number for a geometry and mode shape.

    ``mode`` is ``"fundamental"``, ``"uniform"``, or a 2-D array sampling a
    custom drum mode function (unit peak amplitude, spacing via
    ``grid_spacing``).  ``numerical=True`` cross-checks closed forms by
    adaptive quadrature.
    """
    volume = geometry.volume
    if isinstance(mode, str):
        if mode == "uniform":
            fraction = 1.0
        elif mode == "fundamental":
            fraction = (
                _quadrature_volume_fraction(geometry)
                if numerical
                else _fundamental_volume_fraction(geometry)
            )
        else:
            raise DomainError(f"unknown mode {mode!r}")
    else:
        w = np.asarray(mode, dtype=float)
        if w.ndim != 2:
            raise DomainError("custom mode grids must be 2-D")
        peak = float(np.max(np.abs(w)))
        if abs(peak - 1.0) > 1e-6:
            raise DomainError(
                f"custom mode must be normalized to unit peak, got max |w| = {peak!r}"
            )
        if grid_spacing is None:
            raise DomainError("custom mode grids need grid_spacing=(dx, dy)")
        dx, dy = grid_spacing
        if geometry.shape not in ("circular-drum", "square-drum"):
            raise DomainError("custom mode grids apply to drum geometries")
        thickness = geometry.dimensions["thickness"]
        area_integral = float(
            integrate.simpson(integrate.simpson(w**2, dx=dy, axis=1), dx=dx)
        )
        v_k = area_integral * thickness
        fraction = v_k / volume

    v_k = fraction * volume
    m_k = geometry.density * v_k
    n_k = geometry.atom_count * fraction
    if omega is not None:
        return OscillatorMode.from_mass_and_omega(m_k, omega, n_k, v_k)
    # Without a frequency the zero-point spread is undefined; use a sentinel
    # only through from_mass_and_omega.  Here we require omega for sizes.
    return OscillatorMode(
        mode_mass=m_k,
        zero_point=float("nan"),
        mode_particle_number=n_k,
        omega=None,
        mode_volume=v_k,
    )


def thermal_sizes(
    mode: OscillatorMode,
    nbar: float,
    delta_u: float = DELTA_U_DEFAULT,
) -> SizeReport:
    """Extensive and entangled sizes of a thermal mode, both quadratures.

    Positions: N_ext = (M_k dX_zp / Q0)^2 / (2 nbar + 1) and
    N_ent = N_k (dX_zp / du)^2 / (2 nbar + 1).  The momentum entangled
    size (typically negligible) uses the reciprocal spread ratio.
    """
    c = constants()
    if delta_u <= 0:
        raise DomainError(f"single-atom spread must be positive, got {delta_u}")
    if nbar < 0:
        raise DomainError(f"mean occupation must be >= 0, got {nbar}")
    denom = 2.0 * nbar + 1.0
    n_ext_q = (mode.mode_mass * mode.zero_point / c.Q0) ** 2 / denom
    n_ext_p = (c.a0 / mode.zero_point) ** 2 / denom
    ratio = (mode.zero_point / delta_u) ** 2
    n_ent_q = mode.mode_particle_number * ratio / denom
    n_ent_p = 1.0 / (denom * mode.mode_particle_number * ratio)
    return SizeReport(
        n_ext=n_ext_q,
        n_ent=n_ent_q,
        n_ext_momentum=n_ext_p,
        n_ent_momentum=n_ent_p,
        inputs={
            "mode_mass": mode.mode_mass,
            "zero_point": mode.zero_point,
            "nbar": nbar,
            "delta_u": delta_u,
            "mode_particle_number": mode.mode_particle_number,
        },
    )


def measured_qfi_sizes(
    mode: OscillatorMode,
    fhat: float,
    delta_u: float = DELTA_U_DEFAULT,
    vacuum_reference: float = 2.0,
) -> SizeReport:
    """Sizes from a dimensionless measured QFI value.

    ``fhat`` is the QFI of a dimensionless quadrature whose ground-state
    value is ``vacuum_reference`` (2.0 for quadratures with vacuum variance
    1/2, 4.0 when the quadrature is scaled by the zero-point spread).  The
    normalization is fixed so that ``fhat == vacuum_reference`` reproduces
    the thermal closed forms at nbar = 0.
    """
    if fhat < 0:
        raise DomainError(f"dimensionless QFI must be >= 0, got {fhat}")
    if vacuum_reference <= 0:
        raise DomainError("vacuum reference must be positive")
    scale = fhat / vacuum_reference
    n_ext = (mode.mode_mass * mode.zero_point / constants().Q0) ** 2 * scale
    n_ent = mode.mode_particle_number * scale * (mode.zero_point / delta_u) ** 2
    return SizeReport(
        n_ext=n_ext,
        n_ent=n_ent,
        inputs={
            "mode_mass": mode.mode_mass,
            "zero_point": mode.zero_point,
            "fhat": fhat,
            "vacuum_reference": vacuum_reference,
            "delta_u": delta_u,
        },
    )


def collective_scaling(base: SizeReport, n_osc: int) -> SizeReport:
    """Scale sizes for ``n_osc`` oscillators sharing a collective mode.

    The collective mode multiplies the extensive size by n_osc^2 and the
    entangled size by n_osc; fully independent oscillators would instead
    give (x n_osc, x 1), reported alongside for comparison.
    """
    if n_osc < 1 or int(n_osc) != n_osc:
        raise DomainError(f"oscillator count must be a positive integer, got {n_osc}")
    n_osc = int(n_osc)
    inputs = dict(base.inputs)
    inputs["collective_oscillators"] = n_osc
    inputs["independent_n_ext"] = base.n_ext * n_osc
    inputs["independent_n_ent"] = base.n_ent
    return replace(
        base,
        n_ext=base.n_ext * n_osc**2,
        n_ent=base.n_ent * n_osc,
        inputs=inputs,
    )


def levitated_sizes(
    mass: float,
    coherence_length: float,
    delta_x_cm: float,
    atom_count: float,
    delta_u: float = DELTA_U_DEFAULT,
) -> SizeReport:
    """Sizes for a levitated particle whose addressed mode is the CM motion.

    The QFI is 4 chi^2 in the position coordinate, so N_ext = (M chi / Q0)^2;
    the single-particle variance is dominated by the CM spread, giving
    N_ent = N chi^2 / (dX_cm^2 + du^2).
    """
    for name, value in (
        ("mass", mass),
        ("coherence length", coherence_length),
        ("CM spread", delta_x_cm),
        ("atom count", atom_count),
        ("single-atom spread", delta_u),
    ):
        if value < 0 or (name != "coherence length" and value == 0):
            raise DomainError(f"{name} must be positive, got {value}")
    n_ext = (mass * coherence_length / constants().Q0) ** 2
    n_ent = (
        atom_count * coherence_length**2 / (delta_x_cm**2 + delta_u**2)
    )
    return SizeReport(
        n_ext=n_ext,
        n_ent=n_ent,
        inputs={
            "mass": mass,
            "coherence_length": coherence_length,
            "delta_x_cm": delta_x_cm,
            "atom_count": atom_count,
            "delta_u": delta_u,
        },
    )


# ---------------------------------------------------------------------------
# 1-D chain oracle for the continuum partition formula
# ---------------------------------------------------------------------------


class HarmonicChain:
    """Fixed-end 1-D chain with standing-wave modes sin(l pi r / L).

    Works in units hbar = k_B = 1 with unit atom mass and unit spacing, so
    the chain of ``n_atoms`` atoms has length ``n_atoms`` and total mass
    ``n_atoms``.  Mode ``l`` (1-based) has volume L/2 and effective mass
    M/2.  The exact sum of local variances over equal spatial regions is
    evaluated mode-by-mode with closed-form overlap integrals.
    """

    def __init__(
        self,
        n_atoms: int,
        omega_of_mode: Callable[[np.ndarray], np.ndarray] | Sequence[float],
        temperature: float = 0.0,
    ):
        if n_atoms < 2 or n_atoms > 2048:
            raise DomainError(f"atom count must be in [2, 2048], got {n_atoms}")
        if temperature < 0:
            raise DomainError(f"temperature must be >= 0, got {temperature}")
        self.n_atoms = int(n_atoms)
        self.length = float(n_atoms)
        self.total_mass = float(n_atoms)
        self.density = 1.0
        modes = np.arange(1, self.n_atoms + 1, dtype=float)
        if callable(omega_of_mode):
            omega = np.asarray(omega_of_mode(modes), dtype=float)
        else:
            omega = np.asarray(omega_of_mode, dtype=float)
        if omega.shape != modes.shape:
            raise DomainError(
                f"need {self.n_atoms} mode frequencies, got shape {omega.shape}"
            )
        if np.any(omega <= 0):
            raise DomainError("mode frequencies must be positive")
        self.omega = omega
        self.temperature = float(temperature)
        self.mode_volume_1d = self.length / 2.0
        self.mode_mass = self.density * self.mode_volume_1d
        # nu_l = hbar / (2 M_l omega_l): ground-state quadrature variances.
        self.nu = 1.0 / (2.0 * self.mode_mass * self.omega)
        self.nbar = self._occupation(self.omega, self.temperature)

    @staticmethod
    def _occupation(omega: np.ndarray, temperature: float) -> np.ndarray:
        if temperature == 0.0:
            return np.zeros_like(omega)
        ratio = omega / temperature
        nbar = np.zeros_like(omega)
        small = ratio < 700.0
        nbar[small] = 1.0 / np.expm1(ratio[small])
        if not np.all(np.isfinite(nbar)):
            raise DomainError("temperature produces non-finite occupation numbers")
        return nbar

    def zeta(self, addressed: int, n_regions: int) -> np.ndarray:
        """Overlap integrals of mode ``addressed`` with every mode per region.

        Returns shape ``(n_regions, n_modes)`` with entries
        integral_{R_i} sin(k pi r / L) sin(l pi r / L) dr, exactly.
        """
        k = self._check_mode(addressed)
        if n_regions < 1 or self.n_atoms % n_regions != 0:
            raise DomainError(
                f"region count must divide the atom count, got {n_regions}"
            )
        edges = np.linspace(0.0, self.length, n_regions + 1)
        ls = np.arange(1, self.n_atoms + 1, dtype=float)

        def antiderivative(r: np.ndarray) -> np.ndarray:
            # integral sin(k pi r/L) sin(l pi r/L) dr, distinct k != l and k == l.
            r = r[:, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                diff = (k - ls) * math.pi / self.length
                summ = (k + ls) * math.pi / self.length
                generic = 0.5 * (
                    np.where(diff != 0.0, np.sin(diff * r) / diff, r)
                    - np.sin(summ * r) / summ
                )
            return generic

        anti = antiderivative(edges)
        return anti[1:] - anti[:-1]

    def _check_mode(self, addressed: int) -> int:
        if not 1 <= addressed <= self.n_atoms:
            raise DomainError(
                f"addressed mode must be in [1, {self.n_atoms}], got {addressed}"
            )
        return int(addressed)

    def mode_quadrature_variances(
        self, addressed: int, addressed_variance: float | None = None
    ) -> np.ndarray:
        """Var(X_l) per mode; thermal everywhere except the addressed mode."""
        k = self._check_mode(addressed)
        variances = self.nu * (1.0 + 2.0 * self.nbar)
        if addressed_variance is not None:
            variances = variances.copy()
            variances[k - 1] = addressed_variance
        return variances

    def variance_sum(
        self,
        addressed: int,
        n_regions: int,
        addressed_variance: float | None = None,
    ) -> float:
        """Exact sum over regions of Var(rho, A_i) for A = Q_addressed.

        A_i = sum_l [zeta(i, k, l) / V_l] Q_l with the modes uncorrelated,
        so each region contributes sum_l zeta^2 M_l^2 Var(X_l) / V_l^2.
        """
        zeta = self.zeta(addressed, n_regions)
        variances = self.mode_quadrature_variances(addressed, addressed_variance)
        weights = (self.mode_mass / self.mode_volume_1d) ** 2 * variances
        return float(np.sum(zeta**2 @ weights))

    def single_atom_variance(self, addressed: int, addressed_variance=None) -> float:
        """Bulk-average single-atom position variance sum_l <w_l^2> Var(X_l)."""
        variances = self.mode_quadrature_variances(addressed, addressed_variance)
        return float(0.5 * np.sum(variances))

    def entangled_sizes(
        self,
        addressed: int,
        n_regions: int,
        addressed_variance: float,
        addressed_qfi: float,
    ) -> tuple[float, float]:
        """(exact, continuum) entangled size for the addressed-mode observable.

        ``addressed_variance`` and ``addressed_qfi`` describe the addressed
        mode's quadrature X_k; the extensive observable is Q_k = M_k X_k.
        """
        if addressed_qfi < 0:
            raise DomainError("addressed-mode QFI must be >= 0")
        qfi_q = self.mode_mass**2 * addressed_qfi
        exact = qfi_q / (
            4.0 * self.variance_sum(addressed, n_regions, addressed_variance)
        )
        n_k = self.n_atoms * self.mode_volume_1d / self.length
        du2 = self.single_atom_variance(addressed, addressed_variance)
        continuum = n_k * addressed_qfi / (4.0 * du2)
        return exact, continuum


def chain_oracle(
    n_atoms: int,
    omega_of_mode,
    temperature: float,
    n_regions: int,
    addressed: int = 1,
    addressed_variance: float | None = None,
    addressed_qfi: float | None = None,
) -> tuple[float, float]:
    """Exact vs continuum entangled size for a 1-D standing-wave chain.

    By default the addressed mode is thermal like the rest; supplying
    ``addressed_variance``/``addressed_qfi`` models a separately prepared
    mode state.  Returns ``(exact, continuum)`` for convergence checks.
    """
    chain = HarmonicChain(n_atoms, omega_of_mode, temperature)
    k = chain._check_mode(addressed)
    if addressed_variance is None:
        addressed_variance = float(chain.nu[k - 1] * (1.0 + 2.0 * chain.nbar[k - 1]))
    if addressed_qfi is None:
        # Thermal-mode QFI for the quadrature: 4 nu / (2 nbar + 1).
        addressed_qfi = float(4.0 * chain.nu[k - 1] / (1.0 + 2.0 * chain.nbar[k - 1]))
    return chain.entangled_sizes(k, n_regions, addressed_variance, addressed_qfi)
