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
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, require_nonnegative, require_positive
from .measures import SizeReport, constants

# First zero of the Bessel function J0; the drum fundamental J0(b01 r / R)
# has mode volume pi R^2 t J1(b01)^2 ~ 0.2695 V.
BESSEL_J0_FIRST_ZERO = 2.404825557696
# J1(BESSEL_J0_FIRST_ZERO)**2, as scipy.special.j1 gives it, so that no
# closed-form size needs scipy at import time.
CIRCULAR_DRUM_VOLUME_FRACTION = 0.269514123941866

# Thermal single-atom rms displacements (m) at room temperature; the
# default is used when no material value is supplied.
DELTA_U_PRESETS: Mapping[str, float] = {
    "Al": 1.7e-11,
    "SiO2": 2.5e-11,
    "Si3N4": 2.0e-11,
    "sapphire": 6.5e-12,
}
DELTA_U_DEFAULT = 1.0e-11


def _disc_quadrature(dims: Mapping[str, float], rtol: float) -> float:
    from scipy import integrate
    from scipy.special import j0

    radius = dims["radius"]
    integrand = lambda r: j0(BESSEL_J0_FIRST_ZERO * r / radius) ** 2 * 2.0 * r
    return integrate.quad(integrand, 0.0, radius, epsrel=rtol)[0] / radius**2


def _square_quadrature(dims: Mapping[str, float], rtol: float) -> float:
    from scipy import integrate

    side = dims["side"]

    def integrand(y, x):
        return (math.sin(math.pi * x / side) * math.sin(math.pi * y / side)) ** 2

    return integrate.dblquad(integrand, 0.0, side, 0.0, side, epsrel=rtol)[0] / side**2


class Shape(NamedTuple):
    """Dimension keys, volume formula and fundamental-mode volume fraction.

    ``volume`` takes the dimension keys as keyword arguments.
    ``quadrature(dimensions, rtol)`` integrates the fundamental mode's w^2
    numerically (scipy, imported on that call only); None where w is constant.
    """

    keys: tuple[str, ...]
    volume: Callable[..., float]
    fundamental_fraction: float
    quadrature: Callable[[Mapping[str, float], float], float] | None = None


# The one declaration of each body shape.  Inhomogeneous bodies (torus,
# uniform) are handled with a constant mode function.
SHAPES: Mapping[str, Shape] = {
    "circular-drum": Shape(
        ("radius", "thickness"),
        lambda radius, thickness: math.pi * radius**2 * thickness,
        CIRCULAR_DRUM_VOLUME_FRACTION,
        _disc_quadrature,
    ),
    "square-drum": Shape(
        ("side", "thickness"),
        lambda side, thickness: side**2 * thickness,
        0.25,
        _square_quadrature,
    ),
    "torus": Shape(
        ("minor_radius", "major_radius"),
        lambda minor_radius, major_radius: 2.0 * math.pi**2 * minor_radius**2 * major_radius,
        1.0,
    ),
    "uniform": Shape(("volume",), lambda volume: volume, 1.0),
}


@dataclass(frozen=True)
class ModeGeometry:
    """Shape, dimensions (exactly ``SHAPES[shape].keys``), density and mean atomic mass."""

    shape: str
    dimensions: Mapping[str, float]
    density: float
    mean_atomic_mass: float

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise DomainError(
                f"unknown geometry shape {self.shape!r}; choose from {sorted(SHAPES)}"
            )
        keys = SHAPES[self.shape].keys
        if set(self.dimensions) != set(keys):
            raise DomainError(
                f"{self.shape} takes dimensions {list(keys)}, got {sorted(self.dimensions)}"
            )
        require_positive(
            density=self.density, mean_atomic_mass=self.mean_atomic_mass, **self.dimensions
        )

    @property
    def volume(self) -> float:
        return SHAPES[self.shape].volume(**self.dimensions)

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


@dataclass(frozen=True)
class OscillatorMode:
    """Effective mass, spread and particle number of one vibrational mode.

    ``zero_point`` is None for a mode built without a frequency, which has no sizes.
    """

    mode_mass: float
    zero_point: float | None
    mode_particle_number: float = 1.0
    omega: float | None = None
    mode_volume: float | None = None

    def __post_init__(self):
        require_positive(
            mode_mass=self.mode_mass, mode_particle_number=self.mode_particle_number
        )
        if self.zero_point is not None:
            require_positive(zero_point=self.zero_point)

    @classmethod
    def from_mass_and_omega(
        cls,
        mode_mass: float,
        omega: float,
        mode_particle_number: float = 1.0,
        mode_volume: float | None = None,
    ) -> "OscillatorMode":
        require_positive(mode_mass=mode_mass, omega=omega)
        zp = math.sqrt(constants().hbar / (2.0 * mode_mass * omega))
        return cls(mode_mass, zp, mode_particle_number, omega, mode_volume)


def _quadrature_volume_fraction(geometry: ModeGeometry, rtol: float = 1e-6) -> float:
    """Integrate w^2 over the footprint numerically (fundamental modes)."""
    quadrature = SHAPES[geometry.shape].quadrature
    if quadrature is None:
        raise DomainError(f"no quadrature route for shape {geometry.shape!r}")
    return quadrature(geometry.dimensions, rtol)


def mode_volume(
    geometry: ModeGeometry,
    mode: str = "fundamental",
    omega: float | None = None,
    *,
    numerical: bool = False,
) -> OscillatorMode:
    """Mode volume, mass and particle number for a geometry and mode shape.

    ``mode`` is ``"fundamental"`` or ``"uniform"``.  ``numerical=True``
    cross-checks closed forms by adaptive quadrature (scipy, imported on
    that call only).
    """
    volume = geometry.volume
    if mode == "uniform":
        fraction = 1.0
    elif mode == "fundamental":
        fraction = (
            _quadrature_volume_fraction(geometry)
            if numerical
            else SHAPES[geometry.shape].fundamental_fraction
        )
    else:
        raise DomainError(f"unknown mode {mode!r}")

    v_k = fraction * volume
    m_k = geometry.density * v_k
    n_k = geometry.atom_count * fraction
    if omega is not None:
        return OscillatorMode.from_mass_and_omega(m_k, omega, n_k, v_k)
    return OscillatorMode(m_k, None, n_k, None, v_k)


def _zero_point(mode: OscillatorMode) -> float:
    if mode.zero_point is None:
        raise DomainError("the mode has no zero-point spread; give its frequency (omega)")
    return mode.zero_point


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
    zero_point = _zero_point(mode)
    require_positive(delta_u=delta_u)
    require_nonnegative(nbar=nbar)
    denom = 2.0 * nbar + 1.0
    n_ext_q = (mode.mode_mass * zero_point / c.Q0) ** 2 / denom
    n_ext_p = (c.a0 / zero_point) ** 2 / denom
    ratio = (zero_point / delta_u) ** 2
    n_ent_q = mode.mode_particle_number * ratio / denom
    n_ent_p = 1.0 / (denom * mode.mode_particle_number * ratio)
    return SizeReport(
        n_ext=n_ext_q,
        n_ent=n_ent_q,
        n_ext_momentum=n_ext_p,
        n_ent_momentum=n_ent_p,
        inputs={
            "mode_mass": mode.mode_mass,
            "zero_point": zero_point,
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
    zero_point = _zero_point(mode)
    require_nonnegative(fhat=fhat)
    require_positive(vacuum_reference=vacuum_reference, delta_u=delta_u)
    scale = fhat / vacuum_reference
    n_ext = (mode.mode_mass * zero_point / constants().Q0) ** 2 * scale
    n_ent = mode.mode_particle_number * scale * (zero_point / delta_u) ** 2
    return SizeReport(
        n_ext=n_ext,
        n_ent=n_ent,
        inputs={
            "mode_mass": mode.mode_mass,
            "zero_point": zero_point,
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
    if not (math.isfinite(n_osc) and n_osc >= 1 and int(n_osc) == n_osc):
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
    require_nonnegative(coherence_length=coherence_length)
    require_positive(mass=mass, delta_x_cm=delta_x_cm, atom_count=atom_count, delta_u=delta_u)
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
        require_nonnegative(temperature=temperature)
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
        if not np.all(omega > 0):
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
        require_nonnegative(addressed_qfi=addressed_qfi)
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
