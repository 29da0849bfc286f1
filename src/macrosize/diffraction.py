"""Macroscopicity bounds for grating interferometers.

A scanned third grating yields a sinusoidal normalized count
``n(s) = 1 + v sin(k s + phi)``; the binary-trial Fisher information of
passing/not passing the grating, evaluated at the lattice points
``k s = n pi``, lower-bounds the classical FI of the detected position
density, and in turn the position QFI at the diffraction grating via
``F >= (hbar t)^2 F_cl``.  From the QFI bound follow a coherence length
``chi = sqrt(F) / 2M`` and, with the geometric centre-of-mass spread,
the entangled size ``N (chi / dX_cm)^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, MacrosizeError
from .measures import SizeReport, constants, extensive_size


class FitError(MacrosizeError):
    """The fringe scan cannot be described by a sinusoid."""


@dataclass(frozen=True)
class TalbotLauSetup:
    """Geometry and statistics of a three-grating interferometer run."""

    mass: float  # kg
    n_atoms: float
    grating_period: float  # m
    open_fraction: float
    flight_time: float  # s, diffraction grating to detector
    source_g1: float  # m, source to first grating (L0)
    g1_g2: float  # m, first to second (diffraction) grating (L)
    visibility: float | None = None

    def __post_init__(self):
        if not 0.0 < self.open_fraction < 1.0:
            raise DomainError(
                f"open fraction must lie strictly in (0, 1), got {self.open_fraction}"
            )
        if self.visibility is not None and not 0.0 <= self.visibility <= 1.0:
            raise DomainError(f"visibility must lie in [0, 1], got {self.visibility}")
        for name in ("mass", "n_atoms", "grating_period", "flight_time", "source_g1", "g1_g2"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.grating_period


@dataclass(frozen=True)
class FringeScan:
    """Scanned-grating positions (m) and normalized counts (unit mean)."""

    positions: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.positions, dtype=float)
        n = np.asarray(self.counts, dtype=float)
        if s.ndim != 1 or s.shape != n.shape or s.size < 8:
            raise DomainError("scan needs >= 8 (position, count) pairs")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(n))):
            raise DomainError("scan positions and counts must be finite")
        object.__setattr__(self, "positions", s)
        object.__setattr__(self, "counts", n)
        mean = float(np.mean(n))
        if abs(mean - 1.0) > 0.05:
            raise DomainError(
                f"counts must be normalized to unit mean (got {mean:.4f}); "
                "use FringeScan.from_raw() first"
            )

    @classmethod
    def from_raw(cls, positions, raw_counts) -> "FringeScan":
        raw = np.asarray(raw_counts, dtype=float)
        if not np.all(np.isfinite(raw)):
            raise DomainError("scan positions and counts must be finite")
        with np.errstate(over="ignore"):
            mean = float(np.mean(raw))
        if not math.isfinite(mean) and raw.size:
            # The sum of finite counts overflowed: scale by the peak first.
            raw = raw / np.max(np.abs(raw))
            mean = float(np.mean(raw))
        if mean <= 0:
            raise DomainError("raw counts must have positive mean")
        return cls(np.asarray(positions, dtype=float), raw / mean)


def load_fringe_scan(path) -> FringeScan:
    """Read a 'fringe-scan v1' text file of `s n` pairs (SI meters, counts).

    Counts are normalized to unit mean on load.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except UnicodeDecodeError as exc:
        raise DomainError(f"scan file is not UTF-8 text: {exc}") from exc
    if not lines or lines[0] != "fringe-scan v1":
        raise DomainError("missing 'fringe-scan v1' header")
    pairs = []
    for i, line in enumerate(lines[1:]):
        fields = line.split()
        if len(fields) != 2:
            raise DomainError(f"scan line {i + 1} must hold 's n', got {line!r}")
        try:
            pairs.append((float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise DomainError(f"unparseable scan line {i + 1}: {line!r}") from exc
    if not pairs:
        raise DomainError("scan file holds no 's n' lines")
    s, n = np.array(pairs).T
    return FringeScan.from_raw(s, n)


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    wavenumber: float
    residual_rms: float


def _linear_fit_at_k(s: np.ndarray, n: np.ndarray, k: float):
    """Least squares for n(s) = c + a sin(ks) + b cos(ks) at fixed k.

    The free offset absorbs the bias of normalizing by the sample mean,
    so a noise-free sinusoid is recovered exactly.
    """
    design = np.column_stack([np.ones_like(s), np.sin(k * s), np.cos(k * s)])
    coeff, *_ = np.linalg.lstsq(design, n, rcond=None)
    resid = n - design @ coeff
    return coeff, float(np.sqrt(np.mean(resid**2)))


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Least-squares sinusoid fit 1 + v sin(ks + phi) to a fringe scan.

    The wavenumber is seeded from the dominant discrete spectral peak and
    refined by damped Gauss-Newton on the full model; the visibility is
    clamped to [0, 1].
    """
    s, n = scan.positions, scan.counts
    span = float(s.max() - s.min())
    if span <= 0:
        raise DomainError("scan positions are degenerate")

    # Spectral seed.  Scans are expected on a near-uniform grid; fall back
    # to a dense k-scan otherwise.
    steps = np.diff(np.sort(s))
    uniform = steps.max() - steps.min() <= 1e-6 * steps.mean()
    if uniform:
        order = np.argsort(s)
        spectrum = np.abs(np.fft.rfft(n[order] - 1.0))
        freqs = 2.0 * math.pi * np.fft.rfftfreq(s.size, d=float(steps.mean()))
        peak = int(np.argmax(spectrum[1:])) + 1
        k_seed = float(freqs[peak])
    else:
        candidates = np.linspace(2.0 * math.pi / span, math.pi / steps.min(), 512)
        rms = [_linear_fit_at_k(s, n, k)[1] for k in candidates]
        k_seed = float(candidates[int(np.argmin(rms))])
    if k_seed <= 0:
        k_seed = 2.0 * math.pi / span
    if span * k_seed < 2.0 * math.pi:
        k_seed = 2.0 * math.pi / span

    # Gauss-Newton on k with (a, b) re-solved exactly at each step and
    # step halving when the residual would grow.
    k = k_seed
    coeff, rms = _linear_fit_at_k(s, n, k)
    for _ in range(200):
        c, a, b = coeff
        resid = n - c - a * np.sin(k * s) - b * np.cos(k * s)
        jac = a * s * np.cos(k * s) - b * s * np.sin(k * s)
        denom = float(jac @ jac)
        if denom == 0.0:
            break
        step = float(jac @ resid) / denom
        improved = False
        for _halving in range(20):
            new_k = k + step
            if new_k > 0:
                new_coeff, new_rms = _linear_fit_at_k(s, n, new_k)
                if new_rms <= rms:
                    k, coeff, rms = new_k, new_coeff, new_rms
                    improved = True
                    break
            step *= 0.5
        if not improved or abs(step) < 1e-14 * k:
            break
    c, a, b = coeff
    if c <= 0:
        raise FitError("fitted fringe offset is not positive")
    visibility = min(1.0, float(np.hypot(a, b) / c))
    if rms > 0.2:
        raise FitError(f"non-sinusoidal scan: residual rms {rms:.3f} > 0.2")
    return FringeFit(visibility, k, rms)


def fi_bound(open_fraction: float, visibility: float, wavenumber: float) -> float:
    """Classical-FI lower bound <g> v^2 k^2 / (1 - <g>) at lattice points ks = n pi."""
    if not 0.0 < open_fraction < 1.0:
        raise DomainError(
            f"open fraction must lie strictly in (0, 1), got {open_fraction}"
        )
    if visibility < 0 or wavenumber <= 0:
        raise DomainError("visibility must be >= 0 and wavenumber positive")
    return (
        open_fraction
        / (1.0 - open_fraction)
        * (visibility * wavenumber) ** 2
    )


def qfi_bound(fi_classical: float, flight_time: float) -> float:
    """Position-QFI lower bound (hbar t)^2 * F_cl (kg^2 m^2)."""
    if flight_time <= 0:
        raise DomainError(f"flight time must be positive, got {flight_time}")
    if fi_classical < 0:
        raise DomainError(f"classical FI must be >= 0, got {fi_classical}")
    return (constants().hbar * flight_time) ** 2 * fi_classical


def coherence_length(qfi_value: float, mass: float) -> float:
    """Effective coherence length chi = sqrt(F) / (2 M)."""
    if mass <= 0:
        raise DomainError(f"mass must be positive, got {mass}")
    if qfi_value < 0:
        raise DomainError(f"QFI must be >= 0, got {qfi_value}")
    return math.sqrt(qfi_value) / (2.0 * mass)


def cm_spread(setup: TalbotLauSetup) -> tuple[float, float]:
    """CM spreads (dX1, dX2) at the first two gratings.

    A single slit of width w = <g> lambda transmits an approximately
    uniform distribution with dX1 = w / sqrt(3); ballistic flight magnifies
    it to dX2 = dX1 (1 + L / L0).
    """
    w = setup.open_fraction * setup.grating_period
    dx1 = w / math.sqrt(3.0)
    dx2 = dx1 * (1.0 + setup.g1_g2 / setup.source_g1)
    return dx1, dx2


def diffraction_sizes(
    setup: TalbotLauSetup,
    scan: FringeScan | None = None,
    visibility: float | None = None,
) -> SizeReport:
    """Full chain: fringe statistics -> QFI bound -> sizes.

    Visibility and wavenumber come from a fitted ``scan`` when given;
    otherwise the visibility is the explicit argument or the setup's, and
    the wavenumber is the grating's.  All outputs are lower bounds.
    """
    if scan is not None:
        fit = fit_fringe(scan)
        visibility = fit.visibility
        wavenumber = fit.wavenumber
    else:
        visibility = setup.visibility if visibility is None else visibility
        wavenumber = setup.wavenumber
        if visibility is None:
            raise DomainError("need a fringe scan or an explicit visibility")
    fi_cl = fi_bound(setup.open_fraction, visibility, wavenumber)
    f_q = qfi_bound(fi_cl, setup.flight_time)
    chi = coherence_length(f_q, setup.mass)
    _dx1, dx2 = cm_spread(setup)
    n_ext = extensive_size(f_q, constants().Q0)
    n_ent = setup.n_atoms * (chi / dx2) ** 2
    return SizeReport(
        n_ext=n_ext,
        n_ent=n_ent,
        inputs={
            "visibility": visibility,
            "wavenumber": wavenumber,
            "fi_classical": fi_cl,
            "qfi_bound": f_q,
            "coherence_length": chi,
            "delta_x_cm": dx2,
            "n_atoms": setup.n_atoms,
            "flight_time": setup.flight_time,
        },
    )
