import math

import numpy as np
import pytest

from macrosize import fisher, oscillator, quantum
from macrosize.errors import DomainError
from macrosize.measures import constants
from macrosize.oscillator import (
    DELTA_U_PRESETS,
    SHAPES,
    HarmonicChain,
    ModeGeometry,
    OscillatorMode,
    chain_oracle,
    circular_drum,
    mode_volume,
    square_drum,
)

C = constants()

TEUFEL = dict(density=2.71e3, mean_atomic_mass=27.0 * C.m_u)


def test_drum_fundamental_fraction_closed_form():
    geom = circular_drum(7.5e-6, 100e-9, **TEUFEL)
    mode = mode_volume(geom, "fundamental")
    assert mode.mode_volume / geom.volume == pytest.approx(0.2695, abs=1e-4)


def test_drum_fraction_literal_is_scipy_j1():
    from scipy.special import j1

    expected = float(j1(oscillator.BESSEL_J0_FIRST_ZERO) ** 2)
    assert oscillator.CIRCULAR_DRUM_VOLUME_FRACTION == expected


def test_drum_fraction_quadrature_agrees():
    geom = circular_drum(7.5e-6, 100e-9, **TEUFEL)
    closed = mode_volume(geom, "fundamental")
    numerical = mode_volume(geom, "fundamental", numerical=True)
    assert numerical.mode_volume == pytest.approx(closed.mode_volume, rel=1e-6)


def test_square_drum_quarter():
    geom = square_drum(1.7e-3, 50e-9, density=3.17e3, mean_atomic_mass=20.0 * C.m_u)
    mode = mode_volume(geom, "fundamental")
    assert mode.mode_volume / geom.volume == pytest.approx(0.25, abs=1e-12)
    numerical = mode_volume(geom, "fundamental", numerical=True)
    assert numerical.mode_volume == pytest.approx(mode.mode_volume, rel=1e-6)


def test_uniform_mode_full_volume():
    geom = ModeGeometry("uniform", {"volume": 1e-15}, 2.65e3, 20.0 * C.m_u)
    mode = mode_volume(geom, "uniform")
    assert mode.mode_volume == geom.volume
    assert mode.mode_mass == pytest.approx(geom.total_mass, rel=1e-12)


def test_mode_mass_never_exceeds_total():
    for geom in (
        circular_drum(7.5e-6, 100e-9, **TEUFEL),
        square_drum(1.7e-3, 50e-9, density=3.17e3, mean_atomic_mass=20.0 * C.m_u),
        ModeGeometry("uniform", {"volume": 1e-15}, 2.65e3, 20.0 * C.m_u),
    ):
        for kind in ("fundamental", "uniform"):
            mode = mode_volume(geom, kind)
            assert mode.mode_volume <= geom.volume * (1 + 1e-12)
            assert mode.mode_mass <= geom.total_mass * (1 + 1e-12)


@pytest.mark.parametrize(
    "shape, dims, closed_form",
    [
        ("circular-drum", {"radius": 7.5e-6, "thickness": 1e-7}, math.pi * 7.5e-6**2 * 1e-7),
        ("square-drum", {"side": 1.7e-3, "thickness": 5e-8}, 1.7e-3**2 * 5e-8),
        (
            "torus",
            {"minor_radius": 1e-6, "major_radius": 2e-5},
            2 * math.pi**2 * 1e-6**2 * 2e-5,
        ),
        ("uniform", {"volume": 1e-15}, 1e-15),
    ],
)
def test_shape_volume_is_closed_form(shape, dims, closed_form):
    assert set(dims) == set(SHAPES[shape].keys)
    assert ModeGeometry(shape, dims, **TEUFEL).volume == closed_form


@pytest.mark.parametrize(
    "shape, dims, message",
    [
        ("hexagon", {"side": 1e-6}, "unknown geometry shape 'hexagon'"),
        ("circular-drum", {"radius": 1.0}, "got \\['radius'\\]"),
        ("uniform", {"volume": 1e-15, "side": 1e-6}, "got \\['side', 'volume'\\]"),
    ],
    ids=["unknown-shape", "missing-key", "extra-key"],
)
def test_geometry_rejects_unknown_shape_and_keys(shape, dims, message):
    with pytest.raises(DomainError, match=message):
        ModeGeometry(shape, dims, **TEUFEL)


def test_quadrature_route_only_for_drums():
    torus = ModeGeometry("torus", {"minor_radius": 1e-6, "major_radius": 2e-5}, **TEUFEL)
    with pytest.raises(DomainError, match="no quadrature route"):
        mode_volume(torus, "fundamental", numerical=True)


def test_mode_volume_without_omega_has_no_zero_point():
    mode = mode_volume(circular_drum(7.5e-6, 1e-7, 2.71e3, 4.48e-26))
    assert mode.zero_point is None
    assert mode.mode_mass == pytest.approx(1.3e-14, rel=0.01)
    with pytest.raises(DomainError, match="give its frequency"):
        oscillator.thermal_sizes(mode, 0.34)
    with pytest.raises(DomainError, match="give its frequency"):
        oscillator.measured_qfi_sizes(mode, 2.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OscillatorMode(float("nan"), 1e-15), "^mode_mass must be finite and positive, got nan$"),
        (lambda: OscillatorMode(1e-14, float("inf")), "^zero_point must be"),
        (lambda: OscillatorMode(1e-14, 1e-15, float("nan")), "^mode_particle_number must be"),
        # Checked before the square root, which raised a bare ValueError.
        (lambda: OscillatorMode.from_mass_and_omega(-1.0, 1e6), "^mode_mass must be"),
        (lambda: OscillatorMode.from_mass_and_omega(1.0, float("inf")), "^omega must be"),
        (lambda: circular_drum(float("nan"), 1e-7, **TEUFEL), "^radius must be"),
        (lambda: square_drum(1e-3, 1e-7, 2.71e3, -1.0), "^mean_atomic_mass must be"),
        (
            lambda: oscillator.thermal_sizes(OscillatorMode(1e-14, 1e-15), float("nan")),
            "^nbar must be finite and >= 0, got nan$",
        ),
        (
            lambda: oscillator.measured_qfi_sizes(OscillatorMode(1e-14, 1e-15), 2.0, delta_u=0.0),
            "^delta_u must be",
        ),
        (lambda: oscillator.levitated_sizes(1e-18, float("inf"), 1e-10, 1e7), "^coherence_length must be"),
        (lambda: HarmonicChain(8, np.ones(8), float("nan")), "^temperature must be"),
        (lambda: HarmonicChain(8, np.full(8, np.nan)), "frequencies must be positive"),
    ],
    ids=[
        "nan-mass",
        "infinite-zero-point",
        "nan-particle-number",
        "negative-mass-with-omega",
        "infinite-omega",
        "nan-radius",
        "negative-atomic-mass",
        "nan-nbar",
        "zero-delta-u",
        "infinite-coherence-length",
        "nan-temperature",
        "nan-chain-frequencies",
    ],
)
def test_non_finite_and_non_positive_quantities_are_rejected(build, message):
    with pytest.raises(DomainError, match=message):
        build()


def test_levitated_sizes_accept_zero_coherence_length():
    assert oscillator.levitated_sizes(1e-18, 0.0, 1e-10, 1e7).n_ext == 0.0


def test_teufel_geometry_reproduces_mode_parameters():
    geom = circular_drum(7.5e-6, 100e-9, **TEUFEL)
    mode = mode_volume(geom, "fundamental", omega=2 * math.pi * 1.1e7)
    assert mode.mode_mass == pytest.approx(1.3e-14, rel=0.01)
    assert mode.mode_particle_number == pytest.approx(2.9e11, rel=0.01)
    assert mode.zero_point == pytest.approx(7.8e-15, rel=0.02)


def _thermal_qfi(mode, nbar):
    """(F_Q, F_P) of a thermal mode, read back from thermal_sizes: F = 4 A0^2 N_ext."""
    report = oscillator.thermal_sizes(mode, nbar)
    return 4.0 * C.Q0**2 * report.n_ext, 4.0 * C.P0**2 * report.n_ext_momentum


def test_thermal_qfi_ground_state():
    mode = OscillatorMode(mode_mass=1e-14, zero_point=1e-14)
    f_q, f_p = _thermal_qfi(mode, 0.0)
    assert f_q == pytest.approx(4.0 * (1e-14 * 1e-14) ** 2, rel=1e-12)
    assert f_p == pytest.approx(4.0 * (C.hbar / 2e-14) ** 2, rel=1e-12)


@pytest.mark.parametrize("nbar,dim", [(0.0, 60), (0.5, 60), (1.0, 60), (5.0, 102)])
def test_thermal_qfi_matches_spectral_oracle(nbar, dim):
    # Spectral check in oscillator units: Q = M x with Var(x)_vac = dX_zp^2.
    mode = OscillatorMode(mode_mass=1.0, zero_point=1.0, omega=C.hbar / 2.0)
    f_q, _f_p = _thermal_qfi(mode, nbar)
    rho = quantum.thermal_state(nbar, dim) if nbar > 0 else quantum.vacuum_state(dim)
    _a, x, _p = quantum.fock_operators(dim, nu=1.0)  # nu = dX_zp^2 = 1
    spectral = fisher.qfi(rho, x).value  # Q = M x with M = 1
    assert f_q == pytest.approx(spectral, rel=1e-6)


def test_thermal_qfi_momentum_matches_spectral_oracle():
    nbar, dim = 1.0, 60
    mode = OscillatorMode(mode_mass=1.0, zero_point=1.0)
    _f_q, f_p = _thermal_qfi(mode, nbar)
    rho = quantum.thermal_state(nbar, dim)
    # p = (hbar / 2 dX_zp) i (a+ - a) with dX_zp^2 = nu = 1.
    _a, _x, p = quantum.fock_operators(dim, nu=1.0, hbar=C.hbar)
    spectral = fisher.qfi(rho, p).value
    assert f_p == pytest.approx(spectral, rel=1e-6)
    assert spectral == pytest.approx(4.0 * (C.hbar / 2.0) ** 2 / (2 * nbar + 1), rel=1e-6)


def test_thermal_sizes_teufel_row():
    mode = OscillatorMode(
        mode_mass=1.3e-14, zero_point=7.8e-15, mode_particle_number=2.9e11
    )
    report = oscillator.thermal_sizes(mode, 0.34, DELTA_U_PRESETS["Al"])
    assert report.n_ext == pytest.approx(7.9e17, rel=0.10)
    assert report.n_ent == pytest.approx(3.7e4, rel=0.10)


def test_thermal_sizes_verhagen_row():
    mode = OscillatorMode(
        mode_mass=3.2e-12, zero_point=1.8e-16, mode_particle_number=9.8e13
    )
    report = oscillator.thermal_sizes(mode, 1.7, DELTA_U_PRESETS["SiO2"])
    assert report.n_ext == pytest.approx(1.0e19, rel=0.10)
    assert report.n_ent == pytest.approx(1.2e3, rel=0.10)


def test_sizes_scale_inverse_occupation():
    mode = OscillatorMode(mode_mass=1e-12, zero_point=1e-15, mode_particle_number=1e10)
    base = oscillator.thermal_sizes(mode, 0.0, 1e-11)
    for nbar in (0.5, 3.0, 40.0):
        report = oscillator.thermal_sizes(mode, nbar, 1e-11)
        factor = 2 * nbar + 1
        assert report.n_ext * factor == pytest.approx(base.n_ext, rel=1e-12)
        assert report.n_ent * factor == pytest.approx(base.n_ent, rel=1e-12)
        assert report.n_ext_momentum * factor == pytest.approx(
            base.n_ext_momentum, rel=1e-12
        )
    big = oscillator.thermal_sizes(mode, 1e9, 1e-11)
    assert big.n_ext < 1e-9 * base.n_ext


def test_measured_vacuum_consistent_with_thermal_ground():
    mode = OscillatorMode(
        mode_mass=1.3e-14, zero_point=7.8e-15, mode_particle_number=2.9e11
    )
    thermal = oscillator.thermal_sizes(mode, 0.0, 1.7e-11)
    measured = oscillator.measured_qfi_sizes(mode, 2.0, 1.7e-11)
    assert measured.n_ext == pytest.approx(thermal.n_ext, rel=1e-12)
    assert measured.n_ent == pytest.approx(thermal.n_ent, rel=1e-12)


def test_measured_squeezed_ratio():
    mode = OscillatorMode(mode_mass=1e-12, zero_point=1e-16, mode_particle_number=1e12)
    ground = oscillator.measured_qfi_sizes(mode, 2.0, 1e-11)
    squeezed = oscillator.measured_qfi_sizes(mode, 4.2, 1e-11)
    assert squeezed.n_ext / ground.n_ext == pytest.approx(2.1, rel=1e-12)


def test_measured_bild_row():
    mode = OscillatorMode(
        mode_mass=4.0e-9, zero_point=6.5e-19, mode_particle_number=1.2e17
    )
    report = oscillator.measured_qfi_sizes(
        mode, 7.0, DELTA_U_PRESETS["sapphire"], vacuum_reference=4.0
    )
    assert report.n_ext == pytest.approx(1.5e21, rel=0.10)
    assert report.n_ent == pytest.approx(2.0e3, rel=0.10)


def test_collective_scaling():
    mode = OscillatorMode(mode_mass=1e-12, zero_point=1e-15, mode_particle_number=1e10)
    base = oscillator.thermal_sizes(mode, 0.4, 1.7e-11)
    scaled = oscillator.collective_scaling(base, 6)
    assert scaled.n_ext == pytest.approx(36 * base.n_ext, rel=1e-12)
    assert scaled.n_ent == pytest.approx(6 * base.n_ent, rel=1e-12)
    assert scaled.inputs["independent_n_ext"] == pytest.approx(6 * base.n_ext)
    assert scaled.inputs["independent_n_ent"] == pytest.approx(base.n_ent)
    identity = oscillator.collective_scaling(base, 1)
    assert identity.n_ext == base.n_ext and identity.n_ent == base.n_ent
    for count in (0, -2, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError, match="oscillator count must be a positive integer"):
            oscillator.collective_scaling(base, count)


def test_levitated_rossi_row():
    report = oscillator.levitated_sizes(
        mass=1.2e-18,
        coherence_length=7.3e-11,
        delta_x_cm=1.2e-10,
        atom_count=3.6e7,
        delta_u=DELTA_U_PRESETS["SiO2"],
    )
    assert report.n_ext == pytest.approx(9.9e17, rel=0.10)
    assert report.n_ent == pytest.approx(1.3e7, rel=0.10)


def test_levitated_limits():
    tiny = oscillator.levitated_sizes(1e-18, 0.0, 1e-10, 1e7)
    assert tiny.n_ext == 0.0 and tiny.n_ent == 0.0
    # dX_cm >> du: N_ent ~ N (chi / dX_cm)^2
    rep = oscillator.levitated_sizes(1e-18, 5e-11, 1e-9, 1e7, delta_u=1e-12)
    assert rep.n_ent == pytest.approx(1e7 * (5e-11 / 1e-9) ** 2, rel=1e-3)


# ---------------------------------------------------------------------------
# chain oracle
# ---------------------------------------------------------------------------

def _omega(l):
    return 0.1 * np.asarray(l, dtype=float)


def test_chain_zeta_orthogonality():
    chain = HarmonicChain(32, _omega, 0.0)
    # Full-length "region" recovers the orthogonality integral.
    zeta = chain.zeta(3, 1)
    expected = np.zeros(32)
    expected[2] = chain.mode_volume_1d
    assert np.allclose(zeta[0], expected, atol=1e-10)


def test_chain_zero_temperature_denominator_is_zero_point_sum():
    chain = HarmonicChain(64, _omega, 0.0)
    vs = chain.variance_sum(2, 64, addressed_variance=float(chain.nu[1]))
    zeta = chain.zeta(2, 64)
    weights = (chain.mode_mass / chain.mode_volume_1d) ** 2 * chain.nu
    manual = float(np.sum(zeta**2 @ weights))
    assert vs == pytest.approx(manual, rel=1e-12)


def test_chain_exact_vs_continuum_single_excitation():
    # One quantum in mode 2, warm environment: regions (atoms) are far
    # smaller than every thermally excited wavelength.
    chain = HarmonicChain(64, _omega, 0.8)
    nu2 = float(chain.nu[1])
    exact, continuum = chain_oracle(
        64, _omega, 0.8, n_regions=64, addressed=2,
        addressed_variance=3 * nu2, addressed_qfi=12 * nu2,
    )
    assert exact == pytest.approx(continuum, rel=0.05)


def test_chain_exact_never_exceeds_region_count():
    for n_regions in (4, 8, 16, 64):
        exact, _ = chain_oracle(64, _omega, 0.8, n_regions=n_regions, addressed=2)
        assert exact <= n_regions + 1e-9


def _region_covariance(chain, addressed, n_regions):
    """Covariance matrix of the region observables A_i (modes uncorrelated)."""
    zeta = chain.zeta(addressed, n_regions)
    variances = chain.mode_quadrature_variances(addressed)
    weights = (chain.mode_mass / chain.mode_volume_1d) ** 2 * variances
    return (zeta * weights) @ zeta.T


def test_chain_fine_graining_monotone_when_covariances_positive():
    chain = HarmonicChain(64, _omega, 0.8)
    sums = []
    for n_regions in (8, 16, 32, 64):
        cov = _region_covariance(chain, 2, n_regions)
        sums.append(chain.variance_sum(2, n_regions))
        assert np.trace(cov) == pytest.approx(sums[-1], rel=1e-12)
        if n_regions > 8:
            # children of one parent are adjacent pairs in the refinement
            parents = n_regions // 2
            pair_cov = [cov[2 * j, 2 * j + 1] for j in range(parents)]
            assert min(pair_cov) >= 0.0
    assert all(a >= b - 1e-12 for a, b in zip(sums, sums[1:]))


def test_chain_rejects_bad_inputs():
    with pytest.raises(DomainError):
        HarmonicChain(64, _omega, -1.0)
    with pytest.raises(DomainError):
        HarmonicChain(4096, _omega, 0.0)
    with pytest.raises(DomainError):
        chain_oracle(64, _omega, 0.0, n_regions=7)  # does not divide 64
    with pytest.raises(DomainError):
        HarmonicChain(16, lambda l: 0.0 * np.asarray(l), 0.0)
