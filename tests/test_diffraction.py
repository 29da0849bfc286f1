import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from macrosize import diffraction, fisher, quantum
from macrosize.diffraction import (
    FringeScan,
    TalbotLauSetup,
    cm_spread,
    coherence_length,
    diffraction_sizes,
    fi_bound,
    fit_fringe,
    load_fringe_scan,
    qfi_bound,
)
from macrosize.errors import DomainError
from macrosize.measures import constants

C = constants()


def fein_setup(l0=0.2):
    return TalbotLauSetup(
        mass=26777.0 * C.m_u,
        n_atoms=2000.0,
        grating_period=266e-9,
        open_fraction=0.43,
        visibility=0.25,
        flight_time=1.0 / 260.0,
        source_g1=l0,
        g1_g2=1.0,
    )


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------


def _make_scan(v, wavelength=266e-9, n=50, phase=0.4, noise=0.0, rng=None):
    k = 2 * math.pi / wavelength
    s = np.linspace(0.0, 3 * wavelength, n)
    counts = 1.0 + v * np.sin(k * s + phase)
    if noise:
        counts = counts + rng.normal(0.0, noise, size=n)
    return FringeScan.from_raw(s, counts)


def test_fit_exact_recovery():
    scan = _make_scan(0.25)
    fit = fit_fringe(scan)
    assert fit.visibility == pytest.approx(0.25, abs=1e-6)
    assert fit.wavenumber == pytest.approx(2 * math.pi / 266e-9, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_fit_flat_scan():
    rng = np.random.default_rng(11)
    scan = _make_scan(0.0, noise=1e-3, rng=rng)
    fit = fit_fringe(scan)
    assert fit.visibility < 5e-3


def test_fit_noisy_monte_carlo():
    # 1% Gaussian noise: the visibility estimate stays within +-0.01.
    rng = np.random.default_rng(1234)
    errors = []
    for _ in range(100):
        scan = _make_scan(0.25, noise=0.01, rng=rng)
        fit = fit_fringe(scan)
        errors.append(fit.visibility - 0.25)
    errors = np.array(errors)
    assert np.max(np.abs(errors)) < 0.01


def test_fit_rejects_non_sinusoid():
    rng = np.random.default_rng(5)
    s = np.linspace(0, 1e-6, 40)
    counts = 1.0 + 0.9 * rng.standard_normal(40)
    counts -= counts.mean() - 1.0
    with pytest.raises(diffraction.FitError):
        fit_fringe(FringeScan(s, counts))


def test_scan_file_roundtrip(tmp_path):
    path = tmp_path / "scan.txt"
    k = 2 * math.pi / 266e-9
    lines = ["fringe-scan v1"]
    for s in np.linspace(0, 8e-7, 24):
        lines.append(f"{s:.9e} {100 * (1 + 0.25 * math.sin(k * s)):.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scan = load_fringe_scan(path)
    assert np.mean(scan.counts) == pytest.approx(1.0, abs=1e-12)
    fit = fit_fringe(scan)
    assert fit.visibility == pytest.approx(0.25, abs=1e-3)


def test_scan_file_normalizes_counts_whose_sum_overflows(tmp_path):
    path = tmp_path / "huge.txt"
    lines = ["fringe-scan v1"] + [f"{i * 1e-8:.1e} 1e308" for i in range(10)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = load_fringe_scan(path)
    assert np.array_equal(scan.counts, np.ones(10))


def test_from_raw_keeps_counts_with_finite_mean(rng):
    raw = rng.uniform(1.0, 1e6, size=50)
    scan = FringeScan.from_raw(np.arange(50.0), raw)
    assert np.array_equal(scan.counts, raw / float(np.mean(raw)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_from_raw_rejects_non_finite_counts_before_dividing(bad):
    raw = np.ones(10)
    raw[4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            FringeScan.from_raw(np.arange(10.0), raw)


def test_scan_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("fringes\n0 1\n", encoding="utf-8")
    with pytest.raises(DomainError, match="header"):
        load_fringe_scan(path)


def test_scan_file_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes("fringe-scan v1\n0 1 \xe9\n".encode("latin-1"))
    with pytest.raises(DomainError, match="UTF-8"):
        load_fringe_scan(path)


def test_scan_file_rejects_header_only(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("fringe-scan v1\n", encoding="utf-8")
    with pytest.raises(DomainError, match="no 's n' lines"):
        load_fringe_scan(path)


SCAN_TOKENS = ["0", "1", "-1", "1e-7", "140", "0.5", "nan", "inf", "-inf", "1e308", "1e400",
               "two", ""]


def _scan_text():
    tokens = st.sampled_from(SCAN_TOKENS)
    pair = st.tuples(tokens, tokens).map(" ".join)
    token_line = st.lists(tokens, max_size=3).map(" ".join)
    line = st.one_of(pair, token_line, st.text(max_size=20))
    return st.lists(line, max_size=12).map(
        lambda lines: "\n".join(["fringe-scan v1", *lines]).encode("utf-8")
    )


@given(st.one_of(st.binary(max_size=120), _scan_text()))
@settings(max_examples=400, deadline=None)
def test_load_fringe_scan_fuzz(content):
    # Any file either loads or raises a DomainError, never anything else.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(content)
        try:
            scan = load_fringe_scan(path)
        except DomainError:
            return
    assert isinstance(scan, FringeScan)


def test_scan_rejects_non_finite_positions():
    scan = _make_scan(0.25)
    positions = scan.positions.copy()
    positions[3] = np.inf
    with pytest.raises(DomainError, match="finite"):
        FringeScan(positions, scan.counts)


# ---------------------------------------------------------------------------
# bounds chain
# ---------------------------------------------------------------------------


def test_fi_bound_values():
    k = 2 * math.pi / 266e-9
    assert fi_bound(0.43, 0.25, k) == pytest.approx(
        0.43 / 0.57 * (0.25 * k) ** 2, rel=1e-12
    )
    assert fi_bound(0.5, 0.3, k) == pytest.approx((0.3 * k) ** 2, rel=1e-12)
    assert fi_bound(0.43, 0.0, k) == 0.0
    with pytest.raises(DomainError):
        fi_bound(1.0, 0.25, k)


def test_fi_bound_is_profile_at_lattice_points():
    k = 2 * math.pi / 266e-9
    s_lattice = np.array([0.0, math.pi / k, 2 * math.pi / k])
    # Binary-trial FI of R(s) = <g>(1 + v sin ks) at the lattice points.
    r = 0.43 * (1.0 + 0.25 * np.sin(k * s_lattice))
    rp = 0.43 * 0.25 * k * np.cos(k * s_lattice)
    profile = [fisher.binary_trial_fi(ri, rpi) for ri, rpi in zip(r, rp)]
    assert np.allclose(profile, fi_bound(0.43, 0.25, k), rtol=1e-9)


def test_qfi_bound_fein_value():
    k = 2 * math.pi / 266e-9
    f = qfi_bound(fi_bound(0.43, 0.25, k), 1.0 / 260.0)
    assert f == pytest.approx(4.3e-60, rel=0.05)


def test_qfi_bound_scalings():
    base = qfi_bound(1.0e13, 1.0e-3)
    assert qfi_bound(1.0e13, 2.0e-3) == pytest.approx(4 * base, rel=1e-12)
    assert qfi_bound(0.0, 1.0) == 0.0


def test_qfi_bound_gaussian_density():
    # Known-sigma Gaussian detection density: F >= (hbar t)^2 / sigma^2.
    sigma, t = 1.3e-6, 2.0e-3
    h = sigma / 400
    x = np.arange(-8 * sigma, 8 * sigma + h / 2, h)
    p = np.exp(-0.5 * (x / sigma) ** 2)
    p /= np.sum(p) * h
    value = qfi_bound(fisher.classical_fi_grid(p, h).value, t)
    assert value == pytest.approx((C.hbar * t / sigma) ** 2, rel=1e-3)


def test_coherence_length_values():
    f = qfi_bound(fi_bound(0.43, 0.25, 2 * math.pi / 266e-9), 1.0 / 260.0)
    chi = coherence_length(f, 26777.0 * C.m_u)
    assert 20e-9 <= chi <= 25e-9
    assert chi == pytest.approx(2.3e-8, rel=0.05)
    assert coherence_length(0.0, 1.0) == 0.0


def test_coherence_length_two_branch():
    # Equal branches separated by dX: F = (M dX)^2, so chi = dX / 2.
    mass, dx = 3.3e-25, 80e-9
    assert coherence_length((mass * dx) ** 2, mass) == pytest.approx(dx / 2, rel=1e-12)


def test_cm_spread_fein():
    dx1, dx2 = cm_spread(fein_setup(0.2))
    assert dx1 == pytest.approx(0.43 * 266e-9 / math.sqrt(3), rel=1e-12)
    assert dx2 == pytest.approx(396e-9, rel=0.01)


def test_cm_spread_limits():
    collimated = cm_spread(fein_setup(1e9))[1]
    assert collimated == pytest.approx(cm_spread(fein_setup(1e9))[0], rel=1e-6)
    dx1, dx2 = cm_spread(fein_setup(1.0))
    assert dx2 == pytest.approx(2 * dx1, rel=1e-12)
    assert dx2 == pytest.approx(132e-9, rel=0.01)


def test_diffraction_sizes_chain():
    report = diffraction_sizes(fein_setup(0.2))
    assert report.n_ext == pytest.approx(1.4e14, rel=0.10)
    # The sharp bound with the unrounded coherence length: N (chi/dX2)^2.
    chi = report.inputs["coherence_length"]
    dx2 = report.inputs["delta_x_cm"]
    assert report.n_ent == pytest.approx(2000 * (chi / dx2) ** 2, rel=1e-12)
    assert report.n_ent == pytest.approx(6.97, abs=0.05)


def test_diffraction_sizes_zero_visibility():
    report = diffraction_sizes(fein_setup(0.2), visibility=0.0)
    assert report.n_ext == 0.0 and report.n_ent == 0.0


def test_diffraction_sizes_from_scan():
    scan = _make_scan(0.25)
    report = diffraction_sizes(fein_setup(0.2), scan=scan)
    assert report.n_ext == pytest.approx(1.4e14, rel=0.10)


def test_doubling_time_quadruples_bound():
    base = diffraction_sizes(fein_setup(0.2))
    slow = TalbotLauSetup(
        mass=26777.0 * C.m_u,
        n_atoms=2000.0,
        grating_period=266e-9,
        open_fraction=0.43,
        visibility=0.25,
        flight_time=2.0 / 260.0,
        source_g1=0.2,
        g1_g2=1.0,
    )
    report = diffraction_sizes(slow)
    assert report.inputs["qfi_bound"] == pytest.approx(
        4 * base.inputs["qfi_bound"], rel=1e-12
    )


# ---------------------------------------------------------------------------
# data-processing inequality on synthetic free evolution
# ---------------------------------------------------------------------------


def _position_wavefunctions(dim, x):
    phi = np.zeros((dim, x.size))
    phi[0] = math.pi**-0.25 * np.exp(-0.5 * x * x)
    if dim > 1:
        phi[1] = math.sqrt(2.0) * x * phi[0]
    for n in range(1, dim - 1):
        phi[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * x * phi[n] - math.sqrt(n / (n + 1.0)) * phi[n - 1]
        )
    return phi


@pytest.mark.parametrize(
    "state",
    [
        quantum.cat_state(1.2, 36),
        quantum.squeezed_state(0.5, 36),
        quantum.thermal_state(0.8, 36),
    ],
)
def test_data_processing_inequality_free_flight(state):
    # Evolve freely (hbar = mass = 1), histogram the position density, and
    # check (t)^2 F_cl[p(x)] <= F(rho_0, x).
    dim = state.shape[0]
    _a, x_op, p_op = quantum.fock_operators(dim, nu=0.5, hbar=1.0)
    t = 0.3
    u = expm(-1j * t * (p_op @ p_op) / 2.0)
    rho_t = u @ state @ u.conj().T
    h = 6e-3
    grid = np.arange(-14.0, 14.0 + h / 2, h)
    phi = _position_wavefunctions(dim, grid)
    density = np.real(np.einsum("mx,mn,nx->x", phi, rho_t, phi))
    density = np.clip(density, 0.0, None)
    density /= np.sum(density) * h
    fi_cl = fisher.classical_fi_grid(density, h).value
    qfi_initial = fisher.qfi(state, x_op).value
    assert t * t * fi_cl <= qfi_initial + 1e-6


def test_lattice_bound_below_full_density_fi():
    # Synthetic grating: sinusoidal detection density p(x) under a smooth
    # envelope, square-wave final grating with open fraction f.  The
    # lattice-point binary-trial bound must stay below the full-density FI
    # (data-processing inequality).
    V, f = 0.5, 0.3
    k = 2.0 * math.pi  # fringe period 1
    h = 1e-3
    x = np.arange(0.0, 100.0, h)
    envelope = np.exp(-0.5 * ((x - 50.0) / 15.0) ** 2)
    density = (1.0 + V * np.cos(k * x)) * envelope
    density /= np.sum(density) * h

    # convolve with the grating over one period of shifts
    shifts = np.linspace(0.0, 1.0, 64, endpoint=False)
    open_mask = lambda s: ((x - s) % 1.0) < f
    r_of_s = np.array([np.sum(density[open_mask(s)]) * h for s in shifts])
    v_eff = (r_of_s.max() - r_of_s.min()) / (r_of_s.max() + r_of_s.min())

    bound = fi_bound(f, v_eff, k)
    full_fi = fisher.classical_fi_grid(density, h).value
    assert bound <= full_fi + 1e-9
    # the analytic visibility reduction sin(pi f)/(pi f) is reproduced
    assert v_eff == pytest.approx(V * math.sin(math.pi * f) / (math.pi * f), rel=0.01)


def test_chi_halves_when_mass_doubles():
    f_value = 4.3e-60
    assert coherence_length(f_value, 2.0e-22) == pytest.approx(
        0.5 * coherence_length(f_value, 1.0e-22), rel=1e-12
    )
