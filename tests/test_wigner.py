import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from macrosize import fisher, quantum, wigner
from macrosize.errors import DomainError
from macrosize.wigner import (
    GridAxisError,
    GridHeaderError,
    GridValueError,
    ReconstructionError,
    WignerFormatError,
    WignerGrid,
    load_grid,
    qfi_from_grid,
    reconstruct,
    save_grid,
    synth_grid,
)

AXES = (-7.0, 7.0, 101)
WIDE = (-10.0, 10.0, 121)


def test_vacuum_peak_and_normalization():
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    assert grid.normalization() == pytest.approx(1.0, abs=1e-3)
    assert grid.values[50, 50] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_number_state_negative_peak():
    grid = synth_grid(quantum.number_state(1, 12), AXES, AXES)
    assert grid.values[50, 50] == pytest.approx(-1.0 / math.pi, rel=1e-12)


def test_parity_identity_at_origin():
    rho = quantum.thermal_state(1.2, 40)
    grid = synth_grid(rho, (-11, 11, 121), (-11, 11, 121))
    parity = float(np.sum((-1.0) ** np.arange(40) * np.real(np.diag(rho)))) / math.pi
    assert grid.values[60, 60] == pytest.approx(parity, abs=2e-2)


def test_cat_fringe_period():
    # Interference term along p at x = 0 oscillates as cos(2 sqrt(2) a p):
    # with vacuum variance 1/2 the fringe period is pi / (sqrt(2) a).
    alpha = 2.0
    n = 1201
    rho = quantum.cat_state(alpha, 40)
    grid = synth_grid(rho, (-10, 10, 41), (-10, 10, n))
    slice_p = grid.values[:, 20]
    p_axis = grid.p_axis
    # measure the period from zero crossings of the central fringes
    center = slice_p[(p_axis > -1.5) & (p_axis < 1.5)]
    p_cut = p_axis[(p_axis > -1.5) & (p_axis < 1.5)]
    signs = np.sign(center)
    crossings = p_cut[np.flatnonzero(np.diff(signs))]
    spacing = np.diff(crossings)
    expected_period = math.pi / (math.sqrt(2.0) * alpha)
    assert np.mean(spacing) * 2 == pytest.approx(expected_period, rel=0.02)


def test_synth_requires_axis_coverage():
    with pytest.raises(DomainError, match="cover"):
        synth_grid(quantum.cat_state(2.0, 40), (-4, 4, 41), (-4, 4, 41))


def test_grid_invariant_checks():
    values = np.full((4, 4), 10.0)
    grid = WignerGrid(-1, 1, 4, -1, 1, 4, values)
    with pytest.raises(DomainError, match="normalization"):
        grid.check()
    with pytest.raises(GridAxisError):
        WignerGrid(-1, 1, 5, -1, 1, 4, values)
    with pytest.raises(GridValueError):
        WignerGrid(-1, 1, 4, -1, 1, 4, values * np.nan)


def test_save_load_roundtrip_bit_identical(tmp_path):
    grid = synth_grid(quantum.cat_state(2.0, 40), WIDE, (-10.0, 10.0, 101))
    path = tmp_path / "cat.wig"
    save_grid(grid, path)
    loaded = load_grid(path)
    assert loaded.x_count == grid.x_count and loaded.p_count == grid.p_count
    assert np.array_equal(loaded.values, grid.values)
    assert loaded.x_min == grid.x_min and loaded.p_max == grid.p_max


def test_load_scale_header(tmp_path):
    path = tmp_path / "scaled.wig"
    path.write_text(
        "wigner-grid v1\nx -1 1 2\np -1 1 2\nscale 0.5\n1 2\n3 4\n",
        encoding="utf-8",
    )
    grid = load_grid(path)
    assert np.array_equal(grid.values, 0.5 * np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_load_missing_scale_defaults(tmp_path):
    path = tmp_path / "noscale.wig"
    path.write_text("wigner-grid v1\nx -1 1 2\np -1 1 2\n1 2\n3 4\n", encoding="utf-8")
    assert np.array_equal(load_grid(path).values, [[1.0, 2.0], [3.0, 4.0]])


def test_load_errors_are_distinct(tmp_path):
    bad_header = tmp_path / "a.wig"
    bad_header.write_text("wigner v0\nx -1 1 2\n", encoding="utf-8")
    with pytest.raises(GridHeaderError):
        load_grid(bad_header)

    truncated = tmp_path / "b.wig"
    truncated.write_text("wigner-grid v1\nx -1 1 2\n", encoding="utf-8")
    with pytest.raises(GridHeaderError):
        load_grid(truncated)

    wrong_rows = tmp_path / "c.wig"
    wrong_rows.write_text("wigner-grid v1\nx -1 1 2\np -1 1 3\n1 2\n3 4\n", encoding="utf-8")
    with pytest.raises(GridAxisError):
        load_grid(wrong_rows)

    non_finite = tmp_path / "d.wig"
    non_finite.write_text("wigner-grid v1\nx -1 1 2\np -1 1 2\n1 nan\n3 4\n", encoding="utf-8")
    with pytest.raises(GridValueError):
        load_grid(non_finite)

    garbage = tmp_path / "e.wig"
    garbage.write_text("wigner-grid v1\nx -1 1 2\np -1 1 2\n1 two\n3 4\n", encoding="utf-8")
    with pytest.raises(GridValueError):
        load_grid(garbage)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "latin1.wig"
    path.write_bytes("wigner-grid v1\nx -1 1 2\np -1 1 2\n1 2\n3 4 \xe9\n".encode("latin-1"))
    with pytest.raises(GridHeaderError, match="UTF-8"):
        load_grid(path)


@pytest.mark.parametrize("axis", ["x nan 6 41", "x -6 inf 41", "x -inf 6 41", "x -1e308 1e308 41"])
def test_load_rejects_non_finite_axis(tmp_path, axis):
    path = tmp_path / "axis.wig"
    path.write_text(f"wigner-grid v1\n{axis}\np -6 6 2\n", encoding="utf-8")
    with pytest.raises(GridHeaderError, match="non-finite axis"):
        load_grid(path)


def test_load_checks_rows_before_sizing_from_header(tmp_path):
    # A huge header count must not size an array before the rows are checked.
    path = tmp_path / "wide.wig"
    path.write_text("wigner-grid v1\nx 0 1 100000000000000\np 0 1 2\n1 2\n3 4\n")
    with pytest.raises(GridAxisError, match="columns"):
        load_grid(path)


GRID_TOKENS = ["x", "p", "scale", "0", "1", "-1", "2", "3", "0.5", "nan", "inf", "-inf",
               "1e308", "-1e308", "1e400", "two", "1_0", ""]


def _grid_text():
    token_line = st.lists(st.sampled_from(GRID_TOKENS), max_size=5).map(" ".join)
    line = st.one_of(token_line, st.text(max_size=20))
    return st.lists(line, max_size=7).map(
        lambda lines: "\n".join(["wigner-grid v1", *lines]).encode("utf-8")
    )


@given(st.one_of(st.binary(max_size=120), _grid_text()))
@settings(max_examples=400, deadline=None)
def test_load_grid_fuzz(content):
    # Any file either loads or raises a WignerFormatError, never anything else.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.wig"
        path.write_bytes(content)
        try:
            grid = load_grid(path)
        except WignerFormatError:
            return
    assert isinstance(grid, WignerGrid)


def test_reconstruct_vacuum():
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    report = reconstruct(grid, 12)
    assert report.rho[0, 0].real == pytest.approx(1.0, abs=1e-3)
    assert report.residual < 1e-6


def test_reconstruct_thermal_diagonal():
    rho = quantum.thermal_state(1.0, 40)
    grid = synth_grid(rho, WIDE, WIDE)
    report = reconstruct(grid, 40)
    diag = np.real(np.diag(report.rho))
    expected = 0.5 * 0.5 ** np.arange(40)
    assert np.max(np.abs(diag - expected)) < 1e-2


def test_reconstruct_cat_fidelity():
    cat = quantum.cat_state(2.0, 40)
    grid = synth_grid(cat, WIDE, WIDE)
    report = reconstruct(grid, 40)
    assert wigner.fidelity(report.rho, cat) >= 0.995
    assert report.clipped_mass < 0.05


def test_reconstruct_rejects_garbage():
    rng = np.random.default_rng(3)
    values = np.abs(rng.standard_normal((41, 41))) * 0.05
    h = 20.0 / 40
    values /= values.sum() * h * h
    grid = WignerGrid(-10, 10, 41, -10, 10, 41, values)
    with pytest.raises(ReconstructionError):
        reconstruct(grid, 20)


def test_reconstruct_rejects_nan_residual(monkeypatch):
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    monkeypatch.setattr(
        wigner, "synth_values", lambda rho, xs, ps: np.full_like(grid.values, np.nan)
    )
    with pytest.raises(ReconstructionError, match="residual nan"):
        reconstruct(grid, 12)


def test_qfi_from_grid_vacuum():
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    _theta, fhat, _report = qfi_from_grid(grid, 12)
    assert fhat == pytest.approx(2.0, abs=0.05)


def test_qfi_from_grid_squeezed_target():
    r = 0.5 * math.log(2.1)
    rho = quantum.squeezed_state(r, 40)
    grid = synth_grid(rho, (-9, 9, 111), (-9, 9, 111))
    theta, fhat, _report = qfi_from_grid(grid, 40)
    assert fhat == pytest.approx(4.2, abs=0.1)
    assert theta == pytest.approx(math.pi / 2, abs=5e-3)


def test_qfi_from_grid_cat_matches_spectral():
    cat = quantum.cat_state(1.0, 30)
    grid = synth_grid(cat, (-8, 8, 111), (-8, 8, 111))
    theta, fhat, _report = qfi_from_grid(grid, 30)
    _a, x, p = quantum.fock_operators(30, nu=0.5)
    _t, direct = fisher.qfi_max_quadrature(cat, x, p)
    assert fhat == pytest.approx(direct.value, rel=0.02)


@pytest.mark.parametrize(
    "state,dim,x_axis,p_axis",
    [
        (quantum.vacuum_state(30), 30, (-8, 8, 81), (-8, 8, 81)),
        (quantum.thermal_state(2.0, 60), 48, (-12, 12, 121), (-12, 12, 121)),
        # squeezed: the narrow quadrature needs fine sampling (h << sigma_x)
        (quantum.squeezed_state(1.0, 64), 64, (-16, 16, 321), (-16, 16, 161)),
        (quantum.cat_state(2.5, 60), 60, (-12, 12, 161), (-12, 12, 161)),
    ],
)
def test_roundtrip_qfi_within_two_percent(state, dim, x_axis, p_axis):
    grid = synth_grid(state, x_axis, p_axis)
    _theta, fhat, _report = qfi_from_grid(grid, dim)
    d = state.shape[0]
    _a, x, p = quantum.fock_operators(d, nu=0.5)
    _t, direct = fisher.qfi_max_quadrature(state, x, p)
    assert fhat == pytest.approx(direct.value, rel=0.02)


def test_resolution_stability():
    rho = quantum.cat_state(1.5, 36)
    coarse = synth_grid(rho, (-9, 9, 81), (-9, 9, 81))
    fine = synth_grid(rho, (-9, 9, 161), (-9, 9, 161))
    _t, f_coarse, _r = qfi_from_grid(coarse, 36)
    _t, f_fine, _r = qfi_from_grid(fine, 36)
    assert abs(f_fine - f_coarse) / f_fine < 0.01


def test_psd_clip_never_exceeds_pure_variance_bound():
    rho = quantum.cat_state(1.5, 36)
    grid = synth_grid(rho, (-9, 9, 101), (-9, 9, 101))
    report = reconstruct(grid, 36)
    _a, x, p = quantum.fock_operators(36, nu=0.5)
    _theta, result = fisher.qfi_max_quadrature(report.rho, x, p)
    theta = _theta
    op = math.cos(theta) * x + math.sin(theta) * p
    assert result.value <= 4.0 * fisher.variance(report.rho, op) + 1e-6


def test_auto_dim_raise():
    # thermal nbar = 8 leaves ~9e-3 outside 40 levels, forcing a raise
    rho = quantum.thermal_state(8.0, 160)
    grid = synth_grid(rho, (-19, 19, 191), (-19, 19, 191))
    report = reconstruct(grid)
    assert report.dim > wigner.DEFAULT_DIM
    assert report.diagonal_tail <= wigner.DIAGONAL_TAIL_LIMIT


# ---------------------------------------------------------------------------
# position-basis synthesis and overlaps against the per-pair fock_kernel oracle
# ---------------------------------------------------------------------------


def test_synth_coherent_state_centre():
    # The displaced vacuum sits at (sqrt2 Re a, sqrt2 Im a); a transposed
    # rho in the position chain would mirror it to (sqrt2 Re a, -sqrt2 Im a).
    alpha = 1.5 * np.exp(1j * math.pi / 3)
    xs = np.linspace(-7.0, 7.0, 57)
    xg, pg = np.meshgrid(xs, xs, indexing="xy")
    values = wigner.synth_values(quantum.coherent_state(alpha, 40), xs, xs)
    x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    expected = np.exp(-((xg - x0) ** 2) - (pg - p0) ** 2) / math.pi
    assert np.max(np.abs(values - expected)) < 1e-12


def _oracle_synth_and_overlap(rho, values, xs, ps):
    """Per-pair fock_kernel sums: W of rho, and the raw overlaps of values."""
    xg, pg = np.meshgrid(xs, ps, indexing="xy")
    area = (xs[1] - xs[0]) * (ps[1] - ps[0])
    dim = rho.shape[0]
    w = np.zeros(xg.shape)
    overlaps = np.empty((dim, dim), dtype=complex)
    for m in range(dim):
        for n in range(m + 1):
            kernel = wigner.fock_kernel(m, n, xg, pg)
            w += (1.0 if m == n else 2.0) * np.real(rho[m, n] * kernel)
            val = 2.0 * math.pi * np.sum(values * np.conj(kernel)) * area
            overlaps[m, n] = val
            overlaps[n, m] = np.conj(val)
    return w, overlaps


@pytest.mark.parametrize(
    "dim,x_axis,p_axis",
    [
        (2, (-6.0, 6.0, 41), (-6.0, 6.0, 41)),
        (32, (-7.0, 7.0, 71), (-7.0, 7.0, 71)),
        # off-centre patch, as a measured window around a displaced state
        (61, (3.1, 11.1, 33), (-9.4, -1.4, 33)),
        # +-22 reaches r^2 = 968, where exp(-r^2) underflows
        (200, (-22.0, 22.0, 17), (-22.0, 22.0, 17)),
        # +-30 reaches r = 42, where the Laguerre factor overflows as well
        (200, (-30.0, 30.0, 21), (-30.0, 30.0, 21)),
        # p reaches far past the support: the q-step must shrink with p_max
        (32, (-7.0, 7.0, 71), (-40.0, 40.0, 201)),
    ],
)
def test_streamed_kernels_match_fock_kernel(rng, dim, x_axis, p_axis):
    rho = random_density(rng, dim)
    xs, ps = np.linspace(*x_axis), np.linspace(*p_axis)
    values = rng.standard_normal((p_axis[2], x_axis[2]))
    w_oracle, overlaps_oracle = _oracle_synth_and_overlap(rho, values, xs, ps)
    w = wigner.synth_values(rho, xs, ps)
    assert np.max(np.abs(w - w_oracle)) < 1e-10
    grid = WignerGrid(*x_axis, *p_axis, values)
    overlaps = wigner._overlap_reconstruct(grid, dim)
    assert np.max(np.abs(overlaps - overlaps_oracle)) < 1e-10


def test_wide_grid_kernels_stay_finite():
    # dim 200 on +-30: the grid reaches r = 42, where exp(-r^2) underflows.
    # The y-sum cancels O(1) terms there, so it is accurate to 1e-15 in
    # absolute terms, not relative to the underflowing exp(-r^2).
    axis = (-30.0, 30.0, 61)
    xs = np.linspace(*axis)
    xg, pg = np.meshgrid(xs, xs, indexing="xy")
    values = wigner.synth_values(quantum.vacuum_state(200), xs, xs)
    assert np.all(np.isfinite(values))
    expected = np.exp(-(xg**2 + pg**2)) / math.pi
    np.testing.assert_allclose(values, expected, rtol=1e-14, atol=1e-15)
    # 61 points cannot resolve the dim-200 kernels: an honest residual
    # verdict, not a nan in the reconstructed matrix.
    with pytest.raises(ReconstructionError):
        reconstruct(WignerGrid(*axis, *axis, values), 200)


def test_grid_outside_support_gives_zeros():
    # Every x lies beyond the cut radius of dim 40, so no (x - y, x + y)
    # pair falls on the q-grid: zeros, not an empty-index failure.
    x_axis, p_axis = (40.0, 48.0, 33), (-4.0, 4.0, 33)
    rho = random_density(np.random.default_rng(1), 40)
    values = wigner.synth_values(rho, np.linspace(*x_axis), np.linspace(*p_axis))
    assert values.shape == (33, 33)
    assert np.array_equal(values, np.zeros((33, 33)))
    grid = WignerGrid(*x_axis, *p_axis, np.ones((33, 33)))
    assert np.array_equal(wigner._overlap_reconstruct(grid, 40), np.zeros((40, 40)))


@given(
    dim=st.integers(min_value=1, max_value=8),
    rank=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=50, deadline=None)
def test_synth_reconstruct_roundtrip(dim, rank, seed):
    # rank 1 draws a pure state; reconstruction runs at dim 8 throughout.
    rho = random_density(np.random.default_rng(seed), dim, min(rank, dim))
    grid = synth_grid(rho, (-9.0, 9.0, 91), (-9.0, 9.0, 91))
    report = reconstruct(grid, 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[:dim, :dim] = rho
    assert np.max(np.abs(report.rho - expected)) < 1e-9
