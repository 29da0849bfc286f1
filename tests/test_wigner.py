import math
import sys
import tempfile
import threading
import tracemalloc
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


@pytest.mark.parametrize(
    "axes",
    [
        (-1.0, 1.0, 1, -1.0, 1.0, 4),  # one x point: no dx
        (-1.0, 1.0, 4, -1.0, 1.0, 1),
        (1.0, -1.0, 4, -1.0, 1.0, 4),  # reversed x
        (-1.0, 1.0, 4, 1.0, 1.0, 4),  # empty p range
        (-1.0, math.inf, 4, -1.0, 1.0, 4),
        (-1.0, 1.0, 4, math.nan, 1.0, 4),
        (-1e308, 1e308, 4, -1.0, 1.0, 4),  # the width overflows
    ],
)
def test_grid_rejects_degenerate_axes(axes):
    x_count, p_count = axes[2], axes[5]
    with pytest.raises(GridAxisError, match="at least 2 points and finite bounds"):
        WignerGrid(*axes, np.zeros((p_count, x_count)))


LINE = np.linspace(-5.0, 5.0, 41)


@pytest.mark.parametrize(
    "rho,x_axis,p_axis,match",
    [
        (np.zeros((0, 0)), LINE, LINE, "non-empty square"),
        (np.zeros((1, 2)), LINE, LINE, "non-empty square"),
        (np.ones(3), LINE, LINE, "non-empty square"),
        (np.ones((1, 1)), np.array([0.0]), LINE, "at least 2 points"),
        (np.ones((1, 1)), LINE, np.zeros((2, 2)), "1-D"),
        (np.ones((1, 1)), LINE, np.array([0.0, np.nan]), "finite"),
        (np.ones((1, 1)), LINE[::-1], LINE, "x axis must be increasing"),
        (np.ones((1, 1)), LINE, LINE[::-1], "p axis must be increasing"),
        (np.ones((1, 1)), np.array([0.0, 1.0, 3.0]), LINE, "evenly spaced"),
    ],
)
def test_synth_values_checks_rho_and_axes(rho, x_axis, p_axis, match):
    with pytest.raises(DomainError, match=match):
        wigner.synth_values(rho, x_axis, p_axis)


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


@pytest.mark.parametrize("token,row", [("two", 0), ("1d5", 1), ("0x10", 1), ("1e", 0)])
def test_load_names_the_unparseable_row(tmp_path, token, row):
    path = tmp_path / "bad.wig"
    rows = ["1 2", "3 4"]
    rows[row] = f"1 {token}"
    path.write_text("wigner-grid v1\nx -1 1 2\np -1 1 2\n" + "\n".join(rows) + "\n")
    with pytest.raises(GridValueError, match=f"data row {row}$"):
        load_grid(path)


def test_load_parses_tokens_as_float_does(tmp_path):
    tokens = ["1_0", "\u0661\u0662", "1.5e-320", "-0", ".5", "1e-400", "+1", "\u0663e\u0662"]
    path = tmp_path / "tokens.wig"
    text = "wigner-grid v1\nx -1 1 4\np -1 1 2\n" + " ".join(tokens[:4]) + "\n"
    path.write_text(text + " ".join(tokens[4:]) + "\n", encoding="utf-8")
    expected = np.array([float(t) for t in tokens]).reshape(2, 4)
    assert load_grid(path).values.tobytes() == expected.tobytes()


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


def test_fidelity_of_a_pure_state_is_its_overlap(rng):
    psi = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    sigma = random_density(rng, 6)
    # F(psi psi^+, sigma) = <psi|sigma|psi>, with no square roots of rounding-level eigenvalues.
    assert wigner.fidelity(rho, sigma) == pytest.approx(np.trace(rho @ sigma).real, abs=1e-14)
    assert wigner.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-14)


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
        wigner, "_synthesize", lambda rho, chain: np.full_like(grid.values, np.nan)
    )
    with pytest.raises(ReconstructionError, match="residual nan"):
        reconstruct(grid, 12)


def _fresh_synth(rho, xs, ps):
    """``synth_values`` through a freshly built chain and a fresh rows x cols
    temporary."""
    rows, cols, h, valid, pairs, phase = wigner._build_chain(rho.shape[0], xs, ps)
    right = np.ascontiguousarray(rho @ cols, dtype=complex)
    kernel = (rows.T @ right.view(float)).view(complex)
    g = np.zeros(valid.shape, dtype=complex)
    g[valid] = kernel[pairs]
    return (2.0 * h / math.pi) * (phase @ g.view(float).T)


def _two_chain_reconstruct(grid, dim):
    """``reconstruct`` with one chain for the overlaps and another for the
    residual, each freshly built and with fresh rows x cols temporaries: the
    reference the stored chains and the shared workspace must match byte for
    byte.  Returns ``(rho, dim, residual, resynth)``."""

    def overlap(dim):
        rows, cols, h, valid, pairs, phase = wigner._build_chain(
            dim, grid.x_axis, grid.p_axis
        )
        g = (grid.values.T @ phase).view(complex)
        m = np.zeros((rows.shape[1], cols.shape[1]), dtype=complex)
        m[pairs] = g[valid]
        half = (rows @ m.view(float)).view(complex) @ cols.T
        return 2.0 * grid.dx * grid.dp * h * (half + half.conj().T)

    auto = dim is None
    dim = wigner.DEFAULT_DIM if auto else dim
    while True:
        raw = overlap(dim)
        tail = max(0.0, 1.0 - float(np.real(np.trace(raw))))
        if auto and tail > wigner.DIAGONAL_TAIL_LIMIT and dim < wigner.DIM_CAP:
            dim = min(int(dim * 1.5) + 1, wigner.DIM_CAP)
            continue
        break
    values, vectors = quantum.eigh(raw)
    clipped = np.clip(values, 0.0, None)
    clipped /= float(np.sum(clipped))
    rho = (vectors * clipped) @ vectors.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    resynth = _fresh_synth(rho, grid.x_axis, grid.p_axis)
    residual = float(np.linalg.norm(resynth - grid.values)) / float(
        np.linalg.norm(grid.values)
    )
    return rho, dim, residual, resynth


def _coherent_patch():
    # A coherent state at radius 7.5 on a +-4 patch of 33 points: auto-dim
    # steps from 40 to 61 on it.
    x0, p0 = 7.5 * math.cos(0.9), 7.5 * math.sin(0.9)
    x_axis, p_axis = (x0 - 4.0, x0 + 4.0, 33), (p0 - 4.0, p0 + 4.0, 33)
    xg, pg = np.meshgrid(np.linspace(*x_axis), np.linspace(*p_axis), indexing="xy")
    values = np.exp(-((xg - x0) ** 2) - (pg - p0) ** 2) / math.pi
    return WignerGrid(*x_axis, *p_axis, values)


@pytest.mark.parametrize(
    "case,dim,final_dim",
    [
        ("squeezed", 32, 32),
        ("cat", 32, 32),
        ("cat", None, 40),
        ("patch", None, 61),
        ("patch", 61, 61),
    ],
)
def test_reconstruct_matches_two_chain_path(monkeypatch, case, dim, final_dim):
    if case == "patch":
        grid = _coherent_patch()
    else:
        state = (
            quantum.squeezed_state(0.5, 60) if case == "squeezed" else quantum.cat_state(1.5, 60)
        )
        grid = synth_grid(state, (-9.0, 9.0, 91), (-9.0, 9.0, 91))
    synthesized = []

    def recording(rho, chain):
        values = synthesize(rho, chain)
        synthesized.append(values)
        return values

    synthesize = wigner._synthesize
    monkeypatch.setattr(wigner, "_synthesize", recording)
    report = reconstruct(grid, dim)
    rho, ref_dim, residual, resynth = _two_chain_reconstruct(grid, dim)
    assert report.dim == ref_dim == final_dim
    assert report.rho.tobytes() == rho.tobytes()
    assert report.residual == residual
    assert len(synthesized) == 1
    assert synthesized[0].tobytes() == resynth.tobytes()


def _full_chain_path(dim, xs, ps, rho, values):
    """Synthesis and raw overlaps through the whole q x q kernel with complex
    Fourier sums: the reference the box and the real sums are tested
    against.  Returns ``(W of rho, raw overlaps of values, s)``."""
    radius = math.sqrt(2.0 * dim + 1.0) + wigner.HERMITE_MARGIN
    dx = float(xs[-1] - xs[0]) / (xs.size - 1)
    s = max(1, math.ceil(dx * (float(np.max(np.abs(ps))) + radius) / math.pi))
    h = dx / s
    k_lo = math.ceil((-radius - xs[0]) / h)
    q = xs[0] + h * np.arange(k_lo, math.floor((radius - xs[0]) / h) + 1)
    psi = np.empty((dim, q.size))
    psi[0] = math.pi**-0.25 * np.exp(-0.5 * q * q)
    for n in range(1, dim):
        psi[n] = math.sqrt(2.0 / n) * q * psi[n - 1]
        if n > 1:
            psi[n] -= math.sqrt((n - 1) / n) * psi[n - 2]
    centre = s * np.arange(xs.size) - k_lo
    reach = np.minimum(centre, q.size - 1 - centre)
    j = np.arange(max(int(reach.max()) + 1, 0))
    valid = j <= reach[:, None]
    pairs = ((centre[:, None] - j)[valid], (centre[:, None] + j)[valid])
    phase = np.exp(2j * h * np.outer(j, ps))

    kernel = psi.T @ (rho @ psi)
    g = np.zeros(valid.shape, dtype=complex)
    g[valid] = kernel[pairs]
    g[:, 1:] *= 2.0
    w = (h / math.pi) * np.real(g @ phase).T

    g = values.T @ phase.conj().T
    g[:, :1] *= 0.5
    m = np.zeros((q.size, q.size), dtype=complex)
    m[pairs] = g[valid]
    half = psi @ m @ psi.T
    area = (xs[1] - xs[0]) * (ps[1] - ps[0])
    return w, 2.0 * area * h * (half + half.conj().T), s


PATCH = _coherent_patch()


@pytest.mark.parametrize(
    "dim,x_axis,p_axis,s",
    [
        (12, AXES, AXES, 1),
        (32, (-9.0, 9.0, 91), (-9.0, 9.0, 91), 2),
        (32, (-7.0, 7.0, 71), (-40.0, 40.0, 201), 4),
        (150, (-22.0, 22.0, 361), (-22.0, 22.0, 361), 2),
        (61, (PATCH.x_min, PATCH.x_max, 33), (PATCH.p_min, PATCH.p_max, 33), 3),
        # near the cap: dim 139 on a 61 x 61 patch at radius 11.7, where a
        # coherent state of |alpha| = 8.3 sits
        (139, (8.31, 14.31, 61), (0.07, 6.07, 61), 1),
        # x reaches past the cut radius 17.1 of dim 61
        (61, (10.0, 26.0, 41), (-6.0, 6.0, 41), 3),
    ],
    ids=["s1", "s2", "s4-wide-p", "centred-150", "coherent-patch", "near-cap", "past-radius"],
)
def test_box_and_real_sums_match_full_kernel_path(rng, dim, x_axis, p_axis, s):
    xs, ps = np.linspace(*x_axis), np.linspace(*p_axis)
    rho = random_density(rng, dim)
    values = rng.standard_normal((ps.size, xs.size))
    w_full, overlaps_full, s_full = _full_chain_path(dim, xs, ps, rho, values)
    assert s_full == s
    chain = wigner._position_chain(dim, xs, ps)
    assert (xs[1] - xs[0]) / chain.h == pytest.approx(s)
    # The real Fourier sums reorder the complex ones: rounding level, on W of
    # order 1/pi and on overlaps of unit-variance values.
    w = wigner.synth_values(rho, xs, ps)
    assert np.max(np.abs(w - w_full)) <= 1e-14
    grid = WignerGrid(*x_axis, *p_axis, values)
    overlaps = wigner._overlap_reconstruct(grid, chain)
    assert np.max(np.abs(overlaps - overlaps_full)) <= 1e-13


NINE = (-9.0, 9.0, 91)
SEVEN = (-7.0, 7.0, 71)
TWELVE = (-12.0, 12.0, 121)


def _store_steps(order):
    """The calls of one store order: ``("reconstruct", grid, dim, final_dim)``
    or ``("synth", rho, x_axis, p_axis)``."""
    squeezed = synth_grid(quantum.squeezed_state(0.5, 60), NINE, NINE)
    cat = synth_grid(quantum.cat_state(1.5, 60), NINE, NINE)
    if order == "one axes, alternating grids":
        return [("reconstruct", g, 32, 32) for g in (squeezed, cat, squeezed, cat)]
    if order == "alternating axes":
        wide = synth_grid(quantum.squeezed_state(0.5, 60), WIDE, WIDE)
        return [("reconstruct", g, 32, 32) for g in (cat, wide, cat, wide)]
    if order == "auto-dim ladder, then dim 32":
        # |alpha|^2 = 27.6 leaves 2e-2 of its weight beyond dim 40: one 40 -> 61 step.
        coherent = _coherent_grid(TWELVE, complex(3.0, 6.8) / math.sqrt(2.0))
        wide_cat = synth_grid(quantum.cat_state(1.5, 60), TWELVE, TWELVE)
        return [
            ("reconstruct", coherent, None, 61),
            ("reconstruct", wide_cat, 32, 32),
            ("reconstruct", coherent, None, 61),
        ]
    rng = np.random.default_rng(5)
    return [
        ("synth", random_density(rng, 12), NINE, NINE),
        ("reconstruct", squeezed, 32, 32),
        ("synth", random_density(rng, 32), NINE, NINE),
        ("reconstruct", cat, None, 40),
        ("synth", random_density(rng, 40), SEVEN, NINE),
        ("reconstruct", squeezed, 32, 32),
    ]


@pytest.mark.parametrize(
    "order",
    [
        "one axes, alternating grids",
        "alternating axes",
        "auto-dim ladder, then dim 32",
        "synth_values between reconstructions",
    ],
)
def test_stored_chains_match_fresh_chains(monkeypatch, order):
    steps = _store_steps(order)
    expected = []
    for kind, *args in steps:
        if kind == "reconstruct":
            expected.append(_two_chain_reconstruct(args[0], args[1]))
        else:
            rho, x_axis, p_axis = args
            expected.append(_fresh_synth(rho, np.linspace(*x_axis), np.linspace(*p_axis)))
    synthesized = []

    def recording(rho, chain):
        values = synthesize(rho, chain)
        synthesized.append(values)
        return values

    synthesize = wigner._synthesize
    monkeypatch.setattr(wigner, "_synthesize", recording)
    for (kind, *args), ref in zip(steps, expected):
        synthesized.clear()
        if kind == "synth":
            rho, x_axis, p_axis = args
            w = wigner.synth_values(rho, np.linspace(*x_axis), np.linspace(*p_axis))
            assert w.tobytes() == ref.tobytes()
            continue
        grid, dim, final_dim = args
        report = reconstruct(grid, dim)
        rho, ref_dim, residual, resynth = ref
        assert report.dim == ref_dim == final_dim
        assert report.rho.tobytes() == rho.tobytes()
        assert report.residual == residual
        assert [w.tobytes() for w in synthesized] == [resynth.tobytes()]


def test_threads_give_serial_bytes():
    # Two grids on one set of axes, reconstructed from more threads than
    # cores with a short switch interval: a workspace shared between threads
    # would mix their overlaps.
    grids = [
        synth_grid(quantum.squeezed_state(0.5, 60), NINE, NINE),
        synth_grid(quantum.cat_state(1.5, 60), NINE, NINE),
    ]
    serial = [_two_chain_reconstruct(grid, 32) for grid in grids]
    results = {}

    def work(k):
        results[k] = [
            ((i + k) % 2, reconstruct(grids[(i + k) % 2], 32)) for i in range(6)
        ]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for runs in results.values():
        for which, report in runs:
            rho, _dim, residual, _resynth = serial[which]
            assert report.rho.tobytes() == rho.tobytes()
            assert report.residual == residual


def test_stored_chain_is_read_only():
    xs = np.linspace(*NINE)
    chain = wigner._position_chain(12, xs, xs)
    # rows and cols are two views of one array of Hermite functions.
    assert chain.rows.base is chain.cols.base
    for array in (chain.rows.base, chain.rows, chain.cols, chain.valid, *chain.pairs, chain.phase):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        chain.cols[0, 0] = 1.0


def _chain_nbytes(chain):
    return (
        chain.rows.base.nbytes + chain.valid.nbytes + chain.phase.nbytes
        + sum(index.nbytes for index in chain.pairs)
    )


def test_chain_cache_keeps_chains_across_axes():
    wigner._cached_chain.cache_clear()
    xs_a, xs_b = np.linspace(*NINE), np.linspace(*SEVEN)
    first = wigner._position_chain(40, xs_a, xs_a)
    # Equal axes in other arrays are the same key.
    assert wigner._position_chain(40, xs_a, np.linspace(*NINE)) is first
    # Other axes leave the first ones' chain in place: A, B, A reuses it.
    other = wigner._position_chain(40, xs_b, xs_b)
    assert other is not first
    assert wigner._position_chain(40, xs_a, xs_a) is first
    info = wigner._cached_chain.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 2, 2)
    # Every chain writes into the thread's one grow-only workspace, on any axes.
    big = wigner._workspace(wigner._position_chain(61, xs_a, xs_a))
    assert wigner._workspace(first).base is big.base
    assert wigner._workspace(other).base is big.base
    # Another thread reads the same chain and writes into a workspace of its own.
    seen = {}

    def work():
        seen["chain"] = wigner._position_chain(40, np.linspace(*NINE), np.linspace(*NINE))
        seen["work"] = wigner._workspace(seen["chain"])

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert seen["chain"] is first
    assert not np.shares_memory(seen["work"], big)


def test_chain_cache_holds_at_most_its_size():
    wigner._cached_chain.cache_clear()
    xs = np.linspace(-3.0, 3.0, 61)
    dims = list(range(2, wigner.CHAIN_CACHE_SIZE + 4))
    chains = [wigner._position_chain(dim, xs, xs) for dim in dims]
    info = wigner._cached_chain.cache_info()
    assert info.currsize == info.maxsize == wigner.CHAIN_CACHE_SIZE
    # The least recently used chains go first.
    assert wigner._position_chain(dims[-1], xs, xs) is chains[-1]
    assert wigner._position_chain(dims[0], xs, xs) is not chains[0]


def test_chain_cache_holds_the_auto_dim_ladder_plus_one():
    ladder = [wigner.DEFAULT_DIM]
    while ladder[-1] < wigner.DIM_CAP:
        ladder.append(wigner._next_dim(ladder[-1]))
    assert wigner.CHAIN_CACHE_SIZE == len(ladder) + 1
    assert wigner._cached_chain.cache_info().maxsize == wigner.CHAIN_CACHE_SIZE
    # The whole ladder and one other dim on one set of axes stay cached.
    wigner._cached_chain.cache_clear()
    xs = np.linspace(*SEVEN)
    dims = [*ladder, 32]
    chains = [wigner._position_chain(dim, xs, xs) for dim in dims]
    assert all(wigner._position_chain(dim, xs, xs) is c for dim, c in zip(dims, chains))
    assert wigner._cached_chain.cache_info().misses == len(dims)


def test_chain_cache_memory_stays_bounded():
    # The ladder on eight sets of axes, in a new thread so that its
    # workspace starts empty: the cache keeps the last six chains and the
    # thread one workspace, the largest it needed; nothing else outlives
    # the calls.
    wigner._cached_chain.cache_clear()
    ladder = (40, 61, 92, 139, 200)
    measured = {}

    def work():
        chain_bytes, work_bytes = [], 0
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for half_width in range(7, 15):
                xs = np.linspace(-half_width, half_width, 71)
                for dim in ladder:
                    chain = wigner._position_chain(dim, xs, xs)
                    chain_bytes.append(_chain_nbytes(chain))
                    work_bytes = max(work_bytes, wigner._workspace(chain).nbytes)
                del chain
            measured["retained"] = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        measured["kept"] = sum(chain_bytes[-wigner.CHAIN_CACHE_SIZE:])
        measured["work"] = work_bytes

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=120)
    assert wigner._cached_chain.cache_info().currsize == wigner.CHAIN_CACHE_SIZE
    kept, retained = measured["kept"], measured["retained"]
    assert kept <= retained <= kept + measured["work"] + 100_000


def test_store_keeps_no_chain_above_dim_cap():
    # Only synthesis asks for a dim above DIM_CAP, so its chain and its
    # workspace would stay in the process and never be reused.
    wigner._cached_chain.cache_clear()
    xs = np.linspace(-3.0, 3.0, 61)
    kept = wigner._position_chain(40, xs, xs)
    wigner._workspace(kept)
    work = wigner._THREAD.work
    info = wigner._cached_chain.cache_info()
    rho = quantum.vacuum_state(wigner.DIM_CAP + 1)
    w = wigner.synth_values(rho, xs, xs)
    assert w.tobytes() == _fresh_synth(rho, xs, xs).tobytes()
    assert wigner._cached_chain.cache_info() == info
    assert wigner._THREAD.work is work
    assert wigner._position_chain(wigner.DIM_CAP + 1, xs, xs) is not wigner._position_chain(
        wigner.DIM_CAP + 1, xs, xs
    )
    assert wigner._position_chain(40, xs, xs) is kept


@pytest.mark.parametrize(
    "dim", [2.5, np.float64(3.9), float("nan"), np.float64("nan"), math.inf, 1, 201, 10**400]
)
def test_reconstruct_rejects_dims_that_are_not_whole_or_in_range(dim):
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    with pytest.raises(DomainError, match="whole number in"):
        reconstruct(grid, dim)


def test_reconstruct_accepts_whole_float_dim():
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    report = reconstruct(grid, np.float64(12.0))
    assert report.dim == 12 and type(report.dim) is int
    assert report.rho.tobytes() == reconstruct(grid, 12).rho.tobytes()


def test_hermite_norms_hold_at_cap():
    xs = np.linspace(-3.0, 3.0, 61)
    chain = wigner._position_chain(wigner.HERMITE_DIM_CAP, xs, xs)
    # On centred axes the rows and columns together span [-R, R]: the array
    # they view holds every psi_n on the whole q-grid.
    norms = np.sum(chain.rows.base**2, axis=1) * chain.h
    assert np.max(np.abs(norms - 1.0)) < 1e-13


def test_chain_dim_above_cap_raises_before_any_work():
    over = wigner.HERMITE_DIM_CAP + 1
    xs = np.linspace(-3.0, 3.0, 61)
    wigner._position_chain(2, xs, xs)
    info = wigner._cached_chain.cache_info()
    with pytest.raises(DomainError, match="HERMITE_DIM_CAP"):
        wigner._position_chain(over, xs, xs)
    assert wigner._cached_chain.cache_info() == info
    # Not a density matrix: the cap check comes before the density check.
    rho = np.zeros((over, over))
    with pytest.raises(DomainError, match="HERMITE_DIM_CAP"):
        wigner.synth_values(rho, xs, xs)
    with pytest.raises(DomainError, match="HERMITE_DIM_CAP"):
        synth_grid(rho, (-3.0, 3.0, 61), (-3.0, 3.0, 61))


@pytest.mark.parametrize("rho", [np.float64(1.0), np.zeros((601, 3)), np.zeros(3)])
def test_synth_grid_names_a_shape_that_is_not_square(rho):
    with pytest.raises(DomainError, match="square matrix"):
        synth_grid(rho, (-3.0, 3.0, 61), (-3.0, 3.0, 61))


def test_qfi_from_grid_vacuum():
    grid = synth_grid(quantum.vacuum_state(12), AXES, AXES)
    _theta, result, _report = qfi_from_grid(grid, 12)
    assert result.value == pytest.approx(2.0, abs=0.05)


def test_qfi_from_grid_squeezed_target():
    r = 0.5 * math.log(2.1)
    rho = quantum.squeezed_state(r, 40)
    grid = synth_grid(rho, (-9, 9, 111), (-9, 9, 111))
    theta, result, _report = qfi_from_grid(grid, 40)
    assert result.value == pytest.approx(4.2, abs=0.1)
    assert theta == pytest.approx(math.pi / 2, abs=5e-3)


def test_qfi_from_grid_cat_matches_spectral():
    cat = quantum.cat_state(1.0, 30)
    grid = synth_grid(cat, (-8, 8, 111), (-8, 8, 111))
    theta, result, _report = qfi_from_grid(grid, 30)
    _a, x, p = quantum.fock_operators(30, nu=0.5)
    _t, direct = fisher.qfi_max_quadrature(cat, x, p)
    assert result.value == pytest.approx(direct.value, rel=0.02)


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
    _theta, result, _report = qfi_from_grid(grid, dim)
    d = state.shape[0]
    _a, x, p = quantum.fock_operators(d, nu=0.5)
    _t, direct = fisher.qfi_max_quadrature(state, x, p)
    assert result.value == pytest.approx(direct.value, rel=0.02)


def test_resolution_stability():
    rho = quantum.cat_state(1.5, 36)
    coarse = synth_grid(rho, (-9, 9, 81), (-9, 9, 81))
    fine = synth_grid(rho, (-9, 9, 161), (-9, 9, 161))
    f_coarse = qfi_from_grid(coarse, 36)[1].value
    f_fine = qfi_from_grid(fine, 36)[1].value
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


# Grids like the benchmark's fixed-dim Wigner jobs, and grids near the dim cap
# that resolve dims 150-200 (thermal and coherent states) and the alpha = 6 cat.
FIXED = (-7.0, 7.0, 71)
NEAR_CAP = (-22.0, 22.0, 361)
CAT_NEAR_CAP = (-22.0, 22.0, 481)


def _gaussian_grid(axis, var_major, var_minor, angle=0.0, x0=0.0, p0=0.0):
    """Closed-form Gaussian W on a square grid, its major axis at ``angle``."""
    xg, pg = np.meshgrid(np.linspace(*axis) - x0, np.linspace(*axis) - p0)
    u = math.cos(angle) * xg + math.sin(angle) * pg
    v = math.cos(angle) * pg - math.sin(angle) * xg
    values = np.exp(-0.5 * u * u / var_major - 0.5 * v * v / var_minor)
    return WignerGrid(*axis, *axis, values / (2.0 * math.pi * math.sqrt(var_major * var_minor)))


def _squeezed_grid(axis, r, angle):
    return _gaussian_grid(axis, 0.5 * math.exp(2.0 * r), 0.5 * math.exp(-2.0 * r), angle)


def _thermal_grid(axis, nbar):
    return _gaussian_grid(axis, nbar + 0.5, nbar + 0.5)


def _coherent_grid(axis, alpha):
    x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    return _gaussian_grid(axis, 0.5, 0.5, 0.0, x0, p0)


def _even_cat_grid(axis, alpha):
    """Closed-form W of (|alpha> + |-alpha>) / norm for real alpha."""
    xg, pg = np.meshgrid(np.linspace(*axis), np.linspace(*axis))
    x0 = math.sqrt(2.0) * alpha
    values = (
        np.exp(-((xg - x0) ** 2) - pg**2)
        + np.exp(-((xg + x0) ** 2) - pg**2)
        + 2.0 * np.exp(-(xg**2) - pg**2) * np.cos(2.0 * x0 * pg)
    )
    return WignerGrid(*axis, *axis, values / (2.0 * math.pi * (1.0 + math.exp(-2.0 * alpha**2))))


def _even_cat_fhat(alpha):
    return 2.0 + 4.0 * alpha**2 * (1.0 + math.tanh(alpha**2))


def _qfi_matching_two_decomposition_path(grid, dim, old_method):
    """``qfi_from_grid`` checked against ``qfi_max_quadrature`` of the reported rho.

    The latter checks and decomposes rho a second time, as ``qfi_from_grid``
    once did: ``old_method`` is the route it takes.  Where it took the
    spectral route the two agree to rounding; where it certified rho pure it
    used 4 Var of rho[:, k] / sqrt(rho_kk) rather than the exact QFI of the
    clipped state, which differs by up to about 1e-9.
    """
    _theta, result, report = qfi_from_grid(grid, dim)
    _a, x, p = quantum.fock_operators(report.dim, nu=0.5)
    _theta, two = fisher.qfi_max_quadrature(report.rho, x, p)
    assert (result.method, two.method) == ("spectral", old_method)
    rel = 1e-12 if old_method == "spectral" else 1e-8
    assert result.value == pytest.approx(two.value, rel=rel)
    return result


@pytest.mark.parametrize(
    "make_grid,old_method",
    [
        (lambda: _squeezed_grid(FIXED, 0.45, 0.3), "pure-variance"),
        (lambda: _squeezed_grid(FIXED, 0.7, 2.0), "spectral"),
        (lambda: _even_cat_grid(FIXED, 1.7), "pure-variance"),
        (lambda: _even_cat_grid(FIXED, 2.0), "spectral"),
        (
            lambda: synth_grid(quantum.squeezed_state(0.5, 60), (-10, 10, 101), (-10, 10, 101)),
            "pure-variance",
        ),
    ],
    ids=["squeezed-pure", "squeezed-mixed", "cat-pure", "cat-mixed", "squeezed-101"],
)
def test_handed_over_spectrum_matches_two_decomposition_path(make_grid, old_method):
    _qfi_matching_two_decomposition_path(make_grid(), 32, old_method)


@pytest.mark.parametrize(
    "make_grid,dim,fhat,old_method",
    [
        (lambda: _thermal_grid(NEAR_CAP, 3.0), 150, 2.0 / 7.0, "spectral"),
        (lambda: _thermal_grid(NEAR_CAP, 3.0), 200, 2.0 / 7.0, "spectral"),
        (lambda: _coherent_grid(NEAR_CAP, 8.0 * np.exp(0.7j)), 150, 2.0, "pure-variance"),
        (lambda: _even_cat_grid(CAT_NEAR_CAP, 6.0), 200, _even_cat_fhat(6.0), "pure-variance"),
    ],
    ids=["thermal-150", "thermal-200", "coherent-150", "cat-200"],
)
def test_near_cap_qfi_matches_closed_form(make_grid, dim, fhat, old_method):
    result = _qfi_matching_two_decomposition_path(make_grid(), dim, old_method)
    assert result.value == pytest.approx(fhat, rel=1e-9)


@pytest.mark.parametrize(
    "make_grid,dim",
    [
        (lambda: _even_cat_grid(FIXED, 1.7), 32),
        (_coherent_patch, None),
        (lambda: _thermal_grid(FIXED, 1.0), 32),
        (lambda: _thermal_grid((-10.0, 10.0, 101), 1.0), None),
    ],
    ids=["pure", "pure-auto-dim", "mixed", "mixed-auto-dim"],
)
def test_qfi_from_grid_decomposes_once(monkeypatch, make_grid, dim):
    # One eigensolve, no check of the exactly Hermitian raw overlap, and the
    # grid's axes formed once however many dims the auto-dim ladder tries.
    grid = make_grid()
    calls = []
    eigh, eigvalsh, density = np.linalg.eigh, np.linalg.eigvalsh, quantum.density
    hermitian, linspace = quantum.require_hermitian, np.linspace

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    monkeypatch.setattr(quantum, "density", counting("density", density))
    monkeypatch.setattr(quantum, "require_hermitian", counting("require_hermitian", hermitian))
    monkeypatch.setattr(np, "linspace", counting("linspace", linspace))
    qfi_from_grid(grid, dim)
    assert calls == ["linspace", "linspace", "eigh"]


def _refuse_dense_ladder(*_args, **_kwargs):
    raise AssertionError("the best-quadrature QFI formed the dense ladder operator")


@pytest.mark.parametrize(
    "make_grid,dim",
    [(lambda: _even_cat_grid(FIXED, 1.7), 32), (lambda: _thermal_grid(FIXED, 1.0), 32)],
    ids=["pure", "mixed"],
)
def test_qfi_from_grid_forms_no_dense_ladder(monkeypatch, make_grid, dim):
    # The reconstruction's spectrum meets the ladder only through its row shifts.
    grid = make_grid()
    monkeypatch.setattr(quantum, "annihilation", _refuse_dense_ladder)
    _theta, result, _report = qfi_from_grid(grid, dim)
    assert result.method == "spectral"


def test_fidelity_rejects_mismatched_shapes():
    with pytest.raises(DomainError, match=r"dimension mismatch: rho \(3, 3\) vs sigma \(4, 4\)"):
        wigner.fidelity(quantum.vacuum_state(3), quantum.vacuum_state(4))
    with pytest.raises(DomainError, match="dimension mismatch"):
        mixed = quantum.mix(0.5, quantum.vacuum_state(5), quantum.number_state(1, 5))
        wigner.fidelity(mixed, quantum.vacuum_state(4))


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
    overlaps = wigner._overlap_reconstruct(grid, wigner._position_chain(dim, xs, ps))
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
    # Every x lies beyond the cut radius of dim 40 (and of dim 200), so no
    # (x - y, x + y) pair falls on the q-grid: empty boxes, zeros and a "zero
    # state", not an empty-index failure.  Auto-dim builds the dim-40 chain
    # alone: no larger chain has pairs either.
    p_axis = (-4.0, 4.0, 33)
    rho = random_density(np.random.default_rng(1), 40)
    for x_axis in ((30.0, 40.0, 33), (40.0, 48.0, 33)):
        wigner._cached_chain.cache_clear()
        values = wigner.synth_values(rho, np.linspace(*x_axis), np.linspace(*p_axis))
        assert values.shape == (33, 33)
        assert np.array_equal(values, np.zeros((33, 33)))
        grid = WignerGrid(*x_axis, *p_axis, np.ones((33, 33)))
        chain = wigner._position_chain(40, grid.x_axis, grid.p_axis)
        assert chain.rows.shape == chain.cols.shape == (40, 0)
        assert np.array_equal(wigner._overlap_reconstruct(grid, chain), np.zeros((40, 40)))
        for dim in (40, None):
            with pytest.raises(ReconstructionError, match="zero state"):
                reconstruct(grid, dim)
        # Synthesis built the dim-40 chain; the lookup and both
        # reconstructions reused it, and built no other.
        info = wigner._cached_chain.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)


def test_grid_outside_dim_40_support_climbs_the_ladder():
    # x on [16, 25] lies beyond the dim-40 cut radius 15 but inside the
    # dim-61 one: auto-dim steps past the empty dim-40 chain.
    wigner._cached_chain.cache_clear()
    grid = WignerGrid(16.0, 25.0, 33, -4.0, 4.0, 33, np.ones((33, 33)))
    with pytest.raises(ReconstructionError, match="unfaithful"):
        reconstruct(grid)
    # It climbed to dim 139, where the tail fell below the limit.
    xs, ps = grid.x_axis, grid.p_axis
    chains = [wigner._position_chain(dim, xs, ps) for dim in (40, 61, 92, 139)]
    info = wigner._cached_chain.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 4, 4)
    assert chains[0].rows.shape == (40, 0)
    assert chains[1].rows.shape[1] > 0


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
