import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macrosize
from macrosize import oscillator, quantum, wigner
from macrosize.cli import (
    COUNT,
    DIFFRACTION_SCHEMA,
    MEASURE_SCHEMAS,
    MODE_SCHEMA,
    OSCILLATOR_SCHEMA,
    main,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_measure_ghz(tmp_path, capsys):
    cfg = write_json(tmp_path / "ghz.json", {"system": "ghz", "n": 5, "q": 0.5})
    code, out, _err = run_cli(["measure", cfg], capsys)
    assert code == 0
    assert "n_ent" in out
    value = float(next(l for l in out.splitlines() if l.startswith("n_ent")).split()[1])
    assert value == pytest.approx(5.0, abs=1e-9)


def test_measure_ghz_witness_depth_near_product_state(tmp_path, capsys):
    # Within 1e-9 of a product state, N_ent must still not exceed the register
    # size, so the witnessed depth is at most n.
    cfg = write_json(
        tmp_path / "ghz.json", {"system": "ghz", "n": 5, "q": 1e-9, "phase": 0.7}
    )
    code, out, _err = run_cli(["measure", cfg], capsys)
    assert code == 0
    lines = dict(l.split()[:2] for l in out.splitlines() if not l.startswith("#"))
    assert lines["witness_depth"] == "5"


@pytest.mark.parametrize("n", [12, 20])
def test_measure_ghz_large_registers(tmp_path, capsys, n):
    cfg = write_json(tmp_path / "ghz.json", {"system": "ghz", "n": n, "q": 0.3, "phase": 0.4})
    code, out, _err = run_cli(["--format", "json", "measure", cfg], capsys)
    assert code == 0
    values = json.loads(out)["values"]
    assert values["witness_depth"] == n
    assert values["n_ext"] == pytest.approx(4.0 * n * n * 0.3 * 0.7, rel=1e-9)


def test_measure_ghz_rejects_register_above_cap(tmp_path, capsys):
    cfg = write_json(tmp_path / "ghz.json", {"system": "ghz", "n": 21, "q": 0.5})
    code, out, err = run_cli(["measure", cfg], capsys)
    assert code == 3
    assert out == ""
    assert "needs a 2097152-entry state vector and 22 diagonals (~0.4 GB)" in err


def test_measure_oscillator_teufel(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "teufel.json",
        {
            "system": "oscillator",
            "mode_mass": "1.3e-14 kg",
            "zero_point": "7.8e-15 m",
            "nbar": 0.34,
            "mode_atoms": 2.9e11,
            "delta_u": "1.7e-11 m",
        },
    )
    code, out, _err = run_cli(["measure", cfg], capsys)
    assert code == 0
    n_ext = float(next(l for l in out.splitlines() if l.startswith("n_ext ")).split()[1])
    assert n_ext == pytest.approx(7.9e17, rel=0.10)


def test_measure_rejects_negative_mass(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "bad.json",
        {
            "system": "oscillator",
            "mode_mass": "-1.3e-14 kg",
            "zero_point": "7.8e-15 m",
            "nbar": 0.34,
        },
    )
    code, _out, err = run_cli(["measure", cfg], capsys)
    assert code == 3
    assert "positive" in err


def test_measure_rejects_unknown_key(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "unknown.json", {"system": "ghz", "n": 3, "q": 0.5, "extra": 1}
    )
    code, _out, err = run_cli(["measure", cfg], capsys)
    assert code == 2
    assert "unknown config keys" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"system": "ghz", "n": float("nan"), "q": 0.5},
        {"system": "fock", "kind": "vacuum", "dim": float("inf")},
        {"system": "oscillator", "mode_mass": "NaN kg", "zero_point": "7.8e-15 m", "nbar": 0.34},
    ],
    ids=["nan-literal", "infinity-literal", "nan-string"],
)
def test_measure_rejects_non_finite(tmp_path, capsys, doc):
    cfg = write_json(tmp_path / "bad.json", doc)
    code, _out, err = run_cli(["measure", cfg], capsys)
    assert code == 2
    assert "non-finite" in err


def test_measure_rejects_missing_unit(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "nounit.json",
        {"system": "oscillator", "mode_mass": 1.3e-14, "nbar": 0.34},
    )
    code, _out, err = run_cli(["measure", cfg], capsys)
    assert code == 2
    assert "unit" in err


def test_measure_fock_cat(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "cat.json",
        {"system": "fock", "kind": "cat", "dim": 40, "alpha": 2.0},
    )
    code, out, _err = run_cli(["measure", cfg], capsys)
    assert code == 0
    theta = float(
        next(l for l in out.splitlines() if l.startswith("theta_star")).split()[1]
    )
    assert min(theta, math.pi - theta) == pytest.approx(0.0, abs=1e-3)
    assert "isotropic" not in out


def test_measure_fock_thermal_isotropic_note(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "thermal.json",
        {"system": "fock", "kind": "thermal", "dim": 60, "nbar": 1.5},
    )
    code, out, _err = run_cli(["--format", "json", "measure", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["theta_star"] == 0.0
    assert doc["values"]["fhat"] == pytest.approx(0.5, rel=1e-6)
    assert sum("isotropic" in note for note in doc["notes"]) == 1


def test_measure_fock_squeezed_near_cap(tmp_path, capsys):
    # A pure state at dim 2000 takes the O(d^2) path, with no eigensolver.
    cfg = write_json(
        tmp_path / "squeezed.json",
        {"system": "fock", "kind": "squeezed", "dim": 2000, "r": 1.0},
    )
    code, out, _err = run_cli(["--format", "json", "measure", cfg], capsys)
    assert code == 0
    assert json.loads(out)["values"]["fhat"] == pytest.approx(2.0 * math.exp(2.0), rel=1e-9)


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------


def test_wigner_vacuum_grid(tmp_path, capsys):
    grid = wigner.synth_grid(quantum.vacuum_state(12), (-7, 7, 101), (-7, 7, 101))
    path = tmp_path / "vacuum.wig"
    wigner.save_grid(grid, path)
    code, out, _err = run_cli(["wigner", str(path), "--dim", "12"], capsys)
    assert code == 0
    fhat = float(next(l for l in out.splitlines() if l.startswith("fhat")).split()[1])
    assert fhat == pytest.approx(2.0, abs=0.05)


def test_wigner_with_mode_config(tmp_path, capsys):
    grid = wigner.synth_grid(quantum.vacuum_state(12), (-7, 7, 101), (-7, 7, 101))
    path = tmp_path / "vacuum.wig"
    wigner.save_grid(grid, path)
    mode_cfg = write_json(
        tmp_path / "mode.json",
        {
            "mode_mass": "1.3e-14 kg",
            "zero_point": "7.8e-15 m",
            "mode_atoms": 2.9e11,
            "delta_u": "1.7e-11 m",
        },
    )
    code, out, _err = run_cli(
        ["wigner", str(path), "--dim", "12", "--mode-config", mode_cfg], capsys
    )
    assert code == 0
    n_ext = float(next(l for l in out.splitlines() if l.startswith("n_ext")).split()[1])
    # vacuum fhat = 2 reproduces the ground-state thermal value
    assert n_ext == pytest.approx((1.3e-14 * 7.8e-15 / 8.7872e-38) ** 2, rel=0.05)


def test_wigner_corrupt_file(tmp_path, capsys):
    path = tmp_path / "corrupt.wig"
    path.write_text("wigner-grid v1\nx -1 1 2\n", encoding="utf-8")
    code, _out, err = run_cli(["wigner", str(path)], capsys)
    assert code == 2
    assert "header" in err or "axis" in err


def test_wigner_missing_file(capsys):
    code, _out, _err = run_cli(["wigner", "/nonexistent/grid.wig"], capsys)
    assert code == 2


def test_wigner_unfaithful_reconstruction_exit_4(tmp_path, capsys):
    rng = np.random.default_rng(8)
    values = np.abs(rng.standard_normal((41, 41))) * 0.01 + 0.001
    h = 20.0 / 40
    values /= values.sum() * h * h
    grid = wigner.WignerGrid(-10, 10, 41, -10, 10, 41, values)
    path = tmp_path / "garbage.wig"
    wigner.save_grid(grid, path)
    code, _out, err = run_cli(["wigner", str(path), "--dim", "20"], capsys)
    assert code == 4
    assert "residual" in err


def test_wigner_frames_give_one_row_each(tmp_path, capsys):
    # Three frames, two on one set of axes: each row holds the values of its
    # grid run alone, and the isotropic note names its frame.
    axis, other = (-10.0, 10.0, 101), (-9.0, 9.0, 91)
    paths = []
    for name, rho, ax in (
        ("cat", quantum.cat_state(1.5, 60), axis),
        ("squeezed", quantum.squeezed_state(0.5, 60), other),
        ("thermal", quantum.thermal_state(1.0, 40), axis),
    ):
        paths.append(str(tmp_path / f"{name}.wig"))
        wigner.save_grid(wigner.synth_grid(rho, ax, ax), paths[-1])
    mode_cfg = write_json(
        tmp_path / "mode.json", {"mode_mass": "1.3e-14 kg", "zero_point": "7.8e-15 m"}
    )
    flags = ["--dim", "32", "--mode-config", mode_cfg]
    code, out, _err = run_cli(["--format", "json", "wigner", *paths, *flags], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"] == {}
    assert [row["grid"] for row in doc["table"]] == paths
    for path, row in zip(paths, doc["table"]):
        code, out, _err = run_cli(["--format", "json", "wigner", path, *flags], capsys)
        alone = json.loads(out)["values"]
        assert code == 0 and sorted(row) == sorted(["grid", *alone])
        for key, value in alone.items():
            assert row[key] == (f"{value:.6e}" if isinstance(value, float) else str(value))
    assert doc["notes"] == [
        "fhat in the vacuum => 2.0 quadrature convention",
        f"{paths[2]}: isotropic state: every quadrature maximizes the QFI; "
        "theta_star is 0 by convention",
        "theta_star in rad",
    ]


def test_wigner_frame_error_names_its_file(tmp_path, capsys):
    good = write_vacuum_grid(tmp_path / "vacuum.wig")
    rng = np.random.default_rng(8)
    values = np.abs(rng.standard_normal((41, 41))) * 0.01 + 0.001
    values /= values.sum() * 0.5 * 0.5
    bad = tmp_path / "garbage.wig"
    wigner.save_grid(wigner.WignerGrid(-10, 10, 41, -10, 10, 41, values), bad)
    code, out, err = run_cli(["wigner", good, str(bad), "--dim", "20"], capsys)
    assert (code, out) == (4, "")
    assert err.startswith(f"error: {bad}: unfaithful reconstruction")


# ---------------------------------------------------------------------------
# diffraction
# ---------------------------------------------------------------------------

FEIN_CONFIG = {
    "mass": "4.4465e-23 kg",
    "n_atoms": 2000,
    "grating_period": "266e-9 m",
    "open_fraction": 0.43,
    "visibility": 0.25,
    "flight_distance": "1 m",
    "speed": "260 m/s",
    "source_g1": "0.2 m",
    "g1_g2": "1 m",
}


def test_diffraction_fein(tmp_path, capsys):
    cfg = write_json(tmp_path / "fein.json", FEIN_CONFIG)
    code, out, _err = run_cli(["diffraction", cfg], capsys)
    assert code == 0
    lines = dict(
        (l.split()[0], l.split()[1]) for l in out.splitlines() if l and not l.startswith("#")
    )
    assert float(lines["n_ext"]) == pytest.approx(1.4e14, rel=0.10)
    assert float(lines["qfi_bound"]) == pytest.approx(4.3e-60, rel=0.05)
    assert float(lines["coherence_length"]) == pytest.approx(2.3e-8, rel=0.05)
    assert float(lines["delta_x_cm"]) == pytest.approx(396e-9, rel=0.01)
    assert "n_ent_range_L0_0.2m_to_1m" in lines


def write_fein_scan(path, nan_at=None):
    """A clean 32-point Fein-like scan, with one count replaced by nan if asked."""
    k = 2 * math.pi / 266e-9
    rows = ["fringe-scan v1"]
    for i, s in enumerate(np.linspace(0, 8e-7, 32)):
        count = "nan" if i == nan_at else f"{140 * (1 + 0.25 * math.sin(k * s + 0.3)):.6f}"
        rows.append(f"{s:.9e} {count}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def test_diffraction_with_scan(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "fein.json", {k: v for k, v in FEIN_CONFIG.items() if k != "visibility"}
    )
    scan_path = write_fein_scan(tmp_path / "scan.txt")
    code, out, _err = run_cli(["diffraction", cfg, scan_path], capsys)
    assert code == 0
    vis = float(next(l for l in out.splitlines() if l.startswith("visibility")).split()[1])
    assert vis == pytest.approx(0.25, abs=1e-3)


def test_diffraction_rejects_nan_in_scan(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "fein.json", {k: v for k, v in FEIN_CONFIG.items() if k != "visibility"}
    )
    scan_path = write_fein_scan(tmp_path / "scan.txt", nan_at=5)
    code, out, err = run_cli(["diffraction", cfg, scan_path], capsys)
    assert code == 3
    assert out == ""
    assert "finite" in err


def test_diffraction_rejects_malformed_scan_file_with_exit_2(tmp_path, capsys):
    # A scan file in an unknown format is a file-format error, as a grid file's is.
    cfg = write_json(
        tmp_path / "fein.json", {k: v for k, v in FEIN_CONFIG.items() if k != "visibility"}
    )
    scan_path = tmp_path / "scan.txt"
    write_fein_scan(scan_path)
    scan_path.write_text(scan_path.read_text().replace("fringe-scan v1", "fringe-scan v2", 1))
    code, out, err = run_cli(["diffraction", cfg, str(scan_path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: missing 'fringe-scan v1' header\n"


def test_diffraction_rejects_wrong_unit(tmp_path, capsys):
    bad = dict(FEIN_CONFIG)
    bad["mass"] = "4.4465e-23 g"
    cfg = write_json(tmp_path / "bad.json", bad)
    code, _out, err = run_cli(["diffraction", cfg], capsys)
    assert code == 2
    assert "whitelist" in err


def test_diffraction_fits_a_scan_written_twice(tmp_path, capfd):
    # A repeated position is a zero step; the fit seeds past it, and LAPACK,
    # which writes to the process's stdout, is never handed a bad argument.
    cfg = write_json(
        tmp_path / "fein.json", {k: v for k, v in FEIN_CONFIG.items() if k != "visibility"}
    )
    k = 2 * math.pi / 266e-9
    s = np.linspace(0.0, 4 * 266e-9, 40, endpoint=False)
    rows = [f"{x!r} {140 * (1 + 0.3 * math.sin(k * x + 0.3))!r}" for x in s.tolist()]
    visibilities = []
    for passes in (1, 2):
        path = tmp_path / f"scan{passes}.txt"
        path.write_text("\n".join(["fringe-scan v1", *rows * passes]) + "\n", encoding="utf-8")
        code = main(["--format", "json", "diffraction", cfg, str(path)])
        out, err = capfd.readouterr()
        assert code == 0 and err == ""
        assert "DLASCL" not in out and "illegal value" not in out
        visibilities.append(json.loads(out)["values"]["visibility"])
    assert visibilities[1] == pytest.approx(visibilities[0], abs=1e-9)


def _far_scan_cli(tmp_path, capsys, reach):
    """``macrosize diffraction`` on 40 positions on [0, reach] with four fringes."""
    cfg = write_json(
        tmp_path / "fein.json", {k: v for k, v in FEIN_CONFIG.items() if k != "visibility"}
    )
    rows = [
        f"{x!r} {1 + 0.3 * math.sin(2 * math.pi * i / 10)!r}"
        for i, x in enumerate(np.linspace(0.0, reach, 40).tolist())
    ]
    path = tmp_path / "scan.txt"
    path.write_text("\n".join(["fringe-scan v1", *rows]) + "\n", encoding="utf-8")
    return run_cli(["diffraction", cfg, str(path)], capsys)


def test_diffraction_scan_too_wide_to_fit_exits_3(tmp_path, capsys):
    code, out, err = _far_scan_cli(tmp_path, capsys, 1e300)
    assert (code, out) == (3, "")
    assert err == "error: scan positions reach 1e+300: too large for the fringe fit\n"


def test_diffraction_scan_whose_qfi_bound_underflows_exits_3(tmp_path, capsys):
    # The fit holds, but (hbar t)^2 F_cl rounds to 0: the sizes were all 0.
    code, out, err = _far_scan_cli(tmp_path, capsys, 1e150)
    assert (code, out) == (3, "")
    assert err.startswith("error: QFI bound (hbar t)^2 F_cl underflows to 0 for F_cl = ")


# ---------------------------------------------------------------------------
# oscillator geometry
# ---------------------------------------------------------------------------

TEUFEL_GEOMETRY = {
    "shape": "circular-drum",
    "radius": "7.5e-6 m",
    "thickness": "1.0e-7 m",
    "density": "2.71e3 kg/m3",
    "atomic_mass": "4.4834e-26 kg",
    "frequency": "1.1e7 Hz",
    "nbar": 0.34,
    "delta_u": "1.7e-11 m",
}


def test_oscillator_geometry_pipeline(tmp_path, capsys):
    cfg = write_json(tmp_path / "drum.json", TEUFEL_GEOMETRY)
    code, out, _err = run_cli(["oscillator", cfg], capsys)
    assert code == 0
    lines = dict(
        (l.split()[0], l.split()[1]) for l in out.splitlines() if l and not l.startswith("#")
    )
    assert float(lines["volume_fraction"]) == pytest.approx(0.2695, abs=1e-3)
    assert float(lines["mode_mass"]) == pytest.approx(1.3e-14, rel=0.02)
    assert float(lines["n_ext"]) == pytest.approx(7.9e17, rel=0.10)
    assert float(lines["n_ent"]) == pytest.approx(3.7e4, rel=0.10)
    assert "2 pi" in out  # Hz -> rad/s conversion note


def test_oscillator_missing_dimension_key(tmp_path, capsys):
    doc = {k: v for k, v in TEUFEL_GEOMETRY.items() if k != "radius"}
    cfg = write_json(tmp_path / "drum.json", doc)
    code, _out, err = run_cli(["oscillator", cfg], capsys)
    assert code == 2
    assert "radius" in err


def test_oscillator_runs_each_shape_with_delta_u(tmp_path, capsys):
    # delta_u is a length but not a dimension of any shape.
    dims = {
        "circular-drum": {"radius": "7.5e-6 m", "thickness": "1.0e-7 m"},
        "square-drum": {"side": "1.7e-3 m", "thickness": "5e-8 m"},
        "torus": {"minor_radius": "1e-6 m", "major_radius": "2e-5 m"},
        "uniform": {"volume": "1e-15 m3"},
    }
    assert set(dims) == set(oscillator.SHAPES)
    base = {k: v for k, v in TEUFEL_GEOMETRY.items() if k not in ("radius", "thickness")}
    for shape, shape_dims in dims.items():
        cfg = write_json(tmp_path / f"{shape}.json", dict(base, shape=shape, **shape_dims))
        assert run_cli(["oscillator", cfg], capsys)[0] == 0


def test_config_keys_match_variant_tables():
    # The oscillator schema's dimension keys are exactly the shapes' keys, and
    # the fock schema's parameters exactly the state kinds' parameters.
    shared = {"shape", "density", "atomic_mass", "frequency", "nbar", "delta_u", "mode"}
    shape_keys = {key for spec in oscillator.SHAPES.values() for key in spec.keys}
    assert set(OSCILLATOR_SCHEMA) - shared == shape_keys
    kind_params = {name for names, _build in quantum.STATE_BUILDERS.values() for name in names}
    assert set(MEASURE_SCHEMAS["fock"]) - {"system", "kind", "dim"} == kind_params


# ---------------------------------------------------------------------------
# keys of another variant, and keys given together with their alternative
# ---------------------------------------------------------------------------

TEUFEL_MODE = {
    "system": "oscillator",
    "mode_mass": "1.3e-14 kg",
    "zero_point": "7.8e-15 m",
    "nbar": 0.34,
}


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ["oscillator"],
            dict(TEUFEL_GEOMETRY, side="1e-3 m", volume="1e-15 m3"),
            "circular-drum config does not take keys ['side', 'volume']",
        ),
        (["oscillator"], dict(TEUFEL_GEOMETRY, shape="hexagon"), "unknown shape 'hexagon'"),
        (
            ["measure"],
            dict(TEUFEL_MODE, frequency="1.1e7 Hz"),
            "give zero_point or frequency, not both",
        ),
        (
            ["diffraction"],
            dict(FEIN_CONFIG, flight_time="3.8e-3 s"),
            "give flight_time or (flight_distance and speed), not both",
        ),
        (
            ["diffraction"],
            {
                k: v
                for k, v in dict(FEIN_CONFIG, flight_time="3.8e-3 s").items()
                if k != "speed"
            },
            "give flight_time or (flight_distance and speed), not both",
        ),
        (
            ["measure"],
            {"system": "fock", "kind": "thermal", "dim": 60},
            "thermal config is missing keys ['nbar']",
        ),
        (
            ["measure"],
            {"system": "fock", "kind": "squeezed", "dim": 60, "r": 0.5, "nbar": 1.0},
            "squeezed config does not take keys ['nbar']",
        ),
        (
            ["measure"],
            {"system": "fock", "kind": "fock", "dim": 60},
            "unknown state kind 'fock'",
        ),
    ],
    ids=[
        "oscillator-foreign-dimension",
        "oscillator-unknown-shape",
        "mode-zero-point-and-frequency",
        "diffraction-flight-time-and-both",
        "diffraction-flight-time-and-distance",
        "fock-missing-parameter",
        "fock-foreign-parameter",
        "fock-unknown-kind",
    ],
)
def test_variant_and_alternative_keys_exit_2(tmp_path, capsys, argv, doc, message):
    cfg = write_json(tmp_path / "bad.json", doc)
    code, out, err = run_cli([*argv, cfg], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_wigner_mode_config_rejects_zero_point_and_frequency(tmp_path, capsys):
    grid = wigner.synth_grid(quantum.vacuum_state(12), (-7, 7, 41), (-7, 7, 41))
    path = tmp_path / "vacuum.wig"
    wigner.save_grid(grid, path)
    mode = {k: v for k, v in TEUFEL_MODE.items() if k not in ("system", "nbar")}
    mode_cfg = write_json(tmp_path / "mode.json", dict(mode, frequency="1.1e7 Hz"))
    code, out, err = run_cli(
        ["wigner", str(path), "--dim", "12", "--mode-config", mode_cfg], capsys
    )
    assert (code, out) == (2, "")
    assert "not both" in err


def test_diffraction_rejects_visibility_with_scan(tmp_path, capsys):
    cfg = write_json(tmp_path / "fein.json", FEIN_CONFIG)
    scan_path = write_fein_scan(tmp_path / "scan.txt")
    code, out, err = run_cli(["diffraction", cfg, scan_path], capsys)
    assert (code, out) == (2, "")
    assert "drop the visibility key" in err


# ---------------------------------------------------------------------------
# config value kinds
# ---------------------------------------------------------------------------

NON_UTF8 = b'{"system": "ghz", "n": 3, "q": 0.5, "note": "\xe9"}'


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("measure", {"system": ["ghz"], "n": 3, "q": 0.5}, "system"),
        ("measure", {"system": "fock", "kind": ["cat"], "dim": 20, "alpha": 1.0}, "kind"),
        ("measure", {"system": "fock", "kind": "number", "dim": 10, "n": 2.7}, "n"),
        ("measure", {"system": "ghz", "n": 3.5, "q": 0.5}, "n"),
        ("measure", {"system": "fock", "kind": "vacuum", "dim": 12.9}, "dim"),
        ("oscillator", dict(TEUFEL_GEOMETRY, shape=["circular-drum"]), "shape"),
        ("oscillator", dict(TEUFEL_GEOMETRY, mode=[[1.0]]), "mode"),
        ("oscillator", dict(TEUFEL_GEOMETRY, mode={"a": 1}), "mode"),
        ("measure", NON_UTF8, None),
    ],
    ids=[
        "list-system",
        "list-kind",
        "fractional-fock-n",
        "fractional-ghz-n",
        "fractional-dim",
        "list-shape",
        "list-mode",
        "dict-mode",
        "non-utf8",
    ],
)
def test_config_type_errors_exit_2(tmp_path, capsys, command, doc, key):
    path = tmp_path / "bad.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        write_json(path, doc)
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    if key is None:
        assert "cannot read config" in err
    else:
        assert err.startswith(f"error: {key} must be a ")


def test_measure_whole_number_floats_run(tmp_path, capsys):
    as_ints = write_json(
        tmp_path / "ints.json", {"system": "fock", "kind": "number", "dim": 12, "n": 2}
    )
    as_floats = write_json(
        tmp_path / "floats.json", {"system": "fock", "kind": "number", "dim": 12.0, "n": 2.0}
    )
    code, out, _err = run_cli(["measure", as_floats], capsys)
    assert code == 0
    assert (code, out) == run_cli(["measure", as_ints], capsys)[:2]


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_table1_rows(capsys):
    code, out, _err = run_cli(["--format", "csv", "catalog", "--what", "table1"], capsys)
    assert code == 0
    data_lines = [
        l for l in out.splitlines() if l and "," in l and not l.startswith(("label", "note"))
    ]
    assert len(data_lines) == 10
    assert any("deviation" not in l and "Teufel" in l for l in data_lines)


def test_catalog_leggett_values(capsys):
    code, out, _err = run_cli(["catalog", "--what", "leggett"], capsys)
    assert code == 0
    lines = dict(
        (l.split()[0], l.split()[1]) for l in out.splitlines() if l and not l.startswith("#")
    )
    assert float(lines["n_ext_momentum"]) == pytest.approx(6.9e11, rel=0.03)
    assert float(lines["n_ext_position_1s"]) == pytest.approx(8.9e37, rel=0.03)


def test_catalog_fig3_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _o, _e = run_cli(
        ["--format", "csv", "--out", str(out1), "catalog", "--what", "fig3"], capsys
    )
    code2, _o, _e = run_cli(
        ["--format", "csv", "--out", str(out2), "catalog", "--what", "fig3"], capsys
    )
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "label,n_ext,n_ent,class,deviation_ext,deviation_ent"
    assert len(lines) == 15  # header + 14 systems


def test_catalog_unknown_selector(capsys):
    code, _out, _err = run_cli(["catalog", "--what", "everything"], capsys)
    assert code == 2


def test_json_format(tmp_path, capsys):
    cfg = write_json(tmp_path / "ghz.json", {"system": "ghz", "n": 3, "q": 0.5})
    code, out, _err = run_cli(["--format", "json", "measure", cfg], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["values"]["n_ent"] == pytest.approx(3.0, abs=1e-9)


def _subprocess_env():
    # The subprocess imports the same macrosize sources as this test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(macrosize.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_cli_import_leaves_scipy_unloaded():
    # Every CLI job starts a process; scipy alone would take most of its start-up,
    # and orjson is imported only by the grid reader that uses it.
    code = (
        "import sys, macrosize.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'orjson'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_entry_point():
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "macrosize.cli", "catalog", "--what", "flux"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "n_ext_momentum" in proc.stdout


def test_parser_built_once_keeps_separate_process_output(monkeypatch, capsys):
    # The parser is built once per process: an argparse error exit must leave
    # nothing behind, so each call prints what a fresh process prints.
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["catalog", "--what", "bogus"],
        ["catalog", "--what", "nh"],
        ["--format", "yaml", "catalog", "--what", "nh"],
        ["measure"],
        ["--help"],
        ["wigner", "--help"],
        ["--format", "csv", "catalog", "--what", "flux"],
    ]
    in_process = [run_cli(argv, capsys) for argv in calls]
    env = dict(_subprocess_env(), COLUMNS="80")
    for argv, got in zip(calls, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "macrosize.cli", *argv], capture_output=True, text=True, env=env
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert [code for code, _out, _err in in_process] == [2, 0, 2, 2, 0, 0, 0]


FOCK_KINDS = [
    {"kind": "vacuum"},
    {"kind": "number", "n": 7},
    {"kind": "coherent", "alpha": 1.5},
    {"kind": "cat", "alpha": 2.0},
    {"kind": "thermal", "nbar": 1.5},
    {"kind": "squeezed", "r": 0.7},
]


@pytest.mark.parametrize("params", FOCK_KINDS, ids=[p["kind"] for p in FOCK_KINDS])
def test_measure_fock_runs_no_eigensolver_and_no_hermiticity_check(
    tmp_path, capsys, monkeypatch, params
):
    # Built states arrive decomposed: the job checks nothing it built itself.
    calls = []
    eigh, eigvalsh, hermitian = np.linalg.eigh, np.linalg.eigvalsh, quantum.require_hermitian

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", eigvalsh))
    monkeypatch.setattr(quantum, "require_hermitian", counting("require_hermitian", hermitian))
    cfg = write_json(tmp_path / "fock.json", {"system": "fock", "dim": 80, **params})
    code, out, err = run_cli(["measure", cfg], capsys)
    assert (code, err) == (0, "")
    assert "fhat" in out
    assert calls == []


@pytest.mark.parametrize("params", FOCK_KINDS, ids=[p["kind"] for p in FOCK_KINDS])
def test_measure_fock_forms_no_dense_ladder(tmp_path, capsys, monkeypatch, params):
    # The best quadrature applies the ladder as row shifts, never as a matrix.
    def refuse(*_args, **_kwargs):
        raise AssertionError("measure fock formed the dense ladder operator")

    monkeypatch.setattr(quantum, "annihilation", refuse)
    cfg = write_json(tmp_path / "fock.json", {"system": "fock", "dim": 80, **params})
    code, out, err = run_cli(["measure", cfg], capsys)
    assert (code, err) == (0, "")
    assert "fhat" in out


def test_measure_fock_negative_number_index_is_a_domain_error(tmp_path, capsys):
    # It was a TruncationError suggesting dim 0; the exit code is the same.
    config = {"system": "fock", "kind": "number", "dim": 10, "n": -1}
    cfg = write_json(tmp_path / "fock.json", config)
    code, out, err = run_cli(["measure", cfg], capsys)
    assert (code, out) == (3, "")
    assert err == "error: number state index must be a whole number >= 0, got -1\n"


@pytest.mark.parametrize(
    "params",
    [{"kind": "thermal", "nbar": 1e9}, {"kind": "coherent", "alpha": 100}],
    ids=["thermal", "coherent"],
)
def test_measure_fock_beyond_the_cap_names_no_dim(tmp_path, capsys, params):
    cfg = write_json(tmp_path / "fock.json", {"system": "fock", "dim": 100, **params})
    code, out, err = run_cli(["measure", cfg], capsys)
    assert (code, out) == (3, "")
    assert err.endswith(f"no dim up to DIM_CAP = {quantum.DIM_CAP} holds the state\n")
    assert "use dim" not in err


# ---------------------------------------------------------------------------
# finite inputs whose results are not finite, and the mode config's order
# ---------------------------------------------------------------------------

VACUUM_AXIS = (-6.0, 6.0, 41)


def write_vacuum_grid(path):
    wigner.save_grid(wigner.synth_grid(quantum.vacuum_state(4), VACUUM_AXIS, VACUUM_AXIS), path)
    return str(path)


@pytest.mark.parametrize(
    "argv, doc",
    [
        (
            ["measure"],
            {"system": "oscillator", "nbar": 3.0, "mode_mass": "1e288 kg", "zero_point": "1e137 m"},
        ),
        (
            ["measure"],
            {
                "system": "oscillator",
                "nbar": 2.0,
                "mode_mass": "300 kg",
                "frequency": "1e254 Hz",
                "delta_u": "2e9 m",
            },
        ),
        (
            ["measure"],
            {"system": "oscillator", "nbar": 1.0, "mode_mass": "1e-300 kg", "frequency": "1e-300 rad/s"},
        ),
        (
            ["measure"],
            {"system": "oscillator", "nbar": 1.0, "mode_mass": "-1 kg", "frequency": "1e6 rad/s"},
        ),
        (
            ["oscillator"],
            dict(TEUFEL_GEOMETRY, radius="1e200 m", thickness="1e200 m", density="1e200 kg/m3"),
        ),
        (["diffraction"], dict(FEIN_CONFIG, grating_period="1e-300 m")),
    ],
    ids=[
        "infinite-n-ext",
        "infinite-n-ent-momentum",
        "zero-dividing-frequency",
        "negative-mass-with-frequency",
        "overflowing-drum",
        "overflowing-wavenumber",
    ],
)
def test_out_of_range_results_exit_3(tmp_path, capsys, argv, doc):
    cfg = write_json(tmp_path / "edge.json", doc)
    code, out, err = run_cli([*argv, cfg], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_of_range_error_is_readable(tmp_path, capsys):
    doc = dict(TEUFEL_GEOMETRY, radius="1e200 m", thickness="1e200 m", density="1e200 kg/m3")
    _code, _out, err = run_cli(["oscillator", write_json(tmp_path / "drum.json", doc)], capsys)
    assert err == "error: the inputs are out of range (OverflowError)\n"


@pytest.mark.parametrize(
    "mode",
    [
        {"mode_mass": "1.3e-14 kg", "zero_point": "7.8e-15 m", "extra": 1},
        {"mode_mass": "1.3e-14 kg", "zero_point": "7.8e-15 m", "frequency": "1.1e7 Hz"},
        {"mode_mass": "1.3e-14 kg"},
    ],
    ids=["unknown-key", "zero-point-and-frequency", "no-spread"],
)
def test_wigner_bad_mode_config_fails_before_reconstruction(tmp_path, capsys, monkeypatch, mode):
    def never(*_args, **_kwargs):
        raise AssertionError("qfi_from_grid ran before the mode config was checked")

    monkeypatch.setattr(wigner, "qfi_from_grid", never)
    grid = write_vacuum_grid(tmp_path / "vacuum.wig")
    mode_cfg = write_json(tmp_path / "mode.json", mode)
    code, out, err = run_cli(["wigner", grid, "--dim", "4", "--mode-config", mode_cfg], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_wigner_frequency_mode_config_stdout(tmp_path, capsys):
    grid = write_vacuum_grid(tmp_path / "vacuum.wig")
    mode_cfg = write_json(
        tmp_path / "mode.json",
        {"mode_mass": "1.3e-14 kg", "frequency": "1.1e7 Hz", "mode_atoms": 2.9e11},
    )
    code, out, _err = run_cli(["wigner", grid, "--dim", "4", "--mode-config", mode_cfg], capsys)
    assert code == 0
    lines = out.splitlines()
    # The residual and the clipped mass are rounding-level; only their keys are pinned.
    assert [line.split()[0] for line in lines[1:3]] == ["residual", "clipped_mass"]
    assert lines[:1] + lines[3:] == [
        "reconstruction_dim  4",
        "theta_star          0.000000e+00 rad",
        "fhat                2.000000e+00",
        "n_ext               1.284448e+18",
        "n_ent               1.701877e+05",
        "witness_depth       170188",
        "# fhat in the vacuum => 2.0 quadrature convention",
        "# frequencies given in Hz are converted to rad/s (x 2 pi)",
        "# isotropic state: every quadrature maximizes the QFI; theta_star is 0 by convention",
    ]


def test_wigner_isotropic_grid_notes_it_as_measure_fock_does(tmp_path, capsys):
    axis = (-10.0, 10.0, 101)
    grid = tmp_path / "thermal.wig"
    wigner.save_grid(wigner.synth_grid(quantum.thermal_state(1.0, 40), axis, axis), grid)
    config = write_json(
        tmp_path / "thermal.json", {"system": "fock", "kind": "thermal", "dim": 40, "nbar": 1.0}
    )
    note = "# isotropic state: every quadrature maximizes the QFI; theta_star is 0 by convention"
    for argv in (["wigner", str(grid), "--dim", "40"], ["measure", config]):
        code, out, _err = run_cli(argv, capsys)
        assert (code, out.splitlines()[-1]) == (0, note)
        code, out, _err = run_cli(["--format", "json", *argv], capsys)
        doc = json.loads(out)
        assert (doc["values"]["theta_star"], doc["notes"][-1]) == (0.0, note[2:])


# ---------------------------------------------------------------------------
# every config: a known exit code, no traceback, no non-finite number at exit 0
# ---------------------------------------------------------------------------

# Any finite float of either sign, as a plain number or with a unit.  The
# narrower ranges only make valid configs, which exit 0, more frequent.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1e-30, max_value=1e30),
)


def _config_value(kind, cap):
    if kind == COUNT:
        return st.integers(min_value=-2, max_value=cap)
    if kind == "dimensionless":
        return FINITE
    units = [kind, "Hz"] if kind == "rad/s" else [kind]
    return st.builds(lambda x, unit: f"{x!r} {unit}", FINITE, st.sampled_from(units))


@st.composite
def _config(draw, schema, keys, optional=(), fixed=None, caps=None):
    """Values of ``schema`` for all ``keys`` and for some of the ``optional`` keys.

    Only the costs are capped, by ``caps``: the Fock dim and the GHZ register size.
    """
    doc = dict(fixed or {})
    for key in [*keys, *(key for key in optional if draw(st.booleans()))]:
        doc[key] = draw(_config_value(schema[key][0], (caps or {}).get(key, 200)))
    return doc


def _mode_config(draw, schema, keys=(), **kwargs):
    spread = draw(st.sampled_from(["zero_point", "frequency"]))
    return _config(schema, [*keys, "mode_mass", spread], ["mode_atoms", "delta_u"], **kwargs)


@st.composite
def _measure(draw):
    system = draw(st.sampled_from(sorted(MEASURE_SCHEMAS)))
    schema = MEASURE_SCHEMAS[system]
    if system == "fock":
        kind = draw(st.sampled_from(sorted(quantum.STATE_BUILDERS)))
        keys = ["dim", *quantum.STATE_BUILDERS[kind][0]]
        config = _config(schema, keys, fixed={"system": system, "kind": kind}, caps={"dim": 40})
    elif system == "ghz":
        config = _config(schema, ["n", "q"], ["phase"], {"system": system}, {"n": 12})
    else:
        config = _mode_config(draw, schema, ["nbar"], fixed={"system": system})
    return ["measure"], draw(config)


@st.composite
def _wigner_mode(draw):
    return ["wigner", "<grid>", "--dim", "4", "--mode-config"], draw(
        _mode_config(draw, MODE_SCHEMA)
    )


@st.composite
def _diffraction(draw):
    flight = draw(st.sampled_from([["flight_time"], ["flight_distance", "speed"]]))
    keys = ["mass", "n_atoms", "grating_period", "open_fraction", "visibility"]
    keys += flight + ["source_g1", "g1_g2"]
    return ["diffraction"], draw(_config(DIFFRACTION_SCHEMA, keys))


@st.composite
def _oscillator(draw):
    shape = draw(st.sampled_from(sorted(oscillator.SHAPES)))
    keys = [*oscillator.SHAPES[shape].keys, "density", "atomic_mass", "frequency", "nbar"]
    doc = draw(_config(OSCILLATOR_SCHEMA, keys, ["delta_u"], {"shape": shape}))
    if draw(st.booleans()):
        doc["mode"] = draw(st.sampled_from(["fundamental", "uniform"]))
    return ["oscillator"], doc


NON_FINITE_TEXT = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)


def _finite_values(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, str):
        return not NON_FINITE_TEXT.search(value)
    if isinstance(value, dict):
        return all(map(_finite_values, value.values()))
    if isinstance(value, list):
        return all(map(_finite_values, value))
    return True


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-property")
    write_vacuum_grid(directory / "vacuum.wig")
    return directory


@settings(max_examples=400, deadline=None)
@given(job=st.one_of(_measure(), _wigner_mode(), _diffraction(), _oscillator()))
def test_every_config_exits_cleanly(cli_dir, job):
    argv, doc = job
    argv = [str(cli_dir / "vacuum.wig") if a == "<grid>" else a for a in argv]
    config = write_json(cli_dir / "config.json", doc)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--format", "json", *argv, config])
    assert code in (0, 2, 3, 4), (code, doc)
    if code:
        assert stderr.getvalue().startswith("error: "), (doc, stderr.getvalue())
    else:
        values = json.loads(stdout.getvalue())["values"]
        assert _finite_values(values), (doc, values)
