import json
import math
import subprocess
import sys

import numpy as np
import pytest

from macrosize import quantum, wigner
from macrosize.cli import main


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


def test_diffraction_rejects_wrong_unit(tmp_path, capsys):
    bad = dict(FEIN_CONFIG)
    bad["mass"] = "4.4465e-23 g"
    cfg = write_json(tmp_path / "bad.json", bad)
    code, _out, err = run_cli(["diffraction", cfg], capsys)
    assert code == 2
    assert "whitelist" in err


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


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "macrosize.cli", "catalog", "--what", "flux"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "n_ext_momentum" in proc.stdout
