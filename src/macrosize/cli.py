"""Command-line frontend with reproducible, file-based inputs.

Subcommands: ``measure``, ``wigner``, ``diffraction``, ``oscillator``,
``catalog``.  Configurations are strict JSON documents: unknown keys are
rejected, and every dimensionful quantity is a string with an explicit
unit suffix (e.g. ``"1.3e-14 kg"``).  Exit codes: 0 success, 2 config or
file-format error, 3 physics-domain error, 4 unfaithful reconstruction.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Mapping, Sequence

from . import catalog, diffraction, measures, oscillator, quantum, wigner
from .errors import ConfigError, DomainError, MacrosizeError
from .fisher import qfi_max_quadrature

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_RECONSTRUCTION = 4

# Unit whitelist for config values.  Hz is converted to rad/s (x 2 pi, noted
# in the output); everything else passes through unchanged.
UNIT_WHITELIST = {
    "kg",
    "m",
    "s",
    "Hz",
    "rad/s",
    "K",
    "A",
    "m/s",
    "m3",
    "kg/m3",
    "dimensionless",
}


class Output:
    """Key/value rows plus an optional tabular block; renders table/csv/json."""

    def __init__(self):
        self.rows: list[tuple[str, object, str]] = []
        self.notes: list[str] = []
        self.table_headers: list[str] | None = None
        self.table_rows: list[list[str]] = []

    def add(self, key: str, value, unit: str = ""):
        self.rows.append((key, value, unit))

    def add_table(self, headers: Sequence[str], rows: Sequence[Sequence[str]]):
        self.table_headers = list(headers)
        self.table_rows = [list(r) for r in rows]

    def note(self, text: str):
        self.notes.append(text)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            doc = {
                "values": {key: value for key, value, _u in self.rows},
                "units": {key: unit for key, value, unit in self.rows if unit},
                "notes": self.notes,
            }
            if self.table_headers:
                doc["table"] = [
                    dict(zip(self.table_headers, row)) for row in self.table_rows
                ]
            return json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if fmt == "csv":
            lines = []
            if self.table_headers:
                lines.append(",".join(self.table_headers))
                lines.extend(",".join(row) for row in self.table_rows)
            if self.rows:
                lines.append("key,value,unit")
                lines.extend(
                    f"{key},{_fmt(value)},{unit}" for key, value, unit in self.rows
                )
            lines.extend(
                f"note_{i},{note.replace(',', ';')}," for i, note in enumerate(self.notes)
            )
            return "\n".join(lines) + "\n"
        lines = []
        if self.table_headers:
            widths = [
                max(len(h), *(len(r[i]) for r in self.table_rows)) if self.table_rows else len(h)
                for i, h in enumerate(self.table_headers)
            ]
            lines.append("  ".join(h.ljust(w) for h, w in zip(self.table_headers, widths)))
            lines.extend(
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                for row in self.table_rows
            )
        if self.rows:
            width = max(len(k) for k, _v, _u in self.rows)
            lines.extend(
                f"{key.ljust(width)}  {_fmt(value)}{(' ' + unit) if unit else ''}"
                for key, value, unit in self.rows
            )
        lines.extend(f"# {note}" for note in self.notes)
        return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6e}"
    return str(value)


def parse_quantity(raw, expect: str) -> float:
    """Parse '1.3e-14 kg' against the unit whitelist.

    Plain numbers are accepted only for dimensionless quantities; Hz is
    accepted where rad/s is expected (explicit 2 pi conversion).  NaN and
    infinite values are rejected.
    """
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if expect != "dimensionless":
            raise ConfigError(f"value {raw!r} needs an explicit {expect!r} unit suffix")
        number, unit = raw, expect
    elif not isinstance(raw, str):
        raise ConfigError(f"cannot parse quantity from {raw!r}")
    elif len(raw.split()) != 2:
        raise ConfigError(f"expected '<value> <unit>', got {raw!r}")
    else:
        number, unit = raw.split()
    try:
        value = float(number)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"unparseable number in {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number in {raw!r}")
    if unit not in UNIT_WHITELIST:
        raise ConfigError(f"unit {unit!r} not in whitelist {sorted(UNIT_WHITELIST)}")
    if unit == expect:
        return value
    if expect == "rad/s" and unit == "Hz":
        return 2.0 * math.pi * value  # noted by callers
    raise ConfigError(f"expected a {expect!r} quantity, got {raw!r}")


def load_config(path, allowed: Mapping[str, str], required: Sequence[str]) -> dict:
    """Strict JSON config: unknown keys rejected, required keys enforced.

    ``allowed`` maps key -> expected unit ('dimensionless' for bare
    numbers, 'raw' to pass through untouched).
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    parsed = {}
    for key, raw in doc.items():
        expect = allowed[key]
        parsed[key] = raw if expect == "raw" else parse_quantity(raw, expect)
    return parsed


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

MEASURE_SCHEMAS = {
    "ghz": {
        "system": "raw",
        "n": "dimensionless",
        "q": "dimensionless",
        "phase": "dimensionless",
    },
    "fock": {
        "system": "raw",
        "kind": "raw",
        "dim": "dimensionless",
        "alpha": "dimensionless",
        "nbar": "dimensionless",
        "r": "dimensionless",
        "n": "dimensionless",
    },
    "oscillator": {
        "system": "raw",
        "mode_mass": "kg",
        "zero_point": "m",
        "frequency": "rad/s",
        "nbar": "dimensionless",
        "mode_atoms": "dimensionless",
        "delta_u": "m",
    },
}

MEASURE_REQUIRED = {
    "ghz": ["n", "q"],
    "fock": ["kind", "dim"],
    "oscillator": ["mode_mass", "nbar"],
}


def cmd_measure(args, out: Output) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(doc, dict) or "system" not in doc:
        raise ConfigError("measure config needs a 'system' key (ghz|fock|oscillator)")
    system = doc["system"]
    if system not in MEASURE_SCHEMAS:
        raise ConfigError(
            f"unknown system {system!r}; choose from {sorted(MEASURE_SCHEMAS)}"
        )
    cfg = load_config(
        args.config, MEASURE_SCHEMAS[system], ["system"] + MEASURE_REQUIRED[system]
    )

    if system == "ghz":
        rho, observable = quantum.ghz_state(int(cfg["n"]), cfg["q"], cfg.get("phase", 0.0))
        report = measures.size_report_for_state(rho, observable)
        out.add("n_ext", report.n_ext)
        out.add("n_ent", report.n_ent)
        out.add("witness_depth", report.witness_depth)
        out.note("n_ext normalized to a unit spin observable (A0 = 1)")
    elif system == "fock":
        dim = int(cfg["dim"])
        params = {k: cfg[k] for k in ("alpha", "nbar", "r", "n") if k in cfg}
        if "n" in params:
            params["n"] = int(params["n"])
        rho = quantum.make_state(cfg["kind"], dim, **params)
        _a, x_op, p_op = quantum.fock_operators(dim, nu=0.5, hbar=1.0)
        theta, result = qfi_max_quadrature(rho, x_op, p_op)
        out.add("theta_star", theta, "rad")
        out.add("fhat", result.value)
        out.note("fhat in the vacuum => 2.0 quadrature convention")
        if result.diagnostics["isotropic"]:
            out.note(
                "isotropic state: every quadrature maximizes the QFI; "
                "theta_star is 0 by convention"
            )
    else:
        if "zero_point" in cfg:
            mode = oscillator.OscillatorMode(
                mode_mass=cfg["mode_mass"],
                zero_point=cfg["zero_point"],
                mode_particle_number=cfg.get("mode_atoms", 1.0),
            )
        elif "frequency" in cfg:
            mode = oscillator.OscillatorMode.from_mass_and_omega(
                cfg["mode_mass"], cfg["frequency"], cfg.get("mode_atoms", 1.0)
            )
            out.note("frequencies given in Hz are converted to rad/s (x 2 pi)")
        else:
            raise ConfigError("oscillator system needs zero_point or frequency")
        report = oscillator.thermal_sizes(
            mode, cfg["nbar"], cfg.get("delta_u", oscillator.DELTA_U_DEFAULT)
        )
        out.add("n_ext", report.n_ext)
        out.add("n_ent", report.n_ent)
        out.add("witness_depth", report.witness_depth)
        out.add("n_ext_momentum", report.n_ext_momentum)
        out.add("n_ent_momentum", report.n_ent_momentum)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------

WIGNER_MODE_SCHEMA = {
    "mode_mass": "kg",
    "zero_point": "m",
    "mode_atoms": "dimensionless",
    "delta_u": "m",
}


def cmd_wigner(args, out: Output) -> int:
    grid = wigner.load_grid(args.grid)
    grid.check()
    theta, fhat, report = wigner.qfi_from_grid(grid, args.dim)
    out.add("reconstruction_dim", report.dim)
    out.add("residual", report.residual)
    out.add("clipped_mass", report.clipped_mass)
    out.add("theta_star", theta, "rad")
    out.add("fhat", fhat)
    out.note("fhat in the vacuum => 2.0 quadrature convention")
    if args.mode_config:
        cfg = load_config(
            args.mode_config, WIGNER_MODE_SCHEMA, ["mode_mass", "zero_point"]
        )
        mode = oscillator.OscillatorMode(
            mode_mass=cfg["mode_mass"],
            zero_point=cfg["zero_point"],
            mode_particle_number=cfg.get("mode_atoms", 1.0),
        )
        sizes = oscillator.measured_qfi_sizes(
            mode, fhat, cfg.get("delta_u", oscillator.DELTA_U_DEFAULT)
        )
        out.add("n_ext", sizes.n_ext)
        out.add("n_ent", sizes.n_ent)
        out.add("witness_depth", sizes.witness_depth)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diffraction
# ---------------------------------------------------------------------------

DIFFRACTION_SCHEMA = {
    "mass": "kg",
    "n_atoms": "dimensionless",
    "grating_period": "m",
    "open_fraction": "dimensionless",
    "visibility": "dimensionless",
    "flight_time": "s",
    "flight_distance": "m",
    "speed": "m/s",
    "source_g1": "m",
    "g1_g2": "m",
}


def cmd_diffraction(args, out: Output) -> int:
    cfg = load_config(
        args.config,
        DIFFRACTION_SCHEMA,
        ["mass", "n_atoms", "grating_period", "open_fraction", "source_g1", "g1_g2"],
    )
    if "flight_time" in cfg:
        flight_time = cfg["flight_time"]
    elif "flight_distance" in cfg and "speed" in cfg:
        flight_time = cfg["flight_distance"] / cfg["speed"]
    else:
        raise ConfigError("need flight_time or (flight_distance and speed)")
    setup = diffraction.TalbotLauSetup(
        mass=cfg["mass"],
        n_atoms=cfg["n_atoms"],
        grating_period=cfg["grating_period"],
        open_fraction=cfg["open_fraction"],
        visibility=cfg.get("visibility"),
        flight_time=flight_time,
        source_g1=cfg["source_g1"],
        g1_g2=cfg["g1_g2"],
    )
    scan = diffraction.load_fringe_scan(args.scan) if args.scan else None
    report = diffraction.diffraction_sizes(setup, scan=scan)
    out.add("visibility", report.inputs["visibility"])
    out.add("fi_classical", report.inputs["fi_classical"], "m^-2")
    out.add("qfi_bound", report.inputs["qfi_bound"], "kg^2 m^2")
    out.add("coherence_length", report.inputs["coherence_length"], "m")
    out.add("delta_x_cm", report.inputs["delta_x_cm"], "m")
    out.add("n_ext", report.n_ext)
    out.add("n_ent", report.n_ent)
    out.add("witness_depth", report.witness_depth)
    # The source-to-first-grating distance is typically uncertain; report the
    # entangled-size range over the conventional [0.2 m, 1 m] window.
    ends = [
        diffraction.diffraction_sizes(
            dataclasses.replace(
                setup, visibility=report.inputs["visibility"], source_g1=l0
            )
        ).n_ent
        for l0 in (0.2, 1.0)
    ]
    lo, hi = sorted(ends)
    out.add("n_ent_range_L0_0.2m_to_1m", f"[{lo:.6e}; {hi:.6e}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oscillator (geometry presets)
# ---------------------------------------------------------------------------

OSCILLATOR_SCHEMA = {
    "shape": "raw",
    "radius": "m",
    "thickness": "m",
    "side": "m",
    "volume": "m3",
    "minor_radius": "m",
    "major_radius": "m",
    "density": "kg/m3",
    "atomic_mass": "kg",
    "frequency": "rad/s",
    "nbar": "dimensionless",
    "delta_u": "m",
    "mode": "raw",
}

# shape -> (constructor, dimension keys in the constructor's order)
GEOMETRIES = {
    "circular-drum": (oscillator.circular_drum, ("radius", "thickness")),
    "square-drum": (oscillator.square_drum, ("side", "thickness")),
    "torus": (oscillator.torus_body, ("minor_radius", "major_radius")),
    "uniform": (oscillator.uniform_body, ("volume",)),
}


def cmd_oscillator(args, out: Output) -> int:
    cfg = load_config(
        args.config,
        OSCILLATOR_SCHEMA,
        ["shape", "density", "atomic_mass", "frequency", "nbar"],
    )
    shape = cfg["shape"]
    if not isinstance(shape, str) or shape not in GEOMETRIES:
        raise ConfigError(f"unknown shape {shape!r}")
    build, keys = GEOMETRIES[shape]
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ConfigError(f"{shape} config is missing dimension keys {missing}")
    geom = build(*(cfg[key] for key in keys), cfg["density"], cfg["atomic_mass"])
    mode = oscillator.mode_volume(geom, cfg.get("mode", "fundamental"), omega=cfg["frequency"])
    out.note("frequencies given in Hz are converted to rad/s (x 2 pi)")
    report = oscillator.thermal_sizes(
        mode, cfg["nbar"], cfg.get("delta_u", oscillator.DELTA_U_DEFAULT)
    )
    out.add("mode_volume", mode.mode_volume, "m3")
    out.add("volume_fraction", mode.mode_volume / geom.volume)
    out.add("mode_mass", mode.mode_mass, "kg")
    out.add("mode_atoms", mode.mode_particle_number)
    out.add("zero_point", mode.zero_point, "m")
    out.add("n_ext", report.n_ext)
    out.add("n_ent", report.n_ent)
    out.add("witness_depth", report.witness_depth)
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def cmd_catalog(args, out: Output) -> int:
    what = args.what
    if what == "table1":
        headers = ["label", "n_ext", "n_ent", "class", "deviation_ext", "deviation_ent"]
        rows = []
        for row in catalog.table1():
            rows.append(
                [
                    row.label.replace(",", ";"),
                    f"{row.n_ext:.5e}",
                    f"{row.n_ent:.5e}",
                    row.kind,
                    f"{row.deviation_ext:.5e}",
                    f"{row.deviation_ent:.5e}",
                ]
            )
            if row.note:
                out.note(f"{row.label}: {row.note}")
        out.add_table(headers, rows)
        return EXIT_OK
    if what == "fig3":
        headers = ["label", "n_ext", "n_ent", "class", "deviation_ext", "deviation_ent"]
        rows = []
        for p in catalog.figure_dataset():
            rows.append(
                [
                    p.label.replace(",", ";"),
                    f"{p.n_ext:.5e}",
                    f"{p.n_ent:.5e}",
                    p.kind,
                    "" if p.deviation_ext is None else f"{p.deviation_ext:.5e}",
                    "" if p.deviation_ent is None else f"{p.deviation_ent:.5e}",
                ]
            )
        out.add_table(headers, rows)
        return EXIT_OK
    if what == "leggett":
        report = catalog.leggett_crystal(catalog.leggett_scenario())
        comparison = catalog.nucleon_partition_comparison(catalog.leggett_scenario())
        out.add("delta_p_total", report["delta_p_total"], "kg m/s")
        out.add("n_ext_momentum", report["n_ext_momentum"])
        out.add("n_ent_momentum", report["n_ent_momentum"])
        out.add("r_p", report["r_p"])
        out.add("n_ext_position_1s", report["n_ext_position"])
        out.add("n_ent_position_1s", report["n_ent_position"])
        out.add("r_q", report["r_q"])
        out.add("nucleon_momentum_suppression", comparison["momentum_suppression"])
        out.add("nucleon_position_enhancement", comparison["position_enhancement"])
        return EXIT_OK
    if what == "nh":
        params = catalog.NHParams(n_ext=1.0e14, coherence_time=3.8e-3)
        result = catalog.nh_mu(params)
        out.add("n_ext", params.n_ext)
        out.add("coherence_time", params.coherence_time, "s")
        out.add("critical_length", params.critical_length, "m")
        out.add("mu", result["mu"])
        out.add("mu_simplified", result["mu_simplified"])
        out.add("tau_e", result["tau_e"], "s")
        return EXIT_OK
    if what == "flux":
        result = catalog.flux_qubit()
        out.add("n_ext_momentum", result["n_ext_momentum"])
        out.add("n_ent_pairs_full_cat", result["n_ent_pairs_full_cat"])
        out.add("pair_length_scale", result["pair_length_scale"], "m")
        out.note(result["note"])
        return EXIT_OK
    raise ConfigError(f"unknown catalog selector {what!r}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macrosize",
        description="Quantum-macroscopicity sizes from states, grids, and statistics",
    )
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--out", default=None, help="write output to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="sizes for a configured state or mode")
    p.add_argument("config")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("wigner", help="QFI and sizes from a Wigner grid file")
    p.add_argument("grid")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--mode-config", default=None, help="mode parameters for sizes")
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("diffraction", help="interferometer bounds from a setup config")
    p.add_argument("config")
    p.add_argument("scan", nargs="?", default=None, help="optional fringe-scan file")
    p.set_defaults(func=cmd_diffraction)

    p = sub.add_parser("oscillator", help="mode volumes and thermal sizes from geometry")
    p.add_argument("config")
    p.set_defaults(func=cmd_oscillator)

    p = sub.add_parser("catalog", help="worked-example tables and datasets")
    p.add_argument(
        "--what", choices=("table1", "fig3", "leggett", "nh", "flux"), required=True
    )
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    out = Output()
    try:
        code = args.func(args, out)
    except (ConfigError, wigner.WignerFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except wigner.ReconstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RECONSTRUCTION
    except MacrosizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = out.render(args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
