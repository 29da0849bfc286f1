"""Command-line frontend with reproducible, file-based inputs.

Subcommands: ``measure``, ``wigner``, ``diffraction``, ``oscillator``,
``catalog``.  Configurations are strict JSON documents, each checked
against one schema table: unknown keys are rejected, every dimensionful
quantity is a string with an explicit unit suffix (e.g. ``"1.3e-14 kg"``),
counts are whole numbers and names are strings.  Exit codes: 0 success, 2 config or
file-format error, 3 physics-domain or out-of-range error, 4 unfaithful reconstruction.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Mapping, Sequence

from . import catalog, diffraction, fisher, measures, oscillator, quantum, wigner
from .errors import ConfigError, DomainError, MacrosizeError

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
        self.rows.append((key, _finite(key, value), unit))

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


def _finite(key: str, value):
    """``value``, unless it is a float that is infinite or NaN: a DomainError."""
    if isinstance(value, float) and not math.isfinite(value):
        raise DomainError(f"{key} is not finite ({value}); the inputs are out of range")
    return value


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


# Config value kinds besides the units above: a whole number, and a string.
COUNT = "count"
TEXT = "text"
REQUIRED = True
OPTIONAL = False


def parse_value(key: str, raw, kind: str):
    """Parse one config value of ``kind``: a unit, ``COUNT`` or ``TEXT``."""
    if kind == TEXT:
        if not isinstance(raw, str):
            raise ConfigError(f"{key} must be a string, got {raw!r}")
        return raw
    if kind != COUNT:
        return parse_quantity(raw, kind)
    value = parse_quantity(raw, "dimensionless")
    if not value.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {raw!r}")
    return int(value)


def read_config(path):
    """The decoded JSON document of a config file; any read failure is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def parse_config(doc, schema: Mapping[str, tuple[str, bool]]) -> dict:
    """Strict config: unknown keys rejected, required keys enforced.

    ``schema`` maps key -> (kind, required); see ``parse_value`` for kinds.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    missing = sorted(key for key, (_kind, req) in schema.items() if req and key not in doc)
    if missing:
        raise ConfigError(f"missing required config keys: {missing}")
    return {key: parse_value(key, raw, schema[key][0]) for key, raw in doc.items()}


def load_config(path, schema: Mapping[str, tuple[str, bool]]) -> dict:
    """Read and parse one config file against ``schema``."""
    return parse_config(read_config(path), schema)


def variant_values(cfg: Mapping, label: str, variant: str, keys_of: Mapping) -> dict:
    """The values in ``cfg`` of the keys ``keys_of[variant]``; an unknown variant,
    a missing key, or a key that only another variant takes is a ConfigError."""
    if variant not in keys_of:
        raise ConfigError(f"unknown {label} {variant!r}; choose from {sorted(keys_of)}")
    keys = keys_of[variant]
    missing = [key for key in keys if key not in cfg]
    if missing:
        raise ConfigError(f"{variant} config is missing keys {missing}")
    others = {key for other in keys_of.values() for key in other} - set(keys)
    foreign = sorted(others & set(cfg))
    if foreign:
        raise ConfigError(f"{variant} config does not take keys {foreign}")
    return {key: cfg[key] for key in keys}


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

# An oscillator mode, for `measure oscillator` and `wigner --mode-config`.
MODE_SCHEMA = {
    "mode_mass": ("kg", REQUIRED),
    "zero_point": ("m", OPTIONAL),
    "frequency": ("rad/s", OPTIONAL),
    "mode_atoms": ("dimensionless", OPTIONAL),
    "delta_u": ("m", OPTIONAL),
}


def _add_sizes(report, out: Output):
    """The extensive size, entangled size and witnessed depth of a ``SizeReport``."""
    out.add("n_ext", report.n_ext)
    out.add("n_ent", report.n_ent)
    out.add("witness_depth", report.witness_depth)


def build_mode(cfg: Mapping, out: Output) -> oscillator.OscillatorMode:
    """The mode of a ``MODE_SCHEMA`` config, from its zero-point spread or frequency."""
    if "zero_point" in cfg and "frequency" in cfg:
        raise ConfigError("give zero_point or frequency, not both")
    if "zero_point" in cfg:
        return oscillator.OscillatorMode(
            mode_mass=cfg["mode_mass"],
            zero_point=cfg["zero_point"],
            mode_particle_number=cfg.get("mode_atoms", 1.0),
        )
    if "frequency" in cfg:
        mode = oscillator.OscillatorMode.from_mass_and_omega(
            cfg["mode_mass"], cfg["frequency"], cfg.get("mode_atoms", 1.0)
        )
        out.note("frequencies given in Hz are converted to rad/s (x 2 pi)")
        return mode
    raise ConfigError("oscillator system needs zero_point or frequency")


MEASURE_SCHEMAS = {
    "ghz": {
        "system": (TEXT, REQUIRED),
        "n": (COUNT, REQUIRED),
        "q": ("dimensionless", REQUIRED),
        "phase": ("dimensionless", OPTIONAL),
    },
    "fock": {
        "system": (TEXT, REQUIRED),
        "kind": (TEXT, REQUIRED),
        "dim": (COUNT, REQUIRED),
        "alpha": ("dimensionless", OPTIONAL),
        "nbar": ("dimensionless", OPTIONAL),
        "r": ("dimensionless", OPTIONAL),
        "n": (COUNT, OPTIONAL),
    },
    "oscillator": {
        "system": (TEXT, REQUIRED),
        "nbar": ("dimensionless", REQUIRED),
        **MODE_SCHEMA,
    },
}


def cmd_measure(args, out: Output) -> int:
    doc = read_config(args.config)
    if not isinstance(doc, dict) or "system" not in doc:
        raise ConfigError("measure config needs a 'system' key (ghz|fock|oscillator)")
    system = parse_value("system", doc["system"], TEXT)
    if system not in MEASURE_SCHEMAS:
        raise ConfigError(
            f"unknown system {system!r}; choose from {sorted(MEASURE_SCHEMAS)}"
        )
    cfg = parse_config(doc, MEASURE_SCHEMAS[system])

    if system == "ghz":
        psi, observable = quantum.ghz_vector(cfg["n"], cfg["q"], cfg.get("phase", 0.0))
        report = measures.size_report_for_state(psi, observable)
        _add_sizes(report, out)
        out.note("n_ext normalized to a unit spin observable (A0 = 1)")
    elif system == "fock":
        parameters = {kind: names for kind, (names, _build) in quantum.STATE_BUILDERS.items()}
        params = variant_values(cfg, "state kind", cfg["kind"], parameters)
        # Built states are decomposed by construction and need no check.
        state = quantum.build_state(cfg["kind"], cfg["dim"], **params)
        theta, result = fisher._max_quadrature(state)
        out.note("fhat in the vacuum => 2.0 quadrature convention")
        _add_best_quadrature(theta, result, out)
    else:
        mode = build_mode(cfg, out)
        report = oscillator.thermal_sizes(
            mode, cfg["nbar"], cfg.get("delta_u", oscillator.DELTA_U_DEFAULT)
        )
        _add_sizes(report, out)
        out.add("n_ext_momentum", report.n_ext_momentum)
        out.add("n_ent_momentum", report.n_ent_momentum)
    return EXIT_OK


def _add_best_quadrature(theta: float, result, out: Output):
    """The rows of a best-quadrature QFI result, and a note when it is isotropic."""
    out.add("theta_star", theta, "rad")
    out.add("fhat", result.value)
    if result.diagnostics["isotropic"]:
        out.note(
            "isotropic state: every quadrature maximizes the QFI; "
            "theta_star is 0 by convention"
        )


# ---------------------------------------------------------------------------
# wigner
# ---------------------------------------------------------------------------

def _wigner_frame(path: str, dim, cfg, mode, out: Output):
    """The rows of one grid file: its reconstruction, best quadrature and sizes."""
    grid = wigner.load_grid(path)
    grid.check()
    theta, result, report = wigner.qfi_from_grid(grid, dim)
    out.add("reconstruction_dim", report.dim)
    out.add("residual", report.residual)
    out.add("clipped_mass", report.clipped_mass)
    _add_best_quadrature(theta, result, out)
    if mode is not None:
        sizes = oscillator.measured_qfi_sizes(
            mode, result.value, cfg.get("delta_u", oscillator.DELTA_U_DEFAULT)
        )
        _add_sizes(sizes, out)


def cmd_wigner(args, out: Output) -> int:
    # Notes render in the order they are added; a bad mode config fails
    # before any reconstruction.
    out.note("fhat in the vacuum => 2.0 quadrature convention")
    cfg = load_config(args.mode_config, MODE_SCHEMA) if args.mode_config else None
    mode = build_mode(cfg, out) if cfg is not None else None
    if len(args.grid) == 1:
        _wigner_frame(args.grid[0], args.dim, cfg, mode, out)
        return EXIT_OK
    # Several frames: one table row each, in the order given.  Frames on the
    # same axes share their position-basis chains (see ``wigner``).
    rows = []
    for path in args.grid:
        frame = Output()
        try:
            _wigner_frame(path, args.dim, cfg, mode, frame)
        except MacrosizeError as exc:
            exc.args = (f"{path}: {exc}", *exc.args[1:])
            raise
        rows.append([path.replace(",", ";"), *(_fmt(v) for _k, v, _u in frame.rows)])
        for note in frame.notes:
            out.note(f"{path}: {note}")
    out.add_table(["grid", *(key for key, _v, _u in frame.rows)], rows)
    out.note("theta_star in rad")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diffraction
# ---------------------------------------------------------------------------

DIFFRACTION_SCHEMA = {
    "mass": ("kg", REQUIRED),
    "n_atoms": ("dimensionless", REQUIRED),
    "grating_period": ("m", REQUIRED),
    "open_fraction": ("dimensionless", REQUIRED),
    "visibility": ("dimensionless", OPTIONAL),
    "flight_time": ("s", OPTIONAL),
    "flight_distance": ("m", OPTIONAL),
    "speed": ("m/s", OPTIONAL),
    "source_g1": ("m", REQUIRED),
    "g1_g2": ("m", REQUIRED),
}


def cmd_diffraction(args, out: Output) -> int:
    cfg = load_config(args.config, DIFFRACTION_SCHEMA)
    if args.scan and "visibility" in cfg:
        raise ConfigError("a fringe scan gives the visibility; drop the visibility key")
    if "flight_time" in cfg:
        if "flight_distance" in cfg or "speed" in cfg:
            raise ConfigError("give flight_time or (flight_distance and speed), not both")
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
    _add_sizes(report, out)
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
    key = "n_ent_range_L0_0.2m_to_1m"
    lo, hi = sorted(_finite(key, end) for end in ends)
    out.add(key, f"[{lo:.6e}; {hi:.6e}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oscillator (geometry presets)
# ---------------------------------------------------------------------------

OSCILLATOR_SCHEMA = {
    "shape": (TEXT, REQUIRED),
    "radius": ("m", OPTIONAL),
    "thickness": ("m", OPTIONAL),
    "side": ("m", OPTIONAL),
    "volume": ("m3", OPTIONAL),
    "minor_radius": ("m", OPTIONAL),
    "major_radius": ("m", OPTIONAL),
    "density": ("kg/m3", REQUIRED),
    "atomic_mass": ("kg", REQUIRED),
    "frequency": ("rad/s", REQUIRED),
    "nbar": ("dimensionless", REQUIRED),
    "delta_u": ("m", OPTIONAL),
    "mode": (TEXT, OPTIONAL),
}


def cmd_oscillator(args, out: Output) -> int:
    cfg = load_config(args.config, OSCILLATOR_SCHEMA)
    keys_of = {shape: spec.keys for shape, spec in oscillator.SHAPES.items()}
    dims = variant_values(cfg, "shape", cfg["shape"], keys_of)
    geom = oscillator.ModeGeometry(cfg["shape"], dims, cfg["density"], cfg["atomic_mass"])
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
    _add_sizes(report, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

SIZE_HEADERS = ["label", "n_ext", "n_ent", "class", "deviation_ext", "deviation_ent"]


def _sci(value) -> str:
    return "" if value is None else f"{value:.5e}"


def _size_rows(points) -> list[list[str]]:
    """Table cells of ``table1`` rows or ``figure_dataset`` points."""
    return [
        [p.label.replace(",", ";"), _sci(p.n_ext), _sci(p.n_ent), p.kind]
        + [_sci(p.deviation_ext), _sci(p.deviation_ent)]
        for p in points
    ]


def cmd_catalog(args, out: Output) -> int:
    what = args.what
    if what == "table1":
        rows = catalog.table1()
        for row in rows:
            if row.note:
                out.note(f"{row.label}: {row.note}")
        out.add_table(SIZE_HEADERS, _size_rows(rows))
        return EXIT_OK
    if what == "fig3":
        out.add_table(SIZE_HEADERS, _size_rows(catalog.figure_dataset()))
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

    p = sub.add_parser("wigner", help="QFI and sizes from Wigner grid files")
    p.add_argument("grid", nargs="+", help="one grid file, or several frames: one table row each")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state between calls."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
    except ArithmeticError as exc:
        # Finite inputs whose result overflows the float range or divides by zero.
        print(f"error: the inputs are out of range ({type(exc).__name__})", file=sys.stderr)
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
