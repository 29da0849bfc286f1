"""Seeded inputs for the macrosize CLI benchmark and the closed forms that check them.

Nothing here imports macrosize: grids are written from closed-form Wigner
functions (quadratures with vacuum variance 1/2, so the vacuum peak is 1/pi),
and every expected output is a closed form of the generating parameters.

Each workload is a fixed list of job slots.  The seed draws the physical
parameters of every slot from ranges that keep the slot's Fock dimension and
grid size fixed, so two seeds give jobs of the same cost.

Regenerate the inputs of one workload and seed with

    python3 perfbench/inputs.py --workload wigner-fixed --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("wigner-fixed", "wigner-autodim", "fock-quadrature", "ghz-register")

# CODATA 2018, the values macrosize documents for its atomic units.
M_U = 1.660539067e-27  # kg
A0 = 5.291772109e-11  # m

# wigner-fixed: one reconstruction dim and one grid for every slot.  Spacing
# 0.2 resolves the dim-32 kernels; 0.25 does not.  The half-width 7 holds
# 4.9 standard deviations of the widest squeezed state along either axis;
# at 6, a long axis along p cut fhat by 1.1e-5.
FIXED_DIM = 32
FIXED_X = (-7.0, 7.0, 71)
FIXED_P = (-7.0, 7.0, 71)
# wigner-autodim: a coherent state at radius 7.2-7.8 (mean photon number
# 26-30) leaves more than 1e-3 of its weight beyond dim 40 but not beyond
# dim 61, so auto-dim makes exactly one 40 -> 61 step.  The grid is a square
# patch of half-width 4 (5.6 vacuum widths) around the state, at spacing 0.25,
# which resolves the dim-61 kernels.
AUTODIM_RADIUS = (7.2, 7.8)
AUTODIM_HALF_WIDTH = 4.0
AUTODIM_POINTS = 33
AUTODIM_FINAL_DIM = 61
# ghz-register: the register sizes of one pass.
GHZ_SIZES = (7, 8, 9)

# Tolerances on fhat.  Fixed-dim reconstructions of these states agree with
# the closed forms to about 1e-6; the auto-dim states keep a Fock tail of up
# to about 1e-6 beyond dim 61 and the patch edge cuts the Gaussian at 5.6
# widths, which moves fhat by up to about 1e-4.
FIXED_RTOL = 1e-5
AUTODIM_RTOL = 1e-2
FOCK_RTOL = 1e-6
THETA_ATOL = 1e-3
SIZE_RTOL = 1e-9


@dataclass(frozen=True)
class Mode:
    """Mode parameters written to a --mode-config file."""

    mass: float  # kg
    zero_point: float  # m
    atoms: float
    delta_u: float  # m

    def config(self) -> dict:
        return {
            "mode_mass": f"{self.mass!r} kg",
            "zero_point": f"{self.zero_point!r} m",
            "mode_atoms": self.atoms,
            "delta_u": f"{self.delta_u!r} m",
        }


@dataclass(frozen=True)
class Job:
    """One CLI invocation (without --format/--out) and its closed-form answer.

    ``theta`` is None where the QFI maximum is not unique (isotropic states).
    ``dim`` is the reconstruction dim a ``wigner`` job must report.
    """

    label: str
    argv: tuple
    fhat: float | None = None
    fhat_rtol: float = 0.0
    theta: float | None = None
    dim: int | None = None
    mode: Mode | None = None
    ghz: tuple | None = None  # (n, q)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def gaussian_wigner(x, p, var_major, var_minor, angle=0.0, x0=0.0, p0=0.0):
    """Gaussian W(x, p) on the mesh of axes x, p; major axis at ``angle``."""
    xg, pg = np.meshgrid(np.asarray(x, float) - x0, np.asarray(p, float) - p0)
    c, s = math.cos(angle), math.sin(angle)
    u = c * xg + s * pg
    v = -s * xg + c * pg
    norm = 2.0 * math.pi * math.sqrt(var_major * var_minor)
    return np.exp(-0.5 * u * u / var_major - 0.5 * v * v / var_minor) / norm


def even_cat_wigner(x, p, alpha):
    """W(x, p) of (|alpha> + |-alpha>) / norm for real alpha."""
    xg, pg = np.meshgrid(np.asarray(x, float), np.asarray(p, float))
    x0 = math.sqrt(2.0) * alpha
    w = (
        np.exp(-((xg - x0) ** 2) - pg**2)
        + np.exp(-((xg + x0) ** 2) - pg**2)
        + 2.0 * np.exp(-(xg**2) - pg**2) * np.cos(2.0 * x0 * pg)
    )
    return w / (2.0 * math.pi * (1.0 + math.exp(-2.0 * alpha * alpha)))


def fhat_squeezed(r):
    return 2.0 * math.exp(2.0 * r)


def fhat_even_cat(alpha):
    a2 = alpha * alpha
    return 2.0 + 4.0 * a2 * (1.0 + math.tanh(a2))


def fhat_thermal(nbar):
    return 2.0 / (2.0 * nbar + 1.0)


def fhat_coherent():
    return 2.0


def fhat_number(n):
    return 2.0 * (2.0 * n + 1.0)


def squeezed_wigner(x, p, r, angle):
    """Squeezed vacuum with its anti-squeezed axis at ``angle``."""
    return gaussian_wigner(x, p, 0.5 * math.exp(2.0 * r), 0.5 * math.exp(-2.0 * r), angle)


def thermal_wigner(x, p, nbar):
    return gaussian_wigner(x, p, nbar + 0.5, nbar + 0.5)


def coherent_wigner(x, p, x0, p0):
    return gaussian_wigner(x, p, 0.5, 0.5, 0.0, x0, p0)


# ---------------------------------------------------------------------------
# Writers
# ---------------------------------------------------------------------------


def write_grid(path, x_axis, p_axis, values):
    """Write a ``wigner-grid v1`` file at 17 significant digits."""
    lines = [
        "wigner-grid v1",
        f"x {x_axis[0]!r} {x_axis[1]!r} {x_axis[2]}",
        f"p {p_axis[0]!r} {p_axis[1]!r} {p_axis[2]}",
        "scale 1",
    ]
    lines.extend(" ".join(f"{v:.17g}" for v in row) for row in values)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _mode(rng) -> Mode:
    return Mode(
        mass=_log_uniform(rng, 1e-15, 1e-12),
        zero_point=_log_uniform(rng, 1e-16, 1e-14),
        atoms=_log_uniform(rng, 1e9, 1e12),
        delta_u=_log_uniform(rng, 5e-12, 5e-11),
    )


def _wigner_job(directory, label, values, x_axis, p_axis, dim, mode, final_dim=None, **expect):
    grid = os.path.join(directory, f"{label}.wig")
    write_grid(grid, x_axis, p_axis, values)
    config = os.path.join(directory, f"{label}.mode.json")
    write_json(config, mode.config())
    argv = ["wigner", grid]
    if dim is not None:
        argv += ["--dim", str(dim)]
    argv += ["--mode-config", config]
    return Job(label, tuple(argv), mode=mode, dim=dim if final_dim is None else final_dim, **expect)


def _measure_job(directory, label, config, **expect):
    path = os.path.join(directory, f"{label}.json")
    write_json(path, config)
    return Job(label, ("measure", path), **expect)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _wigner_fixed(rng, directory):
    xs, ps = np.linspace(*FIXED_X), np.linspace(*FIXED_P)
    r = float(rng.uniform(0.45, 0.7))
    angle = float(rng.uniform(0.0, math.pi))
    alpha = float(rng.uniform(1.4, 2.0))
    return [
        _wigner_job(
            directory, "squeezed", squeezed_wigner(xs, ps, r, angle), FIXED_X, FIXED_P,
            FIXED_DIM, _mode(rng), fhat=fhat_squeezed(r), fhat_rtol=FIXED_RTOL, theta=angle,
        ),
        _wigner_job(
            directory, "even-cat", even_cat_wigner(xs, ps, alpha), FIXED_X, FIXED_P,
            FIXED_DIM, _mode(rng), fhat=fhat_even_cat(alpha), fhat_rtol=FIXED_RTOL, theta=0.0,
        ),
    ]


def _wigner_autodim(rng, directory):
    radius = float(rng.uniform(*AUTODIM_RADIUS))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    x0, p0 = radius * math.cos(phase), radius * math.sin(phase)
    x_axis = (x0 - AUTODIM_HALF_WIDTH, x0 + AUTODIM_HALF_WIDTH, AUTODIM_POINTS)
    p_axis = (p0 - AUTODIM_HALF_WIDTH, p0 + AUTODIM_HALF_WIDTH, AUTODIM_POINTS)
    values = coherent_wigner(np.linspace(*x_axis), np.linspace(*p_axis), x0, p0)
    return [
        _wigner_job(
            directory, "displaced", values, x_axis, p_axis, None, _mode(rng),
            final_dim=AUTODIM_FINAL_DIM, fhat=fhat_coherent(), fhat_rtol=AUTODIM_RTOL,
        ),
    ]


def _fock_quadrature(rng, directory):
    nbar = float(rng.uniform(0.5, 4.0))
    r = float(rng.uniform(0.6, 1.2))
    cat_alpha = float(rng.uniform(1.5, 3.0))
    coherent_alpha = float(rng.uniform(1.0, 3.5))
    n = int(rng.integers(1, 21))
    fock = {"system": "fock"}
    return [
        _measure_job(
            directory, "thermal", dict(fock, kind="thermal", dim=140, nbar=nbar),
            fhat=fhat_thermal(nbar), fhat_rtol=FOCK_RTOL,
        ),
        _measure_job(
            directory, "squeezed", dict(fock, kind="squeezed", dim=160, r=r),
            fhat=fhat_squeezed(r), fhat_rtol=FOCK_RTOL, theta=0.5 * math.pi,
        ),
        _measure_job(
            directory, "even-cat", dict(fock, kind="cat", dim=140, alpha=cat_alpha),
            fhat=fhat_even_cat(cat_alpha), fhat_rtol=FOCK_RTOL, theta=0.0,
        ),
        _measure_job(
            directory, "coherent", dict(fock, kind="coherent", dim=120, alpha=coherent_alpha),
            fhat=fhat_coherent(), fhat_rtol=FOCK_RTOL,
        ),
        _measure_job(
            directory, "number", dict(fock, kind="number", dim=180, n=n),
            fhat=fhat_number(n), fhat_rtol=FOCK_RTOL,
        ),
    ]


def _ghz_register(rng, directory):
    jobs = []
    for n in GHZ_SIZES:
        q = float(rng.uniform(0.2, 0.8))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        config = {"system": "ghz", "n": n, "q": q, "phase": phase}
        jobs.append(_measure_job(directory, f"ghz-{n}", config, ghz=(n, q)))
    return jobs


_PASSES = {
    "wigner-fixed": _wigner_fixed,
    "wigner-autodim": _wigner_autodim,
    "fock-quadrature": _fock_quadrature,
    "ghz-register": _ghz_register,
}


def make_jobs(workload: str, seed: int, directory: str) -> list[Job]:
    """Write the inputs of one pass over ``workload`` and return its jobs."""
    os.makedirs(directory, exist_ok=True)
    return _PASSES[workload](np.random.default_rng(seed), directory)


def warmup_job(workload: str, directory: str) -> Job:
    """A small fixed job on the workload's command path."""
    os.makedirs(directory, exist_ok=True)
    if workload.startswith("wigner"):
        axis = (-6.0, 6.0, 41)
        xs = np.linspace(*axis)
        mode = Mode(1e-14, 1e-15, 1e10, 1e-11)
        return _wigner_job(
            directory, "warmup", thermal_wigner(xs, xs, 0.0), axis, axis, 4, mode,
            fhat=fhat_thermal(0.0), fhat_rtol=FIXED_RTOL,
        )
    if workload == "ghz-register":
        return _measure_job(
            directory, "warmup", {"system": "ghz", "n": 3, "q": 0.5}, ghz=(3, 0.5)
        )
    return _measure_job(
        directory, "warmup", {"system": "fock", "kind": "thermal", "dim": 8, "nbar": 0.1},
        fhat=fhat_thermal(0.1), fhat_rtol=FOCK_RTOL,
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _close(actual, expected, rtol):
    return abs(actual - expected) <= rtol * abs(expected)


def check(job: Job, values: dict) -> list[str]:
    """Problems with one job's JSON ``values`` against its closed forms."""
    problems = []
    if job.fhat is not None:
        fhat = values["fhat"]
        if not _close(fhat, job.fhat, job.fhat_rtol):
            problems.append(f"fhat {fhat!r} != {job.fhat!r} (rtol {job.fhat_rtol})")
        if job.theta is not None:
            off = (values["theta_star"] - job.theta) % math.pi
            if min(off, math.pi - off) > THETA_ATOL:
                problems.append(f"theta_star {values['theta_star']!r} != {job.theta!r} mod pi")
    if job.dim is not None and values["reconstruction_dim"] != job.dim:
        problems.append(f"reconstruction_dim {values['reconstruction_dim']} != {job.dim}")
    if job.mode is not None:
        m = job.mode
        scale = values["fhat"] / 2.0
        n_ext = (m.mass * m.zero_point / (M_U * A0)) ** 2 * scale
        n_ent = m.atoms * scale * (m.zero_point / m.delta_u) ** 2
        if not _close(values["n_ext"], n_ext, SIZE_RTOL):
            problems.append(f"n_ext {values['n_ext']!r} != {n_ext!r}")
        if not _close(values["n_ent"], n_ent, SIZE_RTOL):
            problems.append(f"n_ent {values['n_ent']!r} != {n_ent!r}")
        depth = values["witness_depth"]
        if not math.ceil(n_ent * (1 - SIZE_RTOL)) <= depth <= math.ceil(n_ent * (1 + SIZE_RTOL)):
            problems.append(f"witness_depth {depth} != ceil({n_ent!r})")
    if job.ghz is not None:
        n, q = job.ghz
        n_ext = 4.0 * n * n * q * (1.0 - q)
        if not _close(values["n_ent"], n, SIZE_RTOL):
            problems.append(f"n_ent {values['n_ent']!r} != {n}")
        if not _close(values["n_ext"], n_ext, SIZE_RTOL):
            problems.append(f"n_ext {values['n_ext']!r} != {n_ext!r}")
        if values["witness_depth"] != n:
            problems.append(f"witness_depth {values['witness_depth']} != {n}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description="write one pass of benchmark inputs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    for job in make_jobs(args.workload, args.seed, args.out):
        print(job.label, " ".join(job.argv))


if __name__ == "__main__":
    main()
