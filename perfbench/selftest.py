"""Self-tests of the benchmark's inputs and closed forms.

Run from the repository root with ``python3 perfbench/selftest.py`` (or
``python3 -m pytest perfbench/selftest.py``).  The cross-checks against
``macrosize.wigner.synth_grid`` use small states on a coarse grid; the
closed forms do not depend on the state size.
"""

from __future__ import annotations

import math
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
from macrosize import quantum, wigner  # noqa: E402

AXIS = (-11.0, 11.0, 45)
SYNTH_ATOL = 1e-6


def _integral(path) -> float:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    _, x_min, x_max, x_count = lines[1].split()
    _, p_min, p_max, p_count = lines[2].split()
    values = np.loadtxt(lines[4:])
    dx = (float(x_max) - float(x_min)) / (int(x_count) - 1)
    dp = (float(p_max) - float(p_min)) / (int(p_count) - 1)
    return float(values.sum() * dx * dp)


def test_generated_grids_integrate_to_one():
    for workload in ("wigner-fixed", "wigner-autodim"):
        for seed in (0, 1):
            with tempfile.TemporaryDirectory() as directory:
                for job in inputs.make_jobs(workload, seed, directory):
                    assert abs(_integral(job.argv[1]) - 1.0) < 1e-3, (workload, seed, job.label)


def test_same_seed_same_inputs():
    for workload in inputs.WORKLOADS:
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            jobs_a = inputs.make_jobs(workload, 7, a)
            jobs_b = inputs.make_jobs(workload, 7, b)
            for name in sorted(os.listdir(a)):
                with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
                    assert fa.read() == fb.read(), (workload, name)
            assert [j.fhat for j in jobs_a] == [j.fhat for j in jobs_b]


def _assert_matches_synth(rho, closed_form):
    xs = np.linspace(*AXIS)
    grid = wigner.synth_grid(rho, AXIS, AXIS)
    assert np.max(np.abs(grid.values - closed_form(xs, xs))) < SYNTH_ATOL


def test_squeezed_matches_synth_grid():
    r, angle, dim = 0.5, 0.4, 40
    # exp(i k psi) rotates phase space by psi; squeezed_state's long axis is p.
    u = np.exp(1j * np.arange(dim) * (angle - 0.5 * math.pi))
    rho = u[:, None] * quantum.squeezed_state(r, dim) * u.conj()[None, :]
    _assert_matches_synth(rho, lambda x, p: inputs.squeezed_wigner(x, p, r, angle))


def test_even_cat_matches_synth_grid():
    alpha = 1.5
    _assert_matches_synth(
        quantum.cat_state(alpha, 40), lambda x, p: inputs.even_cat_wigner(x, p, alpha)
    )


def test_thermal_matches_synth_grid():
    nbar = 1.5
    _assert_matches_synth(
        quantum.thermal_state(nbar, 60), lambda x, p: inputs.thermal_wigner(x, p, nbar)
    )


def test_displaced_matches_synth_grid():
    alpha = 1.0 + 0.5j
    x0, p0 = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    _assert_matches_synth(
        quantum.coherent_state(alpha, 40), lambda x, p: inputs.coherent_wigner(x, p, x0, p0)
    )


def test_closed_forms_give_two_for_the_vacuum():
    for value in (
        inputs.fhat_squeezed(0.0),
        inputs.fhat_even_cat(0.0),
        inputs.fhat_thermal(0.0),
        inputs.fhat_coherent(),
        inputs.fhat_number(0),
    ):
        assert value == 2.0


def test_check_rejects_wrong_outputs():
    mode = inputs.Mode(1e-14, 1e-15, 1.234e10, 1e-11)  # n_ent = 246.8
    job = inputs.Job("j", (), fhat=4.0, fhat_rtol=1e-6, theta=0.5, mode=mode)
    scale = 2.0
    good = {
        "fhat": 4.0,
        "theta_star": 0.5 + math.pi,
        "n_ext": (mode.mass * mode.zero_point / (inputs.M_U * inputs.A0)) ** 2 * scale,
        "n_ent": mode.atoms * scale * (mode.zero_point / mode.delta_u) ** 2,
        "witness_depth": 247,
    }
    assert inputs.check(job, good) == []
    for key, value in (("fhat", 4.01), ("theta_star", 0.51), ("n_ext", 1.0), ("witness_depth", 248)):
        assert inputs.check(job, dict(good, **{key: value})), key
    ghz = inputs.Job("g", (), ghz=(8, 0.25))
    assert inputs.check(ghz, {"n_ent": 8.0, "n_ext": 48.0, "witness_depth": 8}) == []
    assert inputs.check(ghz, {"n_ent": 7.9, "n_ext": 48.0, "witness_depth": 8})


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
