"""Benchmark of macrosize CLI jobs run in one process.

Run from the repository root:

    python3 perfbench/run.py --workload wigner-fixed --seed 1 --seconds 22 --trace 0

Each job is ``cli.main([... "--format", "json", "--out", <file>])``.  One
client runs the jobs of a workload in a closed loop, one after another, in
whole passes over the workload's job list until ``--seconds`` have elapsed.
Inputs come from the seed before timing starts (see ``inputs.py``).  The
first output of every job is checked against closed forms and every repeat
must reproduce it byte for byte.

The jobs are short (0.03-1.2 s) so that a run holds about 20 to 50: on
a shared host the same job runs 1.3-1.5x slower for stretches of seconds to
minutes, and a run of a few long jobs lands in one stretch or another (see
README.md, "Noise control").

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
loop with spans around the library layers and reports per-layer metrics per
job (see ``tracing.py``).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# A fixed BLAS thread count, at most the cores present, for every run and
# every set-up probe (they inherit the environment).
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is repeated in this many fresh processes; setup_s is their median.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60


def import_cli():
    """Import macrosize from this checkout's ``src``, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "macrosize", "cli.py")):
        print(f"error: no macrosize sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    from macrosize import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported macrosize from {cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli


def run_job(cli, job, out_path) -> tuple[int, float]:
    if os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    code = cli.main(["--format", "json", "--out", out_path, *job.argv])
    return code, time.perf_counter() - start


def set_up(cli, workload: str, seed: int, directory: str):
    """Write the inputs and run the warm-up job; return the jobs of one pass."""
    import inputs

    jobs = inputs.make_jobs(workload, seed, os.path.join(directory, "inputs"))
    warmup = inputs.warmup_job(workload, os.path.join(directory, "warmup"))
    out_path = os.path.join(directory, "warmup", "out.json")
    code, _ = run_job(cli, warmup, out_path)
    if code != 0:
        raise RuntimeError(f"warm-up job exited {code}")
    with open(out_path, "rb") as handle:
        problems = inputs.check(warmup, json.loads(handle.read())["values"])
    if problems:
        raise RuntimeError(f"warm-up job output wrong: {problems}")
    return jobs


def time_setup(workload: str, seed: int, directory: str) -> float:
    """Median wall time of SETUP_SAMPLES set-ups, each in a fresh interpreter."""
    samples = []
    for i in range(SETUP_SAMPLES):
        probe_dir = os.path.join(directory, f"probe{i}")
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", probe_dir,
                "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=PROBE_TIMEOUT_S, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(probe_dir)
    return statistics.median(samples)


def reference_seconds() -> float:
    """Median of five runs of a fixed numpy kernel, to show machine drift."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((300, 300))
    h = a + a.T
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.linalg.eigvalsh(h @ h)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_loop(cli, jobs, seconds: float, directory: str, tracer=None):
    """Whole passes over ``jobs`` until ``seconds`` of job time have elapsed.

    Returns the times of the completed runs of each job slot, by label.
    """
    import inputs

    outputs = os.path.join(directory, "outputs")
    os.makedirs(outputs, exist_ok=True)
    times = {job.label: [] for job in jobs}
    problems, first = [], {}
    attempted = failed = 0
    busy = 0.0
    while busy < seconds:
        for job in jobs:
            out_path = os.path.join(outputs, f"{job.label}.json")
            if tracer is not None:
                tracer.job = attempted
            code, elapsed = run_job(cli, job, out_path)
            attempted += 1
            busy += elapsed
            if code != 0:
                failed += 1
                continue
            times[job.label].append(elapsed)
            with open(out_path, "rb") as handle:
                data = handle.read()
            if job.label not in first:
                first[job.label] = data
                problems += [f"{job.label}: {p}" for p in inputs.check(job, json.loads(data)["values"])]
            elif data != first[job.label]:
                problems.append(f"{job.label}: output differs from its first run")
    return times, problems, attempted, failed, busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # Before numpy is first imported, by inputs or by macrosize.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, HERE)
    import inputs

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    cli = import_cli()
    if args.setup_probe:
        set_up(cli, args.workload, args.seed, args.setup_probe)
        return 0

    directory = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    setup_s = time_setup(args.workload, args.seed, directory) if not args.trace else None
    jobs = set_up(cli, args.workload, args.seed, directory)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    reference_start = reference_seconds()
    try:
        times, problems, attempted, failed, busy = run_loop(
            cli, jobs, args.seconds, directory, tracer
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    reference_end = reference_seconds()
    completed = sum(len(samples) for samples in times.values())
    print(f"reference_s start={reference_start:.6f} end={reference_end:.6f}")
    print(f"jobs attempted={attempted} failed={failed} blas_threads={BLAS_THREADS}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not completed:
        print("error: every job failed", file=sys.stderr)
        return 1

    if tracer is not None:
        tracer.write(os.path.join(directory, "trace.jsonl"))
        units = {name: unit for name, (unit, _better) in tracing.METRICS.items()}
        values = tracer.per_job(completed, busy)
    else:
        units = {"jobs_per_s": "1/s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "jobs_per_s": completed / busy,
            "job_p50_s": statistics.median(t for samples in times.values() for t in samples),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    with open(os.path.join(directory, f"result-trace{args.trace}.json"), "w") as handle:
        json.dump(result, handle, indent=1)
    with open(os.path.join(directory, f"times-trace{args.trace}.json"), "w") as handle:
        json.dump(times, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
