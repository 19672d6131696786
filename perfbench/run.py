"""Pipeline benchmark for the qtwostage command-line workflow.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the six CLI stages run the way users run them, one
``python -m qtwostage.cli <stage>`` process each, in a fresh output
directory, repeated for ``--seconds`` (at least twice, so the run can check
that repetitions give byte-identical result files).  Timings are medians over
the repetitions.  With ``--trace 1`` the same pipeline runs inside this
process, once untraced and then at least twice traced, and the per-layer
metrics come from wrappers around the package's public functions (see
``tracing.py``).

The master seed given to every stage is ``--seed``.  The lines printed first
give every metric with its unit, any failed check and a JSON ``info`` record
(environment, source size, result digest).  The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics BENCHMARK.json
lists for the mode.  The exit code is 0 only when every stage succeeded and
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
MIN_REPS = 2  # pipelines per run; two give the determinism check a pair
SETUP_FIRST = 2  # set-up processes timed before the first pipeline ...
SETUP_BETWEEN = 1  # ... and after each pipeline, so they span the run
SETUP_CODE = ("import sys, qtwostage.cli as cli; cli.load_config(sys.argv[1]); "
              "print(cli.__file__)")
STAGE_METRICS = {stage: stage.replace("-", "_") + "_s"
                 for stage in workloads.STAGES}
UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
         "run_evals": "count", "run_evals_per_s": "1/s", "map_gap_pct": "%",
         "qgan_js_agreement": "1", "failed_frac": "1",
         **{name: "s" for name in STAGE_METRICS.values()}}


class Tally:
    """Attempted and failed stage runs and output checks, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def add(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
    return env


def timed_child(argv: list, env: dict, stdout) -> tuple:
    """(exit code, wall seconds, peak RSS in MB) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=stdout,
                            stderr=subprocess.STDOUT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class SetupTimer:
    """Wall time of fresh processes that import the CLI and load a config."""

    def __init__(self, workload: str, root: Path, scratch: Path, env: dict):
        self.cfg = scratch / "setup.ini"
        self.cfg.write_text(workloads.config_text(workload, str(scratch)))
        self.want = (root / "src" / "qtwostage" / "cli.py").resolve()
        self.env = env
        self.samples: list = []

    def measure(self, n: int) -> None:
        """Exits with code 2 when the package does not import from ``src``."""
        for _ in range(n):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE,
                                   str(self.cfg)],
                                  env=self.env, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if (proc.returncode != 0
                    or Path(proc.stdout.strip()).resolve() != self.want):
                sys.stderr.write(f"qtwostage.cli does not import from "
                                 f"{self.want.parent.parent}:\n{proc.stderr}")
                sys.exit(2)
            self.samples.append(wall)


def run_pipeline(name: str, seed: int, rep_dir: Path, env: dict,
                 tally: Tally) -> dict:
    """All six stages as separate processes; returns timings and outputs."""
    out = rep_dir / "out"
    cfg = rep_dir / "config.ini"
    out.mkdir(parents=True)
    cfg.write_text(workloads.config_text(name, str(out)))
    times, rss = {}, []
    t0 = time.perf_counter()
    for stage in workloads.STAGES:
        argv = [sys.executable, "-m", "qtwostage.cli", stage,
                "--config", str(cfg), "--seed", str(seed)]
        log = out / "report.txt" if stage == "report" else \
            rep_dir / f"{stage}.log"
        with open(log, "w") as fh:
            code, wall, peak = timed_child(argv, env, fh)
        tally.add(code == 0, f"stage {stage} exited with {code}")
        times[STAGE_METRICS[stage]] = wall
        rss.append(peak)
    return {"out": out, "times": times, "peak_rss_mb": max(rss),
            "pipeline_s": time.perf_counter() - t0}


def check_outputs(out: Path, spec: dict, tally: Tally) -> dict:
    """Run every output check into the tally; returns the result figures."""
    for name, problems in checks.run_checks(out, spec).items():
        tally.add(not problems, f"check {name}: {'; '.join(problems[:3])}")
    try:
        with open(out / "records.jsonl") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        score = checks.generator_score(out)
    except (OSError, ValueError):
        records, score = [], float("nan")
    gaps = [(r["cost_map"] - r["rp"]) / r["rp"] * 100.0 for r in records]
    return {
        "run_evals": sum(r["evals"] for r in records),
        "map_gap_pct": statistics.fmean(gaps) if gaps else float("nan"),
        "qgan_js_agreement": score,
        "digest": checks.results_digest(out),
    }


def untraced_run(args, root: Path, scratch: Path, tally: Tally) -> tuple:
    spec = workloads.spec(args.workload)
    env = child_env(root)
    setup = SetupTimer(args.workload, root, scratch, env)
    setup.measure(SETUP_FIRST)
    start = time.perf_counter()
    reps = []
    while True:
        rep = run_pipeline(args.workload, args.seed,
                           scratch / f"rep{len(reps)}", env, tally)
        rep.update(check_outputs(rep["out"], spec, tally))
        if not reps and not tally.failures:
            missed = checks.self_test(rep["out"], spec, scratch)
            tally.add(not missed, f"output checker missed: {missed}")
        if reps:
            tally.add(rep["digest"] == reps[0]["digest"],
                      f"repetition {len(reps)} changed the result files")
        shutil.rmtree(rep["out"].parent)
        reps.append(rep)
        setup.measure(SETUP_BETWEEN)
        now = time.perf_counter()
        per_rep = (now - start) / len(reps)
        if len(reps) >= MIN_REPS and now + per_rep > start + args.seconds:
            break

    def med(key):
        return statistics.median(key(rep) for rep in reps)

    metrics = {"setup_s": statistics.median(setup.samples),
               "pipeline_s": med(lambda r: r["pipeline_s"])}
    for stage_metric in STAGE_METRICS.values():
        metrics[stage_metric] = med(lambda r: r["times"][stage_metric])
    metrics["peak_rss_mb"] = med(lambda r: r["peak_rss_mb"])
    metrics["run_evals"] = reps[0]["run_evals"]
    metrics["run_evals_per_s"] = med(
        lambda r: r["run_evals"] / r["times"]["run_s"])
    metrics["map_gap_pct"] = reps[0]["map_gap_pct"]
    metrics["qgan_js_agreement"] = reps[0]["qgan_js_agreement"]
    metrics["failed_frac"] = len(tally.failures) / tally.attempted
    info = {"repetitions": len(reps),
            "setup_samples": setup.samples,
            "pipeline_samples": [r["pipeline_s"] for r in reps],
            "results_digest": reps[0]["digest"]}
    return metrics, UNITS, info


def environment(root: Path) -> dict:
    import numpy
    import scipy
    src = root / "src" / "qtwostage"
    loc = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    blas_env = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k, "default") for k in blas_env},
        "src_loc": loc,
    }


def reference_digest(workload: str, seed: int, digest: str) -> str:
    """'same', 'changed' or 'unknown' against the recorded result digests."""
    refs = json.loads((HERE / "reference_digests.json").read_text())
    want = refs.get(workload, {}).get(str(seed))
    if want is None:
        return "unknown"
    return "same" if want == digest else "changed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.OVERRIDES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtwostage" / "cli.py").is_file():
        sys.stderr.write("run from the root of a qtwostage checkout\n")
        return 2
    listed = json.loads((root / "BENCHMARK.json").read_text())
    work = root / ".perfbench_out"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                    dir=work))
    tally = Tally()
    try:
        if args.trace:
            import tracing
            metrics, units, info = tracing.traced_run(args, root, scratch,
                                                      tally, work)
        else:
            metrics, units, info = untraced_run(args, root, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    why = {w["name"]: w["why"] for w in listed["workloads"]}
    info = {"workload": args.workload, "why": why.get(args.workload),
            "seed": args.seed, **info,
            "digest_vs_reference": reference_digest(
                args.workload, args.seed, info["results_digest"]),
            "environment": environment(root)}
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    for reason in tally.failures:
        print(f"FAILED: {reason}")
    print("info " + json.dumps(info, sort_keys=True))

    wanted = listed["per_layer" if args.trace else "end_to_end"]
    correct = not tally.failures
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
