"""In-process traced run: per-layer times and counts from outside the package.

The tracer replaces the package's public functions with wrappers, both as
module attributes and under every name another package module imported
them by (``cli.optimize``, ``cli.evaluate``, ``qaoa.reconstruct``, ...), so
calls are seen whichever way they are made.  Most wrappers record a span:
name, parent, start and end.  Hot leaf functions (``second_stage_best`` is
called over a million times per ``paper-grid`` pipeline) are only counted and
their time summed.  A span's self time is its duration minus the time of the
spans and counted leaves it called.  Spans stay in memory and are written to
``.perfbench_out/spans-<workload>-<seed>.json`` when the run ends.

One objective evaluation is one call of the function ``qaoa.optimize`` hands
to ``scipy.optimize.minimize``; the tracer wraps ``qaoa.minimize`` to wrap
that function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads

# Functions whose calls become spans, and hot leaves that are only counted.
SPANNED = (
    "cli.cmd_gen_data", "cli.cmd_train_qgan", "cli.cmd_run",
    "cli.cmd_baselines", "cli.cmd_resources", "cli.cmd_report",
    "statevec.run_circuit", "statevec.sample", "statevec.expectation_diagonal",
    "qaoa.optimize", "qaoa.assemble", "qaoa.final_state", "qaoa._estimate",
    "qgan.train", "qgan.probability_jacobian", "qgan.generator_probs",
    "scenarios.js_agreement", "scenarios.sample_pv", "scenarios.bin_to_grid",
    "baselines.evaluate", "baselines.expected_cost",
    "resources.sweep_scaling", "resources.lower_to_basis",
    "resources.count_and_depth",
    "ucp.build_hamiltonian", "walsh.reconstruct",
)
COUNTED = ("baselines.second_stage_best",)
OBJECTIVE = "qaoa.objective"
MIN_TRACED = 2  # traced pipelines whose counts must agree
MIN_OBJECTIVE_SAMPLES = 1010  # so that ten samples lie beyond the p99

# Counts that must repeat exactly between traced pipelines of one seed.
COUNT_SUFFIXES = (".calls", "gates_applied", "amp_bytes_computed",
                  "lowered_gates", "evals_per_restart", "budget_use")


class Tracer:
    """Spans, per-function totals and work counters of one pipeline."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, parent span or -1, start, end]
        self.stats: dict = {}  # name -> [calls, total s, self s]
        self.counters = {"statevec.gates_applied": 0,
                         "statevec.amp_bytes_computed": 0,
                         "resources.lowered_gates": 0}
        self._stack: list = []  # [span index, time spent in callees]
        self._patches: list = []

    def _stat(self, name: str) -> list:
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0]
            self.names.append(name)
        return self.stats[name]

    def span(self, name: str, fn, after=None):
        stat = self._stat(name)
        name_id = self.names.index(name)
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[frame[0]] = (name_id, parent[0] if parent else -1, t0, t1)
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - frame[1]
                if parent:
                    parent[1] += t1 - t0
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def leaf(self, name: str, fn):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                if stack:
                    stack[-1][1] += dt
        return wrapper

    # -- installation -------------------------------------------------------

    def _count_circuit(self, args, result) -> None:
        circuit = args[0]
        self.counters["statevec.gates_applied"] += len(circuit.gates)
        # each gate reads and writes every complex128 amplitude once
        self.counters["statevec.amp_bytes_computed"] += (
            len(circuit.gates) * 2 ** circuit.n_qubits * 16 * 2)

    def _count_lowered(self, args, result) -> None:
        self.counters["resources.lowered_gates"] += len(result.gates)

    def _traced_minimize(self, minimize):
        @functools.wraps(minimize)
        def wrapper(fun, x0, *args, **kwargs):
            return minimize(self.span(OBJECTIVE, fun), x0, *args, **kwargs)
        return wrapper

    def install(self, package) -> None:
        """Wrap every target wherever a package module holds a reference."""
        after = {"statevec.run_circuit": self._count_circuit,
                 "resources.lower_to_basis": self._count_lowered}
        wrapped = []
        for target in SPANNED + COUNTED:
            module, func = target.split(".")
            orig = getattr(package[module], func)
            name = target.replace(".cmd_", ".")
            new = (self.leaf(name, orig) if target in COUNTED
                   else self.span(name, orig, after.get(name)))
            wrapped.append((orig, new))
        minimize = package["qaoa"].minimize
        wrapped.append((minimize, self._traced_minimize(minimize)))
        for mod in package.values():
            for attr, value in list(vars(mod).items()):
                for orig, new in wrapped:
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def objective_ms(self) -> list:
        if OBJECTIVE not in self.stats:
            return []
        oid = self.names.index(OBJECTIVE)
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s[0] == oid]

    def layer_metrics(self, spec: dict) -> dict:
        def stat(name, i):
            return self.stats.get(name, [0, 0.0, 0.0])[i]

        m = {}
        for name in self.stats:
            m[f"{name}.calls"] = stat(name, 0)
            m[f"{name}.s"] = stat(name, 1)
            m[f"{name}.self_s"] = stat(name, 2)
        m.update(self.counters)
        restarts = stat("qaoa.optimize", 0)
        evals = stat(OBJECTIVE, 0)
        m["qaoa.evals_per_restart"] = evals / restarts if restarts else 0.0
        m["qaoa.budget_use"] = m["qaoa.evals_per_restart"] / spec["maxiter"]
        m["qgan.epoch_ms"] = stat("qgan.train", 1) * 1e3 / spec["epochs"]
        return m


def load_package(root: Path) -> dict:
    """The package's modules, imported from this checkout's ``src``."""
    sys.path.insert(0, str(root / "src"))
    names = ("cli", "statevec", "qaoa", "qgan", "scenarios", "baselines",
             "resources", "ucp", "walsh")
    package = {n: importlib.import_module(f"qtwostage.{n}") for n in names}
    want = (root / "src" / "qtwostage" / "cli.py").resolve()
    if Path(package["cli"].__file__).resolve() != want:
        raise SystemExit(f"qtwostage was not imported from {root / 'src'}")
    return package


def run_in_process(cli, name: str, seed: int, rep_dir: Path,
                   tally) -> tuple:
    """The six stages through ``cli.main``; (wall seconds, output dir)."""
    out = rep_dir / "out"
    cfg = rep_dir / "config.ini"
    out.mkdir(parents=True)
    cfg.write_text(workloads.config_text(name, str(out)))
    t0 = time.perf_counter()
    for stage in workloads.STAGES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([stage, "--config", str(cfg), "--seed", str(seed)])
        tally.add(code == 0, f"in-process stage {stage} exited with {code}")
        if stage == "report":
            (out / "report.txt").write_text(buf.getvalue())
    return time.perf_counter() - t0, out


def traced_run(args, root: Path, scratch: Path, tally, work: Path) -> tuple:
    spec = workloads.spec(args.workload)
    package = load_package(root)
    cli = package["cli"]

    def pipeline(label: str, tracer=None) -> tuple:
        if tracer is not None:
            tracer.install(package)
        try:
            wall, out = run_in_process(cli, args.workload, args.seed,
                                       scratch / label, tally)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for check, problems in checks.run_checks(out, spec).items():
            tally.add(not problems, f"{label} check {check}: {problems[:3]}")
        return wall, checks.results_digest(out)

    # the untraced pipeline runs first and so also pays the first-call costs
    # of the libraries; the traced ones repeat until there are enough samples
    start = time.perf_counter()
    base_wall, digest = pipeline("untraced")
    tracers, walls, digests = [], [], [digest]
    while True:
        tracer = Tracer()
        wall, digest = pipeline(f"traced{len(tracers)}", tracer)
        tracers.append(tracer)
        walls.append(wall)
        digests.append(digest)
        samples = sum(len(t.objective_ms()) for t in tracers)
        now = time.perf_counter()
        per_rep = (now - start) / (len(tracers) + 1)
        if (len(tracers) >= MIN_TRACED and samples >= MIN_OBJECTIVE_SAMPLES
                and now + per_rep > start + args.seconds):
            break
    for i, digest in enumerate(digests[1:], 1):
        tally.add(digest == digests[0],
                  f"in-process pipeline {i} changed the result files")

    per_run = [t.layer_metrics(spec) for t in tracers]
    names = sorted(set().union(*per_run))
    metrics = {}
    for name in names:
        values = [m.get(name, 0) for m in per_run]
        if name.endswith(COUNT_SUFFIXES):
            tally.add(len(set(values)) == 1,
                      f"count {name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    pooled = [ms for t in tracers for ms in t.objective_ms()]
    metrics["qaoa.objective_ms.p50"] = statistics.median(pooled)
    metrics["qaoa.objective_ms.p99"] = statistics.quantiles(
        pooled, n=100, method="inclusive")[98]
    metrics["trace.untraced_pipeline_s"] = base_wall
    metrics["trace.overhead_pct"] = (
        (statistics.median(walls) - base_wall) / base_wall * 100.0)

    spans_path = work / f"spans-{args.workload}-{args.seed}.json"
    spans_path.write_text(json.dumps(
        [{"names": t.names, "spans": t.spans} for t in tracers]))
    units = {name: unit_of(name) for name in metrics}
    info = {"traced_pipelines": len(tracers), "untraced_s": base_wall,
            "traced_s": walls, "objective_samples": len(pooled),
            "results_digest": digests[0],
            "spans_file": str(spans_path.relative_to(root))}
    return metrics, units, info


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ms", ".p50", ".p99")):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("budget_use"):
        return "1"
    return "count"
