"""Experiment driver.

Subcommands cover the full workflow: ``gen-data`` draws and discretizes the
PV samples, ``train-qgan`` fits the scenario loader, ``run`` executes the
variational sweep and writes JSON-lines records, ``baselines`` and
``resources`` emit the classical reference costs and the gate-count scaling
tables, and ``report`` aggregates run records into a summary table.

Configuration is an INI file (every key optional; built-in desk-scale
defaults otherwise).  All randomness descends from one master seed through
``derive_seed``, so reruns with the same configuration are byte-identical.

Exit codes: 0 success, 1 runtime invariant violation, 2 I/O or
configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import evaluate, lambda_grid
from .errors import CapacityError, StructureError, UnsupportedGateError
from .qaoa import QaoaConfig, optimize
from .qgan import TrainConfig, load_generator, save_generator, train
from .resources import SWEEP_FIELDS, sweep_scaling
from .scenarios import (
    TestScenarioSet,
    bin_to_grid,
    quantile_test_set,
    sample_pv,
    uniform_grid,
)
from .ucp import RegisterLayout, UcpParams, bits_to_string, build_hamiltonian

N_TRAIN_SETS = 10
N_TEST_SETS = 5

_DOMAIN_ERRORS = (StructureError, CapacityError, UnsupportedGateError)


def derive_seed(master: int, role: str, index: int) -> int:
    """Deterministic 64-bit sub-seed from the master seed, a role, an index."""
    digest = hashlib.sha256(f"{master}:{role}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    problem: UcpParams
    alpha: float
    beta: float
    xi_max: float
    n_grid: int
    n_data: int
    n_test: int
    qgan: TrainConfig
    p1: int
    p2: int
    eval_shots: int | None  # None = exact statevector expectation
    maxiter: int
    n_seeds: int
    lambdas: tuple
    n_values: tuple
    m_values: tuple
    out_dir: Path
    master_seed: int

    def __post_init__(self):
        if self.n_grid < 2 or self.n_grid & (self.n_grid - 1):
            raise StructureError("n_grid must be a power of two >= 2")
        if self.n_seeds < 1:
            raise StructureError("n_seeds must be >= 1")
        if not self.lambdas:
            raise StructureError("lambda sweep cannot be empty")
        if not 0 <= self.master_seed < 2**64:
            raise StructureError("master_seed must fit in 64 bits")


_KNOWN_KEYS = {
    "problem": {"n_units", "demand", "p_min", "p_max", "startup_cost", "unit_cost"},
    "uncertainty": {"alpha", "beta", "xi_max", "n_grid", "n_data", "n_test"},
    "qgan": {"epochs", "lr_g", "lr_d", "shots", "use_shots", "init_scale"},
    "qaoa": {"p1", "p2", "eval_mode", "shots", "maxiter", "n_seeds"},
    "sweep": {"lambdas", "n_values", "m_values"},
    "output": {"dir"},
    "experiment": {"master_seed"},
}

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _number_list(text: str, cast) -> tuple:
    items = text.replace(",", " ").split()
    if not items:
        raise StructureError("empty list value")
    return tuple(cast(item) for item in items)


def _as_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise StructureError(f"not a boolean: {text!r}")


def load_config(path: str | None) -> ExperimentConfig:
    """Defaults overlaid with an optional INI file; unknown keys rejected."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise StructureError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise StructureError(f"unknown key {key!r} in [{section}]")

    def get(section: str, key: str, cast, fallback):
        raw = parser.get(section, key, fallback=None)
        return fallback if raw is None else cast(raw)

    lambdas = get("sweep", "lambdas", lambda t: _number_list(t, float),
                  (30.0, 90.0, 150.0, 200.0))
    problem = UcpParams(
        n_units=get("problem", "n_units", int, 3),
        demand=get("problem", "demand", float, 2500.0),
        p_min=get("problem", "p_min", lambda t: _number_list(t, float),
                  (300.0, 500.0, 100.0)),
        p_max=get("problem", "p_max", lambda t: _number_list(t, float),
                  (750.0, 1000.0, 200.0)),
        startup_cost=get("problem", "startup_cost",
                         lambda t: _number_list(t, float),
                         (4000.0, 5000.0, 1000.0)),
        unit_cost=get("problem", "unit_cost", lambda t: _number_list(t, float),
                      (15.0, 20.0, 10.0)),
        lam=lambdas[0],
    )
    qgan = TrainConfig(
        epochs=get("qgan", "epochs", int, 400),
        lr_g=get("qgan", "lr_g", float, 0.002),
        lr_d=get("qgan", "lr_d", float, 0.002),
        shots=get("qgan", "shots", int, 10_000),
        use_shots=get("qgan", "use_shots", _as_bool, False),
        init_scale=get("qgan", "init_scale", float, 0.1),
    )
    eval_mode = get("qaoa", "eval_mode", str.strip, "exact")
    if eval_mode not in ("exact", "shots"):
        raise StructureError(f"eval_mode must be 'exact' or 'shots', got {eval_mode!r}")
    return ExperimentConfig(
        problem=problem,
        alpha=get("uncertainty", "alpha", float, 3.0),
        beta=get("uncertainty", "beta", float, 7.0),
        xi_max=get("uncertainty", "xi_max", float, 2500.0),
        n_grid=get("uncertainty", "n_grid", int, 8),
        n_data=get("uncertainty", "n_data", int, 2000),
        n_test=get("uncertainty", "n_test", int, 200),
        qgan=qgan,
        p1=get("qaoa", "p1", int, 4),
        p2=get("qaoa", "p2", int, 4),
        eval_shots=(get("qaoa", "shots", int, 50_000)
                    if eval_mode == "shots" else None),
        maxiter=get("qaoa", "maxiter", int, 400),
        n_seeds=get("qaoa", "n_seeds", int, 5),
        lambdas=lambdas,
        n_values=get("sweep", "n_values", lambda t: _number_list(t, int),
                     (4, 8, 16, 32, 64)),
        m_values=get("sweep", "m_values", lambda t: _number_list(t, int),
                     (3, 4, 5, 6)),
        out_dir=Path(get("output", "dir", str.strip, "results")),
        master_seed=get("experiment", "master_seed", int, 7),
    )


def apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Flag precedence: config file < --paper < explicit flags."""
    if getattr(args, "paper", False):
        cfg = replace(
            cfg,
            lambdas=tuple(float(v) for v in lambda_grid()),
            n_seeds=40,
            eval_shots=50_000,
        )
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "lambdas", None) is not None:
        cfg = replace(cfg, lambdas=_number_list(args.lambdas, float))
    if getattr(args, "seeds", None) is not None:
        cfg = replace(cfg, n_seeds=args.seeds)
    if getattr(args, "shots", None) is not None:
        cfg = replace(cfg, eval_shots=args.shots)
    if getattr(args, "exact", False):
        cfg = replace(cfg, eval_shots=None)
    if cfg.problem.lam != cfg.lambdas[0]:
        cfg = replace(cfg, problem=replace(cfg.problem, lam=cfg.lambdas[0]))
    return cfg


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_column(path: Path, column: str) -> np.ndarray:
    """One column of finite numbers; any malformed file is an OSError."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if column not in (reader.fieldnames or ()):
            raise OSError(f"{path} lacks a {column!r} column")
        for row in reader:
            try:
                value = float(row[column])
            except (TypeError, ValueError) as exc:  # short row or non-number
                raise OSError(f"{path} line {reader.line_num}: {exc}") from exc
            if not np.isfinite(value):
                raise OSError(f"{path} line {reader.line_num}: {value} "
                              f"is not a finite number")
            values.append(value)
    if not values:
        raise OSError(f"{path} has no data rows")
    return np.array(values)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen_data(cfg: ExperimentConfig, args) -> int:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    grid = uniform_grid(0.0, cfg.xi_max, cfg.n_grid)
    for i in range(N_TRAIN_SETS + N_TEST_SETS):
        samples = sample_pv(cfg.n_data, cfg.alpha, cfg.beta, cfg.xi_max,
                            derive_seed(cfg.master_seed, "data", i))
        _write_csv(out / f"samples_{i:02d}.csv", ["xi"],
                   ([_fmt(v)] for v in samples.values))
        dist = bin_to_grid(samples, grid)
        _write_csv(out / f"dist_{i:02d}.csv", ["xi", "prob"],
                   ([_fmt(x), _fmt(p)] for x, p in zip(dist.xi, dist.probs)))
    hold_out = sample_pv(cfg.n_data, cfg.alpha, cfg.beta, cfg.xi_max,
                         derive_seed(cfg.master_seed, "test-data", 0))
    test = quantile_test_set(hold_out, cfg.n_test)
    _write_csv(out / "test_scenarios.csv", ["xi_tilde"],
               ([_fmt(v)] for v in test.xi_tilde))
    n_files = 2 * (N_TRAIN_SETS + N_TEST_SETS) + 1
    print(f"wrote {n_files} files to {out}/ "
          f"({N_TRAIN_SETS} train + {N_TEST_SETS} test distributions, "
          f"{cfg.n_test} test scenarios)")
    return 0


def cmd_train_qgan(cfg: ExperimentConfig, args) -> int:
    out = cfg.out_dir
    targets = [
        _read_column(out / f"dist_{i:02d}.csv", "prob")
        for i in range(N_TRAIN_SETS + N_TEST_SETS)
    ]
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "qgan", 0))
    gen = train(targets[:N_TRAIN_SETS], targets[N_TRAIN_SETS:], cfg.qgan, rng)
    save_generator(gen, out / "generator.txt")
    print(f"trained N={cfg.n_grid} generator: test agreement (1-JS) "
          f"{gen.test_score:.6f} at epoch {gen.best_epoch} "
          f"-> {out / 'generator.txt'}")
    return 0


def _load_test_set(cfg: ExperimentConfig) -> TestScenarioSet:
    return TestScenarioSet(_read_column(cfg.out_dir / "test_scenarios.csv",
                                        "xi_tilde"))


def cmd_run(cfg: ExperimentConfig, args) -> int:
    out = cfg.out_dir
    gen = load_generator(out / "generator.txt")
    test = _load_test_set(cfg)
    layout = RegisterLayout(gen.n_xi, cfg.problem.n_units)
    qaoa_cfg = QaoaConfig(p1=cfg.p1, p2=cfg.p2, shots=cfg.eval_shots,
                          maxiter=cfg.maxiter)
    records = []
    for lam in cfg.lambdas:
        params = replace(cfg.problem, lam=float(lam))
        ham = build_hamiltonian(params, layout, 0.0, cfg.xi_max)
        report = evaluate(test, params)
        for s in range(cfg.n_seeds):
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, f"qaoa:{lam:g}", s))
            result = optimize(gen, ham, layout, qaoa_cfg, rng)
            cost_map = report.per_x_costs[result.map_solution]
            tol = 1e-9 * max(1.0, abs(report.rp_value))
            if cost_map < report.rp_value - tol:
                raise StructureError(
                    f"map-solution cost {cost_map} undercuts RP "
                    f"{report.rp_value} at lam={lam}"
                )
            records.append({
                "lam": float(lam),
                "seed": s,
                "map": bits_to_string(result.map_solution),
                "cost_map": float(cost_map),
                "rp": float(report.rp_value),
                "eev": float(report.eev_value),
                "best_objective": float(result.best_objective),
                "evals": int(len(result.trace)),
                "trace_first": float(result.trace[0]),
                "trace_best": float(np.min(result.trace)),
            })
            print(f"lam={lam:g} seed={s}: map={records[-1]['map']} "
                  f"C(map)={cost_map:.1f} RP={report.rp_value:.1f}")
    path = out / "records.jsonl"
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {path}")
    return 0


def cmd_baselines(cfg: ExperimentConfig, args) -> int:
    test = _load_test_set(cfg)
    all_x = list(itertools.product((0, 1), repeat=cfg.problem.n_units))
    header = ["lam", "rp", "eev", "rp_x", "ev_x"] + [
        f"cost_{bits_to_string(x)}" for x in all_x
    ]
    rows = []
    for lam in cfg.lambdas:
        report = evaluate(test, replace(cfg.problem, lam=float(lam)))
        rows.append(
            [_fmt(lam), _fmt(report.rp_value), _fmt(report.eev_value),
             bits_to_string(report.rp_solution),
             bits_to_string(report.ev_solution)]
            + [_fmt(report.per_x_costs[x]) for x in all_x]
        )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "baselines.csv"
    _write_csv(path, header, rows)
    print(f"wrote {len(rows)} baseline rows to {path}")
    return 0


def cmd_resources(cfg: ExperimentConfig, args) -> int:
    rows = sweep_scaling(cfg.n_values, cfg.m_values, cfg.p1, cfg.p2,
                         include_qgan=True)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "resources.csv"
    _write_csv(path, SWEEP_FIELDS,
               ([row[field] for field in SWEEP_FIELDS] for row in rows))
    print(f"wrote {len(rows)} scaling rows to {path}")
    return 0


_REPORT_FIELDS = ("lam", "cost_map", "rp", "eev")


def cmd_report(cfg: ExperimentConfig, args) -> int:
    path = Path(args.records) if args.records else cfg.out_dir / "records.jsonl"
    records = []
    with open(path) as fh:
        for num, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # a truncated or garbled line
                raise OSError(f"{path} line {num}: {exc}") from exc
            if not isinstance(record, dict) or not all(
                    isinstance(record.get(key), (int, float))
                    for key in _REPORT_FIELDS):
                raise OSError(f"{path} line {num}: a record needs numeric "
                              f"{', '.join(_REPORT_FIELDS)}")
            records.append(record)
    if not records:
        raise FileNotFoundError(f"{path} contains no records")
    by_lam: dict = {}
    for record in records:
        by_lam.setdefault(record["lam"], []).append(record)
    print(f"{'lam':>8} {'seeds':>5} {'RP':>12} {'EEV':>12} "
          f"{'C_mean':>12} {'C_min':>12} {'C_max':>12}")
    for lam in sorted(by_lam):
        group = by_lam[lam]
        costs = np.array([r["cost_map"] for r in group])
        print(f"{lam:>8g} {len(group):>5d} {group[0]['rp']:>12.1f} "
              f"{group[0]['eev']:>12.1f} {costs.mean():>12.1f} "
              f"{costs.min():>12.1f} {costs.max():>12.1f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI configuration file")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="override the master seed")
    common.add_argument("--lambdas", metavar="LIST",
                        help="comma-separated penalty weights")
    common.add_argument("--seeds", type=int, metavar="N",
                        help="optimizer restarts per lambda")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="exact expectation evaluation")
    mode.add_argument("--shots", type=int, metavar="N",
                      help="sampled evaluation with N shots")
    common.add_argument("--paper", action="store_true",
                        help="full-scale protocol: 18 lambdas, 40 seeds, "
                             "50000-shot evaluation")

    parser = argparse.ArgumentParser(
        prog="qtwostage",
        description="Two-stage stochastic unit commitment on a simulated "
                    "quantum backend",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "gen-data": (cmd_gen_data, "draw PV samples and discretize them"),
        "train-qgan": (cmd_train_qgan, "fit the scenario-loading circuit"),
        "run": (cmd_run, "optimize and record one row per (lambda, seed)"),
        "baselines": (cmd_baselines, "classical reference costs per lambda"),
        "resources": (cmd_resources, "gate-count and depth scaling table"),
        "report": (cmd_report, "summarize run records per lambda"),
    }
    for name, (func, help_text) in handlers.items():
        sp = sub.add_parser(name, parents=[common], help=help_text)
        sp.set_defaults(func=func)
        if name == "report":
            sp.add_argument("records", nargs="?",
                            help="records file (default: <out>/records.jsonl)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_flags(load_config(args.config), args)
    except (OSError, configparser.Error, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except _DOMAIN_ERRORS as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
