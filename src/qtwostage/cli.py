"""Experiment driver.

Subcommands cover the full workflow: ``gen-data`` draws and discretizes the
PV samples, ``train-qgan`` fits the scenario loader, ``run`` executes the
variational sweep and writes JSON-lines records, ``baselines`` and
``resources`` emit the classical reference costs and the gate-count scaling
tables, and ``report`` aggregates run records into a summary table.

Configuration is an INI file (every key optional; built-in desk-scale
defaults otherwise).  All randomness descends from one master seed through
``derive_seed``, so reruns with the same configuration are byte-identical.

Exit codes: 0 success, 1 runtime invariant violation or out of memory, 2 I/O
or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import evaluate, lambda_grid
from .errors import CapacityError, StructureError, UnsupportedGateError
from .qaoa import FactorizedEvaluator, QaoaConfig, optimize
from .qgan import (
    TrainConfig,
    check_targets,
    load_generator,
    save_generator,
    train,
)
from .resources import SWEEP_FIELDS, sweep_scaling
from .scenarios import bin_to_grid, quantile_test_set, sample_pv, uniform_grid
from .statevec import MAX_QUBITS
from .ucp import (
    RegisterLayout,
    UcpParams,
    bits_to_string,
    build_hamiltonian,
    default_params,
)
from .walsh import MAX_Z_QUBITS

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

# Default evaluation shots, for `[qaoa] eval_mode = shots` and for --paper.
PAPER_SHOTS = 50_000
_LAMBDAS = (30.0, 90.0, 150.0, 200.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; the defaults are the desk-scale run."""

    problem: UcpParams = default_params(_LAMBDAS[0])
    alpha: float = 3.0
    beta: float = 7.0
    xi_max: float = 2500.0
    n_grid: int = 8
    n_data: int = 2000
    n_test: int = 200
    qgan: TrainConfig = TrainConfig()
    qaoa: QaoaConfig = QaoaConfig()
    n_seeds: int = 5
    lambdas: tuple = _LAMBDAS
    n_values: tuple = (4, 8, 16, 32, 64)
    m_values: tuple = (3, 4, 5, 6)
    out_dir: Path = Path("results")
    master_seed: int = 7

    def __post_init__(self):
        if self.n_grid < 2 or self.n_grid & (self.n_grid - 1):
            raise StructureError("n_grid must be a power of two >= 2")
        n_qubits = RegisterLayout(self.n_grid.bit_length() - 1,
                                  self.problem.n_units).n_total
        if n_qubits > MAX_QUBITS:
            raise StructureError(f"n_grid and n_units need {n_qubits} qubits, "
                                 f"above the {MAX_QUBITS}-qubit cap")
        if not 1 <= self.n_test <= self.n_data:
            raise StructureError("n_test must lie in [1, n_data]")
        if not all(0 < v < np.inf for v in (self.alpha, self.beta, self.xi_max)):
            raise StructureError("alpha, beta and xi_max must be finite and > 0")
        if self.n_seeds < 1:
            raise StructureError("n_seeds must be >= 1")
        if not self.lambdas:
            raise StructureError("lambda sweep cannot be empty")
        for lam in self.lambdas:
            replace(self.problem, lam=lam)  # UcpParams checks every weight
        if min(self.m_values) < 1 or any(
                n < 2 or n & (n - 1) for n in self.n_values):
            raise StructureError("n_values must be powers of two >= 2 "
                                 "and m_values >= 1")
        widest = max(self.n_values).bit_length() - 1 + 2 * max(self.m_values)
        if widest > MAX_Z_QUBITS:
            raise StructureError(f"the resource sweep needs {widest} qubits; "
                                 f"a Z-polynomial holds {MAX_Z_QUBITS}")
        if not 0 <= self.master_seed < 2**64:
            raise StructureError("master_seed must fit in 64 bits")


_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def _number_list(text: str, cast) -> tuple:
    items = text.replace(",", " ").split()
    if not items:
        raise StructureError("empty list value")
    return tuple(cast(item) for item in items)


def _floats(text: str) -> tuple:
    return _number_list(text, float)


def _ints(text: str) -> tuple:
    return _number_list(text, int)


def _as_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise StructureError(f"not a boolean: {text!r}")


def _eval_mode(text: str) -> str:
    if text not in ("exact", "shots"):
        raise StructureError(f"eval_mode must be 'exact' or 'shots', got {text!r}")
    return text


# section -> key -> parser of its text.  A key sets the field of its name on
# UcpParams, TrainConfig, QaoaConfig or ExperimentConfig, except [output] dir
# (out_dir) and [qaoa] eval_mode, which says whether [qaoa] shots is used.
_KEYS = {
    "problem": {"n_units": int, "demand": float, "p_min": _floats,
                "p_max": _floats, "startup_cost": _floats, "unit_cost": _floats},
    "uncertainty": {"alpha": float, "beta": float, "xi_max": float,
                    "n_grid": int, "n_data": int, "n_test": int},
    "qgan": {"epochs": int, "lr_g": float, "lr_d": float, "shots": int,
             "use_shots": _as_bool, "init_scale": float},
    "qaoa": {"p1": int, "p2": int, "eval_mode": _eval_mode, "shots": int,
             "maxiter": int, "n_seeds": int},
    "sweep": {"lambdas": _floats, "n_values": _ints, "m_values": _ints},
    "output": {"dir": Path},
    "experiment": {"master_seed": int},
}


def load_config(path: str | None) -> ExperimentConfig:
    """Defaults overlaid with an optional INI file; unknown keys rejected."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        with open(path) as fh:
            parser.read_file(fh)
    given = {section: {} for section in _KEYS}
    for section in parser.sections():
        if section not in _KEYS:
            raise StructureError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise StructureError(f"unknown key {key!r} in [{section}]")
            given[section][key] = _KEYS[section][key](text)

    qaoa = given["qaoa"]
    fields = {**given["uncertainty"], **given["sweep"], **given["experiment"]}
    if "n_seeds" in qaoa:
        fields["n_seeds"] = qaoa.pop("n_seeds")
    if "dir" in given["output"]:
        fields["out_dir"] = given["output"]["dir"]
    exact = qaoa.pop("eval_mode", "exact") == "exact"
    # built before exact mode drops the shots, so a bad value is still an error
    qaoa_cfg = QaoaConfig(**{"shots": PAPER_SHOTS, **qaoa})
    lam = fields.get("lambdas", _LAMBDAS)[0]
    return ExperimentConfig(
        problem=replace(default_params(lam), **given["problem"]),
        qgan=TrainConfig(**given["qgan"]),
        qaoa=replace(qaoa_cfg, shots=None) if exact else qaoa_cfg,
        **fields,
    )


def apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Flag precedence: config file < --paper < explicit flags."""
    if getattr(args, "paper", False):
        cfg = replace(
            cfg,
            lambdas=tuple(float(v) for v in lambda_grid()),
            n_seeds=40,
            qaoa=replace(cfg.qaoa, shots=PAPER_SHOTS),
        )
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, master_seed=args.seed)
    if getattr(args, "lambdas", None) is not None:
        cfg = replace(cfg, lambdas=_floats(args.lambdas))
    if getattr(args, "seeds", None) is not None:
        cfg = replace(cfg, n_seeds=args.seeds)
    if getattr(args, "shots", None) is not None:
        cfg = replace(cfg, qaoa=replace(cfg.qaoa, shots=args.shots))
    if getattr(args, "exact", False):
        cfg = replace(cfg, qaoa=replace(cfg.qaoa, shots=None))
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
                   ([_fmt(v)] for v in samples))
        probs = bin_to_grid(samples, grid)
        _write_csv(out / f"dist_{i:02d}.csv", ["xi", "prob"],
                   ([_fmt(x), _fmt(p)] for x, p in zip(grid, probs)))
    hold_out = sample_pv(cfg.n_data, cfg.alpha, cfg.beta, cfg.xi_max,
                         derive_seed(cfg.master_seed, "test-data", 0))
    _write_csv(out / "test_scenarios.csv", ["xi_tilde"],
               ([_fmt(v)] for v in quantile_test_set(hold_out, cfg.n_test)))
    n_files = 2 * (N_TRAIN_SETS + N_TEST_SETS) + 1
    print(f"wrote {n_files} files to {out}/ "
          f"({N_TRAIN_SETS} train + {N_TEST_SETS} test distributions, "
          f"{cfg.n_test} test scenarios)")
    return 0


def _read_dist(path: Path, n_grid: int) -> np.ndarray:
    """The probabilities of one dist file, sized for ``n_grid``."""
    probs = _read_column(path, "prob")
    if len(probs) != n_grid:
        raise OSError(f"{path} has {len(probs)} rows, but [uncertainty] "
                      f"n_grid is {n_grid}")
    try:
        check_targets([probs], n_grid)
    except StructureError as exc:
        raise OSError(f"{path}: {exc}") from exc
    return probs


def cmd_train_qgan(cfg: ExperimentConfig, args) -> int:
    out = cfg.out_dir
    targets = [
        _read_dist(out / f"dist_{i:02d}.csv", cfg.n_grid)
        for i in range(N_TRAIN_SETS + N_TEST_SETS)
    ]
    rng = np.random.default_rng(derive_seed(cfg.master_seed, "qgan", 0))
    gen = train(targets[:N_TRAIN_SETS], targets[N_TRAIN_SETS:], cfg.qgan, rng)
    save_generator(gen, out / "generator.txt")
    print(f"trained N={cfg.n_grid} generator: test agreement (1-JS) "
          f"{gen.test_score:.6f} at epoch {gen.best_epoch} "
          f"-> {out / 'generator.txt'}")
    return 0


def _load_test_set(cfg: ExperimentConfig) -> np.ndarray:
    return _read_column(cfg.out_dir / "test_scenarios.csv", "xi_tilde")


def cmd_run(cfg: ExperimentConfig, args) -> int:
    out = cfg.out_dir
    n_xi = cfg.n_grid.bit_length() - 1
    spec = load_generator(out / "generator.txt").spec
    if spec.n_xi != n_xi:
        raise OSError(f"{out / 'generator.txt'} has n_xi = {spec.n_xi}, but "
                      f"[uncertainty] n_grid = {cfg.n_grid} needs {n_xi}")
    test = _load_test_set(cfg)
    records = []
    for lam in cfg.lambdas:
        params = replace(cfg.problem, lam=float(lam))
        report = evaluate(test, params)
        evaluator = FactorizedEvaluator(
            spec, build_hamiltonian(params, n_xi, 0.0, cfg.xi_max))
        # no angles reach below this, so best_objective / optimum >= 1 says
        # how far a restart stopped from a perfectly adapted recourse
        optimum = evaluator.surrogate_optimum()
        for s in range(cfg.n_seeds):
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, f"qaoa:{lam:g}", s))
            start = time.perf_counter()
            result = optimize(evaluator, cfg.qaoa, rng)
            wall = time.perf_counter() - start  # printed, never recorded
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
            ratio = (f" ratio={result.best_objective / optimum:.4g}"
                     if optimum > 0 else "")
            print(f"lam={lam:g} seed={s}: map={records[-1]['map']} "
                  f"C(map)={cost_map:.1f} RP={report.rp_value:.1f} "
                  f"wall={wall:.2f}s evals={len(result.trace)} "
                  f"stop: {result.message}{ratio}")
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
    rows = sweep_scaling(cfg.n_values, cfg.m_values, cfg.qaoa.p1, cfg.qaoa.p2)
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
    except MemoryError as exc:  # a capacity shortfall the settings imply
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
