"""Experiment driver.

Subcommands cover the full workflow: ``gen-data`` draws and discretizes the
PV samples, ``train-qgan`` fits the scenario loader, ``run`` executes the
variational sweep and writes JSON-lines records, ``baselines`` and
``resources`` emit the classical reference costs and the gate-count scaling
tables, and ``report`` aggregates run records into a summary table.

Configuration is an INI file (every key optional; built-in desk-scale
defaults otherwise); its grammar and every setting live in ``config``.  All
randomness descends from one master seed through ``derive_seed``, so reruns
with the same configuration are byte-identical.

Each subcommand imports the numeric modules it uses when it runs, so loading
a config, ``--help``, a config error and ``report`` never import numpy.

Exit codes: 0 success, 1 runtime invariant violation or out of memory, 2 I/O
or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import itertools
import json
import math
import sys
import time
from pathlib import Path

from .config import ExperimentConfig, lambda_key, load_config, read_text
from .errors import CapacityError, StructureError

N_TRAIN_SETS = 10
N_TEST_SETS = 5

_DOMAIN_ERRORS = (StructureError, CapacityError)


def derive_seed(master: int, role: str, index: int) -> int:
    """Deterministic 64-bit sub-seed from the master seed, a role, an index."""
    import hashlib  # here, so config loading and `report` never import it

    digest = hashlib.sha256(f"{master}:{role}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


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


def _read_column(path: Path, column: str):
    """One column of finite numbers, as an array; any malformed file is an
    OSError."""
    import numpy as np

    reader = csv.DictReader(io.StringIO(read_text(path)))
    if column not in (reader.fieldnames or ()):
        raise OSError(f"{path} lacks a {column!r} column")
    values = []
    for row in reader:
        try:
            value = float(row[column])
        except (TypeError, ValueError) as exc:  # short row or non-number
            raise OSError(f"{path} line {reader.line_num}: {exc}") from exc
        if not math.isfinite(value):
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
    from .scenarios import bin_to_grid, quantile_test_set, sample_pv, uniform_grid

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


def _read_dist(path: Path, n_grid: int):
    """The probabilities of one dist file: ``n_grid`` rows, none below
    -1e-12, summing to 1 within 1e-9; anything else is an OSError."""
    probs = _read_column(path, "prob")
    if len(probs) != n_grid:
        raise OSError(f"{path} has {len(probs)} rows, but [uncertainty] "
                      f"n_grid is {n_grid}")
    if abs(float(probs.sum()) - 1.0) > 1e-9 or (probs < -1e-12).any():
        raise OSError(f"{path}: probabilities must be a normalized "
                      f"distribution")
    return probs


def cmd_train_qgan(cfg: ExperimentConfig, args) -> int:
    import numpy as np

    from .qgan import save_generator, train

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


def _load_test_set(cfg: ExperimentConfig):
    """The ``[uncertainty] n_test`` scenarios ``gen-data`` wrote; any other
    row count is an OSError."""
    path = cfg.out_dir / "test_scenarios.csv"
    test = _read_column(path, "xi_tilde")
    if len(test) != cfg.n_test:
        raise OSError(f"{path} has {len(test)} rows, but [uncertainty] "
                      f"n_test is {cfg.n_test}")
    return test


def cmd_run(cfg: ExperimentConfig, args) -> int:
    import numpy as np

    from .baselines import evaluate
    from .qaoa import FactorizedEvaluator, optimize
    from .qgan import load_generator
    from .ucp import bits_to_string, build_hamiltonian

    out = cfg.out_dir
    n_xi = cfg.n_grid.bit_length() - 1
    gen = load_generator(out / "generator.txt")
    if gen.n_xi != n_xi:
        raise OSError(f"{out / 'generator.txt'} has n_xi = {gen.n_xi}, but "
                      f"[uncertainty] n_grid = {cfg.n_grid} needs {n_xi}")
    test = _load_test_set(cfg)
    records = []
    for lam in cfg.lambdas:
        report = evaluate(test, cfg.problem, lam)
        ham = build_hamiltonian(cfg.problem, lam, n_xi, 0.0, cfg.xi_max)
        evaluator = FactorizedEvaluator(gen.theta, ham)
        # no angles reach below this, so best_objective / optimum >= 1 says
        # how far a restart stopped from a perfectly adapted recourse; shot
        # noise in a sampled best_objective can put the ratio below 1
        optimum = evaluator.surrogate_optimum()
        for s in range(cfg.qaoa.n_seeds):
            rng = np.random.default_rng(
                derive_seed(cfg.master_seed, f"qaoa:{lambda_key(lam)}", s))
            start = time.perf_counter()
            result = optimize(evaluator, cfg.qaoa, rng)
            wall = time.perf_counter() - start  # printed, never recorded
            cost_map = report.per_x_costs[result.map_solution]
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
            # was the restart still improving? the best objective's relative
            # fall over its last quarter of evaluations, printed only
            tail = len(result.trace) // 4
            before = float(np.min(result.trace[:len(result.trace) - tail]))
            tail_gain = ((before - records[-1]["trace_best"]) / abs(before)
                         if before else 0.0)
            ratio = (f" ratio={result.best_objective / optimum:.4g}"
                     if optimum > 0 else "")
            print(f"lam={lambda_key(lam)} seed={s}: map={records[-1]['map']} "
                  f"C(map)={cost_map:.1f} RP={report.rp_value:.1f} "
                  f"wall={wall:.2f}s runs={result.runs} "
                  f"evals={len(result.trace)} "
                  f"stop: {result.message} tail_gain={tail_gain:.3g}{ratio}")
    path = out / "records.jsonl"
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"wrote {len(records)} records to {path}")
    return 0


def cmd_baselines(cfg: ExperimentConfig, args) -> int:
    from .baselines import evaluate
    from .ucp import bits_to_string

    test = _load_test_set(cfg)
    all_x = list(itertools.product((0, 1), repeat=cfg.problem.n_units))
    header = ["lam", "rp", "eev", "rp_x", "ev_x"] + [
        f"cost_{bits_to_string(x)}" for x in all_x
    ]
    rows = []
    for lam in cfg.lambdas:
        report = evaluate(test, cfg.problem, lam)
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
    from .resources import SWEEP_FIELDS, sweep_scaling

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
    for num, line in enumerate(io.StringIO(read_text(path)), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a truncated or garbled line
            raise OSError(f"{path} line {num}: {exc}") from exc
        # json reads NaN and Infinity as floats, a bool is an int, and an
        # int may lie beyond float range, where the table's format fails
        if not isinstance(record, dict) or not all(
                type(record.get(key)) in (int, float)
                and abs(record[key]) <= sys.float_info.max
                for key in _REPORT_FIELDS):
            raise OSError(f"{path} line {num}: a record needs finite "
                          f"numeric {', '.join(_REPORT_FIELDS)}")
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
        costs = [float(r["cost_map"]) for r in group]
        print(f"{lam:>8g} {len(group):>5d} {group[0]['rp']:>12.1f} "
              f"{group[0]['eev']:>12.1f} {sum(costs) / len(costs):>12.1f} "
              f"{min(costs):>12.1f} {max(costs):>12.1f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI configuration file")
    common.add_argument("--seed", metavar="U64",
                        help="sets [experiment] master_seed")
    common.add_argument("--lambdas", metavar="LIST",
                        help="sets [sweep] lambdas, comma-separated")
    common.add_argument("--seeds", metavar="N",
                        help="sets [qaoa] n_seeds, the restarts per lambda")
    mode = common.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true",
                      help="sets [qaoa] eval_mode = exact")
    mode.add_argument("--shots", metavar="N",
                      help="sets [qaoa] eval_mode = shots and shots = N")
    common.add_argument("--paper", action="store_true",
                        help="sets the paper's [sweep] lambdas and [qaoa] "
                             "n_seeds, eval_mode and shots; flags beat it")

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
        cfg = load_config(args.config, args)
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
