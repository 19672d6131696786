import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtwostage import qaoa
from qtwostage.cli import build_parser, derive_seed, main
from qtwostage.config import (PAPER_LAMBDAS, ExperimentConfig,
                              StructureError, load_config)


def write_config(tmp_path, body: str) -> str:
    path = tmp_path / "config.ini"
    path.write_text(body)
    return str(path)


def parse_args(*argv):
    return build_parser().parse_args(argv)


def tiny_config(tmp_path, **overrides) -> str:
    out = tmp_path / "results"
    body = f"""
[uncertainty]
n_grid = {overrides.get("n_grid", 4)}
n_data = {overrides.get("n_data", 40)}
n_test = {overrides.get("n_test", 5)}

[qgan]
epochs = {overrides.get("epochs", 3)}
eval_mode = {overrides.get("qgan_eval_mode", "exact")}

[qaoa]
p1 = 1
p2 = 1
eval_mode = {overrides.get("eval_mode", "exact")}
maxiter = {overrides.get("maxiter", 8)}
n_seeds = {overrides.get("n_seeds", 1)}

[sweep]
lambdas = {overrides.get("lambdas", "30")}
n_values = 4, 8
m_values = 3

[output]
dir = {out}

[experiment]
master_seed = 3
"""
    return write_config(tmp_path, body)


# ---------------------------------------------------------------------------
# seeds and configuration
# ---------------------------------------------------------------------------

def test_derive_seed_deterministic_and_split():
    a = derive_seed(7, "data", 0)
    assert a == derive_seed(7, "data", 0)
    others = {
        derive_seed(7, "data", 1),
        derive_seed(7, "qgan", 0),
        derive_seed(8, "data", 0),
    }
    assert a not in others
    assert len(others) == 3
    assert 0 <= a < 2**64


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg.n_grid == 8
    assert cfg.lambdas == (30.0, 90.0, 150.0, 200.0)
    assert cfg.qaoa.shots is None
    assert cfg.problem.n_units == 3
    assert cfg.qgan.epochs == 400
    assert cfg.qaoa.n_seeds == 5
    assert cfg.master_seed == 7
    assert cfg.n_values == (4, 8, 16, 32, 64)


def test_load_config_overrides(tmp_path):
    path = write_config(tmp_path, """
[uncertainty]
n_grid = 16      # a comment
[qaoa]
eval_mode = shots
shots = 2000
[sweep]
lambdas = 30, 200
""")
    cfg = load_config(path)
    assert cfg.n_grid == 16
    assert cfg.qaoa.shots == 2000
    assert cfg.lambdas == (30.0, 200.0)
    # [qgan] takes eval_mode as [qaoa] does, with its own default shots
    cfg = load_config(write_config(tmp_path, "[qgan]\neval_mode = shots\n"))
    assert cfg.qgan.shots == 10000
    cfg = load_config(write_config(tmp_path, "[qgan]\nshots = 500\n"))
    assert cfg.qgan.shots is None
    # --shots sets [qaoa] keys only, on every subcommand
    cfg = load_config(None, parse_args("train-qgan", "--shots", "500"))
    assert cfg.qgan.shots is None and cfg.qaoa.shots == 500
    # values are literal: % is no template character
    for out_dir in ("out%1", "%(x)s"):
        path = write_config(tmp_path, f"[output]\ndir = {out_dir}\n")
        assert load_config(path).out_dir == Path(out_dir)


def test_load_config_accepts_zero_lambda(tmp_path):
    # the documented diagnostic: lambda = 0 drops the imbalance penalty
    cfg = load_config(write_config(tmp_path, "[sweep]\nlambdas = 0\n"))
    assert cfg.lambdas == (0.0,)


def test_defaults_are_written_once(tmp_path):
    assert load_config(None) == ExperimentConfig()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    grammar = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert load_config(write_config(tmp_path, grammar)) == load_config(None)


def test_load_config_rejects_unknown_key(tmp_path):
    path = write_config(tmp_path, "[uncertainty]\nn_gridd = 8\n")
    with pytest.raises(StructureError):
        load_config(path)
    path = write_config(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(StructureError):
        load_config(path)


def test_load_config_rejects_bad_grid(tmp_path):
    path = write_config(tmp_path, "[uncertainty]\nn_grid = 6\n")
    with pytest.raises(StructureError):
        load_config(path)


def test_config_validates_seed_range():
    with pytest.raises(StructureError):
        cfg = load_config(None)
        ExperimentConfig(**{**cfg.__dict__, "master_seed": 2**64})


def test_paper_flag_scales_up():
    cfg = load_config(None, parse_args("run", "--paper"))
    assert len(cfg.lambdas) == 18
    assert cfg.lambdas[0] == 30.0 and cfg.lambdas[-1] == 200.0
    assert cfg.qaoa.n_seeds == 40
    assert cfg.qaoa.shots == 50_000


def test_explicit_flags_beat_paper(tmp_path):
    cfg = load_config(None, parse_args("run", "--paper", "--exact",
                                       "--lambdas", "30,90", "--seeds", "2",
                                       "--seed", "123"))
    assert cfg.qaoa.shots is None
    assert cfg.lambdas == (30.0, 90.0)
    assert cfg.qaoa.n_seeds == 2
    assert cfg.master_seed == 123
    # file < --paper < explicit flags
    path = write_config(tmp_path,
                        "[qaoa]\nn_seeds = 3\n[sweep]\nlambdas = 50\n")
    cfg = load_config(path, parse_args("run", "--paper"))
    assert (cfg.qaoa.n_seeds, cfg.lambdas) == (40, PAPER_LAMBDAS)
    cfg = load_config(path, parse_args("run", "--paper", "--seeds", "2"))
    assert cfg.qaoa.n_seeds == 2


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["gen-data", "--config", "/nonexistent/c.ini"]) == 2
    assert "config error" in capsys.readouterr().err
    path = write_config(tmp_path, "[problem]\ndemand = nan\n")
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
    # a byte that is not UTF-8
    Path(path).write_bytes(b"[problem]\ndemand = \xff\n")
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "config.ini" in err


@pytest.mark.parametrize("command, body, flags, named", [
    ("run", "[qaoa]\np1 = 0\n", [], "[qaoa] p1"),
    ("run", "[qaoa]\nmaxiter = 0\n", [], "[qaoa] maxiter"),
    ("run", "", ["--shots", "0"], "[qaoa] shots"),
    ("run", "[qaoa]\neval_mode = shots\nshots = -3\n", [], "[qaoa] shots"),
    ("gen-data", "[uncertainty]\nn_test = 0\n", [], "[uncertainty] n_test"),
    ("gen-data", "[uncertainty]\nn_data = 10\nn_test = 11\n", [],
     "[uncertainty] n_test must lie in [1, n_data]"),
    ("gen-data", "[uncertainty]\nalpha = 0\n", [], "[uncertainty] alpha"),
    ("gen-data", "[uncertainty]\nbeta = nan\n", [], "[uncertainty] beta"),
    ("gen-data", "[uncertainty]\nxi_max = -2500\n", [],
     "[uncertainty] xi_max"),
    ("train-qgan", "[qgan]\nepochs = -5\n", [], "[qgan] epochs"),
    ("train-qgan", "[qgan]\nshots = 0\n", [], "[qgan] shots"),
    ("train-qgan", "[qgan]\nlr_g = 0\n", [], "[qgan] lr_g"),
    ("train-qgan", "[qgan]\nlr_d = -0.1\n", [], "[qgan] lr_d"),
    ("train-qgan", "[qgan]\ninit_scale = -1\n", [], "[qgan] init_scale"),
    ("baselines", "[sweep]\nlambdas = 30, -5\n", [], "[sweep] lambdas"),
    ("run", "", ["--lambdas", "30,inf"], "[sweep] lambdas"),
    ("baselines", "[sweep]\nlambdas = nan\n", [], "[sweep] lambdas"),
    ("run", "", ["--lambdas", "30,-0.5"], "[sweep] lambdas"),
    ("resources", "[sweep]\nn_values = 4, 3\n", [], "[sweep] n_values"),
    ("resources", "[sweep]\nm_values = 0\n", [], "[sweep] m_values"),
    ("resources", "[sweep]\nm_values = 31\n", [],
     "[sweep] n_values and m_values"),
    ("resources", "[sweep]\nn_values = 4611686018427387904\nm_values = 1\n",
     [], "[sweep] n_values and m_values"),
    ("run", "[uncertainty]\nn_grid = 8388608\n", [],
     "[uncertainty] n_grid and [problem] n_units"),
    ("run", "[qaoa]\nshots = many\n", [], "[qaoa] shots"),
    ("run", "[qaoa]\nshots = -3\n", [], "[qaoa] shots"),
    ("run", "[qaoa]\nshots = 0\n", [], "[qaoa] shots"),
    ("gen-data", "[uncertainty]\nalpha = inf\n", [], "[uncertainty] alpha"),
    ("gen-data", "[uncertainty]\nbeta = inf\n", [], "[uncertainty] beta"),
    ("gen-data", "[uncertainty]\nxi_max = inf\n", [],
     "[uncertainty] xi_max"),
    ("train-qgan", "[qgan]\nlr_g = inf\n", [], "[qgan] lr_g"),
    ("train-qgan", "[qgan]\nlr_d = inf\n", [], "[qgan] lr_d"),
    ("train-qgan", "[qgan]\ninit_scale = inf\n", [], "[qgan] init_scale"),
    ("train-qgan", "[qgan]\ninit_scale = 1e308\n", [], "[qgan] init_scale"),
    ("train-qgan", "[qgan]\neval_mode = shots\nshots = 9223372036854775808\n",
     [], "[qgan] shots"),
    ("run", "[qaoa]\neval_mode = shots\nshots = 100000000000000000000\n",
     [], "[qaoa] shots"),
    ("run", "", ["--shots", "9223372036854775808"], "[qaoa] shots"),
    ("gen-data", "[uncertainty]\nn_grid = 6\n", [], "[uncertainty] n_grid"),
    ("run", "[problem]\nn_units = 0\n", [], "[problem] n_units"),
    ("baselines", "[problem]\np_min = 300, 500\n", [], "[problem] p_min"),
    ("train-qgan", "[qgan]\nuse_shots = true\n", [],
     "'use_shots' in [qgan]"),
    ("train-qgan", "[qgan]\neval_mode = sampled\n", [],
     "[qgan] eval_mode"),
    ("run", "[qaoa]\nn_seeds = 0\n", [], "[qaoa] n_seeds"),
    ("run", "", ["--seeds", "0"], "[qaoa] n_seeds"),
    ("run", "", ["--seed", "x"], "[experiment] master_seed"),
    ("run", "", ["--seeds", "x"], "[qaoa] n_seeds"),
    ("run", "", ["--shots", "x"], "[qaoa] shots"),
    ("run", "", ["--lambdas", ""], "[sweep] lambdas"),
    ("report", "[experiment]\nmaster_seed = x\n", [],
     "[experiment] master_seed"),
    ("baselines", "[sweep]\nlambdas =\n", [], "[sweep] lambdas"),
    # restart seeds are keyed by a lambda's 6-significant-digit text
    ("run", "", ["--lambdas", "30,30.0000001"], "[sweep] lambdas"),
    ("baselines", "[sweep]\nlambdas = 30, 90, 30\n", [], "[sweep] lambdas"),
    ("baselines", "", ["--lambdas", "0,-0"], "[sweep] lambdas"),
    # [DEFAULT] is a section like any other, not keys for every section
    ("report", "[DEFAULT]\nmaster_seed = 5\nbogus = 1\n", [], "[DEFAULT]"),
    ("train-qgan", "[DEFAULT]\nepochs = 5\n[qgan]\n", [], "[DEFAULT]"),
    ("run", "[DEFAULT]\nepochs = 5\n[qaoa]\n", [], "[DEFAULT]"),
    # a file the INI grammar cannot read is named, as write_config names it
    ("report", "[qgan]\nepochs = 3\n[qgan]\nepochs = 4\n", [], "config.ini"),
    ("report", "epochs = 3\n[qgan]\n", [], "config.ini"),
    ("report", "[qgan]\nepochs = 3\nepochs = 4\n", [], "config.ini"),
    ("report", "[qgan]\nepochs\n", [], "config.ini"),
], ids=["p1", "maxiter", "shots-flag", "eval-shots", "n_test-zero",
        "n_test-above-n_data", "alpha", "beta-nan", "xi_max", "epochs", "qgan-shots",
        "lr_g", "lr_d", "init_scale", "later-lambda", "lambda-flag",
        "lambda-nan", "lambda-flag-negative",
        "n_values", "m_values", "m_values-above-z-limit",
        "n_values-above-z-limit", "above-max-qubits", "unparsed-shots",
        "exact-negative-shots", "exact-zero-shots", "alpha-inf", "beta-inf",
        "xi_max-inf", "lr_g-inf", "lr_d-inf", "init_scale-inf",
        "init_scale-overflow", "qgan-shots-above-c-long",
        "eval-shots-above-c-long", "shots-flag-above-c-long",
        "n_grid-not-power-of-two", "n_units-zero", "p_min-length-mismatch",
        "qgan-use-shots-gone", "qgan-eval-mode-word", "n_seeds-zero",
        "seeds-flag-zero", "seed-flag-word", "seeds-flag-word",
        "shots-flag-word", "lambdas-flag-empty", "seed-word",
        "lambdas-empty", "lambdas-flag-same-key", "lambdas-repeated",
        "lambdas-flag-signed-zero",
        "default-section", "default-section-beside-qgan",
        "default-section-beside-qaoa", "ini-duplicate-section",
        "ini-key-before-section", "ini-duplicate-key", "ini-bare-word"])
def test_bad_configuration_is_exit_2(tmp_path, capsys, command, body, flags,
                                     named):
    """Exit 2 with a config error, which names the key at fault
    (``named``): the key whose text does not parse, or the key, or for a
    cross-field check both keys, whose check fails, with its section; or
    the file, where the INI grammar cannot read it."""
    path = write_config(tmp_path, body + f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main([command, "--config", path, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------

def test_gen_data_writes_expected_files(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    out = tmp_path / "results"
    samples = sorted(out.glob("samples_*.csv"))
    dists = sorted(out.glob("dist_*.csv"))
    assert len(samples) == 15
    assert len(dists) == 15
    assert (out / "test_scenarios.csv").exists()

    header, *rows = (out / "dist_00.csv").read_text().strip().splitlines()
    assert header == "xi,prob"
    probs = [float(line.split(",")[1]) for line in rows]
    assert len(probs) == 4
    assert abs(sum(probs) - 1.0) < 1e-12

    scenario_rows = (out / "test_scenarios.csv").read_text().strip().splitlines()
    assert scenario_rows[0] == "xi_tilde"
    assert len(scenario_rows) == 1 + 5


def test_pipeline_rerun_byte_identical(tmp_path):
    # the sampled paths too: shots in QGAN training and in the QAOA objective
    cfg_path = tiny_config(tmp_path, qgan_eval_mode="shots", eval_mode="shots")
    cfg = load_config(cfg_path)
    assert cfg.qgan.shots is not None and cfg.qaoa.shots is not None
    out = tmp_path / "results"
    outputs = []
    for _ in range(2):
        for stage in ("gen-data", "train-qgan", "run", "baselines",
                      "resources", "report"):
            assert main([stage, "--config", cfg_path]) == 0, stage
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert {"generator.txt", "records.jsonl", "baselines.csv",
            "resources.csv"} <= set(outputs[0])
    assert outputs[0] == outputs[1]


def test_shots_run_spends_its_budget_and_reruns_byte_identical(tmp_path,
                                                               capsys):
    maxiter = 60
    cfg_path = tiny_config(tmp_path, eval_mode="shots", maxiter=maxiter,
                           n_seeds=2, lambdas="30, 150")
    out = tmp_path / "results"
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    capsys.readouterr()
    outputs, runs = [], []
    for _ in range(2):
        assert main(["run", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert len(lines) == 4  # two lambdas, two seeds
        for line in lines:
            assert f" evals={maxiter} stop: " in line
            runs.append(int(line.split(" runs=", 1)[1].split(" ", 1)[0]))
        outputs.append((out / "records.jsonl").read_bytes())
    assert min(runs) >= 1 and max(runs) > 1  # some restart reran COBYLA
    assert outputs[0] == outputs[1]


def test_gen_data_master_seed_changes_output(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    baseline = (tmp_path / "results" / "samples_00.csv").read_bytes()
    assert main(["gen-data", "--config", cfg_path, "--seed", "99"]) == 0
    assert (tmp_path / "results" / "samples_00.csv").read_bytes() != baseline


# ---------------------------------------------------------------------------
# training and optimization pipeline
# ---------------------------------------------------------------------------

def test_train_qgan_without_data_is_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["train-qgan", "--config", cfg_path]) == 2
    assert "i/o error" in capsys.readouterr().err
    assert main(["gen-data", "--config", cfg_path]) == 0
    dist = tmp_path / "results" / "dist_03.csv"
    header, first, *rest = dist.read_text().splitlines()
    bad = first.split(",")[0] + ",not-a-number"
    dist.write_text("\n".join([header, bad, *rest]) + "\n")
    assert main(["train-qgan", "--config", cfg_path]) == 2
    assert "dist_03.csv line 2" in capsys.readouterr().err
    x0 = first.split(",")[0]
    # a non-finite cell, a header without rows, a missing column
    for body, named in (
            (f"{header}\n{x0},nan\n", "dist_03.csv line 2"),
            (f"{header}\n", "dist_03.csv has 0 rows, but [uncertainty] "
                            "n_grid is 4"),
            (f"xi,p\n{x0},1\n", "dist_03.csv lacks a 'prob' column")):
        dist.write_text(body)
        assert main(["train-qgan", "--config", cfg_path]) == 2
        assert named in capsys.readouterr().err

    # files sized for another n_grid, a short file, non-distributions
    assert main(["gen-data", "--config", tiny_config(tmp_path, n_grid=8)]) == 0
    assert main(["train-qgan", "--config", tiny_config(tmp_path)]) == 2
    assert "dist_00.csv has 8 rows" in capsys.readouterr().err
    cfg_path = tiny_config(tmp_path, n_grid=8)
    header, first, *rest = dist.read_text().splitlines()
    x0, p0 = first.split(",")
    x1, p1 = rest[0].split(",")
    # one entry at -1e-11 with the sum kept: only the sign check can fire
    negative = [header, f"{x0},-1e-11",
                f"{x1},{float(p0) + float(p1) + 1e-11!r}", *rest[1:]]
    assert abs(sum(float(r.split(",")[1]) for r in negative[1:]) - 1) < 1e-9
    for lines in ([header, first, *rest[:3]],
                  [header, f"{x0},0.9", *rest],
                  [header, f"{x0},-0.5", *rest],
                  negative):
        dist.write_text("\n".join(lines) + "\n")
        assert main(["train-qgan", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and "dist_03.csv" in err
    # a byte that is not UTF-8
    (tmp_path / "results" / "dist_00.csv").write_bytes(b"xi,prob\n\xff,1\n")
    assert main(["train-qgan", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "dist_00.csv" in err
    assert not (tmp_path / "results" / "generator.txt").exists()


def test_pipeline_end_to_end(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    out = tmp_path / "results"

    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    assert (out / "generator.txt").exists()
    assert "test agreement" in capsys.readouterr().out

    assert main(["run", "--config", cfg_path]) == 0
    records = [
        json.loads(line)
        for line in (out / "records.jsonl").read_text().splitlines()
    ]
    assert len(records) == 1  # one lambda, one seed
    line = capsys.readouterr().out.splitlines()[0]
    assert f"evals={records[0]['evals']} stop: " in line
    # the restart's wall time is printed, and only printed
    assert float(line.split(" wall=", 1)[1].split("s ", 1)[0]) >= 0.0
    assert "wall" not in records[0]
    assert float(line.rsplit(" ratio=", 1)[1]) >= 1.0
    # the tail gain is printed before the ratio, and only printed
    tail_gain = float(line.split(" tail_gain=", 1)[1].split(" ratio=", 1)[0])
    assert tail_gain >= 0.0
    assert "tail_gain" not in records[0]
    record = records[0]
    assert record["lam"] == 30.0
    assert len(record["map"]) == 3
    assert set(record["map"]) <= {"0", "1"}
    assert record["cost_map"] >= record["rp"] - 1e-6
    assert record["rp"] <= record["eev"] + 1e-9
    assert record["evals"] >= 1
    assert record["trace_best"] <= record["trace_first"]

    assert main(["report", "--config", cfg_path]) == 0
    table = capsys.readouterr().out
    assert "C_mean" in table and "30" in table


def test_run_without_generator_is_exit_2(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path]) == 2


def test_run_malformed_generator_is_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)  # n_grid = 4: two scenario qubits
    out = tmp_path / "results"
    assert main(["gen-data", "--config", cfg_path]) == 0
    valid = ("n_xi = 2\nreps = 2\nbest_epoch = 0\ntrain_score = 1.0\n"
             "test_score = 1.0\ntheta = 0.1,0.2,0.3,0.4,0.5,0.6\n")
    for text in (
        valid[:valid.index("theta")],  # truncated before the angles
        valid.replace("0.1,0.2,", ""),  # too few angles
        valid.replace("0.3", "nan"),
        valid.replace("reps = 2", "reps = 1"),
        valid + "bogus = 1\n",  # unknown key
        valid + "angles in radians\n",  # a line with no "="
        valid + "theta = 0.6,0.5,0.4,0.3,0.2,0.1\n",  # repeated key
    ):
        (out / "generator.txt").write_text(text)
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and "generator.txt" in err
        assert not (out / "records.jsonl").exists()
    (out / "generator.txt").write_bytes(valid.encode().replace(b"0.1", b"\xff"))
    assert main(["run", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "generator.txt" in err
    (out / "generator.txt").write_text(valid)
    assert main(["run", "--config", cfg_path]) == 0


def test_run_with_generator_for_another_grid_is_exit_2(tmp_path, capsys):
    out = tmp_path / "results"
    cfg_path = tiny_config(tmp_path)  # n_grid = 4
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["run", "--config", tiny_config(tmp_path, n_grid=8)]) == 2
    err = capsys.readouterr().err
    assert "generator.txt has n_xi = 2" in err and "n_grid = 8" in err
    assert not (out / "records.jsonl").exists()


def test_run_with_test_set_for_another_n_test_is_exit_2(tmp_path, capsys):
    out = tmp_path / "results"
    cfg_path = tiny_config(tmp_path)  # n_test = 5
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert main(["run", "--config", tiny_config(tmp_path, n_test=6)]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "test_scenarios.csv has 5 rows" in err
    assert "[uncertainty] n_test is 6" in err
    assert not (out / "records.jsonl").exists()


def test_run_without_finite_objective_is_exit_1(tmp_path, capsys,
                                                monkeypatch):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    monkeypatch.setattr(qaoa, "_estimate", lambda *args: float("nan"))
    assert main(["run", "--config", cfg_path]) == 1
    assert "invariant violation" in capsys.readouterr().err


def test_out_of_memory_is_exit_1(tmp_path, capsys, monkeypatch):
    # what numpy raises when [uncertainty] n_data = 100000000000 is sampled
    def unable(*args):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setattr("qtwostage.scenarios.sample_pv", unable)
    assert main(["gen-data", "--config", tiny_config(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("out of memory: Unable to allocate 745. GiB for an array "
                   "with shape (100000000000,) and data type float64\n")


def test_run_respects_lambda_and_seed_flags(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["train-qgan", "--config", cfg_path]) == 0
    assert main(["run", "--config", cfg_path, "--lambdas", "30,90",
                 "--seeds", "2"]) == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "results" / "records.jsonl")
        .read_text().splitlines()
    ]
    assert [(r["lam"], r["seed"]) for r in records] == [
        (30.0, 0), (30.0, 1), (90.0, 0), (90.0, 1)
    ]


# ---------------------------------------------------------------------------
# baselines, resources, report
# ---------------------------------------------------------------------------

def test_baselines_csv(tmp_path):
    cfg_path = tiny_config(tmp_path, lambdas="30, 200")
    assert main(["gen-data", "--config", cfg_path]) == 0
    assert main(["baselines", "--config", cfg_path]) == 0
    lines = (tmp_path / "results" / "baselines.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["lam", "rp", "eev", "rp_x", "ev_x"]
    assert len(header) == 5 + 8
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) <= float(cells[2]) + 1e-9  # RP <= EEV
        assert set(cells[3]) <= {"0", "1"}


def test_run_records_agree_with_baselines_csv_bitwise(tmp_path):
    cfg_path = tiny_config(tmp_path, lambdas="30, 150", n_seeds=2)
    out = tmp_path / "results"
    for stage in ("gen-data", "train-qgan", "run", "baselines"):
        assert main([stage, "--config", cfg_path]) == 0, stage
    records = [json.loads(line)
               for line in (out / "records.jsonl").read_text().splitlines()]
    rows = {row["lam"]: row for row in csv.DictReader(
        io.StringIO((out / "baselines.csv").read_text()))}
    assert sorted(rows) == ["150.0", "30.0"] and len(records) == 4
    for record in records:
        row = rows[repr(record["lam"])]
        assert repr(record["rp"]) == row["rp"]
        assert repr(record["eev"]) == row["eev"]
        assert repr(record["cost_map"]) == row[f"cost_{record['map']}"]


def test_baselines_malformed_scenarios_is_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    (tmp_path / "results").mkdir()
    scenarios = tmp_path / "results" / "test_scenarios.csv"
    rows = "test_scenarios.csv has {} rows, but [uncertainty] n_test is 5"
    for body, named in (("xi_tilde\nnan\n100.0\n", "test_scenarios.csv line 2"),
                        ("xi_tilde\ninf\n", "test_scenarios.csv line 2"),
                        ("xi_tilde\n", rows.format(0)),
                        ("xi\n100.0\n", "lacks a 'xi_tilde' column"),
                        ("xi_tilde\n100.0\n200.0\n300.0\n400.0\n",
                         rows.format(4))):
        scenarios.write_text(body)
        assert main(["baselines", "--config", cfg_path]) == 2
        assert named in capsys.readouterr().err
    scenarios.write_bytes(b"xi_tilde\n\xff\n")  # not UTF-8
    assert main(["baselines", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "test_scenarios.csv" in err


def test_resources_csv(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["resources", "--config", cfg_path]) == 0
    lines = (tmp_path / "results" / "resources.csv").read_text().splitlines()
    assert lines[0] == "N,M,p1,p2,include_qgan,rz,sx,x,cx,total,depth"
    rows = [line.split(",") for line in lines[1:]]
    # tiny config: N in {4,8}, M in {3}, p1=p2=1
    assert len(rows) == 2 + 2 + 2 + 2
    assert {row[0] for row in rows} == {"4", "8"}
    for row in rows:
        assert int(row[9]) == sum(int(v) for v in row[5:9])


def test_report_missing_records_is_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    assert main(["report", "--config", cfg_path]) == 2
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "records.jsonl").write_text("")
    assert main(["report", "--config", cfg_path]) == 2
    (tmp_path / "results" / "records.jsonl").write_text('{"lam": 30.0, "se')
    assert main(["report", "--config", cfg_path]) == 2
    assert "i/o error" in capsys.readouterr().err
    # valid JSON without the finite numeric fields the table needs
    for line in ('{"seed": 0}', '[30.0]', '{"lam": "30", "cost_map": 1, '
                 '"rp": 1, "eev": 1}',
                 '{"lam": NaN, "cost_map": 1, "rp": 1, "eev": 1}',
                 '{"lam": true, "cost_map": 1, "rp": 1, "eev": 1}',
                 '{"lam": 30, "cost_map": Infinity, "rp": 1, "eev": 1}',
                 '{"lam": 30, "cost_map": 1, "rp": 1' + "0" * 400
                 + ', "eev": 1}'):
        (tmp_path / "results" / "records.jsonl").write_text(line + "\n")
        assert main(["report", "--config", cfg_path]) == 2
        assert "records.jsonl line 1" in capsys.readouterr().err
    (tmp_path / "results" / "records.jsonl").write_bytes(b'{"lam": \xff}\n')
    assert main(["report", "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "i/o error" in err and "records.jsonl" in err


def write_records(path, costs_by_lam: dict) -> None:
    """A records file holding one record per cost, as ``run`` writes them."""
    path.write_text("".join(
        json.dumps({"lam": lam, "seed": s, "map": "110", "cost_map": cost,
                    "rp": 31250.0, "eev": 40250.0, "best_objective": 0.0,
                    "evals": 4, "trace_first": 1.0, "trace_best": 0.5}) + "\n"
        for lam, costs in costs_by_lam.items()
        for s, cost in enumerate(costs)))


def src_env() -> dict:
    """The environment of a child interpreter that imports this ``src``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return env


_NO_SCIPY_OR_MA_STAGES = """
import json, sys
import qtwostage.cli as cli
config = sys.argv[1]
for stage in ("gen-data", "train-qgan", "run", "baselines", "resources",
              "report"):
    assert cli.main([stage, "--config", config]) == 0, stage
print(json.dumps(sorted(m for m in sys.modules
                        for root in ("scipy", "numpy.ma")
                        if m == root or m.startswith(root + "."))))
"""


def test_no_stage_imports_scipy_or_numpy_ma(tmp_path):
    # the package's runtime needs numpy alone; scipy is a test-only oracle,
    # and numpy.ma, which np.quantile imports, would set gen-data's peak RSS
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_OR_MA_STAGES, tiny_config(tmp_path)],
        env=src_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


_NO_NUMPY_STEPS = """
import contextlib, io, json, sys
config, records, unknown = sys.argv[1:]
steps = []

def after(step):
    steps.append([step, [m for m in ("numpy", "hashlib") if m in sys.modules]])

import qtwostage.cli as cli
after("import qtwostage.cli")
cli.load_config(config)
after("load_config")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["report", records]) == 0
after("report")
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(["run", "--config", unknown]) == 2
after("config error")
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
after("--help")
print(json.dumps(steps))
"""


def test_settings_and_report_import_no_numpy(tmp_path):
    # start-up cost: only the stages that compute load the numeric modules,
    # and only the stages that derive seeds load hashlib
    records = tmp_path / "r.jsonl"
    write_records(records, {30.0: [31250.0, 31260.0]})
    config = tiny_config(tmp_path)
    (tmp_path / "bad").mkdir()
    unknown = write_config(tmp_path / "bad", "[uncertainty]\nn_gridd = 8\n")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_STEPS, config, str(records), unknown],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert [(step, loaded) for step, loaded in steps if loaded] == []
    assert len(steps) == 5


# whether numpy.random and hashlib are loaded, and whether _hashlib is blocked
_HASHLIB_STATE = """
print(json.dumps([m in sys.modules for m in ("numpy.random", "hashlib")]
                 + [sys.modules.get("_hashlib", "absent") is None]))
"""

_STAGES_THROUGH_ENTRY = """
import json, runpy, sys
config = sys.argv[1]
for stage in ("gen-data", "train-qgan", "run"):
    sys.argv = ["qtwostage", stage, "--config", config]
    try:
        runpy.run_module("qtwostage.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, (stage, exc.code)
""" + _HASHLIB_STATE

_STAGES_THROUGH_MAIN = """
import json, sys
import qtwostage.cli as cli
for stage in ("gen-data", "train-qgan", "run"):
    assert cli.main([stage, "--config", sys.argv[1]]) == 0, stage
""" + _HASHLIB_STATE


def test_entry_never_loads_openssl_and_main_changes_nothing(tmp_path):
    # the process entry blocks _hashlib, so the stages that draw random
    # numbers hash with the interpreter's own SHA-2 and never map libcrypto;
    # main, which tests and the traced benchmark call in-process, leaves the
    # interpreter's modules alone
    config = tiny_config(tmp_path)
    outputs = []
    for code in (_STAGES_THROUGH_ENTRY, _STAGES_THROUGH_MAIN):
        proc = subprocess.run(
            [sys.executable, "-c", code, config],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert outputs == [[True, True, True], [True, True, False]]


# derive_seed's values from OpenSSL's SHA-256
PINNED_SEEDS = {
    (0, "data", 0): 14406483460395927058,
    (3, "qgan", 0): 261452667282290448,
    (7, "test-data", 0): 17272187900178576623,
    (2**64 - 1, "qaoa:30", 9): 8622199358862685749,
}

_SEEDS_WITHOUT_HASHLIB = """
import json, sys
sys.modules["_hashlib"] = None
from qtwostage.cli import derive_seed
triples = json.loads(sys.argv[1])
print(json.dumps([derive_seed(*t) for t in triples]))
"""


def test_seeds_are_the_same_from_either_sha256():
    assert {t: derive_seed(*t) for t in PINNED_SEEDS} == PINNED_SEEDS
    proc = subprocess.run(
        [sys.executable, "-c", _SEEDS_WITHOUT_HASHLIB,
         json.dumps(list(PINNED_SEEDS))],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seeds = json.loads(proc.stdout.splitlines()[-1])
    assert seeds == list(PINNED_SEEDS.values())


_GEN_DATA_WITHOUT_BUILTIN_SHA2 = """
import json, runpy, sys
for name in ("_sha2", "_sha256", "_sha512"):
    sys.modules[name] = None
sys.argv = ["qtwostage", "gen-data", "--config", sys.argv[1]]
try:
    runpy.run_module("qtwostage.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sys.modules.get("_hashlib") is not None]))
"""


def test_entry_keeps_openssl_without_builtin_sha2(tmp_path):
    # an interpreter built without its own SHA-2 must keep _hashlib, since
    # random and derive_seed would find no SHA-2 otherwise
    (tmp_path / "entry").mkdir()
    (tmp_path / "main").mkdir()
    config = tiny_config(tmp_path / "entry")
    proc = subprocess.run(
        [sys.executable, "-c", _GEN_DATA_WITHOUT_BUILTIN_SHA2, config],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, True]
    assert main(["gen-data", "--config", tiny_config(tmp_path / "main")]) == 0
    entry_out = tmp_path / "entry" / "results"
    main_out = tmp_path / "main" / "results"
    names = sorted(p.name for p in main_out.iterdir())
    assert sorted(p.name for p in entry_out.iterdir()) == names
    assert "test_scenarios.csv" in names
    for name in names:
        assert (entry_out / name).read_bytes() == (main_out / name).read_bytes()


def test_report_accepts_explicit_path(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    # at 8 or more values numpy sums pairwise, in eight running sums
    costs = {30.0: [31250.0, 31251.0, 31252.0],
             90.0: list(31250.0 + np.random.default_rng(4).uniform(0, 1e5, 13))}
    write_records(records, costs)
    assert main(["report", str(records)]) == 0
    out = capsys.readouterr().out
    assert "31251.0" in out  # mean of 31250, 31251, 31252
    assert "40250.0" in out
    table = [
        f"{lam:>8g} {len(c):>5d} {31250.0:>12.1f} {40250.0:>12.1f} "
        f"{np.mean(c):>12.1f} {np.min(c):>12.1f} {np.max(c):>12.1f}"
        for lam, c in costs.items()
    ]
    assert out.splitlines()[1:] == table
