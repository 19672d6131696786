import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtwostage import qaoa
from qtwostage.cli import (
    ExperimentConfig,
    apply_flags,
    build_parser,
    derive_seed,
    load_config,
    main,
)
from qtwostage.errors import StructureError


def write_config(tmp_path, body: str) -> str:
    path = tmp_path / "config.ini"
    path.write_text(body)
    return str(path)


def tiny_config(tmp_path, **overrides) -> str:
    out = tmp_path / "results"
    body = f"""
[uncertainty]
n_grid = {overrides.get("n_grid", 4)}
n_data = {overrides.get("n_data", 40)}
n_test = {overrides.get("n_test", 5)}

[qgan]
epochs = {overrides.get("epochs", 3)}

[qaoa]
p1 = 1
p2 = 1
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
    assert cfg.problem.lam == 30.0
    assert cfg.qgan.epochs == 400
    assert cfg.n_seeds == 5
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
    assert cfg.problem.lam == 30.0


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
    args = build_parser().parse_args(["run", "--paper"])
    cfg = apply_flags(load_config(None), args)
    assert len(cfg.lambdas) == 18
    assert cfg.lambdas[0] == 30.0 and cfg.lambdas[-1] == 200.0
    assert cfg.n_seeds == 40
    assert cfg.qaoa.shots == 50_000


def test_explicit_flags_beat_paper():
    args = build_parser().parse_args(
        ["run", "--paper", "--exact", "--lambdas", "30,90", "--seeds", "2",
         "--seed", "123"])
    cfg = apply_flags(load_config(None), args)
    assert cfg.qaoa.shots is None
    assert cfg.lambdas == (30.0, 90.0)
    assert cfg.n_seeds == 2
    assert cfg.master_seed == 123


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["gen-data", "--config", "/nonexistent/c.ini"]) == 2
    assert "config error" in capsys.readouterr().err
    path = write_config(tmp_path, "[problem]\ndemand = nan\n")
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, body, flags", [
    ("run", "[qaoa]\np1 = 0\n", []),
    ("run", "[qaoa]\nmaxiter = 0\n", []),
    ("run", "", ["--shots", "0"]),
    ("run", "[qaoa]\neval_mode = shots\nshots = -3\n", []),
    ("gen-data", "[uncertainty]\nn_test = 0\n", []),
    ("gen-data", "[uncertainty]\nn_data = 10\nn_test = 11\n", []),
    ("gen-data", "[uncertainty]\nalpha = 0\n", []),
    ("gen-data", "[uncertainty]\nbeta = nan\n", []),
    ("gen-data", "[uncertainty]\nxi_max = -2500\n", []),
    ("train-qgan", "[qgan]\nepochs = -5\n", []),
    ("train-qgan", "[qgan]\nshots = 0\n", []),
    ("train-qgan", "[qgan]\nlr_g = 0\n", []),
    ("train-qgan", "[qgan]\nlr_d = -0.1\n", []),
    ("train-qgan", "[qgan]\ninit_scale = -1\n", []),
    ("baselines", "[sweep]\nlambdas = 30, -5\n", []),
    ("run", "", ["--lambdas", "30,inf"]),
    ("resources", "[sweep]\nn_values = 4, 3\n", []),
    ("resources", "[sweep]\nm_values = 0\n", []),
    ("resources", "[sweep]\nm_values = 31\n", []),
    ("resources", "[sweep]\nn_values = 4611686018427387904\nm_values = 1\n",
     []),
    ("run", "[uncertainty]\nn_grid = 8388608\n", []),
    ("run", "[qaoa]\nshots = many\n", []),
    ("run", "[qaoa]\nshots = -3\n", []),
    ("run", "[qaoa]\nshots = 0\n", []),
    ("gen-data", "[uncertainty]\nalpha = inf\n", []),
    ("gen-data", "[uncertainty]\nbeta = inf\n", []),
    ("gen-data", "[uncertainty]\nxi_max = inf\n", []),
    ("train-qgan", "[qgan]\nlr_g = inf\n", []),
    ("train-qgan", "[qgan]\nlr_d = inf\n", []),
    ("train-qgan", "[qgan]\ninit_scale = inf\n", []),
    ("train-qgan", "[qgan]\ninit_scale = 1e308\n", []),
    ("train-qgan", "[qgan]\nuse_shots = true\nshots = 9223372036854775808\n",
     []),
    ("run", "[qaoa]\neval_mode = shots\nshots = 100000000000000000000\n",
     []),
    ("run", "", ["--shots", "9223372036854775808"]),
], ids=["p1", "maxiter", "shots-flag", "eval-shots", "n_test-zero",
        "n_test-above-n_data", "alpha", "beta-nan", "xi_max", "epochs", "qgan-shots",
        "lr_g", "lr_d", "init_scale", "later-lambda", "lambda-flag",
        "n_values", "m_values", "m_values-above-z-limit",
        "n_values-above-z-limit", "above-max-qubits", "unparsed-shots",
        "exact-negative-shots", "exact-zero-shots", "alpha-inf", "beta-inf",
        "xi_max-inf", "lr_g-inf", "lr_d-inf", "init_scale-inf",
        "init_scale-overflow", "qgan-shots-above-c-long",
        "eval-shots-above-c-long", "shots-flag-above-c-long"])
def test_bad_configuration_is_exit_2(tmp_path, capsys, command, body, flags):
    path = write_config(tmp_path, body + f"[output]\ndir = {tmp_path / 'out'}\n")
    assert main([command, "--config", path, *flags]) == 2
    assert "config error" in capsys.readouterr().err
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


def test_gen_data_rerun_byte_identical(tmp_path):
    cfg_path = tiny_config(tmp_path)
    assert main(["gen-data", "--config", cfg_path]) == 0
    out = tmp_path / "results"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["gen-data", "--config", cfg_path]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


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
    for body in (f"{header}\n{x0},nan\n", f"{header}\n", f"xi,p\n{x0},1\n"):
        dist.write_text(body)
        assert main(["train-qgan", "--config", cfg_path]) == 2
        assert "dist_03.csv" in capsys.readouterr().err

    # files sized for another n_grid, a short file, non-distributions
    assert main(["gen-data", "--config", tiny_config(tmp_path, n_grid=8)]) == 0
    assert main(["train-qgan", "--config", tiny_config(tmp_path)]) == 2
    assert "dist_00.csv has 8 rows" in capsys.readouterr().err
    cfg_path = tiny_config(tmp_path, n_grid=8)
    header, first, *rest = dist.read_text().splitlines()
    x0 = first.split(",")[0]
    for lines in ([header, first, *rest[:3]],
                  [header, f"{x0},0.9", *rest],
                  [header, f"{x0},-0.5", *rest]):
        dist.write_text("\n".join(lines) + "\n")
        assert main(["train-qgan", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and "dist_03.csv" in err
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
    ):
        (out / "generator.txt").write_text(text)
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert "i/o error" in err and "generator.txt" in err
        assert not (out / "records.jsonl").exists()
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

    monkeypatch.setattr("qtwostage.cli.sample_pv", unable)
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


def test_baselines_malformed_scenarios_is_exit_2(tmp_path, capsys):
    cfg_path = tiny_config(tmp_path)
    (tmp_path / "results").mkdir()
    scenarios = tmp_path / "results" / "test_scenarios.csv"
    for body in ("xi_tilde\nnan\n100.0\n", "xi_tilde\ninf\n",
                 "xi_tilde\n", "xi\n100.0\n"):
        scenarios.write_text(body)
        assert main(["baselines", "--config", cfg_path]) == 2
        assert "test_scenarios.csv" in capsys.readouterr().err


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
    # valid JSON without the numeric fields the table needs
    for line in ('{"seed": 0}', '[30.0]', '{"lam": "30", "cost_map": 1, '
                 '"rp": 1, "eev": 1}'):
        (tmp_path / "results" / "records.jsonl").write_text(line + "\n")
        assert main(["report", "--config", cfg_path]) == 2
        assert "records.jsonl line 1" in capsys.readouterr().err


_NO_SCIPY_STAGES = """
import json, sys
import qtwostage.cli as cli
config = sys.argv[1]
for stage in ("gen-data", "train-qgan", "run", "baselines", "resources",
              "report"):
    assert cli.main([stage, "--config", config]) == 0, stage
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def test_no_stage_imports_scipy(tmp_path):
    # the package's runtime needs numpy alone; scipy is a test-only oracle
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_STAGES, tiny_config(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_report_accepts_explicit_path(tmp_path, capsys):
    records = tmp_path / "r.jsonl"
    rows = [
        {"lam": 30.0, "seed": s, "map": "110", "cost_map": 31250.0 + s,
         "rp": 31250.0, "eev": 40250.0, "best_objective": 0.0,
         "evals": 4, "trace_first": 1.0, "trace_best": 0.5}
        for s in range(3)
    ]
    records.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["report", str(records)]) == 0
    out = capsys.readouterr().out
    assert "31251.0" in out  # mean of 31250, 31251, 31252
    assert "40250.0" in out
