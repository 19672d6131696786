"""Output checks for one pipeline directory, independent of the package.

Each check reads the files a pipeline wrote and returns a list of problems;
an empty list means the check passed.  They use only the standard library,
so a defect in the package cannot hide itself by also breaking its checker.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path

N_DIST_FILES = 15  # ten training plus five scoring distributions
RESULT_FILES = (
    [f"samples_{i:02d}.csv" for i in range(N_DIST_FILES)]
    + [f"dist_{i:02d}.csv" for i in range(N_DIST_FILES)]
    + ["test_scenarios.csv", "generator.txt", "records.jsonl",
       "baselines.csv", "resources.csv", "report.txt"]
)
REL_TOL = 1e-9


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_records(out: Path, spec: dict) -> list:
    """Row count, cost_map >= rp, rp <= eev, and agreement with baselines.csv."""
    problems = []
    with open(out / "records.jsonl") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    want = len(spec["lambdas"]) * spec["n_seeds"]
    if len(records) != want:
        problems.append(f"records.jsonl has {len(records)} rows, want {want}")
    baselines = {float(row["lam"]): row for row in _rows(out / "baselines.csv")}
    for r in records:
        where = f"lam={r['lam']} seed={r['seed']}"
        if r["cost_map"] < r["rp"] - REL_TOL * abs(r["rp"]):
            problems.append(f"{where}: cost_map {r['cost_map']} < rp {r['rp']}")
        if r["rp"] > r["eev"]:
            problems.append(f"{where}: rp {r['rp']} > eev {r['eev']}")
        row = baselines.get(float(r["lam"]))
        if row is None:
            problems.append(f"{where}: no baselines.csv row")
            continue
        per_x = [float(v) for k, v in row.items() if k.startswith("cost_")]
        column = row.get(f"cost_{r['map']}")
        if column is None or not _close(r["cost_map"], float(column), r["rp"]):
            problems.append(f"{where}: cost_map {r['cost_map']} != "
                            f"baselines cost_{r['map']} {column}")
        if not _close(r["rp"], min(per_x), r["rp"]):
            problems.append(f"{where}: rp {r['rp']} != min per-x {min(per_x)}")
    return problems


def check_baselines(out: Path, spec: dict) -> list:
    problems = []
    rows = _rows(out / "baselines.csv")
    if len(rows) != len(spec["lambdas"]):
        problems.append(f"baselines.csv has {len(rows)} rows, "
                        f"want {len(spec['lambdas'])}")
    for row in rows:
        per_x = [float(v) for k, v in row.items() if k.startswith("cost_")]
        rp = float(row["rp"])
        if len(per_x) != 2 ** spec["n_units"] or not _close(rp, min(per_x), rp):
            problems.append(f"lam={row['lam']}: rp is not the minimum per-x cost")
        if float(row["rp"]) > float(row["eev"]):
            problems.append(f"lam={row['lam']}: rp > eev")
    return problems


def check_resources(out: Path, spec: dict) -> list:
    """Row count of sweep_scaling's four families; total and depth identities."""
    problems = []
    n, m = len(spec["n_values"]), len(spec["m_values"])
    want = n * (1 + spec["p1"] + spec["p2"]) + m * n
    try:
        rows = _rows(out / "resources.csv")
        counts = [{k: int(row[k]) for k in ("rz", "sx", "x", "cx", "total",
                                            "depth")} for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"resources.csv is malformed: {exc!r}"]
    if len(rows) != want:
        problems.append(f"resources.csv has {len(rows)} rows, want {want}")
    for i, c in enumerate(counts):
        if c["total"] != c["rz"] + c["sx"] + c["x"] + c["cx"]:
            problems.append(f"resources row {i}: total != rz+sx+x+cx")
        if c["depth"] > c["total"]:
            problems.append(f"resources row {i}: depth > total")
    return problems


def check_distributions(out: Path, spec: dict) -> list:
    problems = []
    for i in range(N_DIST_FILES):
        probs = [float(row["prob"]) for row in _rows(out / f"dist_{i:02d}.csv")]
        if len(probs) != spec["n_grid"] or abs(sum(probs) - 1.0) > REL_TOL:
            problems.append(f"dist_{i:02d}.csv: {len(probs)} bins summing "
                            f"to {sum(probs)!r}")
    return problems


def check_generator(out: Path, spec: dict) -> list:
    score = generator_score(out)
    return [] if 0.0 < score <= 1.0 else [f"test_score {score} not in (0, 1]"]


CHECKS = {
    "records": check_records,
    "baselines": check_baselines,
    "resources": check_resources,
    "distributions": check_distributions,
    "generator": check_generator,
}


def run_checks(out: Path, spec: dict) -> dict:
    """Problems per check; a check that cannot read its files fails too."""
    results = {}
    for name, check in CHECKS.items():
        try:
            results[name] = check(out, spec)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            results[name] = [f"{name}: {exc!r}"]
    return results


def generator_score(out: Path) -> float:
    for line in (out / "generator.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "test_score":
            return float(value)
    raise ValueError("generator.txt has no test_score")


def results_digest(out: Path) -> str:
    """SHA-256 over every result file, in a fixed order, names included."""
    h = hashlib.sha256()
    for name in RESULT_FILES:
        path = out / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.exists() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def self_test(out: Path, spec: dict, scratch: Path) -> list:
    """Corrupt copies of a passing pipeline's outputs; each must fail.

    Returns the corruptions the checker failed to flag.
    """
    missed = []
    bad = scratch / "selftest"
    shutil.copytree(out, bad)

    lines = (bad / "records.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    record["cost_map"] = record["rp"] - 1e-6 * max(1.0, abs(record["rp"]))
    lines[0] = json.dumps(record, sort_keys=True)
    (bad / "records.jsonl").write_text("\n".join(lines) + "\n")
    if not run_checks(bad, spec)["records"]:
        missed.append("records.jsonl with cost_map below rp")

    text = (bad / "resources.csv").read_text()
    (bad / "resources.csv").write_text(text[: len(text) * 2 // 3])
    if not run_checks(bad, spec)["resources"]:
        missed.append("truncated resources.csv")

    shutil.rmtree(bad)
    return missed
