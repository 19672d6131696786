"""The benchmark's workloads: the default config plus per-workload overrides.

The rationale for each workload is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

# The package defaults that the output checks and derived metrics depend on.
DEFAULTS = {
    "n_units": 3,
    "n_grid": 8,
    "epochs": 400,
    "p1": 4,
    "p2": 4,
    "maxiter": 400,
    "n_seeds": 5,
    "lambdas": (30, 90, 150, 200),
    "n_values": (4, 8, 16, 32, 64),
    "m_values": (3, 4, 5, 6),
}

# (INI section, key) of each overridable value.
SECTIONS = {
    "n_grid": "uncertainty", "n_test": "uncertainty", "epochs": "qgan",
    "eval_mode": "qaoa", "shots": "qaoa", "n_seeds": "qaoa",
    "lambdas": "sweep", "n_values": "sweep", "m_values": "sweep",
}

OVERRIDES = {
    # The documented default run.
    "desk": {},
    # The --paper evaluation mode on a 12-qubit register.
    "wide-shots": {
        "n_grid": 64, "eval_mode": "shots", "shots": 50000, "n_seeds": 4,
        "lambdas": (30, 150), "epochs": 40,
    },
    # The paper's 18-point lambda grid and a large classical workload.
    "paper-grid": {
        "lambdas": tuple(range(30, 201, 10)), "n_test": 2000, "n_seeds": 1,
        "epochs": 50, "n_values": tuple(2 ** k for k in range(2, 11)),
        "m_values": tuple(range(3, 11)),
    },
}

STAGES = ("gen-data", "train-qgan", "run", "baselines", "resources", "report")


def spec(name: str) -> dict:
    return {**DEFAULTS, **OVERRIDES[name]}


def config_text(name: str, out_dir: str) -> str:
    """INI file holding the workload's overrides and its output directory."""
    sections: dict = {"output": [f"dir = {out_dir}"]}
    for key, value in OVERRIDES[name].items():
        if isinstance(value, tuple):
            value = ", ".join(str(v) for v in value)
        sections.setdefault(SECTIONS[key], []).append(f"{key} = {value}")
    return "".join(
        f"[{section}]\n" + "".join(line + "\n" for line in lines)
        for section, lines in sections.items()
    )
