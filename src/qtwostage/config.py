"""Every setting of an experiment, read and checked with the standard library.

The problem data, QGAN training, QAOA and experiment settings, the INI
grammar, which reads each command-line flag as the key it sets, the register
caps, and `read_text`, the reader of every data file.  No numpy: loading
settings, a config error and `report` start without it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import StructureError

MAX_QUBITS = 28  # the statevector simulator's register cap
MAX_Z_QUBITS = 63  # a Z-polynomial's support mask is a signed 64-bit integer

# Default shots of a section set to `eval_mode = shots`: QGAN training's,
# and the QAOA objective's, which --paper also sets.
QGAN_SHOTS = 10_000
PAPER_SHOTS = 50_000
# The paper's 18 penalty weights, 30, 40, ..., 200.
PAPER_LAMBDAS = tuple(30.0 + 10.0 * k for k in range(18))
_LAMBDAS = (30.0, 90.0, 150.0, 200.0)


def lambda_key(lam: float) -> str:
    """The text that names a lambda in restart seeds and printed rows: 6
    significant digits, so no two lambdas of one sweep may share it."""
    return f"{lam:g}"


def read_text(path) -> str:
    """A whole UTF-8 text file, every line ending read as "\\n"; a file that
    does not decode is an OSError naming it, like any malformed data file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path} is not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UcpParams:
    """Generator fleet and cost data. Units: kWh for energy, JPY for cost."""

    n_units: int
    demand: float
    p_min: tuple
    p_max: tuple
    startup_cost: tuple
    unit_cost: tuple

    def __post_init__(self):
        if self.n_units < 1:
            raise StructureError("n_units must be >= 1")
        if not math.isfinite(self.demand):
            raise StructureError("demand must be finite")
        for key in ("p_min", "p_max", "startup_cost", "unit_cost"):
            values = getattr(self, key)
            if len(values) != self.n_units:
                raise StructureError(f"{key} needs n_units = {self.n_units} "
                                     f"values, got {len(values)}")
            if not all(map(math.isfinite, values)):
                raise StructureError(f"{key} must be finite")
            if key in ("startup_cost", "unit_cost") and min(values) < 0:
                raise StructureError(f"{key} must be >= 0")
        for i in range(self.n_units):
            if not self.p_min[i] < self.p_max[i]:
                raise StructureError(f"p_min must be < p_max, unit {i}")


def default_params(n_units: int = 3) -> UcpParams:
    """The bundled three-unit fleet, its units cycled to ``n_units``."""

    def pick(values):
        return tuple(values[i % 3] for i in range(n_units))

    return UcpParams(
        n_units=n_units,
        demand=2500.0,
        p_min=pick((300.0, 500.0, 100.0)),
        p_max=pick((750.0, 1000.0, 200.0)),
        startup_cost=pick((4000.0, 5000.0, 1000.0)),
        unit_cost=pick((15.0, 20.0, 10.0)),
    )


def _check_shots(shots: int | None) -> None:
    if shots is not None and not 1 <= shots < 2**63:
        # a multinomial draw takes its count as a C long
        raise StructureError("shots must be in [1, 2**63) when given")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    lr_g: float = 0.002
    lr_d: float = 0.002
    shots: int | None = None  # None = exact generator distribution
    init_scale: float = 0.1

    def __post_init__(self):
        if self.epochs < 0:
            raise StructureError("epochs must be >= 0")
        _check_shots(self.shots)
        for key in ("lr_g", "lr_d"):
            if not 0 < getattr(self, key) < math.inf:
                raise StructureError(f"{key} must be finite and > 0")
        # the initial angles are uniform on a range of width 2 * init_scale
        if not 0 <= 2 * self.init_scale < math.inf:
            raise StructureError("init_scale must be >= 0, with "
                                 "2 * init_scale finite")


@dataclass(frozen=True)
class QaoaConfig:
    p1: int = 4
    p2: int = 4
    shots: int | None = None  # None = exact statevector evaluation
    maxiter: int = 400  # objective-evaluation budget
    n_seeds: int = 5  # optimizer restarts per lambda

    def __post_init__(self):
        _check_shots(self.shots)
        for key in ("p1", "p2", "maxiter", "n_seeds"):
            if getattr(self, key) < 1:
                raise StructureError(f"{key} must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; the defaults are the desk-scale run."""

    problem: UcpParams = default_params()
    alpha: float = 3.0
    beta: float = 7.0
    xi_max: float = 2500.0
    n_grid: int = 8
    n_data: int = 2000
    n_test: int = 200
    qgan: TrainConfig = TrainConfig()
    qaoa: QaoaConfig = QaoaConfig()
    lambdas: tuple = _LAMBDAS
    n_values: tuple = (4, 8, 16, 32, 64)
    m_values: tuple = (3, 4, 5, 6)
    out_dir: Path = Path("results")
    master_seed: int = 7

    def __post_init__(self):
        # each message names its keys as the INI file does
        if self.n_grid < 2 or self.n_grid & (self.n_grid - 1):
            raise StructureError("[uncertainty] n_grid must be a power of two >= 2")
        # the register: scenario qubits, then two qubits per unit
        n_qubits = self.n_grid.bit_length() - 1 + 2 * self.problem.n_units
        if n_qubits > MAX_QUBITS:
            raise StructureError(f"[uncertainty] n_grid and [problem] n_units "
                                 f"need {n_qubits} qubits, above the "
                                 f"{MAX_QUBITS}-qubit cap")
        if not 1 <= self.n_test <= self.n_data:
            raise StructureError("[uncertainty] n_test must lie in [1, n_data]")
        for key in ("alpha", "beta", "xi_max"):
            if not 0 < getattr(self, key) < math.inf:
                raise StructureError(f"[uncertainty] {key} must be finite and > 0")
        if not self.lambdas:
            raise StructureError("[sweep] lambdas cannot be empty")
        # lam == 0 is allowed as a diagnostic (drops the imbalance penalty)
        if not all(0 <= lam < math.inf for lam in self.lambdas):
            raise StructureError("[sweep] lambdas must each be finite and >= 0")
        keys = [lambda_key(lam) for lam in self.lambdas]
        if len(set(keys)) < len(keys):
            raise StructureError(f"[sweep] lambdas must differ in 6 "
                                 f"significant digits, got {', '.join(keys)}")
        if any(n < 2 or n & (n - 1) for n in self.n_values):
            raise StructureError("[sweep] n_values must be powers of two >= 2")
        if min(self.m_values) < 1:
            raise StructureError("[sweep] m_values must be >= 1")
        widest = max(self.n_values).bit_length() - 1 + 2 * max(self.m_values)
        if widest > MAX_Z_QUBITS:
            raise StructureError(f"[sweep] n_values and m_values need {widest} "
                                 f"qubits; a Z-polynomial holds {MAX_Z_QUBITS}")
        if not 0 <= self.master_seed < 2**64:
            raise StructureError("[experiment] master_seed must fit in 64 bits")


# ---------------------------------------------------------------------------
# the INI grammar, the flags read as its keys
# ---------------------------------------------------------------------------

def _number_list(text: str, cast) -> tuple:
    items = text.replace(",", " ").split()
    if not items:
        raise StructureError("empty list value")
    return tuple(cast(item) for item in items)


def _floats(text: str) -> tuple:
    return _number_list(text, float)


def _ints(text: str) -> tuple:
    return _number_list(text, int)


def _eval_mode(text: str) -> str:
    if text not in ("exact", "shots"):
        raise StructureError(f"eval_mode must be 'exact' or 'shots', got {text!r}")
    return text


# section -> key -> parser of its text.  A key sets the field of its name on
# its section's object: UcpParams for [problem], TrainConfig for [qgan],
# QaoaConfig for [qaoa] and ExperimentConfig for the rest; except [output]
# dir (out_dir) and eval_mode, which says whether its section's shots is used.
_KEYS = {
    "problem": {"n_units": int, "demand": float, "p_min": _floats,
                "p_max": _floats, "startup_cost": _floats, "unit_cost": _floats},
    "uncertainty": {"alpha": float, "beta": float, "xi_max": float,
                    "n_grid": int, "n_data": int, "n_test": int},
    "qgan": {"epochs": int, "lr_g": float, "lr_d": float,
             "eval_mode": _eval_mode, "shots": int, "init_scale": float},
    "qaoa": {"p1": int, "p2": int, "eval_mode": _eval_mode, "shots": int,
             "maxiter": int, "n_seeds": int},
    "sweep": {"lambdas": _floats, "n_values": _ints, "m_values": _ints},
    "output": {"dir": Path},
    "experiment": {"master_seed": int},
}


def _built(section: str, kind, *args, **keys):
    """``kind(*args, **keys)``, a failed check prefixed by its section."""
    try:
        return kind(*args, **keys)
    except StructureError as exc:
        raise StructureError(f"[{section}] {exc}") from exc


def _sampled(section: str, kind, default_shots: int, keys: dict):
    """A section with an eval_mode as its object: shots None when exact."""
    exact = keys.pop("eval_mode", "exact") == "exact"
    # built before exact mode drops the shots, so a bad value is still an error
    cfg = _built(section, kind, **{"shots": default_shots, **keys})
    return replace(cfg, shots=None) if exact else cfg


# --paper, the paper's protocol, as the INI keys it sets
_PAPER = {"sweep": {"lambdas": " ".join(map(repr, PAPER_LAMBDAS))},
          "qaoa": {"eval_mode": "shots", "shots": PAPER_SHOTS, "n_seeds": 40}}


def load_config(path: str | None, flags=None) -> ExperimentConfig:
    """Defaults overlaid with an optional INI file, then with the keys the
    parsed command-line ``flags`` set: file < --paper < explicit flags.
    Unknown sections and keys are rejected, [DEFAULT] among them: the
    parser's default section is the empty name, which no header can give.
    Values are literal: ``%`` is no template character."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="", interpolation=None)
    if path is not None:
        parser.read_string(read_text(path), source=path)
    if flags is not None:
        if flags.paper:
            parser.read_dict(_PAPER)
        # a flag not given is None; one given is parsed, even when empty
        keys = {"experiment": {"master_seed": flags.seed},
                "sweep": {"lambdas": flags.lambdas},
                "qaoa": {"n_seeds": flags.seeds, "shots": flags.shots,
                         "eval_mode": "exact" if flags.exact else (
                             None if flags.shots is None else "shots")}}
        parser.read_dict({section: {k: v for k, v in keys[section].items()
                                    if v is not None} for section in keys})
    given = {section: {} for section in _KEYS}
    for section in parser.sections():
        if section not in _KEYS:
            raise StructureError(f"unknown config section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise StructureError(f"unknown key {key!r} in [{section}]")
            try:
                given[section][key] = _KEYS[section][key](text)
            except ValueError as exc:
                raise StructureError(f"[{section}] {key}: {exc}") from exc

    fields = {**given["uncertainty"], **given["sweep"], **given["experiment"]}
    if "dir" in given["output"]:
        fields["out_dir"] = given["output"]["dir"]
    return ExperimentConfig(
        problem=_built("problem", replace, default_params(), **given["problem"]),
        qgan=_sampled("qgan", TrainConfig, QGAN_SHOTS, given["qgan"]),
        qaoa=_sampled("qaoa", QaoaConfig, PAPER_SHOTS, given["qaoa"]),
        **fields,
    )
