"""``tools/pairs.py`` on two stub checkouts whose benchmark prints set values.

Each stub's ``perfbench/run.py`` logs its checkout's name and ``--seconds``
to a file beside the checkouts, then prints the next value of its own list
as the last-line JSON record the real benchmark prints.  Above the record,
as the real benchmark does, it prints ``name value unit`` lines: a wall
time ``run_s`` of twice that value, the gated value itself, and a
non-time line the tool ignores.
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

STUB = """\
import json, sys
from pathlib import Path
name = Path.cwd().name
log = Path.cwd().parent / "log.txt"
with log.open("a") as f:
    f.write(f"{name} {sys.argv[sys.argv.index('--seconds') + 1]}\\n")
n = sum(line.split()[0] == name for line in log.read_text().splitlines())
print(f"run_s {2 * peaks[name][n - 1]:>14.6g} s")
print(f"peak_rss_mb {peaks[name][n - 1]:>14.6g} MB")
print("arena_kb 5 kB")
print("info {}")
print(json.dumps({"correct": correct, "attempted": 1, "failed": 0,
                  "metrics": {"peak_rss_mb": {"value": peaks[name][n - 1],
                                              "unit": "MB"},
                              "run_evals": {"value": 10, "unit": "count"}}}))
"""


def checkouts(tmp_path, peaks, correct=True):
    listed = {
        "command": [sys.executable, "perfbench/run.py"],
        "run_seconds": 7,
        "end_to_end": [
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
            {"name": "run_evals", "unit": "count", "better": "higher"},
        ],
    }
    for name in ("parent", "change"):
        root = tmp_path / name
        (root / "perfbench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps(listed))
        (root / "perfbench" / "run.py").write_text(
            f"peaks = {peaks!r}\ncorrect = {correct!r}\n" + STUB)
    return tmp_path / "parent", tmp_path / "change"


def pairs(parent, change, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), str(parent), str(change),
         "--workload", "desk", "--seed", "1", *extra],
        capture_output=True, text=True)


def test_pairs_alternate_and_summarize(tmp_path):
    parent, change = checkouts(
        tmp_path, {"parent": [10.0, 12.0, 11.0], "change": [9.0, 12.0, 13.0]})
    proc = pairs(parent, change, "--pairs", "3")
    assert proc.returncode == 0, proc.stderr
    # the parent runs first in odd pairs; --seconds defaults to run_seconds
    assert (tmp_path / "log.txt").read_text().split("\n") == [
        "parent 7", "change 7", "change 7", "parent 7", "parent 7",
        "change 7", ""]
    lines = proc.stdout.splitlines()
    assert lines[-3:] == [
        # one win, one tie, one loss; ratios 0.9, 1, 13/11, whose
        # quartiles are 0.95 and 12/11
        "peak_rss_mb MB: parent 11 [10.5, 11.5], change 12 [10.5, 12.5], "
        "ratio 1.0000 [0.9500, 1.0909], change wins 1/3 (lower is better)",
        "run_evals count: parent 10 [10, 10], change 10 [10, 10], "
        "ratio 1.0000 [1.0000, 1.0000], change wins 0/3 (higher is better)",
        # the gated peak_rss_mb line and the kB line give no ungated line
        "ungated run_s s: parent 22 [21, 23], change 24 [21, 25], "
        "ratio 1.0000 [0.9500, 1.0909], change wins 1/3 (lower is better)",
    ]
    assert lines[0] == "pair 1 parent: peak_rss_mb=10 run_evals=10 run_s=20"


def test_one_pair_and_explicit_seconds(tmp_path):
    parent, change = checkouts(
        tmp_path, {"parent": [10.0], "change": [11.0]})
    proc = pairs(parent, change, "--pairs", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "log.txt").read_text() == "parent 1\nchange 1\n"
    assert proc.stdout.splitlines()[-3:] == [
        "peak_rss_mb MB: parent 10 [10, 10], change 11 [11, 11], "
        "ratio 1.1000 [1.1000, 1.1000], change wins 0/1 (lower is better)",
        "run_evals count: parent 10 [10, 10], change 10 [10, 10], "
        "ratio 1.0000 [1.0000, 1.0000], change wins 0/1 (higher is better)",
        "ungated run_s s: parent 20 [20, 20], change 22 [22, 22], "
        "ratio 1.1000 [1.1000, 1.1000], change wins 0/1 (lower is better)",
    ]


def test_a_failed_run_stops_with_exit_1(tmp_path):
    parent, change = checkouts(
        tmp_path, {"parent": [10.0], "change": [11.0]}, correct=False)
    proc = pairs(parent, change, "--pairs", "2")
    assert proc.returncode == 1
    assert "a run in" in proc.stderr and "failed" in proc.stderr
    assert (tmp_path / "log.txt").read_text() == "parent 7\n"
