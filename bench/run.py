"""Run one benchmark workload against dla-lab and print its metrics.

    python3 bench/run.py --workload complete-orbit --seed 1 --seconds 25 --trace 0

Every command of the workload runs as a fresh ``python -m dla_lab.cli``
process with ``src`` on the path, one at a time, and every output is
checked (``workloads.py``).  Whole rounds of the workload's commands repeat
until ``--seconds`` have passed, and at least MIN_ROUNDS times.

With ``--trace 0`` the end-to-end metrics are printed:

* ``wall_s``: wall time of one round of commands, each command taken at
  its median over the rounds;
* ``peak_rss_mb``: the largest peak resident set of any one command
  (each command's median over the rounds), read per child with ``wait4``;
* ``setup_s``: wall time of a fresh process that runs no closure
  (``bounds --graph cycle:3``), the median of SETUP_PER_ROUND samples
  taken before each round.

With ``--trace 1`` the same untraced rounds run, then one more round in
which each command runs under ``tracing.py``; the per-layer metrics come
from that round, and ``trace.overhead_s`` is its wall time minus ``wall_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with every
command's times, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

MIN_ROUNDS = 2
#: set-up samples taken at the start of each round
SETUP_PER_ROUND = 2
SETUP_ARGS = ("bounds", "--graph", "cycle:3")
#: a command running longer than this is killed and counts as incorrect
COMMAND_LIMIT_S = 120.0


@dataclass
class Outcome:
    code: int
    stdout: str
    wall_s: float
    rss_mb: float


class Runner:
    """Runs dla-lab child processes one at a time from the checkout root."""

    def __init__(self, run_dir: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
        self.env = env
        self.stderr_path = run_dir / "stderr.txt"

    def run(self, argv: list) -> Outcome:
        with open(self.stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0)

    def cli(self, args) -> Outcome:
        return self.run([sys.executable, "-m", "dla_lab.cli", *args])

    def traced(self, args, trace_path: Path) -> Outcome:
        return self.run([sys.executable, str(BENCH_DIR / "tracing.py"), str(trace_path), "--", *args])


class Tally:
    """Operations attempted and failed, and problems that make a run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op: workloads.Op, outcome: Outcome, stderr_path: Path) -> None:
        self.attempted += 1
        found = op.check(outcome.code, outcome.stdout)
        if not found:
            return
        self.failed += 1
        if not op.known_fault:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            self.problems += [f"{op.label}: {p}" for p in found + tail]


def measure_setup(runner: Runner, tally: Tally) -> float:
    outcome = runner.cli(SETUP_ARGS)
    # Burnside over the dihedral group of order 6: (64 + 2*4 + 3*16)/6 = 20
    # string classes on 3 qubits, of which one is the identity
    if outcome.code != 0 or '"aut_bound": 19' not in outcome.stdout:
        tally.problems.append(f"setup command exited {outcome.code} or printed a wrong bound")
    return outcome.wall_s


def run_rounds(runner: Runner, ops: list, seconds: float, tally: Tally):
    """Per round, per operation: (wall_s, rss_mb); and the set-up samples."""
    rounds = []
    setup = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        setup += [measure_setup(runner, tally) for _ in range(SETUP_PER_ROUND)]
        row = []
        for op in ops:
            outcome = runner.cli(op.args)
            tally.record(op, outcome, runner.stderr_path)
            row.append((outcome.wall_s, outcome.rss_mb))
        rounds.append(row)
    return rounds, setup


def traced_round(runner: Runner, ops: list, run_dir: Path, tally: Tally):
    traces = []
    wall = 0.0
    for i, op in enumerate(ops):
        trace_path = run_dir / f"trace-{i}.json"
        outcome = runner.traced(op.args, trace_path)
        tally.record(op, outcome, runner.stderr_path)
        wall += outcome.wall_s
        if trace_path.is_file():
            traces.append(json.loads(trace_path.read_text()))
        else:
            tally.problems.append(f"{op.label}: the traced run wrote no trace")
    return wall, traces


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dla-lab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dla_lab" / "cli.py").is_file():
        print(f"error: no dla-lab sources at {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, run_dir)
    runner = Runner(run_dir)
    tally = Tally()

    rounds, setup = run_rounds(runner, ops, args.seconds, tally)
    per_op_wall = [statistics.median(row[i][0] for row in rounds) for i in range(len(ops))]
    per_op_rss = [statistics.median(row[i][1] for row in rounds) for i in range(len(ops))]
    wall_s = sum(per_op_wall)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (max(per_op_rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_samples_s": setup,
        "ops": [op.label for op in ops],
        "rounds": [[{"wall_s": w, "rss_mb": r} for w, r in row] for row in rounds],
        "round_walls_s": [sum(w for w, _ in row) for row in rounds],
    }
    if args.trace:
        traced_wall, traces = traced_round(runner, ops, run_dir, tally)
        units = tracing.metric_units()
        values = tracing.layer_metrics(traces)
        values["trace.overhead_s"] = traced_wall - wall_s
        units["trace.overhead_s"] = "s"
        metrics = {name: (values[name], units[name]) for name in units}
        record["traced_wall_s"] = traced_wall
    else:
        metrics = end_to_end

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result, problems=tally.problems)
    (OUT / f"BENCH_{run_dir.name}.json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems:
        print(f"INCORRECT {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of {len(ops)} commands")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
