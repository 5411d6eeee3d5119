"""Benchmark of `carepath run`, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cohort-k5 --seed 3 --seconds 42 --trace 0

The workload's inputs are seeded synthetic cohorts, generated here and
written as the two CSV files the program reads.  With ``--trace 0`` the
benchmark times fresh ``python -m carepath.cli run`` processes, one after
the other, for ``--seconds`` seconds and reports the end-to-end metrics; each
time is scaled by a host-speed probe timed around it (see ``probe.py``), and
the benchmark and its children stay on one CPU, so that the probe samples the
CPU the program runs on.  With
``--trace 1`` it makes one such run and then replays it in this process
through the public functions of each module (see ``replay.py``), reporting
per-layer times and counts.  Every repetition's artifacts are checked
against a digest recorded at the commit that defined the benchmark
(``references.json``); the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from probe import REFERENCE_S, Probe

SRC = Path("src")
WORK = Path(".bench_work")
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# Inputs come from VARIANTS seeded cohorts per workload, whose input and
# artifact digests are recorded in references.json.  Repetition i of a run
# uses cohort (seed + i) mod VARIANTS; a run holds more than VARIANTS
# repetitions, so every run's median covers every cohort.
VARIANTS = 4
# A run must end within 180 s: a repetition still running at this mark is
# killed, and none is started that is predicted to reach it.
RUN_DEADLINE_S = 165.0

WORKLOADS = {
    "cohort-k5": dict(patients=400, k=5, tune_budget=0),
    "cohort-k20": dict(patients=400, k=20, tune_budget=0),
    "tune-b8": dict(patients=200, k=5, tune_budget=8),
}
WEIGHTS = "85,75,55,40"
TREES = 100

SPAN_METRICS = (
    "dataio.load_dataset",
    "metric.distance_matrix",
    "metric.save_matrix_csv",
    "kmedoids.fit_kmedoids",
    "kmedoids.medoid_profile",
    "tuning.tune_search",
    "tuning.trial.distance_matrix",
    "tuning.trial.fit_kmedoids",
    "tuning.trial.cluster_score",
    "patterns.frequent_patterns",
    "pipeline.frequency_table",
    "pipeline.sankey_flows",
    "survival.cohort_cox_aic",
    "survival.rsf_fit",
    "survival.rsf_risk_scores",
    "survival.c_index",
    "survival.scenario_curves",
)
COUNT_METRICS = {
    "dataio.rows": "count",
    "metric.pairs": "count",
    "metric.vocab": "count",
    "metric.matrix_csv_bytes": "bytes",
    "kmedoids.swaps": "count",
    "kmedoids.converged": "count",
    "tuning.trials": "count",
    "patterns.mined": "count",
    "survival.trees": "count",
    "survival.tree_nodes": "count",
    "survival.records_scored": "count",
}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


@dataclass(frozen=True)
class Exit:
    wall_s: float
    code: int
    cpu_s: float
    max_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class _Overdue(Exception):
    pass


def _overdue(signum, frame):
    raise _Overdue


def spawn(args: list[str], log: Path, timeout_s: float) -> Exit:
    """Run ``python <args>`` with src on the path; time it from spawn to exit.

    The child is reaped with ``wait4`` so its own peak RSS and CPU time are
    read; it is killed if it outlives ``timeout_s``.
    """
    argv = [sys.executable, *args]
    with open(log, "wb") as fh:
        actions = [
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, fh.fileno(), 2),
        ]
        previous = signal.signal(signal.SIGALRM, _overdue)
        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, child_env(), file_actions=actions)
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        except BaseException:
            signal.setitimer(signal.ITIMER_REAL, 0)
            os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - started
            if not isinstance(sys.exc_info()[1], _Overdue):
                raise
        finally:
            signal.signal(signal.SIGALRM, previous)
    return Exit(
        wall_s=wall,
        code=os.waitstatus_to_exitcode(status),
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,
    )


def _without(rows: list[list[str]], column: str) -> list[list[str]]:
    drop = rows[0].index(column)
    return [r[:drop] + r[drop + 1 :] for r in rows]


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative name and content.

    ``trial_log.csv`` carries per-trial wall-clock times (``wall_ms``), so
    that column is dropped before hashing.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        if rel == "trial_log.csv":
            out = io.StringIO()
            csv.writer(out).writerows(
                _without(list(csv.reader(io.StringIO(data.decode()))), "wall_ms")
            )
            data = out.getvalue().encode()
        h.update(rel.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def check_tree() -> None:
    if not (SRC / "carepath" / "cli.py").is_file():
        raise BenchError(f"no program at {SRC / 'carepath'}; run from the repository root")
    if not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES}")


def workload_dir(name: str) -> Path:
    return WORK / name


def make_inputs(name: str, variant: int) -> float:
    """Write the workload's cohort CSVs; returns the ``generate_cohort`` time."""
    from carepath.dataio import write_covariates_csv, write_trajectories_csv
    from carepath.synthetic import generate_cohort

    spec = WORKLOADS[name]
    inputs = workload_dir(name) / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    started = time.perf_counter()
    trajectories, records, _ = generate_cohort(spec["patients"], seed=variant)
    seconds = time.perf_counter() - started
    write_trajectories_csv(inputs / "trajectories.csv", trajectories)
    write_covariates_csv(inputs / "covariates.csv", records)
    return seconds


def run_args(name: str, variant: int) -> list[str]:
    spec = WORKLOADS[name]
    inputs = workload_dir(name) / "inputs"
    args = [
        "-m", "carepath.cli", "run",
        "--trajectories", str(inputs / "trajectories.csv"),
        "--covariates", str(inputs / "covariates.csv"),
        "--weights", WEIGHTS,
        "--k", str(spec["k"]),
        "--trees", str(TREES),
        "--seed", str(variant),
        "--out", str(workload_dir(name) / "out"),
    ]
    if spec["tune_budget"]:
        args += ["--tune-budget", str(spec["tune_budget"])]
    return args


def pipeline_config(name: str, variant: int):
    """The PipelineConfig that ``run_args`` makes the CLI build."""
    from carepath.metric import MetricWeights
    from carepath.pipeline import PipelineConfig

    spec = WORKLOADS[name]
    inputs = workload_dir(name) / "inputs"
    return PipelineConfig(
        seed=variant,
        trajectory_csv=str(inputs / "trajectories.csv"),
        covariate_csv=str(inputs / "covariates.csv"),
        weights=MetricWeights.from_sequence([int(w) for w in WEIGHTS.split(",")]),
        k=spec["k"],
        trees=TREES,
        tune_budget=spec["tune_budget"],
    )


class Bench:
    """One invocation: workload, seed, clock, references and failures seen."""

    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        refs = json.loads(REFERENCES.read_text())
        self.recorded_with = refs["recorded_with"]
        self.references = refs["workloads"][name]
        self.problems: list[str] = []
        workload_dir(name).mkdir(parents=True, exist_ok=True)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {self.name}: {message}", file=sys.stderr)

    def variant(self, repetition: int) -> int:
        return (self.seed + repetition) % VARIANTS

    def prepare(self, variant: int) -> float:
        """Write cohort ``variant`` as the inputs; returns the ``generate_cohort`` time."""
        seconds = make_inputs(self.name, variant)
        got = tree_digest(workload_dir(self.name) / "inputs")
        if got != self.references[str(variant)]["inputs"]:
            self.fail(f"inputs of cohort {variant} differ from the reference ({got})")
        return seconds

    def run_once(self, variant: int) -> Exit:
        """One `carepath run`; its artifacts stay in the workload's out directory."""
        out = workload_dir(self.name) / "out"
        shutil.rmtree(out, ignore_errors=True)
        log = workload_dir(self.name) / "run.log"
        result = spawn(run_args(self.name, variant), log, RUN_DEADLINE_S - self.elapsed())
        if result.code != 0:
            tail = log.read_text(errors="replace")[-400:]
            self.fail(f"carepath run on cohort {variant} exited {result.code}: {tail}")
        elif tree_digest(out) != self.references[str(variant)]["artifacts"]:
            self.fail(
                f"artifacts of cohort {variant} differ from the reference recorded "
                f"with {self.recorded_with}"
            )
        return result

    def room_for(self, last_s: float) -> bool:
        """Whether another repetition like the last one ends within --seconds."""
        return self.elapsed() + last_s <= min(self.seconds, RUN_DEADLINE_S)

    def import_seconds(self) -> float:
        """Wall-clock time of one fresh interpreter doing `import carepath`."""
        log = workload_dir(self.name) / "setup.log"
        result = spawn(["-c", "import carepath"], log, 60.0)
        if result.code != 0:
            raise BenchError(f"import carepath failed: {log.read_text()[-400:]}")
        return result.wall_s


def measure(bench: Bench) -> dict:
    bench.import_seconds()  # untimed warm-up, which writes the bytecode cache
    probe = Probe()
    probe()
    runs: list[Exit] = []
    setup: list[float] = []
    failed = 0
    while True:
        before = len(bench.problems)
        variant = bench.variant(len(runs))
        bench.prepare(variant)
        runs.append(bench.run_once(variant))
        setup.append(bench.import_seconds())
        failed += len(bench.problems) > before
        if not bench.room_for(runs[-1].wall_s + setup[-1] + probe()):
            break
    # Repetition i and set-up sample i run between probes i and i+1; each is
    # scaled by the host's speed around it: REFERENCE_S over the mean of the two.
    p = probe.samples
    scale = [2 * REFERENCE_S / (a + b) for a, b in zip(p, p[1:])]
    wall = [r.wall_s for r in runs]
    run_norm = [w * k for w, k in zip(wall, scale)]
    setup_norm = [t * k for t, k in zip(setup, scale)]
    rss = [r.max_rss_mb for r in runs]
    print(f"workload {bench.name}: {len(runs)} repetitions, cohorts from {bench.variant(0)}")
    print(f"run_s {statistics.median(wall):.4f} s (median of {len(wall)}: "
          + ", ".join(f"{w:.3f}" for w in wall) + ")")
    print(f"probe_s {statistics.median(p):.4f} s (median of {len(p)}: "
          + ", ".join(f"{x:.3f}" for x in p) + ")")
    print(f"run_norm_s {statistics.median(run_norm):.4f} s (median of {len(run_norm)}: "
          + ", ".join(f"{x:.3f}" for x in run_norm) + ")")
    print(f"setup_s {statistics.median(setup_norm):.4f} s (median of {len(setup)}; "
          f"raw median {statistics.median(setup):.4f} s)")
    print(f"peak_rss_mb {statistics.median(rss):.3f} MB (median of {len(rss)})")
    print(f"error_rate {failed / len(runs):.4f} ({failed} of {len(runs)} repetitions)")
    return {
        "correct": not bench.problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "run_norm_s": {"value": statistics.median(run_norm), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_norm), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        },
    }


def _read_csv(path: Path, drop: str | None = None) -> list[list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if drop is not None:
        rows = _without(rows, drop)
    return rows[1:]


def cross_check(bench: Bench, result) -> None:
    out = workload_dir(bench.name) / "out"
    if _read_csv(out / "assignments.csv") != result.assignments:
        bench.fail("replayed cluster labels differ from assignments.csv")
    if _read_csv(out / "metrics.csv") != result.metrics:
        bench.fail("replayed survival metrics differ from metrics.csv")
    trial_log = out / "trial_log.csv"
    logged = _read_csv(trial_log, drop="wall_ms") if trial_log.exists() else []
    if logged != result.trials:
        bench.fail("replayed tuning trials differ from trial_log.csv")


def trace(bench: Bench) -> dict:
    from replay import Tracer, replay

    variant = bench.variant(0)
    generate_s = bench.prepare(variant)
    run = bench.run_once(variant)
    if run.code != 0:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    cfg = pipeline_config(bench.name, variant)
    matrix_csv = workload_dir(bench.name) / "replay_matrix.csv"
    tracers: list[Tracer] = []
    walls: list[float] = []
    # at least two replays, so that every count is seen to repeat
    while True:
        tracer = Tracer()
        try:
            result = replay(cfg, str(matrix_csv), tracer)
        except Exception as exc:  # a program failure fails the run, not the benchmark
            bench.fail(f"replay raised {exc!r}")
            return {"correct": False, "attempted": 1 + len(tracers), "failed": 1, "metrics": {}}
        cross_check(bench, result)
        tracers.append(tracer)
        walls.append(result.wall_s)
        if tracers[0].counts != tracer.counts:
            bench.fail(f"counts changed between replays: {tracers[0].counts} != {tracer.counts}")
        if len(tracers) >= 2 and not bench.room_for(result.wall_s):
            break

    spans_out = workload_dir(bench.name) / "spans.json"
    spans_out.write_text(json.dumps([s.__dict__ for s in tracers[-1].spans]))
    metrics = {
        f"{name}_s": {
            "value": statistics.median(t.seconds(name) for t in tracers),
            "unit": "s",
        }
        for name in SPAN_METRICS
    }
    for name, unit in COUNT_METRICS.items():
        metrics[name] = {"value": tracers[0].counts.get(name, 0), "unit": unit}
    metrics["synthetic.generate_cohort_s"] = {"value": generate_s, "unit": "s"}
    metrics["cli.cpu_s"] = {"value": run.cpu_s, "unit": "s"}
    metrics["trace.coverage"] = {
        "value": statistics.median(t.root_seconds() / w for t, w in zip(tracers, walls)),
        "unit": "ratio",
    }
    metrics["trace.overhead"] = {
        "value": statistics.median(walls) / run.wall_s,
        "unit": "ratio",
    }
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"replays {len(tracers)}; untraced run_s {run.wall_s:.4f} s")
    return {
        "correct": not bench.problems,
        "attempted": 1 + len(tracers),
        "failed": 1 if bench.problems else 0,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() kills its child on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for this process, its probe and every child it starts: the
    # probe then samples the speed of the CPU the program runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        check_tree()
        sys.path.insert(0, str(SRC.resolve()))
        bench = Bench(args.workload, args.seed, args.seconds)
        report = trace(bench) if args.trace else measure(bench)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
