"""Benchmark of the ``meanerr`` CLI, measured from outside the program.

Usage, from the root of a checkout::

    python3 bench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each operation is one in-process call of ``meanerr.cli.main(argv)`` with
stdout and stderr captured. A workload is a closed loop: one client, one
thread, each call issued when the previous one returned, ``ME_LAB_THREADS``
unset. Every output is checked (``checks.py``); an operation fails if it
raises, exits non-zero or fails its check, and a failure is counted, never
fatal. Inputs come from ``--seed`` alone (``workloads.py``).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the same operations twice, half the time each, first
untraced and then with spans recorded around the program's layer functions
(``spans.py``), and reports the per-layer metrics; the worker-count
diagnostic and the domain sweep (``domain_sweep``) run after both passes.
Metric names and units come from BENCHMARK.json. Times are reported at
nominal machine speed (see ``SpeedGauge`` and ``measure_setup``); the
values as measured are printed beside them and kept in the run record. Every run writes that
record (machine, versions, seed, R, metrics, failures, one output digest
per operation) to ``.bench_runs/``; generated inputs go to a temporary
directory there and are removed.

The last line of stdout is one JSON object: ``correct`` (no operation that
reported success printed a wrong table, and the worker-count outputs
agree), ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import (WORKLOADS, Op, op_stream, sweep_stream,
                       write_data_files)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
THREADS_ENV_VAR = "ME_LAB_THREADS"

SETUP_IMPORTS = 5        # fresh interpreters timed before and after the loop
SETUP_REFERENCE = "import numpy"
SETUP_NOMINAL_S = 0.1    # SETUP_REFERENCE at nominal machine speed
WARMUP_SECONDS = 0.3
TAIL_BEYOND = 10         # samples needed beyond the reported percentile
# no p99: on a shared 2-core machine it spread 9% to 16% over seeds on
# theory-domain, where p95 spread 3%
TAIL_PERCENTILES = (95.0, 90.0, 50.0)
WORKER_PAIRS = 3         # alternating 1-worker / 2-worker desk calls
FAILURE_EXAMPLES = 5
CALIBRATION_BLOCK_S = 0.05  # seconds of operations between speed samples
CALIBRATION_NOMINAL_S = 1e-3
DIGEST_BYTES = 8

LAYER_SPANS = (
    "cli.main", "cli.build_parser", "cli.theory_table",
    "cli.simulation_table", "cli.render_table", "ingest.load_dataset",
    "ingest.compute_params", "moments.derive_moments", "theory",
    "simulate.run_monte_carlo", "simulate.draw_replicate",
    "simulate.substream", "estimators.ObservedSample", "estimators.evaluate",
)


@dataclass(frozen=True)
class Outcome:
    wall: float              # seconds, as measured
    digest: bytes            # of stdout, or of the failure
    failure: str | None      # why the operation failed, None if it did not
    incorrect: bool          # it reported success but its output is wrong
    replicates: int          # replicates of a successful simulate call
    used: int                # replicates used, summed over simulated rows
    attempted: int           # replicates attempted, summed likewise
    nbytes: int              # stdout bytes


class Pass:
    """The operations of one closed loop, kept in a few bytes each so the
    benchmark's own memory, and with it peak RSS, does not grow with the
    number of operations a faster program fits into a run."""

    def __init__(self) -> None:
        self.wall = array("d")
        self.scaled = array("d")      # wall at nominal machine speed
        self.digests = bytearray()
        self.failures: collections.Counter = collections.Counter()
        self.incorrect = 0
        self.replicates = 0
        self.used = 0
        self.attempted_replicates = 0
        self.nbytes = 0

    def add(self, outcome: Outcome, scale: float) -> None:
        self.wall.append(outcome.wall)
        self.scaled.append(outcome.wall * scale)
        self.digests += outcome.digest
        if outcome.failure is not None:
            # numbers vary per call; the kind of failure does not
            self.failures[re.sub(r"-?\d[\d.e+-]*", "#",
                                 outcome.failure)[:120]] += 1
        self.incorrect += outcome.incorrect
        self.replicates += outcome.replicates
        self.used += outcome.used
        self.attempted_replicates += outcome.attempted
        self.nbytes += outcome.nbytes

    @property
    def ops(self) -> int:
        return len(self.wall)

    def digest_list(self) -> list[str]:
        return [self.digests[i:i + DIGEST_BYTES].hex()
                for i in range(0, len(self.digests), DIGEST_BYTES)]


def import_program():
    """``meanerr.cli`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import meanerr.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import meanerr from {SRC}: {exc}")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"bench: meanerr came from {cli.__file__}, "
                         f"not from {SRC}")
    return cli


class SpeedGauge:
    """Machine speed, sampled with a fixed calibration loop.

    The shared machines this runs on change speed by a quarter or more over
    seconds, with no steal time to show for it. Every timing is therefore
    bracketed by two speed samples and scaled to a nominal machine on which
    one calibration loop takes CALIBRATION_NOMINAL_S. The loop does not
    depend on the program but mixes the same kinds of work: arithmetic in
    the interpreter, building, sorting and formatting small objects (which
    slows more than arithmetic when the machine is contended), and small
    numpy calls.
    """

    def __init__(self) -> None:
        self._rng = np.random.default_rng(0)
        self.samples: list[float] = []

    def _loop(self) -> None:
        total = 0
        for i in range(4_000):
            total += i * i
        rows = [{"index": i, "name": f"row-{i % 97}", "value": i * 0.5}
                for i in range(500)]
        rows.sort(key=lambda row: (row["name"], -row["value"]))
        text = "\n".join(f"{row['name']},{row['value']:.6g}" for row in rows)
        sum(float(line.split(",")[1]) for line in text.splitlines())
        for _ in range(16):
            self._rng.standard_normal(200).mean()

    def sample(self) -> float:
        """Seconds per calibration loop now (median of three)."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._loop()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        return CALIBRATION_NOMINAL_S / (0.5 * (before + after))


def _interpreter_seconds(statement: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", statement], env=env, cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_setup(imports: int) -> tuple[list, list, list]:
    """Seconds for fresh interpreters to import ``meanerr.cli``: (as
    measured, at nominal speed, reference runs).

    Each import is bracketed by two runs of SETUP_REFERENCE, an interpreter
    doing the same kind of work with no code of the program, and scaled to a
    machine on which the reference takes SETUP_NOMINAL_S. The SpeedGauge
    loop tracks how fast code runs in a live interpreter, not how fast
    interpreters start and load modules; scaled by it, setup times spread
    by a quarter over seeds.
    """
    walls, scaled = [], []
    reference = [_interpreter_seconds(SETUP_REFERENCE)]
    for _ in range(imports):
        walls.append(_interpreter_seconds("import meanerr.cli"))
        reference.append(_interpreter_seconds(SETUP_REFERENCE))
        scaled.append(walls[-1] * SETUP_NOMINAL_S
                      / (0.5 * (reference[-2] + reference[-1])))
    return walls, scaled, reference


def run_op(cli, op: Op, examples: list) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    code, failure = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:   # a crash is a failed operation, not fatal
        failure = f"{type(exc).__name__}: {exc}"
        if len(examples) < FAILURE_EXAMPLES:
            examples.append({"argv": op.argv,
                             "traceback": traceback.format_exc(limit=-3)})
    except SystemExit as exc:
        failure = f"SystemExit: {exc.code}"
    wall = time.perf_counter() - start
    text = out.getvalue()
    if failure is None and code != 0:
        failure = f"exit {code}: {err.getvalue().strip()}"
    used = attempted = 0
    incorrect = False
    if failure is None:
        try:
            used, attempted = checks.check(op, text)
        except checks.CheckError as exc:
            failure, incorrect = f"check: {exc}", True
            if len(examples) < FAILURE_EXAMPLES:
                examples.append({"argv": op.argv, "check": str(exc)})
    digest = hashlib.sha256(
        (text if failure is None else failure).encode()).digest()
    return Outcome(wall, digest[:DIGEST_BYTES], failure, incorrect,
                   op.replicates if failure is None else 0,
                   used, attempted, len(text.encode()))


def closed_loop(cli, ops, seconds: float, gauge: SpeedGauge,
                examples: list) -> Pass:
    """Call operations back to back until ``seconds`` have passed; speed
    samples between blocks of CALIBRATION_BLOCK_S scale each block."""
    gc.collect()
    result = Pass()
    deadline = time.perf_counter() + seconds
    before = gauge.sample()
    while not result.ops or time.perf_counter() < deadline:
        block = []
        block_end = min(time.perf_counter() + CALIBRATION_BLOCK_S, deadline)
        while not block or time.perf_counter() < block_end:
            block.append(run_op(cli, next(ops), examples))
        after = gauge.sample()
        scale = gauge.scale(before, after)
        for outcome in block:
            result.add(outcome, scale)
        before = after
    return result


def tail(walls) -> tuple[float, float]:
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it, else the median.

    A fixed grid, rather than the exact 10th-slowest sample, keeps the
    percentile the same from run to run while the op count drifts.
    """
    ordered = sorted(walls)
    for percentile in TAIL_PERCENTILES:
        index = int(len(ordered) * percentile / 100.0)
        if len(ordered) - 1 - index >= TAIL_BEYOND:
            break
    return ordered[min(index, len(ordered) - 1)], percentile


def end_to_end(cli, workload, seed, seconds, data, gauge, examples):
    measure_setup(1)   # writes the bytecode caches: not counted
    setup_walls, setup, reference = measure_setup(SETUP_IMPORTS)
    closed_loop(cli, op_stream(workload, seed, "warmup", data),
                WARMUP_SECONDS, gauge, examples)
    timed = closed_loop(cli, op_stream(workload, seed, "ops", data),
                        seconds, gauge, examples)
    # a second batch, so the median spans the run's changes of speed
    walls, scaled, after = measure_setup(SETUP_IMPORTS)
    setup_walls += walls
    setup += scaled
    reference += after
    tail_s, tail_pct = tail(timed.scaled)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_s_p50": statistics.median(timed.scaled),
        "op_s_tail": tail_s,
        "ops_per_s": timed.ops / sum(timed.scaled),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh imports; "
                   f"{statistics.median(setup_walls):.6g} as measured",
        "op_s_p50": f"{statistics.median(timed.wall):.6g} as measured",
        "op_s_tail": f"p{tail_pct:g} of {timed.ops} ops; "
                     f"{tail(timed.wall)[0]:.6g} as measured",
        "ops_per_s": f"{timed.ops / sum(timed.wall):.6g} as measured",
        "replicates_per_s":
            f"{timed.replicates / sum(timed.scaled):.6g} 1/s "
            f"at n={workload.sample_n}"
            if workload.sample_n else "n/a: no Monte Carlo",
    }
    extra = {"setup_s_measured": setup_walls, "setup_s_scaled": setup,
             "setup_reference_s": reference,
             "digests": timed.digest_list()}
    return metrics, notes, [timed], extra


def _module_attr(module: str, attr: str):
    return getattr(sys.modules.get(module), attr, None)


def trace_targets() -> list:
    """(span name, object, result counter) for every traced function."""
    targets = [
        ("cli.main", _module_attr("meanerr.cli", "main"), None),
        ("cli.build_parser", _module_attr("meanerr.cli", "build_parser"),
         None),
        ("cli.theory_table", _module_attr("meanerr.cli", "theory_table"),
         None),
        ("cli.simulation_table",
         _module_attr("meanerr.cli", "simulation_table"), None),
        ("cli.render_table", _module_attr("meanerr.cli", "render_table"),
         None),
        ("ingest.load_dataset",
         _module_attr("meanerr.ingest", "load_dataset"), len),
        ("ingest.compute_params",
         _module_attr("meanerr.ingest", "compute_params"), None),
        ("moments.derive_moments",
         _module_attr("meanerr.moments", "derive_moments"), None),
        ("simulate.run_monte_carlo",
         _module_attr("meanerr.simulate", "run_monte_carlo"), None),
        ("simulate.draw_replicate",
         _module_attr("meanerr.simulate", "draw_replicate"), None),
        ("estimators.ObservedSample",
         _module_attr("meanerr.estimators", "ObservedSample"), None),
        ("estimators.evaluate",
         _module_attr("meanerr.estimators", "evaluate_at_means"), None),
        ("estimators.evaluate",
         _module_attr("meanerr.estimators", "hazard_free"), None),
    ]
    theory = sys.modules.get("meanerr.theory")
    for attr in getattr(theory, "__all__", ()):
        value = getattr(theory, attr, None)
        if inspect.isfunction(value):
            targets.append(("theory", value, None))
    return targets


def worker_speedup(cli, seed: int, examples: list) -> tuple[float, bool]:
    """desk wall time with 1 worker over 2 workers, and whether the two
    printed identical bytes. Runs outside the timed passes."""
    op = next(op_stream(WORKLOADS["desk"], seed, "workers", ()))
    walls = {1: [], 2: []}
    digests = set()
    try:
        for _ in range(WORKER_PAIRS):
            for workers in walls:
                os.environ[THREADS_ENV_VAR] = str(workers)
                outcome = run_op(cli, op, examples)
                walls[workers].append(outcome.wall)
                digests.add(outcome.digest if outcome.failure is None
                            else outcome.failure)
    finally:
        os.environ.pop(THREADS_ENV_VAR, None)
    speedup = statistics.median(walls[1]) / statistics.median(walls[2])
    return speedup, len(digests) == 1


def domain_sweep(cli, seed: int, data) -> tuple[float, float, dict]:
    """Share of ``sweep_stream`` calls that crash (raise or exit non-zero)
    and share that print a table failing its check. Untimed; its failures
    are reported here, not counted among the workload's operations."""
    examples: list = []
    result = Pass()
    for op in sweep_stream(seed, data):
        result.add(run_op(cli, op, examples), 1.0)
    crashed = sum(result.failures.values()) - result.incorrect
    record = {"ops": result.ops,
              "failures_by_kind": dict(result.failures.most_common()),
              "failure_examples": examples}
    return crashed / result.ops, result.incorrect / result.ops, record


def per_layer(cli, workload, seed, seconds, data, gauge, examples):
    closed_loop(cli, op_stream(workload, seed, "warmup", data),
                WARMUP_SECONDS, gauge, examples)
    plain = closed_loop(cli, op_stream(workload, seed, "ops", data),
                        seconds / 2, gauge, examples)
    tracer = spans.Tracer()
    tracer.install("meanerr", trace_targets())
    tracer.install_numpy_random(sys.modules["meanerr.simulate"],
                                "simulate.substream", ("Philox", "Generator"))
    try:
        traced = closed_loop(cli, op_stream(workload, seed, "ops", data),
                             seconds / 2, gauge, examples)
    finally:
        tracer.uninstall()
    speedup, identical = worker_speedup(cli, seed, examples)
    crash_ratio, check_ratio, sweep = domain_sweep(cli, seed, data)

    summary = tracer.summary()
    wall = sum(traced.wall)
    speed = sum(traced.scaled) / wall
    metrics = {}
    for name in LAYER_SPANS:
        span = summary[name]
        metrics[f"{name}.calls"] = span["calls"] / traced.ops
        metrics[f"{name}.self_s"] = span["self_s"] * speed / traced.ops
        metrics[f"{name}.share"] = span["self_s"] / wall
    load = summary["ingest.load_dataset"]
    metrics["ingest.load_dataset.rows_per_s"] = (
        load["count"] / load["total_s"] if load["total_s"] else 0.0)
    metrics["cli.render_table.bytes"] = traced.nbytes / traced.ops
    used = plain.used + traced.used
    attempted = plain.attempted_replicates + traced.attempted_replicates
    metrics["simulate.used_ratio"] = used / attempted if attempted else 0.0
    metrics["simulate.replicates_per_s"] = (plain.replicates
                                            / sum(plain.scaled))
    metrics["simulate.speedup_2workers"] = speedup
    metrics["theory.domain_crash_ratio"] = crash_ratio
    metrics["theory.domain_check_fail_ratio"] = check_ratio
    metrics["trace.overhead_ratio"] = (statistics.median(traced.scaled)
                                       / statistics.median(plain.scaled) - 1.0)
    notes = {
        "calls": "per operation",
        "self_s": "self seconds per operation",
        "share": "self seconds over the traced operations' wall time",
        "traced_ops": f"{traced.ops} traced, {plain.ops} untraced",
        "simulate.speedup_2workers":
            f"desk with {THREADS_ENV_VAR}=1 over =2, outputs "
            + ("identical" if identical else "DIFFER"),
        "domain_sweep": f"{sweep['ops']} untimed theory calls over the whole "
                        f"accepted domain, not counted in failed",
    }
    extra = {"spans": summary, "workers_identical": identical,
             "domain_sweep": sweep,
             "digests": plain.digest_list(),
             "traced_digests": traced.digest_list()}
    return metrics, notes, [plain, traced], extra


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform()}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    os.environ.pop(THREADS_ENV_VAR, None)
    cli = import_program()
    workload = WORKLOADS[args.workload]
    examples: list = []
    gauge = SpeedGauge()
    RUNS_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS_DIR) as tmp:
        data = write_data_files(tmp, args.seed)
        first = next(op_stream(workload, args.seed, "ops", data))
        measure = per_layer if args.trace else end_to_end
        metrics, notes, passes, extra = measure(
            cli, workload, args.seed, args.seconds, data, gauge, examples)

    attempted = sum(p.ops for p in passes)
    failures = sum((p.failures for p in passes), collections.Counter())
    failed = sum(failures.values())
    correct = (not any(p.incorrect for p in passes)
               and extra.get("workers_identical", True))
    notes["error_ratio"] = (f"{failed / attempted:.6g} "
                            f"({failed} of {attempted} ops failed)")
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "replicates": first.replicates, "sample_n": workload.sample_n,
        "machine": machine(), "metrics": metrics, "notes": notes,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures_by_kind": dict(failures.most_common()),
        "failure_examples": examples, "speed_samples": gauge.samples,
        **extra,
    }
    path = RUNS_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"meanerr bench: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; record {path.name}")
    for metric in wanted:
        name = metric["name"]
        note = notes.get(name) or notes.get(name.rsplit(".", 1)[-1], "")
        print(f"  {name:<36} {metrics[name]:>14.6g} {metric['unit']:<9} "
              f"{note}")
    for name in ("error_ratio", "replicates_per_s", "traced_ops",
                 "domain_sweep"):
        if name in notes:
            print(f"  {name:<36} {notes[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
