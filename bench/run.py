"""Benchmark of the floerdisk CLI, end to end and layer by layer.

    python3 bench/run.py --workload residue --seed 1 --seconds 10 --trace 0

Run from anywhere inside a floerdisk source tree; the program is imported
from ``src/``.  One closed-loop client calls ``floerdisk.cli.main(argv,
out=buffer)`` in this process: each op is one CLI call, the next starts when
the previous one returns, and every output is checked.  Ops come in whole
seeded cycles (see workloads.py) until ``--seconds`` have passed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics,
their times scaled to a reference host speed (see speed.py);
with ``--trace 1`` it holds the per-layer metrics of a traced replay of the
same ops.  The line before it records the seed, git sha, source digest,
Python version, nproc and op counts.  Both lines are also written, with the
spans of a traced run, under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Speedometer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REQUIRED = ("src/floerdisk/cli.py", "tests/oracles.py", "tests/test_cli.py",
            "tests/golden")

SETUP_SAMPLES = 11
SETUP_SPEED_SAMPLES = 10  # kernel samples on each side of a set-up sample
# The layer each workload exists to exercise; the traced run must see it.
MAIN_LAYER = {"residue": "potential.residue_critical_points.calls",
              "sweep": "criterion.evaluate_pair.calls",
              "probes": "probes.search_probes.calls",
              "requests": "scenario.load_scenario.calls"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        raise BenchError(f"not a floerdisk source tree, missing {missing}")
    sys.path.insert(0, str(ROOT / "src"))
    import floerdisk.cli
    if Path(floerdisk.__file__).resolve().parent != ROOT / "src" / "floerdisk":
        raise BenchError(f"imported floerdisk from {floerdisk.__file__}")
    return floerdisk.cli


def load_probe_oracle():
    spec = importlib.util.spec_from_file_location(
        "floerdisk_test_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_probe_displaces


def run_op(cli, argv):
    """One CLI call: (seconds, exit code or None, stdout, exception text)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(list(argv), out=out)
    except Exception as exc:  # an op that raises counts as an error
        return time.perf_counter() - start, None, out.getvalue(), repr(exc)
    return time.perf_counter() - start, code, out.getvalue(), None


def judge(op, code, text, exc) -> tuple[str, str | None]:
    """'ok', 'error' (unexpected exit code or exception) or 'wrong'."""
    if exc is not None:
        return "error", exc
    if code != op.expect_code:
        return "error", f"exit code {code} != {op.expect_code}"
    try:
        problem = op.check(json.loads(text))
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        problem = f"unreadable output: {err!r}"
    return ("wrong", problem) if problem else ("ok", None)


def golden_selftest(cli) -> list:
    """The CLI goldens, run through run_op, must match byte for byte."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    commands = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", "")
                    == "GOLDEN_COMMANDS")
    failures = []
    for name, argv in sorted(commands.items()):
        _, code, text, exc = run_op(cli, argv)
        golden = (ROOT / "tests" / "golden" / f"{name}.json").read_bytes()
        if exc is not None or code != 0 or text.encode() != golden:
            failures.append(f"golden {name}")
    return failures


class Loop:
    """Runs whole cycles of a workload and keeps what the metrics need."""

    def __init__(self, cli, workload, keep_outputs=False, speed=None):
        self.cli, self.workload = cli, workload
        self.keep_outputs = keep_outputs
        self.speed = speed       # a running Speedometer, or None
        self.latencies = []      # op times, less any speed sampling in them
        self.windows = []        # each op's speed samples, with a speed
        self.outcomes = {"ok": 0, "error": 0, "wrong": 0}
        self.problems = []
        self.records = []        # (op, stdout) when keep_outputs
        self.cycles = 0

    def run(self, op):
        elapsed, code, text, exc = run_op(self.cli, op.argv)
        outcome, problem = judge(op, code, text, exc)
        self.outcomes[outcome] += 1
        if problem and len(self.problems) < 5:
            self.problems.append(f"{' '.join(op.argv)}: {problem}")
        return elapsed, text

    def for_seconds(self, seconds: float, between=None):
        """Whole cycles while another one, as long as the last, still fits in
        ``seconds``.  ``between(fraction)`` runs after each cycle; the time
        it takes is not counted."""
        start = time.perf_counter()
        paused = 0.0
        while True:
            cycle_start = time.perf_counter()
            for op in self.workload.cycle():
                begin = time.perf_counter()
                elapsed, text = self.run(op)
                if self.speed is not None:
                    window = self.speed.window(begin, time.perf_counter())
                    self.windows.append(window)
                    elapsed = self.speed.own_time(elapsed, window)
                self.latencies.append(elapsed)
                if self.keep_outputs:
                    self.records.append((op, text))
            self.cycles += 1
            cycle_s = time.perf_counter() - cycle_start
            done = time.perf_counter() - start - paused
            if between is not None:
                mark = time.perf_counter()
                between(done / seconds)
                paused += time.perf_counter() - mark
            if done + cycle_s > seconds:
                return


def make_workload(name, seed, workdir):
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, str(workdir), oracle=load_probe_oracle())


def setup_probe(args) -> int:
    """Child of a set-up sample: import, make inputs, run the warm-up op,
    then print the monotonic clock (shared by all processes on the host)."""
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        cli = import_program()
        workload = make_workload(args.workload, args.seed, workdir)
        workload.cycle()
        op = workload.warmup()
        outcome, problem = judge(op, *run_op(cli, op.argv)[1:])
        done = time.monotonic()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"done": done, "ok": outcome == "ok",
                      "problem": problem}))
    return 0


class SetupSampler:
    """Fresh-interpreter set-up times, spread over the run so that their
    median sees the same machine as the timed ops."""

    def __init__(self, args, speed):
        self.args, self.speed = args, speed
        self.times, self.raw_times, self.problems = [], [], []

    def sample(self):
        self.speed.sample(SETUP_SPEED_SAMPLES)
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", self.args.workload, "--seed", str(self.args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.speed.sample(SETUP_SPEED_SAMPLES)
        self.raw_times.append(report["done"] - start)
        kernel_s = statistics.median(
            self.speed.samples[-2 * SETUP_SPEED_SAMPLES:])
        self.times.append(self.raw_times[-1] * REFERENCE_S / kernel_s)
        if not report["ok"]:
            self.problems.append(f"warm-up: {report['problem']}")

    def catch_up(self, fraction: float):
        """Take the samples due once ``fraction`` of the run has passed."""
        due = min(SETUP_SAMPLES, 1 + int(fraction * (SETUP_SAMPLES - 1)))
        while len(self.times) < due:
            self.sample()


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "floerdisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_summary(latencies) -> tuple[float, float, float]:
    """ops per second, p50 and p90 in ms of a list of op times."""
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return (len(latencies) / sum(latencies),
            statistics.median(latencies) * 1e3, deciles[8] * 1e3)


def end_to_end(args, cli, workload, problems) -> tuple[dict, dict]:
    speed = Speedometer()
    loop = Loop(cli, workload, speed=speed)
    setups = SetupSampler(args, speed)
    setups.sample()

    def catch_up(fraction):
        speed.stop()             # no timer signals while a child runs
        setups.catch_up(fraction)
        speed.start()

    with speed:
        loop.for_seconds(args.seconds, between=catch_up)
    setups.catch_up(1.0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += setups.problems + loop.problems
    attempted = len(loop.latencies)
    # Each op's wall time at the reference host speed (see speed.py).
    scaled = [t * speed.scale(w) for t, w in zip(loop.latencies, loop.windows)]
    ops_per_s, p50_ms, p90_ms = timing_summary(scaled)
    raw_ops_per_s, raw_p50_ms, raw_p90_ms = timing_summary(loop.latencies)
    metrics = {
        "ops_per_s": metric(ops_per_s, "1/s"),
        "latency_p50_ms": metric(p50_ms, "ms"),
        "latency_p90_ms": metric(p90_ms, "ms"),
        "setup_s": metric(statistics.median(setups.times), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "success_rate": metric(1 - loop.outcomes["error"] / attempted,
                               "ratio"),
        "right_output_rate": metric(1 - loop.outcomes["wrong"] / attempted,
                                    "ratio"),
    }
    counts = {"attempted": attempted,
              "failed": loop.outcomes["error"] + loop.outcomes["wrong"],
              "latency_samples": attempted, "cycles": loop.cycles,
              "speed_kernel_ms": speed.median_ms(),
              "speed_samples": len(speed.samples),
              "wall": {"ops_per_s": raw_ops_per_s,
                       "latency_p50_ms": raw_p50_ms,
                       "latency_p90_ms": raw_p90_ms,
                       "setup_s": statistics.median(setups.raw_times)},
              "setup_samples": setups.times}
    return metrics, counts


def per_layer(args, cli, workload, problems) -> tuple[dict, dict]:
    from tracing import Tracer
    loop = Loop(cli, workload, keep_outputs=True)
    loop.for_seconds(args.seconds / 2)
    untraced_s = sum(loop.latencies)

    tracer = Tracer()
    tracer.install()
    try:
        problems += [f"not rebound: {e}" for e in tracer.rebinding_errors()]
        traced_s, mismatches = 0.0, 0
        for op, text in loop.records:
            elapsed, traced_text = loop.run(op)
            traced_s += elapsed
            if traced_text != text:
                mismatches += 1
    finally:
        tracer.uninstall()
    if mismatches:
        problems.append(f"{mismatches} ops printed other output when traced")
    ops = len(loop.records)
    points = sum(op.points for op, _ in loop.records)
    metrics = tracer.metrics(ops, points, traced_s, untraced_s)
    if metrics[MAIN_LAYER[args.workload]]["value"] <= 0:
        problems.append(f"traced run saw no {MAIN_LAYER[args.workload]}")
    problems += loop.problems
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    counts = {"attempted": 2 * ops,
              "failed": loop.outcomes["error"] + loop.outcomes["wrong"]
              + mismatches,
              "traced_ops": ops, "cycles": loop.cycles}
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(MAIN_LAYER))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        cli = import_program()
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir()
        try:
            workload = make_workload(args.workload, args.seed, workdir)
            op = workload.warmup()
            problems = golden_selftest(cli)
            outcome, problem = judge(op, *run_op(cli, op.argv)[1:])
            if problem:
                problems.append(f"warm-up: {problem}")
            measure = per_layer if args.trace else end_to_end
            metrics, counts = measure(args, cli, workload, problems)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loop": "closed", "clients": 1, **counts}
    result = {"correct": not problems and counts["failed"] == 0,
              "attempted": counts["attempted"], "failed": counts["failed"],
              "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": result},
                                       indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
