"""charzeta benchmark: cold CLI invocations, checked and timed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {sweep,bigprime,oracle,numerics} \
        --seed N --seconds S --trace {0,1}

Every invocation runs ``python3 -m charzeta.cli ARGV`` from ``src/`` in a
fresh interpreter, one at a time, and its output is checked against the
result digests in ``bench/reference.json``.  With ``--trace 0`` the run
measures set-up time and repeats passes of the workload for about S
seconds, printing the end-to-end metrics.  With ``--trace 1`` it alternates
untraced passes with passes run under ``bench/tracer.py`` and prints the
per-layer metrics.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import checks
import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_RUNS = 7          # fewest fresh interpreters importing charzeta.cli per run
SETUP_PER_PASS = 2      # of them, measured before each pass
SETUP_MARGIN = 10.0     # seconds left before the deadline below which set-up is not sampled
RUN_DEADLINE = 165.0    # no invocation may run past this many seconds
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    code: int | None
    stdout: bytes
    failure: str | None = None
    trace: dict | None = field(default=None, repr=False)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, root: str, tmp: str, limit: float) -> Outcome:
    """Run one process to completion or until `limit` seconds, with rusage."""
    with tempfile.TemporaryFile(dir=tmp) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out,
                                stderr=subprocess.DEVNULL)
        box = []

        def reap():
            _, status, usage = os.wait4(proc.pid, 0)
            box.append((time.perf_counter(), status, usage))

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(limit, 0.0))
        timed_out = waiter.is_alive()
        if timed_out:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            waiter.join()
        end, status, usage = box[0]
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Outcome(end - start, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, code, stdout,
                   f"timed out after {limit:.1f} s" if timed_out else None)


class Runner:
    """Runs invocations of one workload and checks their outputs."""

    def __init__(self, root: str, tmp: str, workload: str, reference: dict, start: float):
        self.root, self.tmp, self.reference = root, tmp, reference
        self.limit = workloads.TIME_LIMIT[workload]
        self.deadline = start + RUN_DEADLINE
        self.attempted = 0
        self.failures = []
        self.stdout_sha256 = {}   # argv -> SHA-256 of its latest untraced stdout

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def invoke(self, inv: workloads.Invocation, traced: bool) -> Outcome:
        if traced:
            fd, trace_path = tempfile.mkstemp(dir=self.tmp, suffix=".json")
            os.close(fd)
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), trace_path, *inv.argv]
        else:
            cmd = [sys.executable, "-m", "charzeta.cli", *inv.argv]
        res = run_child(cmd, self.root, self.tmp, min(self.limit, self.remaining()))
        if res.failure is None:
            res.failure = checks.check_output(res.code, res.stdout, inv.expect, self.reference)
        if traced and res.failure is None:
            with open(trace_path) as fh:
                res.trace = json.load(fh)
        self.attempted += 1
        if not traced:
            self.stdout_sha256[" ".join(inv.argv)] = hashlib.sha256(res.stdout).hexdigest()
        if res.failure is not None:
            self.failures.append({"argv": " ".join(inv.argv), "traced": traced,
                                  "reason": res.failure})
        return res

    def run_pass(self, invs, traced: bool = False) -> list[Outcome]:
        return [self.invoke(inv, traced) for inv in invs]

    def setup_time(self) -> float:
        cmd = [sys.executable, "-c", "import charzeta.cli"]
        res = run_child(cmd, self.root, self.tmp, min(30.0, self.remaining()))
        if res.code != 0 or res.failure:
            raise RuntimeError(f"import charzeta.cli failed: {res.failure or res.code}")
        return res.wall


def pass_metrics(outcomes: list[Outcome]) -> dict:
    return {"wall_s": sum(o.wall for o in outcomes),
            "cpu_s": sum(o.cpu for o in outcomes),
            "peak_rss_mb": max(o.rss_mb for o in outcomes)}


def summary(values: list[float]) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values),
           "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def read_cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "charzeta")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def environment(root: str, seed: int, pool_workers) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": read_cpu_model(),
            "pool_workers": pool_workers, "git_commit": git_commit(root),
            "src_sha256": source_digest(root), "seed": seed,
            "charzeta_threads": os.environ.get("CHARZETA_THREADS")}


def measure_e2e(runner: Runner, invs, seconds: float):
    start = time.perf_counter()
    setup, passes = [], []
    while True:
        # set-up samples are spread over the run, like the passes
        setup += [runner.setup_time() for _ in range(SETUP_PER_PASS)]
        passes.append(pass_metrics(runner.run_pass(invs)))
        typical = (statistics.median(p["wall_s"] for p in passes)
                   + SETUP_PER_PASS * statistics.median(setup))
        elapsed = time.perf_counter() - start
        if elapsed + typical > seconds or typical > runner.remaining():
            break
    while len(setup) < SETUP_RUNS and runner.remaining() > SETUP_MARGIN:
        setup.append(runner.setup_time())
    samples = {name: [p[name] for p in passes] for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setup
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, {name: summary(values) for name, values in samples.items()}, None


def measure_layers(runner: Runner, invs, seconds: float):
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        plain.append(runner.run_pass(invs))
        traced.append(runner.run_pass(invs, traced=True))
        typical = statistics.median(
            pass_metrics(a)["wall_s"] + pass_metrics(b)["wall_s"] for a, b in zip(plain, traced))
        elapsed = time.perf_counter() - start
        if elapsed + typical > seconds or typical > runner.remaining():
            break
    complete = [t for t in traced if all(o.trace is not None for o in t)]
    if not complete:
        return {}, {}, None
    plain_wall = statistics.median(pass_metrics(p)["wall_s"] for p in plain)
    traced_wall = statistics.median(pass_metrics(t)["wall_s"] for t in complete)
    overhead = traced_wall / plain_wall - 1.0
    per_pass = [layers.layer_metrics(layers.merge([o.trace for o in t]),
                                     sum(len(o.stdout) for o in t), overhead)
                for t in complete]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    repeat = all(m[name] == per_pass[0][name] for m in per_pass for name in layers.EXACT)
    for name in layers.EXACT:
        metrics[name] = per_pass[0][name]
    detail = {"traced_passes": len(complete), "exact_counts_repeat": repeat,
              "wall_untraced_s": plain_wall, "wall_traced_s": traced_wall}
    return metrics, detail, metrics["globalzeta.pool.workers"] or None


def units(trace: bool) -> dict:
    if trace:
        return {name: unit for name, unit, _, _ in layers.PER_LAYER}
    return E2E_UNITS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "charzeta", "cli.py")):
        print("error: run from the root of a charzeta checkout (src/charzeta missing)",
              file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)["records"]
    invs = workloads.make_pass(args.workload, args.seed)

    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp") as tmp:
        runner = Runner(root, tmp, args.workload, reference, started)
        measure = measure_layers if args.trace else measure_e2e
        try:
            metrics, detail, pool_workers = measure(runner, invs, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    failed = len(runner.failures)
    unit_of = units(args.trace)
    report = {"workload": args.workload, "trace": args.trace,
              "env": environment(root, args.seed, pool_workers),
              "pass": [" ".join(inv.argv) for inv in invs],
              "stdout_sha256": runner.stdout_sha256,
              "fail_frac": {"value": failed / runner.attempted, "unit": "ratio"},
              "failures": runner.failures[:20], "detail": detail,
              "elapsed_s": time.perf_counter() - started}
    print(f"# charzeta benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} invocations={runner.attempted} failed={failed}")
    for name, value in metrics.items():
        print(f"#   {name:42s} {value:16.6f} {unit_of[name]}")
    print(f"#   {'fail_frac':42s} {failed / runner.attempted:16.6f} ratio")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
