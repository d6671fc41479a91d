"""Self-checks of the benchmark's own machinery.

Usage (from the root of a checkout): python3 bench/selfcheck.py

1. The result digest ignores an added key but catches a changed count.
2. An invocation that exceeds its time limit is killed and counts as failed.
3. The exact (count) per-layer metrics repeat between two traced passes.
4. BENCHMARK.json lists the per-layer metrics the traced run reports.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile
import time

import checks
import layers
import run
import workloads

PROBE = (  # small invocations touching every layer
    workloads.verify_call(2, 13),
    workloads.count_call(9),
    workloads.singular_call(5),
    workloads.special_call(),
)


def digest_check(runner: run.Runner) -> list[str]:
    inv = workloads.count_call(7)
    res = runner.invoke(inv, traced=False)
    errors = []
    if res.failure:
        return [f"baseline count invocation failed: {res.failure}"]
    doc = json.loads(res.stdout)
    extra = copy.deepcopy(doc)
    extra["provenance"] = {"source": "added"}
    for rec in extra["records"]:
        rec["count_sources"] = {"fiberwise": [1]}
    if checks.check_output(0, json.dumps(extra).encode(), inv.expect, runner.reference):
        errors.append("an added key changed the verdict")
    changed = copy.deepcopy(doc)
    changed["records"][0]["count"] += 1
    reason = checks.check_output(0, json.dumps(changed).encode(), inv.expect, runner.reference)
    if not reason or "digest mismatch" not in reason:
        errors.append(f"a changed count was not caught: {reason!r}")
    dropped = copy.deepcopy(doc)
    dropped["records"].pop()
    if not checks.check_output(0, json.dumps(dropped).encode(), inv.expect, runner.reference):
        errors.append("a missing record was not caught")
    return errors


def timeout_check(runner: run.Runner) -> list[str]:
    before = len(runner.failures)
    runner.limit = 0.5
    start = time.perf_counter()
    res = runner.invoke(workloads.mahler_call(0), traced=False)
    took = time.perf_counter() - start
    errors = []
    if not (res.failure or "").startswith("timed out"):
        errors.append(f"a slow invocation was not timed out: {res.failure!r}")
    if len(runner.failures) != before + 1:
        errors.append("a timed-out invocation was not counted as failed")
    if took > 10.0:
        errors.append(f"the time limit was not enforced ({took:.1f} s)")
    return errors


def repeat_check(runner: run.Runner) -> list[str]:
    runner.limit = 120.0
    exact = []
    for _ in range(2):
        outcomes = runner.run_pass(PROBE, traced=True)
        if any(o.trace is None for o in outcomes):
            return [f"traced probe failed: {[o.failure for o in outcomes]}"]
        agg = layers.merge([o.trace for o in outcomes])
        metrics = layers.layer_metrics(agg, sum(len(o.stdout) for o in outcomes), 0.0)
        exact.append({name: metrics[name] for name in layers.EXACT})
    diff = [name for name in layers.EXACT if exact[0][name] != exact[1][name]]
    errors = [f"count {name} differs: {exact[0][name]} vs {exact[1][name]}" for name in diff]
    if not exact[0]["fibercount.scans"] or not exact[0]["intpoly.eval_field.calls"]:
        errors.append("probe did not reach the fiber scan and the singular locus")
    return errors


def spec_check(root: str) -> list[str]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    wanted = [(name, unit, better) for name, unit, better, _ in layers.PER_LAYER]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    errors = []
    if listed != wanted:
        errors.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if e2e != run.E2E_UNITS:
        errors.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def report(name: str, errors: list[str]) -> bool:
    print(f"{name:8s} {'FAIL' if errors else 'ok'}")
    for error in errors:
        print(f"  {error}")
    return bool(errors)


def main() -> int:
    root = os.getcwd()
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)["records"]
    failed = False
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp") as tmp:
        runner = run.Runner(root, tmp, "oracle", reference, time.perf_counter())
        runner.deadline = float("inf")
        for name, check in (("digest", digest_check), ("timeout", timeout_check),
                            ("repeat", repeat_check)):
            failed |= report(name, check(runner))
    failed |= report("spec", spec_check(root))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
