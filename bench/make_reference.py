"""Write bench/reference.json: result digests of every record a seed can produce.

Usage (from the root of a checkout): python3 bench/make_reference.py

Runs each invocation of ``workloads.reference_invocations()`` once and
records the digest of every output record.  It also records, for
information, the passes of the default seed with their full-stdout
SHA-256 (the behaviour lock: it changes with any output change, including
added keys, while the record digests change only with results).
Regenerate only when a change alters results on purpose, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import checks
import run
import workloads


def main() -> int:
    root = os.getcwd()
    records = {}
    with tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp") as tmp:
        def invoke(inv):
            res = run.run_child([sys.executable, "-m", "charzeta.cli", *inv.argv],
                                root, tmp, 600.0)
            doc = json.loads(res.stdout)
            if res.code != 0 or doc.get("ok") is not True:
                raise SystemExit(f"reference invocation failed: {' '.join(inv.argv)}")
            return res, checks.record_digests(doc)

        for inv in workloads.reference_invocations():
            _, digests = invoke(inv)
            records.update(digests)
            print(f"{len(digests):4d} records  {' '.join(inv.argv)}", flush=True)
        default = {}
        for name in sorted(workloads.WORKLOADS):
            default[name] = []
            for inv in workloads.make_pass(name, 0):
                res, digests = invoke(inv)
                default[name].append({
                    "argv": " ".join(inv.argv),
                    "stdout_sha256": hashlib.sha256(res.stdout).hexdigest(),
                    "records": {key: digests[key] for key in inv.expect}})
    doc = {"schema": "charzeta-bench-reference/1", "records": dict(sorted(records.items())),
           "default_seed": {"seed": 0, "passes": default}}
    with open(os.path.join(run.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
