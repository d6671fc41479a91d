"""Command-line front end.

Commands: count, zeta, verify, special, singular, mahler.  Output is a
versioned JSON document by default ("schema": "charzeta/1"); --format csv
flattens the records, --format text prints human-readable lines.  Exit
codes: 0 all checks pass, 1 mathematical mismatch, 2 usage error,
141 (128 + SIGPIPE) stdout closed before the output was written.
Identical invocations produce bit-identical output (MC commands take a
seed).  count takes one surfaces.CountTotals per method and surface and
writes a record per space and method from it.  zeta and verify report
globalzeta.check_local_zeta: zeta one space's item with its counts, verify
every space's with the number of counts checked.  singular lists the points
of fibercount.singular_locus, whole singular lines up to q = 2^11 only.
--surface picks the surfaces of count, zeta, verify and singular; special
(all three surfaces) and mahler (none) do not take it.

Each command imports the modules it runs inside its function, so a cold
call compiles and runs only those.  The standard library follows suit:
only --format csv imports csv, and the records are frozen by the
package's own decorator, so no command loads the dataclass module, and a
command that does not load numpy loads neither inspect nor ast.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import SPACES, SURFACE_IDS

SCHEMA = "charzeta/1"
MAX_VERIFY_PRIME = 10**6
MAX_MAHLER_SAMPLES = 10**8
SURFACE_CHOICES = SURFACE_IDS + ("all",)
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a writer the pipe killed


class UsageError(Exception):
    pass


def _surfaces(arg: str):
    return SURFACE_IDS if arg == "all" else (arg,)


def _parse_primes(spec: str):
    """Parse 'a..b' (inclusive, primality-filtered) or a single prime.

    The list must be nonempty and end at most MAX_VERIFY_PRIME, which bounds
    the size of a verify input.
    """
    from .finfield import is_prime
    lo, sep, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"bad prime range {spec!r}") from None
    if not sep and not is_prime(lo):
        raise UsageError(f"{lo} is not prime")
    if hi > MAX_VERIFY_PRIME:
        raise UsageError(f"verify accepts primes up to {MAX_VERIFY_PRIME}")
    primes = [p for p in range(max(lo, 2), hi + 1) if is_prime(p)]
    if not primes:
        raise UsageError(f"no primes in range {spec!r}")
    return primes


def _flatten(obj, row, prefix=""):
    for k, v in obj.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            _flatten(v, row, key + ".")
        elif isinstance(v, list):
            row[key] = json.dumps(v, sort_keys=True)
        else:
            row[key] = v


def _indented(obj, newline: str = "\n") -> str:
    """What json.dumps writes with an indent of 2 and sorted keys, byte for
    byte, for a document with str keys; newline starts obj's last line.

    json's C encoder does not indent, and its pure-Python one, which does,
    takes about twice as long; strings go through json's C escaper, and
    floats are written as json writes them.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return float.__repr__(obj) if math.isfinite(obj) else json.dumps(obj)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{encode_basestring_ascii(key)}: {_indented(obj[key], inner)}"
                 for key in sorted(obj)]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        items = [_indented(item, inner) for item in obj]
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if items else "[]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _indented(doc)
    if fmt == "csv":
        import csv  # only --format csv loads it
        records = doc.get("records", [])
        rows = []
        for rec in records:
            row = {}
            _flatten(rec, row)
            rows.append(row)
        fields = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().rstrip("\n")
    lines = [f"# {doc['command']}"]
    for rec in doc.get("records", []):
        lines.append(json.dumps(rec, sort_keys=True))
    lines.append(f"ok: {doc.get('ok')}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands


def cmd_count(args) -> tuple[dict, int]:
    from .fibercount import count_formula, fiberwise_totals
    from .finfield import make_field
    field = make_field(args.p, args.n)
    spaces = SPACES if args.space == "all" else (args.space,)
    methods = ("brute", "fiberwise", "formula") if args.method == "all" else (args.method,)
    counters = {"fiberwise": fiberwise_totals,
                "formula": lambda sid, field: count_formula(sid, field.p, field.n)}
    if "brute" in methods:  # only brute counts load the independent count
        from .varieties import brute_totals
        counters["brute"] = brute_totals
    records = []
    ok = True
    for sid in _surfaces(args.surface):
        totals = {method: counters[method](sid, field) for method in methods}
        for space in spaces:
            got = {method: t.count(space) for method, t in totals.items()}
            records += [{"surface": sid, "p": field.p, "n": field.n, "space": space,
                         "method": method, "count": count} for method, count in got.items()]
            if len(set(got.values())) > 1:
                ok = False
                records.append({"surface": sid, "space": space, "disagreement": got})
    doc = {"schema": SCHEMA, "command": "count",
           "field": field.to_json(), "records": records, "ok": ok}
    return doc, 0 if ok else 1


def cmd_zeta(args) -> tuple[dict, int]:
    """Report globalzeta.check_local_zeta's item for the space, per surface.

    Each record gives the Euler factor of the global product at p, the
    counts N_1..N_14 by fiberwise counting and the verdict of comparing
    them.  The counts need F_{p^2}: a prime with p^2 > 2^63 is a usage
    error.
    """
    from .finfield import is_prime
    from .globalzeta import check_local_zeta
    if not is_prime(args.p):
        raise UsageError(f"{args.p} is not prime")
    records = []
    for sid in _surfaces(args.surface):
        check = check_local_zeta(sid, args.p, (args.space,))
        item = check["spaces"][args.space]
        records.append({"surface": sid, "p": args.p, "space": args.space, "mode": check["mode"],
                        **{key: value for key, value in item.items() if key != "pass"},
                        "match": item["pass"]})
    ok = all(rec["match"] for rec in records)
    doc = {"schema": SCHEMA, "command": "zeta", "records": records, "ok": ok}
    return doc, 0 if ok else 1


def cmd_verify(args) -> tuple[dict, int]:
    from .globalzeta import verify_global
    primes = _parse_primes(args.primes)
    records = []
    ok = True
    for sid in _surfaces(args.surface):
        for entry in verify_global(sid, primes):
            records.append(entry)
            ok &= entry["pass"]
    doc = {"schema": SCHEMA, "command": "verify", "records": records, "ok": bool(ok)}
    return doc, 0 if ok else 1


def cmd_special(args) -> tuple[dict, int]:
    from .specialvalues import verify_table1
    records = verify_table1(tol=args.tol)
    ok = all(r["pass"] for r in records)
    doc = {"schema": SCHEMA, "command": "special", "tol": args.tol,
           "records": records, "ok": ok}
    return doc, 0 if ok else 1


def cmd_singular(args) -> tuple[dict, int]:
    from .fibercount import degenerate_fibers, singular_locus
    from .finfield import make_field
    field = make_field(args.p, args.n)
    records = []
    for sid in _surfaces(args.surface):
        points = sorted(singular_locus(sid, field), key=lambda pt: (pt.zw, pt.xyu))
        records.append({"surface": sid, "field": field.to_json(),
                        "count": len(points),
                        "points": [pt.to_json() for pt in points],
                        "degenerate_fibers": [list(b) for b in degenerate_fibers(sid, field)]})
    doc = {"schema": SCHEMA, "command": "singular", "records": records, "ok": True}
    return doc, 0


def cmd_mahler(args) -> tuple[dict, int]:
    from .specialvalues import mahler_measure_mc, riemann_zeta
    estimate, stderr = mahler_measure_mc(args.poly, args.samples, args.seed)
    target = 7.0 * riemann_zeta(3.0) / (2.0 * math.pi**2) if args.poly == "1+x+y+z" else 0.0
    ok = abs(estimate - target) < args.tol
    doc = {"schema": SCHEMA, "command": "mahler",
           "records": [{"poly": args.poly, "samples": args.samples, "seed": args.seed,
                        "estimate": estimate,
                        "stderr": stderr if math.isfinite(stderr) else None,  # inf at one sample
                        "target": target, "abs_error": abs(estimate - target)}],
           "ok": ok}
    return doc, 0 if ok else 1


# ---------------------------------------------------------------------------


def positive_float(text: str) -> float:
    """argparse type for --tol: a finite, positive float."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return tol


def sample_count(text: str) -> int:
    """argparse type for --samples: an integer in 1..MAX_MAHLER_SAMPLES."""
    samples = int(text)
    if not 1 <= samples <= MAX_MAHLER_SAMPLES:
        raise argparse.ArgumentTypeError(f"must lie in 1..{MAX_MAHLER_SAMPLES}, got {text}")
    return samples


def seed_value(text: str) -> int:
    """argparse type for --seed: a non-negative integer, as numpy's seeding needs."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charzeta",
        description="Point counts, local/global zeta functions and special values "
                    "of three conic-bundle surfaces over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, surface=True):
        if surface:
            p.add_argument("--surface", choices=SURFACE_CHOICES, default="all")
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")

    p = sub.add_parser("count", help="count rational points")
    add_common(p)
    p.add_argument("--p", type=int, required=True, help="prime characteristic")
    p.add_argument("--n", type=int, default=1, help="extension degree")
    p.add_argument("--space", choices=SPACES + ("all",), default="biprojective")
    p.add_argument("--method", choices=("brute", "fiberwise", "formula", "all"), default="all")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta", help="local zeta factors: Euler factor vs fiberwise counts")
    add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--space", choices=SPACES, default="biprojective")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", help="verify the global zeta factorisation per prime")
    add_common(p)
    p.add_argument("--primes", default="2..199", help="range a..b or a single prime")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("special", help="reproduce the special-value table")
    add_common(p, surface=False)
    p.add_argument("--tol", type=positive_float, default=1e-6)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("singular", help="list singular points of a surface")
    add_common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_singular)

    p = sub.add_parser("mahler", help="Monte Carlo Mahler measure")
    add_common(p, surface=False)
    p.add_argument("--poly", choices=("1+x+y+z", "1"), default="1+x+y+z")
    p.add_argument("--samples", type=sample_count, default=10**6)
    p.add_argument("--seed", type=seed_value, default=42)
    p.add_argument("--tol", type=positive_float, default=5e-3)
    p.set_defaults(func=cmd_mahler)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    numpy is first imported inside mahler, the one command that builds
    arrays, and on import OpenBLAS starts a worker thread per core unless
    OPENBLAS_NUM_THREADS says otherwise.  charzeta makes no BLAS call, so
    main sets that variable to 1 before it dispatches, unless it is already
    set; importing charzeta as a library leaves the environment alone.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        doc, code = args.func(args)
    except (UsageError, ValueError) as exc:  # FieldError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(_emit(doc, args.format))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); Python flushes stdout again at exit,
        # so point it at devnull to keep that flush from raising as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
