"""Digests of the mathematical results in charzeta CLI output.

Each output record is reduced to a whitelist of result fields (counts,
factor multisets and pass verdicts, singular point sets, special-value
orders and coefficients, the Mahler estimate) and hashed.  Keys outside
the whitelist are ignored, so records may gain provenance fields without
tripping the check, while a changed count changes the digest.
"""

from __future__ import annotations

import hashlib
import json

SURFACES = ("L0", "L1", "L2")
SPACES = ("affine", "biprojective", "nonaffine")
METHODS = ("brute", "fiberwise", "formula")
FLOAT_DIGITS = 10   # significant digits kept of a floating-point result


def _num(x):
    return f"{x:.{FLOAT_DIGITS}e}" if isinstance(x, float) else x


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _verify_record(rec):
    spaces = {}
    for space, item in rec["spaces"].items():
        spaces[space] = {"euler": item.get("euler"), "recovered": item.get("recovered"),
                         "pass": item.get("pass")}
    key = f"verify {rec['surface']} p={rec['p']}"
    return key, {"pass": rec["pass"], "spaces": spaces,
                 "fiberwise_vs_formula": rec["fiberwise_vs_formula"]["pass"]}


def _count_record(rec):
    if "disagreement" in rec:
        return f"count {rec['surface']} {rec['space']} disagreement", rec["disagreement"]
    key = f"count {rec['surface']} q={rec['p']}^{rec['n']} {rec['space']} {rec['method']}"
    return key, {"count": rec["count"]}


def _singular_record(rec):
    field = rec["field"]
    key = f"singular {rec['surface']} q={field['p']}^{field['n']}"
    points = sorted(json.dumps(pt, sort_keys=True) for pt in rec["points"])
    return key, {"count": rec["count"], "points": points}


def _special_record(rec):
    key = f"special {rec['surface']} s0={rec['s0']}"
    return key, {"order": rec["order_got"], "coeff": _num(rec["coeff_got"]),
                 "pass": rec["pass"]}


def _mahler_record(rec):
    key = f"mahler {rec['poly']} samples={rec['samples']} seed={rec['seed']}"
    return key, {"estimate": _num(rec["estimate"])}


def record_digests(doc: dict) -> dict[str, str]:
    """Map each record of a CLI JSON document to its result digest."""
    command = doc["command"]
    out = {}
    for rec in doc["records"]:
        if command == "verify":
            key, value = _verify_record(rec)
        elif command == "count":
            key, value = _count_record(rec)
        elif command == "singular":
            key, value = _singular_record(rec)
        elif command == "special":
            key, value = _special_record(rec)
        elif command == "mahler":
            key, value = _mahler_record(rec)
        else:
            raise ValueError(f"no digest rule for command {command!r}")
        out[key] = _digest(value)
    return out


# record keys an invocation is expected to produce, by command


def verify_keys(primes):
    return [f"verify {s} p={p}" for s in SURFACES for p in primes]


def count_keys(p, n, spaces=SPACES):
    return [f"count {s} q={p}^{n} {space} {m}"
            for s in SURFACES for space in spaces for m in METHODS]


def singular_keys(p, n):
    return [f"singular {s} q={p}^{n}" for s in SURFACES]


def special_keys():
    return [f"special {s} s0={s0}" for s in SURFACES for s0 in (0, 1, 2)]


def mahler_keys(samples, seed):
    return [f"mahler 1+x+y+z samples={samples} seed={seed}"]


def check_output(code: int, stdout: bytes, expect, reference: dict) -> str | None:
    """None if the invocation's output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    try:
        doc = json.loads(stdout)
        digests = record_digests(doc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if doc.get("ok") is not True:
        return '"ok" is not true'
    if set(digests) != set(expect):
        missing = sorted(set(expect) - set(digests))[:3]
        extra = sorted(set(digests) - set(expect))[:3]
        return f"record keys differ: missing {missing}, unexpected {extra}"
    for key in expect:
        if key not in reference:
            return f"no reference digest for {key!r}"
        if digests[key] != reference[key]:
            return f"digest mismatch for {key!r}"
    return None
