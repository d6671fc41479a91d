"""Run one charzeta CLI invocation with timing wrappers around every layer.

Usage: PYTHONPATH=src python3 bench/tracer.py OUT.json ARGV...

The child imports ``charzeta.cli`` (untimed: that is set-up), wraps the
public functions of each ``charzeta`` module plus the vectorised ``Field``
kernels and ``IntPoly`` evaluators, calls ``charzeta.cli.main(ARGV)`` and
writes per-span-name aggregates to OUT.json at exit.  The program's own
files are not modified; the wrappers replace names in the loaded modules.

Spans are kept in memory per thread.  A span's self time is its duration
minus the durations of its children on the same thread.  A span opened on
a pool worker thread with no open span there takes the span open on the
main thread (the enclosing ``verify_global``) as its parent, so pool work
is attributed to it without being subtracted from its self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

from layers import KERNELS

LAYERS = ("finfield", "intpoly", "varieties", "fibercount", "localzeta",
          "globalzeta", "specialvalues", "cli")
# Class methods timed in addition to module-level public functions.
METHODS = {
    ("finfield", "Field"): ("exp_log_tables", "v_add", "v_neg", "v_mul",
                            "v_scale", "v_chi", "v_poly"),
    ("intpoly", "IntPoly"): ("eval_field", "eval_field_arrays"),
}


class Tracer:
    def __init__(self):
        self.spans = []          # (sid, parent, name, tag, tid, dur, self_s, elems)
        self.stacks = {}         # thread ident -> list of open frames
        self.main_tid = threading.main_thread().ident
        self.lock = threading.Lock()
        self.next_sid = 0
        self.table_q = {}        # (p, n) -> q of fields whose log tables were built
        self.scan_keys = set()   # distinct (surface, p, n) asked of fiberwise_totals
        self.pool_workers = 0

    def _stack(self, tid):
        stack = self.stacks.get(tid)
        if stack is None:
            stack = self.stacks[tid] = []
        return stack

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stack(tid)
        with self.lock:
            sid = self.next_sid
            self.next_sid += 1
        if stack:
            parent = stack[-1][0]
        elif tid != self.main_tid and self.stacks.get(self.main_tid):
            parent = self.stacks[self.main_tid][-1][0]
        else:
            parent = None
        frame = [sid, parent, name, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def close(self, frame, tag=None, elems=0):
        end = time.perf_counter()
        stack = self.stacks[threading.get_ident()]
        stack.pop()
        sid, parent, name, start, child = frame
        dur = end - start
        if stack:
            stack[-1][4] += dur
        self.spans.append((sid, parent, name, tag, threading.get_ident(), dur,
                           dur - child, elems))

    def aggregate(self) -> dict:
        stats = {}
        names = {}
        for sid, parent, name, tag, tid, dur, self_s, elems in self.spans:
            names[sid] = name
            key = name if tag is None else f"{name}|{tag}"
            row = stats.setdefault(key, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += self_s
            row[3] += elems
        # pool work: worker-thread root spans whose parent is a verify_global span
        busy = sum(dur for _, parent, _, _, tid, dur, _, _ in self.spans
                   if tid != self.main_tid and names.get(parent) == "globalzeta.verify_global")
        fibers = sum(p**n + 1 for _, p, n in self.scan_keys)
        return {"stats": stats, "pool_busy_s": busy, "pool_workers": self.pool_workers,
                "scans": len(self.scan_keys), "fibers": fibers,
                "table_bytes": sum(16 * q for q in self.table_q.values())}


def _field_tag(field):
    return "ext" if field.n > 1 else "prime"


def _size(result):
    return int(getattr(result, "size", 1))


def _wrap(tracer: Tracer, name: str, fn, meter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.open(name)
        tag, elems = None, 0
        try:
            result = fn(*args, **kwargs)
            if meter is not None:
                tag, elems = meter(args, kwargs, result)
            return result
        finally:
            tracer.close(frame, tag, elems)
    return wrapper


def _meters(tracer: Tracer):
    """Per-name callbacks giving a span its (tag, element count)."""
    def kernel(args, kwargs, result):
        return _field_tag(args[0]), _size(result)

    def brute_points(kind):
        def meter(args, kwargs, result):
            q = args[1].q
            if kind == "affine":
                return None, q**3
            plane = q * q + q + 1
            if kind == "biprojective":
                return None, plane * (q + 1)
            return None, plane + q * (q + 1)
        return meter

    def singular_hit(args, kwargs, result):
        return None, 1 if result else 0

    def scan_key(args, kwargs, result):
        model, field = args[0], args[1]
        sid = model if isinstance(model, str) else model.id
        tracer.scan_keys.add((sid, field.p, field.n))
        return None, 0

    def mahler_samples(args, kwargs, result):
        samples = args[1] if len(args) > 1 else kwargs.get("samples", 0)
        return None, int(samples)

    meters = {f"finfield.Field.{k}": kernel for k in KERNELS + ("v_poly",)}
    meters.update({
        "varieties.count_affine_brute": brute_points("affine"),
        "varieties.count_biprojective_brute": brute_points("biprojective"),
        "varieties.count_nonaffine_brute": brute_points("nonaffine"),
        "varieties.is_singular_point": singular_hit,
        "fibercount.fiberwise_totals": scan_key,
        "specialvalues.mahler_measure_mc": mahler_samples,
    })
    return meters


def _wrap_tables(tracer: Tracer, fn):
    """exp_log_tables: the first call for a field builds, later calls hit."""
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        key = (self.p, self.n)
        with tracer.lock:
            build = key not in tracer.table_q
            if build:
                tracer.table_q[key] = self.q
        frame = tracer.open("finfield.Field.exp_log_tables")
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.close(frame, "build" if build else "hit")
    return wrapper


def _traced_pool(tracer: Tracer, base):
    class TracedPool(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(_wrap(tracer, "globalzeta.pool.task", fn), *args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            tracer.pool_workers = max(tracer.pool_workers, len(getattr(self, "_threads", ())))
    return TracedPool


def install(tracer: Tracer) -> None:
    """Replace every reference to a layer function in the loaded modules."""
    modules = {name: importlib.import_module(f"charzeta.{name}") for name in LAYERS}
    meters = _meters(tracer)
    replace = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            target = getattr(obj, "__wrapped__", obj)
            if not inspect.isfunction(target) or target.__module__ != mod.__name__:
                continue
            if layer == "cli" and not (attr == "main" or attr.startswith("cmd_")):
                continue
            name = f"{layer}.{attr}"
            replace[id(obj)] = (obj, _wrap(tracer, name, obj, meters.get(name)))
    for (layer, cls_name), methods in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        for meth in methods:
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            if meth == "exp_log_tables":
                setattr(cls, meth, _wrap_tables(tracer, fn))
            else:
                name = f"{layer}.{cls_name}.{meth}"
                setattr(cls, meth, _wrap(tracer, name, fn, meters.get(name)))
    init = modules["finfield"].Field.__init__
    modules["finfield"].Field.__init__ = _wrap(tracer, "finfield.Field.__init__", init)
    for mod in [importlib.import_module("charzeta"), *modules.values()]:
        for attr, obj in list(vars(mod).items()):
            hit = replace.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    gz = modules["globalzeta"]
    if hasattr(gz, "ThreadPoolExecutor"):
        gz.ThreadPoolExecutor = _traced_pool(tracer, gz.ThreadPoolExecutor)


def main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    cli = importlib.import_module("charzeta.cli")
    tracer = Tracer()
    install(tracer)
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.aggregate(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
