"""Traffic check: the lines of src/charzeta that no CLI invocation runs.

Usage (from any directory):

    python3 tools/traffic.py                    # bench reference invocations, mahler left out
    python3 tools/traffic.py "singular --surface L0 --p 3" "count --p 5 --method brute"

Each argument is one charzeta CLI argv, split as a shell splits it.  The
invocations run one after another in this process, under sys.settrace
and threading.settrace so that pool threads are traced too; their stdout
and stderr are discarded.  With no argument the invocations are those of
bench/workloads.py's reference_invocations() but mahler, whose 10^7
samples run in numpy, not in traced lines; bench/ is only read.

It prints each invocation with its exit code, then, per module, the
executable lines (those the compiler maps bytecode to) that no invocation
ran, as ranges.  A claim that code is dead, or that one command alone
reaches it, is checked by running the commands and reading the module's
ranges.  Tracing slows the CLI about fivefold.  Standard library only.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "charzeta")


def reference_argvs() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads
    return [list(inv.argv) for inv in workloads.reference_invocations()
            if inv.argv[0] != "mahler"]


def executable_lines(path: str) -> set[int]:
    with open(path) as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    return lines


def run_traced(argvs) -> tuple[list[int], dict[str, set[int]]]:
    """Exit codes of the argvs, and the lines run in each module of the package."""
    ran = {}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            ran[os.path.join(PACKAGE, name)] = set()
    sys.path.insert(0, os.path.dirname(PACKAGE))
    codes = []
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        from charzeta.cli import main  # the imports are traffic too
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    codes.append(main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return codes, ran


def unrun_ranges(executable: set[int], ran: set[int]) -> list[list[int]]:
    """Maximal runs of executable lines not in ran, each [first, last]."""
    out, extend = [], False
    for line in sorted(executable):
        if line in ran:
            extend = False
        elif extend:
            out[-1][1] = line
        else:
            out.append([line, line])
            extend = True
    return out


def main(args) -> int:
    argvs = [shlex.split(arg) for arg in args] or reference_argvs()
    codes, ran = run_traced(argvs)
    for argv, code in zip(argvs, codes):
        print(f"exit {code}: {shlex.join(argv)}")
    for path in sorted(ran):
        executable = executable_lines(path)
        spans = ", ".join(str(a) if a == b else f"{a}-{b}"
                          for a, b in unrun_ranges(executable, ran[path]))
        print(f"{os.path.relpath(path, ROOT)}: {len(executable - ran[path])} of "
              f"{len(executable)} lines not run" + (f": {spans}" if spans else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
