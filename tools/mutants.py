"""Mutation check: which small edits of one module a pytest selection catches.

Usage (from any directory):

    python3 tools/mutants.py            # globalzeta.py against its two test files
    python3 tools/mutants.py --module src/charzeta/localzeta.py tests/test_localzeta.py

The module path is relative to the repository root; the positional
arguments are the pytest selection, relative to it too (default
tests/test_globalzeta.py tests/test_specialvalues.py).  Each mutant
changes one node of the module's syntax tree: an integer literal k becomes
k + 1; a comparison operator becomes its negation (< and >=, <= and >,
== and !=, is and is not, in and not in); a binary + becomes - and a
binary - becomes + (augmented assignments are left alone); or a unary -
becomes +.  The mutated module is written with ast.unparse into a copy of
src/ and tests/ under a temporary directory, never into the repository,
and the selection runs there as `python3 -m pytest -x -q -p
no:cacheprovider`, for at most TIMEOUT_S seconds.  The unmutated module,
written the same way, must pass first.

It prints one line per mutant: its line and column, the mutation and
whether the selection killed it (failed), let it survive (passed) or timed
out; then the totals.  A surviving mutant is either a gap in the tests or an
equivalent program.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 300  # per mutant; the default selection passes in about 6 s

_NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
            ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
            ast.In: ast.NotIn, ast.NotIn: ast.In}
_SYMBOL = {ast.Lt: "<", ast.GtE: ">=", ast.LtE: "<=", ast.Gt: ">", ast.Eq: "==",
           ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
           ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-"}
_SIGN = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def mutants(tree: ast.Module):
    """Yield ((line, column), description, apply, undo) for each mutation of tree."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, int)
                and not isinstance(node.value, bool)):
            k = node.value
            yield ((node.lineno, node.col_offset), f"{k} -> {k + 1}",
                   lambda n=node, k=k: setattr(n, "value", k + 1),
                   lambda n=node, k=k: setattr(n, "value", k))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flipped = _NEGATED[type(op)]
                what = f"{_SYMBOL[type(op)]} -> {_SYMBOL[flipped]}"
                yield ((node.lineno, node.col_offset), what,
                       lambda n=node, i=i, f=flipped: n.ops.__setitem__(i, f()),
                       lambda n=node, i=i, op=op: n.ops.__setitem__(i, op))
        elif isinstance(node, ast.BinOp) and type(node.op) in _SIGN:
            op, flipped = node.op, _SIGN[type(node.op)]
            yield ((node.lineno, node.col_offset), f"{_SYMBOL[type(op)]} -> {_SYMBOL[flipped]}",
                   lambda n=node, f=flipped: setattr(n, "op", f()),
                   lambda n=node, op=op: setattr(n, "op", op))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            yield ((node.lineno, node.col_offset), "unary - -> +",
                   lambda n=node: setattr(n, "op", ast.UAdd()),
                   lambda n=node, op=node.op: setattr(n, "op", op))


def run_selection(copy: str, selection: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
            cwd=copy, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timed out"
    # 1: a test failed; 2: collection or import failed; 0: all passed
    return {0: "survived", 1: "killed", 2: "killed"}.get(done.returncode,
                                                         f"error (pytest exit {done.returncode})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--module", default="src/charzeta/globalzeta.py")
    parser.add_argument("selection", nargs="*",
                        default=["tests/test_globalzeta.py", "tests/test_specialvalues.py"])
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, args.module)) as fh:
        tree = ast.parse(fh.read())
    tally: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as copy:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(copy, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        target = os.path.join(copy, args.module)

        def write():
            with open(target, "w") as fh:
                fh.write(ast.unparse(tree) + "\n")

        write()
        baseline = run_selection(copy, args.selection)
        if baseline != "survived":
            print(f"unmutated module: {baseline}; the selection must pass first", file=sys.stderr)
            return 2
        for (line, col), what, apply, undo in sorted(mutants(tree), key=lambda m: m[0]):
            apply()
            write()
            undo()
            verdict = run_selection(copy, args.selection)
            tally[verdict] = tally.get(verdict, 0) + 1
            print(f"{args.module}:{line}:{col + 1}: {what}: {verdict}", flush=True)
    print(f"{sum(tally.values())} mutants: "
          + ", ".join(f"{n} {verdict}" for verdict, n in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
