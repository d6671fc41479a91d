"""The mutation tool's mutants: every kind is generated, and each mutant
applies and undoes in place."""

import ast
import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

_TOY = '''
def f(a, b):
    if a < b and a is not None:
        return -a + 2 - b
    return +a
'''


def test_each_kind_is_generated_and_round_trips():
    tree = ast.parse(_TOY)
    source = ast.unparse(tree)
    seen = {}
    for where, what, apply, undo in mutants.mutants(tree):
        apply()
        mutated = ast.unparse(tree)
        undo()
        assert ast.unparse(tree) == source, what
        assert mutated != source, what
        seen[what] = mutated
    # - a + 2 - b parses as ((-a) + 2) - b
    assert seen == {
        "2 -> 3": source.replace("+ 2", "+ 3"),
        "< -> >=": source.replace("a < b", "a >= b"),
        "is not -> is": source.replace("is not None", "is None"),
        "- -> +": source.replace("+ 2 - b", "+ 2 + b"),
        "+ -> -": source.replace("-a + 2", "-a - 2"),
        "unary - -> +": source.replace("return -a", "return +a"),
    }
