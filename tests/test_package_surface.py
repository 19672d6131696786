"""The package holds what the pipeline runs.

Every public top-level function or class of ``src/qtwostage``, and every
public method, must be referenced by name somewhere in the package outside
its own definition.  A name only the tests call belongs in
``tests/oracles.py`` or in the test itself.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qtwostage"

# Names the package keeps without a caller of its own, each with its reason.
ALLOWED = {
    "qaoa.final_state": "perfbench traces it; calls = 0 shows the pipeline "
                        "never simulates the full register",
    "statevec.expectation_diagonal": "perfbench traces it by name",
}


def _names(node) -> Counter:
    """How often each name appears as a Name or an Attribute under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree):
    """(qualified name, node) of the public top-level functions and classes
    and of the public methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, kinds)
                        and not item.name.startswith("_"))


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    everywhere = sum(map(_names, trees.values()), Counter())

    unreferenced = sorted(
        f"{module}.{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if everywhere[node.name] == _names(node)[node.name]
    )
    # an allowed name that gains a caller, or goes, leaves the list too
    assert unreferenced == sorted(ALLOWED), \
        f"without a caller in the package: {', '.join(unreferenced)}"


def _traced() -> set:
    """The ``module.func`` names perfbench's tracer wraps."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("SPANNED", "COUNTED")}
    return set(lists["SPANNED"] + lists["COUNTED"])


def test_every_allowed_name_is_traced():
    """Each allowance rests on perfbench's tracer naming the function."""
    traced = _traced()
    assert set(ALLOWED) <= traced, sorted(set(ALLOWED) - traced)


def test_every_traced_name_resolves():
    """Renaming or inlining a traced function breaks the traced benchmark
    run; it must break a test first."""
    missing = []
    for target in sorted(_traced() | {"qaoa.minimize"}):
        module, func = target.split(".")
        if not hasattr(importlib.import_module(f"qtwostage.{module}"), func):
            missing.append(target)
    assert not missing, f"traced but not defined: {', '.join(missing)}"
