"""Every public name of the library is reached by the library itself.

A public function or class, or a public method, that nothing in
`src/anelastic_lab` refers to outside its own definition is surface that
only tests reach: an option or path no command exercises.  Each one must
be referenced elsewhere in `src/`, listed in `cli.__all__` (the entry
points), or wrapped by the benchmark tracer (`perfbench/tracing.py`
TARGETS).  The package `__init__`'s `__all__` does not count: exporting a
name is not using it.  The check is by name, so a method counts as
reached when any attribute of that name is read, except an attribute of
numpy (`np.zeros` reaches no `zeros` of the library), and only so: a bare
name, such as a local variable, reaches a function or class but no method.
ALLOWED lists the rest, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "anelastic_lab"

ALLOWED = {
    "hydrostatics.constant_profile": "the flat reference profile the acceptance gates use",
}


def traced_targets() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(t.id == "TARGETS" for t in node.targets):
            return {f"{mod}.{attr}" for mod, attr in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each public top-level def/class and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def references(tree: ast.Module):
    """(name, line, is an attribute) of every name and attribute read in the module, but
    numpy's attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute) and not (
            isinstance(node.value, ast.Name) and node.value.id == "np"
        ):
            yield node.attr, node.lineno, True


def exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreached() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    exports = exported(trees["cli"])
    traced = traced_targets()
    missing = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(module, tree):
            if qualified in traced or (node in tree.body and name in exports):
                continue
            inside, method = range(node.lineno, node.end_lineno + 1), node not in tree.body
            if not any(
                ref == name and (attribute or not method) and (other != module or line not in inside)
                for other, found in refs.items()
                for ref, line, attribute in found
            ):
                missing.append(qualified)
    return missing


def test_every_public_name_is_reached_by_the_library():
    assert sorted(set(unreached()) - ALLOWED.keys()) == []


def test_every_allowed_name_still_needs_its_entry():
    assert sorted(ALLOWED.keys() - set(unreached())) == []
