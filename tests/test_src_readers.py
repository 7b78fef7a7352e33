"""Every public function and class of the package has a reader inside the
package: a route that only tests read belongs in `tests/`, beside the test
that compares against it.  The few exceptions are named below, each with
its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opilab"

NO_SRC_READER = {
    # acceptance-only quantities, kept in the package by design
    "count_rate_report", "f_bar_max", "improvement_density_boundary", "inner_product",
    "llr_rate_threshold", "moments_match_check",
    # read by the benchmark (perfbench/)
    "largest_root",
    # a reference route the tests compare the package's own routes against
    "feasible",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _public_definitions(trees):
    return {(name, node.name) for name, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _read_names(trees):
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return read


def test_every_public_definition_has_a_src_reader():
    trees = _trees()
    read = _read_names(trees)
    unread = sorted(f"{module}:{name}" for module, name in _public_definitions(trees)
                    if name not in read and name not in NO_SRC_READER)
    assert unread == []


def test_every_exception_is_still_defined_and_still_unread():
    # an exception that gains a reader or loses its definition is dropped here
    trees = _trees()
    defined = {name for _, name in _public_definitions(trees)}
    assert NO_SRC_READER <= defined
    assert NO_SRC_READER.isdisjoint(_read_names(trees))
