"""Every module-level import of the itrsbench modules is used, no module
imports a private (underscore) name from another, and every public
top-level function or class is referenced somewhere.

`__init__.py` is exempt from the first check: it imports names to
re-export them.  A name counts as used when it appears as a name in the
module's code, including annotations, which `from __future__ import
annotations` leaves unevaluated but still parsed, and quoted annotations.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "itrsbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = PACKAGE.parent.parent
CODE = [
    p
    for d in ("src", "tests", "bench", "scripts")
    for p in sorted((ROOT / d).rglob("*.py"))
    if p.name != "__init__.py"
]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their lines."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= used_names(ast.parse(part.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    """Function-local imports count too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "itrsbench")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private, f"{path.name}: imports private names {sorted(private)}"


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """terms.record makes the package's records: the dataclasses module,
    and the inspect module it pulls in, cost a cold start about 20 ms.
    Function-local imports count too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in modules, f"{path.name} imports dataclasses"


def referenced_names(node: ast.AST) -> set[str]:
    """Names and attribute names in node's code, plus string constants
    that are identifiers (names looked up with getattr, quoted types)."""
    out = used_names(node)
    for part in ast.walk(node):
        if isinstance(part, ast.Attribute):
            out.add(part.attr)
        elif isinstance(part, ast.Constant) and isinstance(part.value, str):
            if part.value.isidentifier():
                out.add(part.value)
    return out


def test_every_public_name_is_referenced():
    """A public top-level function or class of the package is referenced
    in src, tests, bench or scripts, outside its own definition; the
    re-exports of __init__.py do not count."""
    statements = []  # (path, top-level statement, names it references)
    for path in CODE:
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path, stmt, referenced_names(stmt)) for stmt in tree.body]
    dead = [
        f"{path.name}: {stmt.name}"
        for path, stmt, _names in statements
        if path.parent == PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for _p, other, names in statements if other is not stmt)
    ]
    assert not dead, f"defined but never referenced: {dead}"


# The functions of src/ that may read a term's raw-graph export (.nodes)
# or its node numbering (node_numbers): the export itself, the places
# that hand a raw graph to from_nodes, and the outputs that name nodes by
# number.  Every other reader walks store nodes.
NUMBERED = {
    "terms.py": {"RationalTerm.__reduce__", "_flat_view", "to_text"},
    "metrics.py": {"simple_cycles", "is_member"},
    "layers.py": {"principal_cycles"},
    "rewriting.py": {"erase_indirection", "rename_symbols"},
    "cli.py": {"cmd_layers"},
}


def scopes(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The top-level functions and methods of a module, by name
    (Class.method for a method)."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            out += [(f"{stmt.name}.{f.name}", f) for f in stmt.body
                    if isinstance(f, ast.FunctionDef)]
        elif isinstance(stmt, ast.FunctionDef):
            out.append((stmt.name, stmt))
    return out


def numbered_readers(tree: ast.Module) -> set[str]:
    """The top-level functions and methods (Class.method) whose code reads
    an attribute .nodes or the name node_numbers."""
    return {
        name for name, scope in scopes(tree) for node in ast.walk(scope)
        if (isinstance(node, ast.Attribute) and node.attr == "nodes")
        or (isinstance(node, ast.Name) and node.id == "node_numbers")
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_boundary_reads_node_numbers(path):
    """No second, index-numbered model of a term grows back in src/."""
    tree = ast.parse(path.read_text(), filename=str(path))
    extra = numbered_readers(tree) - NUMBERED.get(path.name, set())
    assert not extra, f"{path.name}: read .nodes or node_numbers: {sorted(extra)}"


# The functions of src/ that may bind a Tarjan low-link table: sccs, the
# one search for strongly connected components, and parse, which reads
# the low-link off the text's scoping instead of searching.
LOW_LINKS = {("terms.py", "sccs"), ("terms.py", "parse")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_sccs_and_parse_keep_a_low_link(path):
    """No second Tarjan grows back in src/: a name low is bound only in
    terms.sccs and terms.parse."""
    tree = ast.parse(path.read_text(), filename=str(path))
    binders = {
        name for name, scope in scopes(tree) for node in ast.walk(scope)
        if (isinstance(node, ast.Name) and node.id == "low" and isinstance(node.ctx, ast.Store))
        or (isinstance(node, ast.arg) and node.arg == "low")
    }
    extra = {(path.name, name) for name in binders} - LOW_LINKS
    assert not extra, f"{path.name}: binds a low-link table: {sorted(extra)}"


# The functions of src/ that may expand a term's successors: Reach, the
# one memo of the successor relation that weak reachability reads,
# reduction_graph, which keeps each expanded term's successors as its
# edges, and the two one-step checks of a pair of terms.
SUCCESSOR_CALLERS = {
    ("rewriting.py", "Reach._step"), ("convergence.py", "reduction_graph"),
    ("convergence.py", "_steps_between"), ("convergence.py", "_parallel_step"),
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_reach_and_the_graph_expand_successors(path):
    """No second memo of the successor relation grows back in src/: the
    name successors is read only in Reach, reduction_graph,
    _steps_between and _parallel_step."""
    tree = ast.parse(path.read_text(), filename=str(path))
    readers = {
        name for name, scope in scopes(tree) for node in ast.walk(scope)
        if (isinstance(node, ast.Name) and node.id == "successors")
        or (isinstance(node, ast.Attribute) and node.attr == "successors")
    }
    extra = {(path.name, name) for name in readers} - SUCCESSOR_CALLERS
    assert not extra, f"{path.name}: expands successors: {sorted(extra)}"


COMPONENTS = {"Scale", "Pow", "Cap", "Compose"}
TRIPLE_READERS = {"_exponent_map", "_pure_shift", "_positive_limit"}


def test_the_exponent_side_reads_one_triple():
    """In metrics.py, each component class adds only its _affine triple
    on the exponent side, besides its value map and its text:
    on_exponent and exponent_below are each defined once, on the shared
    base, and the readers of the triple test no component class with
    isinstance."""
    tree = ast.parse((PACKAGE / "metrics.py").read_text())
    defined = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert defined.count("on_exponent") == defined.count("exponent_below") == 1
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in COMPONENTS:
            methods = {d.name for d in node.body if isinstance(d, ast.FunctionDef)}
            assert methods == {"__call__", "__str__", "_affine"}, node.name
        elif isinstance(node, ast.FunctionDef) and node.name in TRIPLE_READERS:
            tested = {
                name.id
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "isinstance"
                for name in ast.walk(call.args[1])
                if isinstance(name, ast.Name)
            }
            assert not tested & COMPONENTS, (node.name, tested)
