"""The package exports only names that something besides their own tests
uses: library code, the benchmark harness, or the acceptance criteria."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIB = ROOT / "src" / "wedgecrys"
MODULES = {path.stem for path in LIB.glob("*.py")} | {"wedgecrys"}


def _exports() -> list:
    """Every name `wedgecrys/__init__.py` imports from a library module or
    defines itself."""
    out = []
    for node in ast.parse((LIB / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            out += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
    return out


def _references(path: Path, outside: bool) -> set:
    """The identifiers a file uses: its names, and the attributes it reads
    off a library module.  Outside the library every attribute counts, as
    does every string constant: the benchmark reaches the package through
    its own handles and traces functions it names as strings.  A function
    does not use its own name: a recursive call, or a method calling the
    method of that name on another object, is no caller."""
    refs = set()

    def visit(node, enclosing):
        if isinstance(node, ast.FunctionDef):
            enclosing = enclosing | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute) and (outside or getattr(node.value, "id", None) in MODULES):
            name = node.attr
        elif outside and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in enclosing:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(path.read_text()), frozenset())
    return refs


def test_every_export_has_a_caller_outside_its_own_tests():
    # a definition is not a use: its name is no Name node
    used = _references(ROOT / "tests" / "test_acceptance.py", True)
    for path in LIB.glob("*.py"):
        if path.stem != "__init__":
            used |= _references(path, False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _references(path, True)
    unused = [name for name in _exports() if name not in used]
    assert not unused, f"exported but used only by their own tests: {unused}"


def _public_methods() -> list:
    """(class, method) for every public method of a class in `rings.py` and
    of `graded.GradedRing`."""
    classes = [node for node in ast.parse((LIB / "rings.py").read_text()).body
               if isinstance(node, ast.ClassDef)]
    classes += [node for node in ast.parse((LIB / "graded.py").read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "GradedRing"]
    return [(cls.name, node.name) for cls in classes for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_ring_method_has_a_caller_outside_its_own_tests():
    # a method is called off an instance, so every attribute a file reads
    # counts, in library code as outside it
    used = _references(ROOT / "tests" / "test_acceptance.py", True)
    for path in [*LIB.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        used |= _references(path, True)
    unused = [f"{cls}.{name}" for cls, name in _public_methods() if name not in used]
    assert not unused, f"ring methods used only by their own tests: {unused}"
