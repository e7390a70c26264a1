"""The public API is what the command line, the benchmark and library users call.

Every name in ``wavegrowth.__all__``, and in each module's ``__all__``,
is read by a module of the package other than its own definition, by the
benchmark outside its tests, or is an entry point the README lists; the
README's API table holds exactly ``wavegrowth.__all__``.  Inside the package, the quadrature engine is used through
its ``__all__``, its batch settler and its Gauss-Legendre rule only.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import wavegrowth

ROOT = Path(__file__).resolve().parents[1]


def _loaded_names(path: Path) -> set[str]:
    """Names and attributes a file reads, leaving out each top-level
    function's and class's own name inside its definition; imports and
    ``__all__`` strings read nothing."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        used |= names
    return used


def _users() -> set[str]:
    src = [p for p in (ROOT / "src" / "wavegrowth").glob("*.py") if p.name != "__init__.py"]
    bench = [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
    assert src and bench
    return set().union(*(_loaded_names(p) for p in src + bench))


def _readme_api() -> tuple[dict[str, list[str]], list[str]]:
    """The README's Public API table, module -> names, and its entry points."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    table, entry = {}, []
    for line in section.splitlines():
        if line.startswith("| `") or line.startswith("| package"):
            module, names = (cell.strip() for cell in line.strip("|").split("|"))
            table[module.strip("`")] = re.findall(r"`(\w+)`", names)
        elif line.startswith("Entry points:"):
            entry = re.findall(r"`(\w+)`", line)
    return table, entry


def test_every_public_name_has_a_user_or_is_an_entry_point():
    _, entry = _readme_api()
    assert entry and set(entry) <= set(wavegrowth.__all__)
    users = _users()
    assert [name for name in wavegrowth.__all__ if name not in users and name not in entry] == []


def test_every_module_name_has_a_user_or_is_an_entry_point():
    """The rule of ``wavegrowth.__all__`` holds for each module's ``__all__``:
    a name only the tests read is not public."""
    _, entry = _readme_api()
    users = _users()
    unused = {}
    for path in sorted((ROOT / "src" / "wavegrowth").glob("*.py")):
        if path.name != "__init__.py":
            names = importlib.import_module(f"wavegrowth.{path.stem}").__all__
            unused[path.stem] = [name for name in names if name not in users and name not in entry]
    assert len(unused) == 8
    assert {module: names for module, names in unused.items() if names} == {}


def test_the_readme_lists_the_public_api():
    table, _ = _readme_api()
    listed = [name for names in table.values() for name in names]
    assert sorted(listed) == sorted(wavegrowth.__all__)
    for module, names in table.items():
        if module != "package":
            assert set(names) <= set(getattr(wavegrowth, module).__all__), module


def test_submodules_keep_their_names():
    """``wavegrowth.local_energy`` is the module; no function shadows it."""
    for module in ("profiles", "quadrature", "spectral", "bounds", "oracles", "analysis", "local_energy"):
        assert isinstance(getattr(wavegrowth, module), types.ModuleType), module


def _taken_from(module: str) -> dict[str, set[str]]:
    """The names each other module of ``src/`` imports from ``module`` or reads as its attributes."""
    taken = {}
    for path in (ROOT / "src" / "wavegrowth").glob("*.py"):
        if path.name == f"{module}.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == module:
                taken.setdefault(path.name, set()).update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
                taken.setdefault(path.name, set()).add(node.attr)
    return taken


def test_modules_import_only_the_quadrature_api():
    """Outside ``quadrature.py``, ``src/`` takes from the engine its
    ``__all__``, the batch settler and the Gauss-Legendre rule, and nothing
    of its partition or analysis: every frequency-side integral runs on the
    one engine."""
    allowed = set(wavegrowth.quadrature.__all__) | {"_settled", "_NODES", "_WEIGHTS"}
    taken = _taken_from("quadrature")
    assert taken
    assert {name: sorted(names - allowed) for name, names in taken.items() if names - allowed} == {}


def test_modules_take_from_spectral_only_its_integrand_factories():
    """Outside ``spectral.py``, ``src/`` takes from ``spectral`` its
    ``__all__``, the pair reduction and the two integrand factories: the
    chain links get their terms from the reduced spectrum, not from its
    parts."""
    allowed = set(wavegrowth.spectral.__all__) | {"reduce_pair", "wave_integrands", "field_integrands"}
    taken = _taken_from("spectral")
    assert taken
    assert {name: sorted(names - allowed) for name, names in taken.items() if names - allowed} == {}
