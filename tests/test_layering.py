"""Which padland module may import which, read from the source with ast.

Each file format and each check has one owning module, and `cli` only
parses arguments, calls the library and writes; these tests keep it so.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "padland"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def imports(module: str) -> dict[str, set[str]]:
    """The padland modules that module imports from, each with the names
    it binds from them (empty for a plain `import padland.x`)."""
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("padland."):
                    found.setdefault(alias.name.removeprefix("padland."), set())
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.level == 0 and node.module and node.module.startswith("padland."):
                found.setdefault(node.module.removeprefix("padland."), set()).update(names)
            elif node.level == 1 and node.module:
                found.setdefault(node.module, set()).update(names)
            elif node.level == 1 or node.module == "padland":  # from . import x
                for name in names:
                    found.setdefault(name, set())
    return found


def test_cli_imports_only_the_layers_it_dispatches_to():
    found = imports("cli")
    assert {"config", "harness", "reporting"} <= set(found)  # the reader finds imports at all
    assert set(found) <= {"config", "harness", "reporting", "stats", "gating", "servo"}
    # bench/spans.py wraps these two names on padland.cli; nothing in cli calls them
    assert found.get("gating", set()) <= {"select_expert"}
    assert found.get("servo", set()) <= {"compute_errors"}


def test_experts_defines_no_log_layout():
    tree = ast.parse((SRC / "experts.py").read_text())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    assert not {name for name in defined if name.startswith("LOG_")}
    assert not defined & {"_detection", "replay_detect"}


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("cli", "__main__")])
def test_no_module_imports_cli(module):
    # __main__ is `python -m padland`, the command line's other entry point
    assert "cli" not in imports(module)
