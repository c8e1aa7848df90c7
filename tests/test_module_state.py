"""No module-level mutable state, no ``global`` and no threading in uminflow.

Each module of the package is parsed with ast.  A module-level name may not
be bound to a mutable literal, a comprehension or a call; no function may
rebind a module name with ``global``; and ``threading`` may appear only in
the value of a module-level binding on the allow-list.  The allow-list is
empty: every cache belongs to an object its caller owns.  The test fails on
a stale entry too, so the list can only shrink.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "uminflow"
ALLOWED: set[tuple[str, str]] = set()
_MUTABLE = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp,
    ast.GeneratorExp, ast.Call,
)


def _mutable(value: ast.expr) -> bool:
    if isinstance(value, ast.Tuple):
        return any(_mutable(e) for e in value.elts)
    return isinstance(value, _MUTABLE)


def _findings(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for each offending binding, or a description with its
    line for a use that binds no module-level name."""
    found = set()
    bound_in: dict[int, list[str]] = {}  # id(node) -> names its binding binds
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and stmt.value:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if _mutable(stmt.value):
                found |= {(module, name) for name in names}
            bound_in |= {id(node): names for node in ast.walk(stmt.value)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found |= {(module, name) for name in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            found.add((module, f"from threading import at line {node.lineno}"))
        elif isinstance(node, ast.Import) and any(
            a.name == "threading" and a.asname for a in node.names
        ):
            found.add((module, f"import threading as at line {node.lineno}"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "threading"
        ):
            names = bound_in.get(id(node))
            where = [f"threading.{node.attr} at line {node.lineno}"]
            found |= {(module, name) for name in names or where}
    return found


def test_module_state_is_only_the_allow_list():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _findings(path.stem, ast.parse(path.read_text()))
    assert not found - ALLOWED, "module-level state or threading outside the allow-list"
    assert not ALLOWED - found, "stale allow-list entries: drop them"


@pytest.mark.parametrize(
    "source",
    [
        "CACHE = []",
        "TABLE = {k: 0 for k in range(3)}",
        "PAIR = (1, set())",
        "BUILDER = Builder()",
        "def grow():\n    global COUNT\n    COUNT = 1",
        "import threading\ndef run():\n    threading.Thread(target=run).start()",
        "from threading import Lock",
        "import threading as t",
    ],
)
def test_guard_flags(source):
    assert _findings("m", ast.parse(source))


@pytest.mark.parametrize(
    "source",
    [
        "CAP = 1 << 16",
        "CHUNKS = (1, 2, 3)",
        "Pred = Callable[[Sequence[int]], bool]",
        "def f():\n    cache = []\n    return cache",
    ],
)
def test_guard_passes(source):
    assert not _findings("m", ast.parse(source))
