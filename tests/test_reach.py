"""Every public top-level name of ``src/matbisim`` is reached: some other
definition of the package uses it, or README's Library section names it as
library API.  ``generate.py``, which README documents as a whole module, is
exempt, and ``__init__.py`` re-exports without reaching anything.  A name
that only tests or scripts use belongs in ``tests/references.py`` or
nowhere."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def unreached(sources: dict[str, str], readme: str) -> list[str]:
    """``module.name`` of each unreached definition in ``sources``, the
    text of each module by name."""
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    named = {w for span in re.findall(r"`([^`]*)`", library) for w in re.findall(r"\w+", span)}
    defined, used = [], set()
    for module, text in sorted(sources.items()):
        if module == "__init__":
            continue
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = [node.name]
            else:
                own = [t.id for t in getattr(node, "targets", [getattr(node, "target", None)]) if isinstance(t, ast.Name)]
            if module != "generate":
                defined += [f"{module}.{name}" for name in own if not name.startswith("_")]
            used.update(name for name in _names(node) if name not in own)
    return [name for name in defined if name.split(".")[1] not in used | named]


def _package():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "matbisim").glob("*.py")}
    return sources, (ROOT / "README.md").read_text()


def test_every_public_name_is_reached_or_documented():
    assert unreached(*_package()) == []


@pytest.mark.parametrize(
    "definition", ["def orphan():\n    pass\n", "class orphan:\n    pass\n", "orphan = 1\n"], ids=["def", "class", "constant"]
)
def test_an_unused_name_is_listed_until_reached_or_documented(definition):
    sources, readme = _package()
    sources["algebra"] += definition
    assert unreached(sources, readme) == ["algebra.orphan"]
    # a use in another module, or a mention in the Library section, reaches it
    assert unreached({**sources, "lts": sources["lts"] + "algebra.orphan\n"}, readme) == []
    assert unreached(sources, readme.replace("## Library\n", "## Library\n`orphan`\n")) == []
    # a re-export does not
    assert unreached({**sources, "__init__": "from .algebra import orphan\n"}, readme) == ["algebra.orphan"]
