"""Every public name in ``src/repro`` earns its place.

A public top-level function or class must be used by the program (a
reference from some module of ``src/repro`` other than its own body, where a
package ``__init__``'s re-exports and ``__all__`` strings do not count), by
an example script, or be named in the docs (``docs/*.md`` or ``README.md``,
inside inline code or a fenced block).  The few names only the tests use --
parity oracles and documented library entry points -- are listed in
``ALLOWED`` with the reason they stay.  A name that no longer qualifies is
dead code: delete it with its tests rather than adding it here.

The second check imports every module and resolves each name of its
``__all__``, so a stale export fails here instead of in whichever tool walks
``__all__`` first.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

# name -> why it stays although nothing in src/, examples/ or docs/ uses it.
ALLOWED = {
    "lehmer_code": "parity oracle of the rank kernels (tests/permutations/test_rank_kernels.py)",
    "PaperMeshReshapeEmbedding": (
        "the only check of the Appendix's dilation-1 reshape; wiring it into APP "
        "changes APP's payload, deferred (ROADMAP item 12)"
    ),
}

_GETATTR_LIKE = {"getattr", "hasattr", "setattr"}


def _module_paths():
    return sorted(SRC.rglob("*.py"))


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _referenced_names(tree: ast.AST) -> Counter:
    """Names a tree uses: loads, attributes and getattr-style string keys."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _GETATTR_LIKE
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names[node.args[1].value] += 1
    return names


def _public_definitions():
    """``(name, module path, own references)`` of every public top-level def."""
    for path in _module_paths():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    yield node.name, path, _referenced_names(node)[node.name]


def _source_references() -> Counter:
    names: Counter = Counter()
    for path in _module_paths():
        names += _referenced_names(ast.parse(path.read_text(), filename=str(path)))
    return names


def _example_references() -> set:
    names = set()
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= set(_referenced_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


# Fenced blocks, and inline code that may wrap onto the next line of a paragraph.
_CODE = re.compile(r"```.*?```|`(?:[^`\n]|\n(?!\n))+`", re.DOTALL)
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _doc_references() -> set:
    pages = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
    names = set()
    for page in pages:
        for span in _CODE.findall(page.read_text()):
            names.update(_IDENTIFIER.findall(span))
    return names


def test_every_public_definition_is_used_documented_or_allowed():
    in_source = _source_references()
    elsewhere = _example_references() | _doc_references()
    unused = sorted(
        f"{path.relative_to(REPO_ROOT)}: {name}"
        for name, path, own in _public_definitions()
        if in_source[name] - own <= 0 and name not in elsewhere and name not in ALLOWED
    )
    assert not unused, (
        "public names nothing in src/, examples/ or docs/ uses; delete them "
        "(or, for a parity oracle or documented entry point, add them to "
        f"ALLOWED with the reason): {unused}"
    )


def test_allow_list_names_exist_and_are_still_needed():
    in_source = _source_references()
    elsewhere = _example_references() | _doc_references()
    defined = {}  # name -> every definition of it is used without the allow-list
    for name, path, own in _public_definitions():
        used = in_source[name] - own > 0 or name in elsewhere
        defined[name] = defined.get(name, True) and used
    missing = sorted(set(ALLOWED) - set(defined))
    redundant = sorted(name for name in ALLOWED if defined.get(name))
    assert not missing, f"ALLOWED names no definition: {missing}"
    assert not redundant, f"ALLOWED entries that are used anyway: {redundant}"


@pytest.mark.parametrize(
    "module_name", sorted({_module_name(path) for path in _module_paths()})
)
def test_every_all_entry_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what it does not define: {missing}"
