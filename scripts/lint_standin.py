#!/usr/bin/env python
"""A stdlib-only approximation of the lint gate, for hosts without ruff/mypy.

CI's lint job runs ``ruff check``; the containers this code is written in
have neither ruff nor mypy installed, so for several PRs the gate was only
ever met in CI.  This script runs where the code is written.  Per file it

* byte-compiles the source (what ``compileall`` does, minus the ``.pyc``
  litter): syntax errors and compile-time errors such as ``return`` outside a
  function;
* reports imports that nothing in the file uses (pyflakes F401) and local
  variables that are assigned and never read (F841), honouring ``# noqa``,
  ``__all__``, quoted annotations and the ``__init__.py`` re-export exemption
  of ``pyproject.toml``;
* reports lines longer than ``[tool.ruff] line-length`` (E501).

It is deliberately narrower than ruff — no undefined-name or redefinition
analysis — so a clean run here does not replace the real gate, it makes a
red one there unlikely.

Usage::

    python scripts/lint_standin.py [PATH ...]   # default: src tests benchmarks examples scripts
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "scripts")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_ANNOTATION_MAX = 200


def line_length() -> int:
    match = re.search(r"^line-length\s*=\s*(\d+)", (ROOT / "pyproject.toml").read_text(), re.M)
    return int(match.group(1)) if match else 88


def names_used(tree: ast.AST) -> set[str]:
    """Every identifier the tree reads: names, ``__all__`` entries, quoted annotations."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A short string may be a forward reference (``"Arena | None"``)
            # or an ``__all__`` entry; identifiers inside it count as uses.
            # Docstrings are longer and must not keep an import alive.
            if len(node.value) < _ANNOTATION_MAX:
                used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", node.value))
    return used


def unused_imports(tree: ast.Module, noqa: set[int]) -> list[tuple[int, str]]:
    used = names_used(tree)
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node.lineno in noqa:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if alias.asname is not None and alias.asname == alias.name:
                continue  # ``import x as x``: an explicit re-export
            if bound not in used:
                findings.append((node.lineno, f"F401 {alias.name!r} imported but unused"))
    return findings


def _own_nodes(function: ast.AST):
    """Nodes of ``function``'s own scope: nested functions and classes are opaque."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(tree: ast.Module, noqa: set[int]) -> list[tuple[int, str]]:
    findings = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, int] = {}
        escaping: set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                escaping.update(node.names)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigned.setdefault(node.target.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.setdefault(node.name, node.lineno)
        # Reads anywhere below, closures included, keep a local alive; so
        # does ``x += 1``, which reads x before it stores it.
        read: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
        if "locals" in read:
            continue
        for name, lineno in assigned.items():
            if name not in read and name not in escaping and not name.startswith("_") and lineno not in noqa:
                findings.append((lineno, f"F841 local variable {name!r} is assigned to but never used"))
    return findings


def check_file(path: Path, limit: int) -> list[str]:
    try:
        shown = path.resolve().relative_to(ROOT)
    except ValueError:
        shown = path
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
        compile(tree, str(path), "exec")
    except (SyntaxError, ValueError) as exc:
        return [f"{shown}:{getattr(exc, 'lineno', 0) or 0}: E999 {exc}"]
    lines = source.splitlines()
    noqa = {i for i, line in enumerate(lines, 1) if "# noqa" in line}
    findings = [
        (i, f"E501 line too long ({len(line)} > {limit})")
        for i, line in enumerate(lines, 1)
        if len(line) > limit and i not in noqa
    ]
    if path.name != "__init__.py":  # package façades re-export (pyproject per-file-ignores)
        findings += unused_imports(tree, noqa)
    findings += unused_locals(tree, noqa)
    return [f"{shown}:{lineno}: {message}" for lineno, message in sorted(findings)]


def python_files(arguments: list[str]) -> list[Path]:
    files: list[Path] = []
    for argument in arguments or list(DEFAULT_PATHS):
        path = ROOT / argument  # an absolute argument replaces ROOT
        if path.is_dir():
            files.extend(p for p in sorted(path.rglob("*.py")) if "__pycache__" not in p.parts)
        elif path.suffix == ".py" and path.exists():
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    limit = line_length()
    files = python_files(argv)
    problems = [finding for path in files for finding in check_file(path, limit)]
    if problems:
        print("\n".join(problems), file=sys.stderr)
    print(f"lint stand-in: {len(files)} files, {len(problems)} findings (line-length {limit})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
