"""Source fingerprints for cache invalidation.

A cached :class:`~repro.experiments.base.ExperimentResult` is only
valid while the code that produced it is unchanged.  "The code" for one
experiment is its module plus the transitive closure of every
``repro.*`` module it imports — the config/model/analysis sources the
simulation actually exercises.  This module computes that closure
**statically** (by parsing ``import`` statements with :mod:`ast`, never
executing anything) and hashes the source bytes of each member.

The closure over-approximates in two deliberate ways:

* a ``from repro.pkg import name`` pulls in ``repro.pkg.name`` when it
  resolves to a module file, and ``repro.pkg`` itself either way;
* every ancestor package ``__init__.py`` of a member is included, with
  its own imports, since package import runs its init code.

A package ``__init__`` that re-exports lazily (a ``_LAZY`` name table
read by a module ``__getattr__``) hides its targets from this scan.  So
no module under ``src/repro`` imports a lazy name through its package
(``tests/test_imports.py`` checks this); it imports the defining module.

Over-approximation only ever invalidates a cache entry that was still
valid — never the reverse.
"""

from __future__ import annotations

import ast
import functools
import hashlib
from pathlib import Path
from typing import Dict, Optional, Tuple

import repro

#: Directory that contains the ``repro`` package (``src/`` in-tree).
DEFAULT_PACKAGE_ROOT = Path(repro.__file__).resolve().parent.parent


def _module_file(name: str, package_root: Path) -> Optional[Path]:
    """File implementing dotted module ``name``, or None if absent.

    Resolution is purely path-based (``repro.a.b`` → ``repro/a/b.py``
    or ``repro/a/b/__init__.py``) so no module is ever imported while
    fingerprinting.
    """
    path = package_root.joinpath(*name.split("."))
    module = path.with_suffix(".py")
    if module.is_file():
        return module
    package = path / "__init__.py"
    if package.is_file():
        return package
    return None


@functools.lru_cache(maxsize=1024)
def _repro_imports(source: str) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
    """``(module, names)`` per ``repro.*`` import statement in ``source``.

    ``names`` is empty for ``import repro.x``.  Memoised on the source
    text (one entry per module version, a few hundred at most): keying
    every experiment re-scans the same few dozen modules, and parsing
    them is most of a key's cost.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    found.append((alias.name, ()))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                continue  # repro uses absolute imports throughout
            if module == "repro" or module.startswith("repro."):
                found.append((module, tuple(alias.name for alias in node.names)))
    return tuple(found)


def _imported_modules(source: str, package_root: Path):
    """Yield dotted names of every ``repro.*`` module ``source`` imports."""
    for module, names in _repro_imports(source):
        yield module
        for name in names:
            # ``from repro.pkg import name``: include the submodule
            # when ``name`` is one, otherwise the attr lives in
            # ``repro.pkg`` which is already yielded above.
            candidate = f"{module}.{name}"
            if _module_file(candidate, package_root) is not None:
                yield candidate


def source_closure(
    module_name: str, package_root: Optional[Path] = None
) -> Dict[str, Path]:
    """Map every module in ``module_name``'s static import closure to its file.

    Includes ``module_name`` itself and the ``__init__.py`` of every
    ancestor package of every member.  Unknown modules raise
    ``ModuleNotFoundError`` only for the root; unresolvable imports
    inside the closure are skipped (they can't contribute source).
    """
    root = Path(package_root) if package_root is not None else DEFAULT_PACKAGE_ROOT
    start = _module_file(module_name, root)
    if start is None:
        raise ModuleNotFoundError(f"cannot locate source for {module_name!r} under {root}")
    closure: Dict[str, Path] = {}
    pending = [(module_name, start)]
    while pending:
        name, path = pending.pop()
        if name in closure:
            continue
        closure[name] = path
        # Ancestor package __init__ files run at import time too, and
        # so do their own imports.
        parts = name.split(".")
        for depth in range(1, len(parts)):
            ancestor = ".".join(parts[:depth])
            ancestor_file = _module_file(ancestor, root)
            if ancestor_file is not None and ancestor not in closure:
                pending.append((ancestor, ancestor_file))
        for imported in _imported_modules(path.read_text(encoding="utf-8"), root):
            if imported not in closure:
                imported_file = _module_file(imported, root)
                if imported_file is not None:
                    pending.append((imported, imported_file))
    return closure


def fingerprint(module_name: str, package_root: Optional[Path] = None) -> str:
    """Stable hex digest over the source bytes of the import closure.

    Changes whenever any member module's source changes, a member is
    added/removed from the closure, or a module is renamed.
    """
    closure = source_closure(module_name, package_root)
    digest = hashlib.sha256()
    for name in sorted(closure):
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(closure[name].read_bytes()).digest())
    return digest.hexdigest()
