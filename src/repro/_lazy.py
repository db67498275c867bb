"""Lazy package re-exports (PEP 562 module ``__getattr__``).

A package ``__init__`` lists its public names in a ``_LAZY`` dict
literal, name -> defining module, and binds::

    __getattr__, __dir__ = lazy_exports(__name__, _LAZY)

A name's module is imported on first access and the value cached in
the package namespace, so later lookups cost nothing.  An entry point
then compiles only the modules it uses.

Code under ``src/repro`` imports a lazy name from its defining module,
never through the package: the result cache's static import closure
(:mod:`repro.exec.fingerprint`) cannot see through a ``_LAZY`` table.
``tests/test_imports.py`` checks both rules.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, table: Dict[str, str]) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package``, re-exporting ``table`` lazily."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
