"""Lazy public names for package roots (PEP 562).

A package root that re-exports its submodules' public names would
otherwise import every submodule, and their third-party dependencies,
on ``import repro.<pkg>``. :func:`lazy_exports` builds the package's
module-level ``__getattr__`` and ``__dir__`` instead: each public name
is imported from its defining module on first access and then cached in
the package namespace, so later lookups are plain attribute reads.
``__all__``, ``from pkg import *`` and ``from pkg import name`` keep
working unchanged.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(
    namespace: dict[str, Any], exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Return ``(__getattr__, __dir__)`` for the package whose
    ``globals()`` is ``namespace``.

    ``exports`` maps each defining module to the public names it
    provides. An unknown name raises :class:`AttributeError` naming the
    package, as a plain module attribute miss does.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
