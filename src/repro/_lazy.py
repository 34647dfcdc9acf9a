"""Lazy package namespaces: a public name imports its submodule on first use.

A package ``__init__`` that eagerly imports every submodule makes each
``import repro`` pay for numpy and all six engines, including the service
process that only routes HTTP requests.  :func:`lazy_exports` gives a
package a PEP 562 ``__getattr__`` instead.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, Mapping


def exports_of(groups: Mapping[str, Iterable[str]]) -> Dict[str, str]:
    """``{submodule: names}`` turned into ``{name: submodule}``."""
    return {name: module for module, names in groups.items() for name in names}


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``.

    A name in ``exports`` imports its submodule and is cached on the
    package; any other public name that is a submodule imports it, as an
    eager ``__init__`` would have.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is not None:
            value = getattr(import_module("." + module, package), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            try:
                return import_module("." + name, package)
            except ModuleNotFoundError as exc:
                if exc.name != "{}.{}".format(package, name):
                    raise
        raise AttributeError(
            "module {!r} has no attribute {!r}".format(package, name)
        )

    return __getattr__
