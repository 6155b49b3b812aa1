"""Import on first use: ``"module:attr"`` targets and lazy re-exports.

Two forms of one idea — name the code now, import it when it is needed:

* :func:`resolve` turns a ``"module:attr"`` string into the object.  The
  CLI names its subcommand handlers and experiments this way.
* :func:`lazy_exports` builds a package ``__getattr__`` (PEP 562).  A
  package ``__init__`` that re-exports its submodules' names eagerly makes
  ``import package.light_submodule`` pay for every heavy sibling; with
  ``__getattr__ = lazy_exports(__name__, {...})`` the names stay importable
  from the package (``from repro.fft import get_plan``) but each
  submodule loads on first access.

``lazy_exports`` is not for names an outside tool reads from
``vars(module)`` after a plain import — ``benchmarks/e2e/ledger.py`` does
that for its ``TARGETS``; none of them lives in a package that uses it.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["resolve", "lazy_exports"]


def resolve(target: str):
    """The object a ``"module:attr"`` string names (imports the module)."""
    module, _, attr = target.partition(":")
    return getattr(importlib.import_module(module), attr)


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A module ``__getattr__`` for ``exports``: submodule -> names it provides."""
    module_of = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = module_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
