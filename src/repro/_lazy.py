"""PEP 562 lazy re-exports for package roots.

A package root that re-exports names from its submodules would otherwise
import all of them (and NumPy, and networkx) the moment anything below it is
imported -- ``import repro.experiments.cli`` would pay for the whole
topology, SIMD and experiment stack before running a single shard.  The
package roots instead install the module-level ``__getattr__`` / ``__dir__``
pair built here: a public name is imported from its defining module the
first time it is read, so ``from repro import StarGraph`` works exactly as
before and costs only what it names.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Callable, List, Mapping, Tuple

__all__ = ["import_path", "lazy_exports"]


def import_path(name: str) -> ModuleType:
    """Import the module at dotted path *name* and return it.

    Uses ``__import__`` -- the import statement's own machinery -- so the
    import shows up in ``python -X importtime`` output, which CI reads;
    :func:`importlib.import_module` loads the module without a log line.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair of a package with lazy re-exports.

    Parameters
    ----------
    package : str
        The package's ``__name__``.
    exports : mapping of str to str
        Public name -> dotted path of the module defining it.  A name that
        maps to ``f"{package}.{name}"`` is that submodule itself; it is
        imported by path, because ``getattr`` on the half-initialised package
        would re-enter this ``__getattr__``.

    Returns
    -------
    tuple of callables
        Assign them to the package's ``__getattr__`` and ``__dir__``.
        ``__getattr__`` raises :class:`AttributeError` for names outside
        *exports*; ``__dir__`` lists the package globals plus every export.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        if module == f"{package}.{name}":
            return import_path(module)
        return getattr(import_path(module), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
