"""Names resolved on first use, so that naming a thing does not import it.

``import repro.core.config`` runs ``repro/__init__`` and
``repro/core/__init__`` first.  Were those to import what they re-export,
every command would load the simulator (and NumPy) before it did
anything — ``--help``, ``clean`` and a service client included.  The lazy
packages (``repro``, ``repro.core``, ``repro.evaluation``,
``repro.service``) instead declare *where* each public name lives and
resolve it on first access (PEP 562)::

    _EXPORTS = {"MemPoolCluster": "core.cluster"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list]]:
    """The module-level ``(__getattr__, __dir__)`` pair of a lazy package.

    Parameters
    ----------
    package : str
        The package's ``__name__``.
    exports : Mapping[str, str]
        Public name -> defining submodule, relative to ``package``
        (``"cluster"``, ``"core.cluster"``).

    An exported name imports its submodule and returns the attribute; any
    other public name is tried as a submodule, so ``import repro.core``
    followed by ``repro.core.cluster`` keeps working as it did when the
    package imported its submodules eagerly.  Either way the value is
    stored on the package, so ``__getattr__`` runs once per name.  Unknown
    names raise :class:`AttributeError`.
    """

    def __getattr__(name: str):
        submodule = exports.get(name)
        if submodule is not None:
            value = getattr(importlib.import_module(f"{package}.{submodule}"), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise  # the submodule exists; something it imports does not
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
