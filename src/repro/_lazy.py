"""Lazy package exports (PEP 562): an export's module loads on first use.

Every package ``__init__`` in the tree re-exports its public names
through :func:`lazy_exports`, so ``import repro.experiments`` costs one
small module and ``repro.experiments.SweepRunner`` loads the runner
(and only what the runner imports) when it is first read.  A command
therefore compiles just the layers it runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str,
    exports: dict[str, tuple[str, ...]],
    submodules: tuple[str, ...] = (),
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """The ``__getattr__``, ``__dir__`` and ``__all__`` of a lazy package.

    ``exports`` maps a submodule (relative to ``package``) to the names
    it defines that the package re-exports; ``submodules`` are exported
    as modules themselves.  A name is imported on first access and then
    bound in the package, so later reads are plain attribute reads.
    """
    sources = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }
    sources.update({name: f"{package}.{name}" for name in submodules})

    def __getattr__(name: str) -> object:
        try:
            source = sources[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(source)
        value = module if name in submodules else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(sources))

    return __getattr__, __dir__, sorted(sources)
