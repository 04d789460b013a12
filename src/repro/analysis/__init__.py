"""Analyses that regenerate the paper's tables and figures."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {"tables": ("format_table",)},
    submodules=("characterization", "evaluation", "sensitivity", "validation"),
)
