"""Exact finite-index analysis of weighting kernels of finitely presented groups.

The names below are loaded from their modules on first use (PEP 562), so
importing the package, or a submodule such as the command line, compiles
no module it does not need.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "FreeWord": "words",
    "Presentation": "words",
    "ParseError": "words",
    "NotKnotLike": "words",
    "parse_presentation": "words",
    "LaurentPoly": "laurent",
    "INFINITE": "laurent",
    "factor_over_Z": "laurent",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
