"""Exact local calculus for first-order-regular connections on the formal disc.

Public names resolve on first access (PEP 562): ``import opercalc`` loads no
submodule, and ``opercalc.normalize`` or ``from opercalc import normalize``
loads only the submodules that name needs.
"""

__version__ = "0.1.0"

# defining submodule -> the public names it contributes
_PUBLIC = {
    "errors": (
        "IdentityCheckError", "InsufficientTruncationError", "MalformedInputError",
        "NotAnOperError", "OperCalcError", "PreconditionError",
    ),
    "series": ("Density", "LaurentSeries"),
    "kernels": ("BiKernel",),
    "lie": ("LieModel", "invariants", "model", "moduli_dimension"),
    "diffops": (
        "DiffOp", "PseudoSymbol", "compose", "diffop_from_kernel", "kernel_from_diffop",
        "lie_action", "lie_derivative", "pairing", "pseudo_invert", "symbols", "to_plain",
        "transpose",
    ),
    "gauge": (
        "CanonicalForm", "GaugeElement", "OperConnection", "classify_singularity",
        "desingularize", "embed_sl2", "gauge_apply", "gauge_compose", "gauge_inverse",
        "hitchin_map", "identity_gauge", "normalize", "normalize_singular",
    ),
    "dictionary": (
        "FlaggedSystem", "as_flagged", "companion_system", "companion_torus",
        "diffop_from_oper", "dualize", "flag_gram", "oper_from_diffop", "sl2_to_o3",
        "so_even_build", "so_even_conditions", "so_even_extract", "verify_flag_pairing",
    ),
}
_EXPORTS = {name: mod for mod, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "matrices", "record", "serialize"}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    from importlib import import_module

    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
