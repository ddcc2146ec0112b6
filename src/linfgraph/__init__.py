"""Exact decision toolkit for realizing edge-weighted graphs in
low-dimensional max-norm space.

The public names below load their submodule on first access (PEP 562), so
a command that never searches or classifies never compiles `realizability`
or `minors`.  The records they return are plain classes on one shared
base, with no methods generated at import, because every CLI process
compiles and sets up the package afresh."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapExceeded", "InputError"),
    "graph_core": (
        "DistanceFunction", "GenericityReport", "Graph", "ValidationReport", "Violation",
        "blocks", "is_generic", "validate_distance_function",
    ),
    "realizability": (
        "Cover", "FinfBounds", "Orientation", "Potential", "Realization", "SearchOutcome",
        "VerifyResult", "build_realization", "decide_realizable", "finf_bounds",
        "min_dimension", "verify_realization", "vertex_cover_number",
    ),
    "minors": (
        "Classification", "MinorEmbedding", "certificate_exceeds_2", "classify_dim2",
        "contains_minor", "pullback_points",
    ),
    "instances": (
        "Tree", "k4ek4_witness", "k7_generic", "linf2_to_l1_2", "named_graph",
        "random_distance_function", "tk4_instance", "w4_witness",
    ),
    "serialize": (
        "cover_from_obj", "cover_to_obj", "embedding_from_obj", "embedding_to_obj",
        "instance_from_obj", "instance_to_obj", "load_certificate", "load_instance",
        "realization_from_obj", "realization_to_obj", "render_dot", "save_certificate",
        "save_instance",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # An unknown name raises AttributeError, so that `from linfgraph import
    # minors` falls through to importing the submodule.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without this call
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
