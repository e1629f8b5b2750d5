"""Exact computer algebra for germs of holomorphic vector fields at the origin.

Coefficients live in Q(i), all arithmetic is exact, and every jet-level answer
carries its certification degree.  See the README for the CLI and the module
docstrings for the individual subsystems.

Importing the package loads none of its submodules: each name below is
imported from its submodule on first use (PEP 562) and then kept here, so a
process pays only for the subsystems it touches.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "gaussian": ("GaussianRational", "gq", "I", "ONE", "ZERO"),
    "series": (
        "DimensionMismatchError", "GermError", "PolySeries", "TermLimitError",
        "TruncationError", "Weight", "poly_divides",
    ),
    "fields": (
        "OneFormJet", "VectorFieldJet", "divergence", "dual_form", "hamiltonian_field",
        "lie_bracket", "quasi_decompose", "radial_field", "wedge", "weighted_euler",
    ),
    "centralizer": (
        "CentralizerReport", "CertifiedJet", "FirstIntegralReport", "Resonance",
        "TableRow", "ad_kernel", "extendable_jet_dimension",
        "first_integral_kernel", "generic_rank", "linear_centralizer_table", "resonances",
        "span_matches",
    ),
    "blowup": (
        "BlownUpField", "CHART_SLOPE_X", "CHART_SLOPE_Y", "DicriticalResult", "LinearClass",
        "ResolutionNode", "SingularPoint", "classify_linear", "classify_singularity",
        "dicritical_test", "divisor_singularities", "is_isolated_singularity", "resolve",
        "strict_transform", "translate_to_point",
    ),
    "integrability": (
        "LogDecomposition", "LogDecompositionResult", "MeromorphicRatio", "RationalOneForm",
        "cauchy_riemann_pair", "closedness_check", "dual_pair", "integrating_factor_check",
        "invariance_check", "log_decomposition", "meromorphic_first_integral_check",
    ),
    "parsing": (
        "ParseError", "field_to_text", "one_form_to_text", "parse_field", "parse_one_form",
        "parse_poly", "parse_ratio", "poly_to_text", "ratio_to_text",
    ),
}
# exported name -> the submodule that defines it
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
