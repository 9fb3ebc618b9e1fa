"""Exact extremal analysis of degree-based topological indices over polyomino chains.

The package computes, for any degree-based index given by its six
degree-pair values, the maximum or minimum index value over all
polyomino chains with n squares, one witness chain in time linear in n,
and the complete set of extremal chains in output-sensitive time.  All
of it runs in exact rational arithmetic whenever the index table is
rational; an exhaustive small-n oracle provides independent ground
truth.
"""

from .chains import (
    LinkVector,
    az1_chain,
    az2_family,
    canonical_reversal,
    edge_degree_multiset,
    linear_chain,
    realize,
    segments,
    zigzag_chain,
)
from .indices import (
    DEFAULT_EPS,
    DEGREE_PAIRS,
    FLOAT,
    PRESET_NAMES,
    RATIONAL,
    IncrementTable,
    IndexFunction,
    Value,
    as_decimal_string,
    as_exact_string,
    evaluate_direct,
    evaluate_recursive,
    force_float,
    increment_table,
    load_custom_index,
    negate,
    preset,
    values_equal,
)
from .dp import (
    CASE_LINEAR_ALWAYS,
    CASE_LINEAR_FROM_4,
    CASE_NOT_APPLICABLE,
    CASE_ZIGZAG_THEN_LINEAR,
    ClassifierVerdict,
    DPTable,
    ExtremalResult,
    classify,
    enumerate_maximal,
    maximize,
    minimize,
    run_dp,
)
from .azi import (
    ChainFamilyReport,
    VerificationReport,
    azi_extremal_chains,
    azi_extremal_report,
    azi_max_closed_form,
    verify_azi_maximum,
    verify_azi_minimum,
)
from .oracle import DEFAULT_CAP, OracleReport, cross_check, exhaustive

__version__ = "0.1.0"

__all__ = [
    "LinkVector",
    "az1_chain",
    "az2_family",
    "canonical_reversal",
    "edge_degree_multiset",
    "linear_chain",
    "realize",
    "segments",
    "zigzag_chain",
    "DEFAULT_EPS",
    "DEGREE_PAIRS",
    "FLOAT",
    "PRESET_NAMES",
    "RATIONAL",
    "IncrementTable",
    "IndexFunction",
    "Value",
    "as_decimal_string",
    "as_exact_string",
    "evaluate_direct",
    "evaluate_recursive",
    "force_float",
    "increment_table",
    "load_custom_index",
    "negate",
    "preset",
    "values_equal",
    "CASE_LINEAR_ALWAYS",
    "CASE_LINEAR_FROM_4",
    "CASE_NOT_APPLICABLE",
    "CASE_ZIGZAG_THEN_LINEAR",
    "ClassifierVerdict",
    "DPTable",
    "ExtremalResult",
    "classify",
    "enumerate_maximal",
    "maximize",
    "minimize",
    "run_dp",
    "ChainFamilyReport",
    "VerificationReport",
    "azi_extremal_chains",
    "azi_extremal_report",
    "azi_max_closed_form",
    "verify_azi_maximum",
    "verify_azi_minimum",
    "DEFAULT_CAP",
    "OracleReport",
    "cross_check",
    "exhaustive",
    "__version__",
]
