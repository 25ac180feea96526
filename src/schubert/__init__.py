"""Exact verification engine for cohomology of Schubert varieties.

Pure-Python, integer/Fraction arithmetic only: root systems in Bourbaki
numbering, Weyl groups as matrices on fundamental-weight coordinates,
Demazure operators on formal characters, and the verification sweeps the
`schubert` CLI exposes.
"""

__version__ = "0.1.0"

from .charring import (
    Character,
    adjoint_character,
    char_sorted_terms,
    char_to_str,
    demazure_along_word,
    demazure_op,
    e,
)
from .cohomology import (
    euler_char,
    h0_line,
    ss_nonempty,
)
from .coxeter import CoxeterAnalysis, analyze, is_typeA_extremal, yz_exponent
from .report import Report, canonical_json, labeling_table
from .rootsys import CartanType, Root, RootSystem, Weight, build
from .weyl import (
    GuardExceeded,
    WeylElement,
    bruhat_leq,
    coxeter_elements,
    element_order,
    enumerate_group,
    from_word,
    identity,
    longest_element,
    min_parabolic_rep,
    simple_reflection,
)

__all__ = [
    "__version__",
    "CartanType",
    "Root",
    "RootSystem",
    "Weight",
    "build",
    "GuardExceeded",
    "WeylElement",
    "bruhat_leq",
    "coxeter_elements",
    "element_order",
    "enumerate_group",
    "from_word",
    "identity",
    "longest_element",
    "min_parabolic_rep",
    "simple_reflection",
    "Character",
    "adjoint_character",
    "char_sorted_terms",
    "char_to_str",
    "demazure_along_word",
    "demazure_op",
    "e",
    "euler_char",
    "h0_line",
    "ss_nonempty",
    "CoxeterAnalysis",
    "analyze",
    "is_typeA_extremal",
    "yz_exponent",
    "Report",
    "canonical_json",
    "labeling_table",
]
