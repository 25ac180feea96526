"""Exact verification engine for cohomology of Schubert varieties.

Pure-Python, integer arithmetic throughout (``Fraction`` only at the API
edge, for rational heights and root coordinates): root systems in Bourbaki
numbering, Weyl-group elements as column heights (D ht w(omega_j))_j,
Demazure operators on formal characters, and the verification sweeps the
`schubert` CLI exposes.

The names below load their submodule on first use (PEP 562), so a
process that only evaluates a Demazure composite never imports the Weyl
group or the verifiers.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("CartanType", "GuardExceeded", "Root", "RootSystem", "Weight", "build"),
                    "rootsys"),
    **dict.fromkeys(("WeylElement", "bruhat_leq", "coxeter_elements", "enumerate_group",
                     "from_word", "identity", "longest_element", "min_parabolic_rep",
                     "ss_nonempty"), "weyl"),
    **dict.fromkeys(("Character", "adjoint_character", "char_sorted_terms", "char_to_str",
                     "demazure_along_word", "demazure_op", "e"), "charring"),
    **dict.fromkeys(("euler_char", "h0_line"), "cohomology"),
    **dict.fromkeys(("CoxeterAnalysis", "analyze", "is_typeA_extremal"), "coxeter"),
    **dict.fromkeys(("Report", "canonical_json", "labeling_table"), "report"),
}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
