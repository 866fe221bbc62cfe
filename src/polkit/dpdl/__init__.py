"""Dynamic logic over deterministic models, and the route into it.

``core`` has the formula language, models, and checker; ``translate``
the bubble encoding of observation logic; ``solver`` the two-regime
satisfiability procedure; ``oracle`` the brute-force cross-check; and
``polsat`` the end-to-end decision procedures for observation logic.
"""

from .core import (
    DpdlFormula, Top, Atom, Not, Or, And, Dia, Box,
    top, atom, lnot, lor, land, dia, box, implies, iff,
    closure, dpdl_size, dpdl_letters,
    print_dpdl, parse_dpdl, dpdl_key,
    DpdlModel, dpdl_check,
)
from .oracle import brute_dpdl_sat
from .polsat import decode_bts, pol_bounded_sat, pol_sat
from .solver import Sat, Unknown, Unsat, dpdl_sat
from .translate import LabelBudget, Translation, full_budget

__all__ = [
    "DpdlFormula", "Top", "Atom", "Not", "Or", "And", "Dia", "Box",
    "top", "atom", "lnot", "lor", "land", "dia", "box", "implies", "iff",
    "closure", "dpdl_size", "dpdl_letters",
    "print_dpdl", "parse_dpdl", "dpdl_key",
    "DpdlModel", "dpdl_check",
    "LabelBudget", "Translation", "full_budget",
    "Sat", "Unsat", "Unknown", "dpdl_sat",
    "brute_dpdl_sat",
    "pol_sat", "pol_bounded_sat", "decode_bts",
]
