"""Dynamic logic over deterministic models, and the route into it.

The formulas are those of ``polkit.syntax``; the names below give them
their dynamic-logic reading (``Atom`` is ``syntax.Prop``, ``print_dpdl``
is ``syntax.print_formula``, and so on). ``core`` has the flattening
construction rules, the parser entry point, models and the checker;
``translate`` the bubble encoding of observation logic; ``solver`` the
two-regime satisfiability procedure; ``oracle`` the brute-force
cross-check; and ``polsat`` the end-to-end decision procedures for
observation logic.
"""

from ..syntax import (
    And, Box, Dia, Not, Or, Top, box, closure, dia, lnot, top,
    Formula as DpdlFormula, Prop as Atom,
    formula_key as dpdl_key, formula_size as dpdl_size,
    letters as dpdl_letters, print_formula as print_dpdl,
)
from .core import (
    DpdlModel, atom, dpdl_check, iff, implies, land, lor, parse_dpdl,
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
