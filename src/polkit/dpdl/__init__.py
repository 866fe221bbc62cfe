"""Dynamic logic over deterministic models, and the route into it.

The formulas are those of ``polkit.syntax``; four names give them
their dynamic-logic reading: ``Atom`` is ``syntax.Prop``, ``atom`` is
``syntax.prop``, ``dpdl_size`` is ``syntax.formula_size`` and
``print_dpdl`` is ``syntax.print_formula``. ``core`` has the flattening
construction rules, the parser entry point, models and the checker;
``translate`` the bubble encoding of observation logic; ``solver`` the
two-regime satisfiability procedure; ``polsat`` the end-to-end
decision procedure for observation logic; and ``oracle`` both
brute-force cross-checks, one for each logic.
"""

from ..syntax import (
    And, Box, Dia, Not, Or, Top, box, closure, dia, lnot, top,
    Prop as Atom, formula_size as dpdl_size, print_formula as print_dpdl,
    prop as atom,
)
from .core import (
    DpdlModel, dpdl_check, iff, implies, land, lor, parse_dpdl,
)
from .oracle import brute_dpdl_sat, pol_bounded_sat
from .polsat import decode_bts, pol_sat
from .solver import Sat, Unknown, Unsat, dpdl_sat
from .translate import LabelBudget, Translation, full_budget

__all__ = [
    "Top", "Atom", "Not", "Or", "And", "Dia", "Box",
    "top", "atom", "lnot", "lor", "land", "dia", "box", "implies", "iff",
    "closure", "dpdl_size", "print_dpdl", "parse_dpdl",
    "DpdlModel", "dpdl_check",
    "LabelBudget", "Translation", "full_budget",
    "Sat", "Unsat", "Unknown", "dpdl_sat",
    "brute_dpdl_sat",
    "pol_sat", "pol_bounded_sat", "decode_bts",
]
