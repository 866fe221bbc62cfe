"""Tools for public observation logic.

Epistemic models where every state expects a regular language of
observations; announcements of observation words prune and residuate the
model. The package provides the observation-expression algebra, formula
parsing and model checking, bubble transition structures, and a
satisfiability procedure through a translation into a deterministic
variant of PDL.
"""

__version__ = "0.1.0"
