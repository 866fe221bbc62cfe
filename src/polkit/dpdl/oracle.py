"""Exhaustive search over small deterministic models.

The searches here are deliberately naive. They exist to cross-check
the solver on small inputs, so they share nothing with it beyond the
model checker.
"""

from __future__ import annotations

from itertools import product

from .. import syntax as sx
from . import core as dc
from .solver import Sat, Unknown

__all__ = ["brute_dpdl_sat"]


def _subsets(pool):
    pool = list(pool)
    for mask in range(2 ** len(pool)):
        yield frozenset(p for i, p in enumerate(pool) if mask >> i & 1)


def brute_dpdl_sat(f: sx.Formula, max_states: int = 3,
                   atom_pool=None):
    """Try every deterministic model up to ``max_states`` states.

    Valuations draw on ``atom_pool`` (default: the atoms of ``f``);
    transitions range over all partial successor functions. Returns
    ``Sat`` with the first witness in a fixed deterministic order, or
    ``Unknown``: exhausting the bound proves nothing beyond it.
    """
    if atom_pool is None:
        atom_pool = sorted(sx.props(f))
    else:
        atom_pool = sorted(atom_pool)
    letters = sorted(sx.letters(f))
    for k in range(1, max_states + 1):
        states = tuple(range(k))
        pairs = [(s, a) for s in states for a in letters]
        targets = [None] + list(states)
        for trans_choice in product(targets, repeat=len(pairs)):
            trans = {pair: t
                     for pair, t in zip(pairs, trans_choice)
                     if t is not None}
            for val_choice in product(list(_subsets(atom_pool)), repeat=k):
                val = dict(zip(states, val_choice))
                model = dc.DpdlModel(states, trans, val, alphabet=letters)
                for s in states:
                    if dc.dpdl_check(model, s, f):
                        return Sat(model, s)
    return Unknown(f"no model with at most {max_states} states")
