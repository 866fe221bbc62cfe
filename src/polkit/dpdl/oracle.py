"""Exhaustive search over small models: the two brute-force cross-checks.

``brute_dpdl_sat`` tries every small deterministic model of dynamic
logic, and ``pol_bounded_sat`` every small model of observation logic
with expectations drawn from a fixed pool. The searches here are
deliberately naive. They exist to cross-check the solver and
``pol_sat`` on small inputs, so they share nothing with them beyond
the model checkers.
"""

from __future__ import annotations

from itertools import product

from .. import models as md
from .. import obsregex as ox
from .. import syntax as sx
from ..errors import InvalidInput
from . import core as dc
from .solver import Sat, Unknown

__all__ = ["brute_dpdl_sat", "pol_bounded_sat"]


def _subsets(pool):
    pool = list(pool)
    for mask in range(2 ** len(pool)):
        yield frozenset(p for i, p in enumerate(pool) if mask >> i & 1)


def _check_max_states(max_states) -> None:
    # not isinstance: a bool is an int to it, but no count of states
    if type(max_states) is not int or max_states < 1:
        raise InvalidInput(f"max_states must be a positive integer, "
                           f"not {max_states!r}")


def brute_dpdl_sat(f: sx.Formula, max_states: int = 3):
    """Try every deterministic model up to ``max_states`` states.

    Valuations draw on the atoms of ``f``; transitions range over all
    partial successor functions. Returns ``Sat`` with the first witness
    in a fixed deterministic order, or ``Unknown``: exhausting the bound
    proves nothing beyond it. ``max_states`` must be a positive ``int``,
    else ``InvalidInput``. ``f`` meets ``dpdl_check``'s refusals once,
    before the search, and its evaluator reads each candidate.
    """
    _check_max_states(max_states)
    dc._check_formula(f)
    atoms = sorted(sx.props(f))
    letters = sorted(sx.letters(f))
    for k in range(1, max_states + 1):
        states = tuple(range(k))
        pairs = [(s, a) for s in states for a in letters]
        targets = [None] + list(states)
        for trans_choice in product(targets, repeat=len(pairs)):
            trans = {pair: t
                     for pair, t in zip(pairs, trans_choice)
                     if t is not None}
            for val_choice in product(list(_subsets(atoms)), repeat=k):
                val = dict(zip(states, val_choice))
                model = dc.DpdlModel(states, trans, val, alphabet=letters)
                ev = dc._evaluator(model)
                for s in states:
                    if ev(s, f):
                        return Sat(model, s)
    return Unknown(f"no model with at most {max_states} states")


def _partitions(items):
    """All partitions of ``items``, each a tuple of sorted blocks."""
    items = list(items)
    if not items:
        return [()]
    head, rest = items[0], items[1:]
    out = []
    for sub in _partitions(rest):
        out.append(((head,),) + sub)
        for i, block in enumerate(sub):
            grown = tuple(sorted(block + (head,)))
            out.append(sub[:i] + (grown,) + sub[i + 1:])
    return out


def pol_bounded_sat(phi: sx.Formula, max_states: int = 2, pool=None):
    """Exhaustive search over models of at most ``max_states`` states.

    Expected observations are drawn from ``pool`` (default: just the
    empty word); an entry that is not an ``ObsExpr`` raises
    ``InvalidInput``, and expressions with an empty language are
    skipped, since ``Model`` refuses them. Returns the first satisfying
    model and state in a fixed deterministic order, else ``Unknown``:
    the bound and pool are restrictions, so exhausting them proves
    nothing. ``max_states`` must be a positive ``int``, else
    ``InvalidInput``.
    """
    sx._check_depth(phi)
    _check_max_states(max_states)
    if pool is None:
        pool = (ox.epsilon(),)
    pool = tuple(pool)
    for e in pool:
        if not isinstance(e, ox.ObsExpr):
            raise InvalidInput(f"pool entry {e!r} is not an observation "
                               f"expression")
    pool = tuple(e for e in pool if not ox.is_empty_language(e))
    letters = set(sx.letters(phi))
    for e in pool:
        letters |= ox.atoms(e)
    alphabet = ox.Alphabet(sorted(letters) or ["a"])
    agents = sorted(sx.agents(phi))
    names = sorted(sx.props(phi))
    for k in range(1, max_states + 1):
        states = tuple(range(k))
        parts = _partitions(states)
        for exps in product(pool, repeat=k):
            exp = dict(zip(states, exps))
            for blocks in product(parts, repeat=len(agents)):
                relations = dict(zip(agents, blocks))
                for chosen in product(_subsets(names), repeat=k):
                    props = dict(zip(states, chosen))
                    model = md.Model(alphabet, agents, states, props,
                                     exp, relations)
                    for s in states:
                        if model.check(s, phi):
                            return Sat(model, s)
    return Unknown(f"no model with at most {max_states} states over "
                   f"the given pool")
