"""Satisfiability for observation logic, via the bubble encoding.

``pol_sat`` translates the formula, runs the deterministic-model
solver, and reads a satisfying model back out of the witness: each
witness state decodes to a bubble whose slots carry closure labels,
the witness transitions become the observation transitions, and the
standard extraction turns that transition structure into a model whose
expected observations realize it. ``Model.check`` of the source formula
on that model is the one guard of a ``Sat``: the solver's witness is
not checked on its own, since a wrong witness that still yields a model
of the formula gives a correct verdict. A resource cap hit anywhere on
the way ends in ``Unknown``.

A non-full label budget weakens only the negative side: the encoding
can run out of slots, so its unsatisfiability then means "no model
within this many labels", reported as unknown.
"""

from __future__ import annotations

from functools import partial

from .. import bts
from .. import syntax as sx
from ..errors import ResourceBudgetExceeded, UnknownState
from . import core as dc
from . import translate
from .solver import Sat, Unknown, Unsat, _decide
from .translate import LabelBudget, Translation, full_budget

__all__ = ["pol_sat", "decode_bts"]


def _reachable(model: dc.DpdlModel, start):
    """Witness states reachable from ``start``, in visit order."""
    order = [start]
    index = {start: 0}
    for w in order:  # the order grows while it is read
        for a in model.alphabet:
            t = model.trans.get((w, a))
            if t is not None and t not in index:
                index[t] = len(order)
                order.append(t)
    return order, index


def decode_bts(t: Translation, model: dc.DpdlModel, state) -> bts.Bts:
    """Read the bubble transition structure out of a witness model.

    Each witness state is a bubble, read only through the encoding's
    own formulas at that state, by one evaluator per witness, the one
    of ``dpdl_check`` (``core._evaluator``): slot ``l`` is live where
    ``t.surv(l)`` holds, its label is the members ``psi`` whose
    ``t.at(l, psi)`` holds, and its classes per agent are
    ``t.classes``. The encoding makes every relation an equivalence, so
    the classes are read, not closed; a valuation that breaks
    transitivity gives overlapping classes, which ``bts.Bubble``
    refuses with ``InvalidInput``. A ``state`` that is not in ``model``
    raises ``UnknownState``.
    """
    if state not in model.val:
        raise UnknownState(f"state {state!r} not in model")
    order, index = _reachable(model, state)
    ev = dc._evaluator(model)
    bubbles = []
    for w in order:
        holds = partial(ev, w)
        slots = [ell for ell in t.labels if holds(t.surv(ell))]
        labels = {ell: frozenset(psi for psi in t.fl if holds(t.at(ell, psi)))
                  for ell in slots}
        bubbles.append(bts.Bubble(tuple(slots), labels, {
            agent: t.classes(agent, holds, slots) for agent in t.agents}))
    # a transition from a reachable state ends at a reachable state
    delta = {(index[w], a): index[target]
             for (w, a), target in model.trans.items() if w in index}
    return bts.Bts(t.source, tuple(bubbles), delta, initial=index[state],
                   alphabet=t.alphabet)


def pol_sat(phi: sx.Formula, budget: LabelBudget | None = None):
    """Decide ``phi`` against the models of observation logic.

    A ``Sat`` verdict carries a model and state that ``Model.check``
    accepted, and is sound at every budget; that check is the one guard
    of a ``Sat``. ``Unsat`` is only reported at the full budget;
    with fewer labels a failed search means the budget may simply be
    too small, which is reported as ``Unknown``. With no budget, the
    full one is used when it has at most ``translate._SLOT_CAP`` slots;
    a larger one gives ``Unknown`` naming the cap and the exhaustive
    count, and a larger explicit budget raises ``BudgetInvalid``. The
    solver runs under ``dpdl_sat``'s caps, and a cap hit by the solver,
    the decoding, the extraction or the final check gives ``Unknown``
    naming it.
    """
    sx._check_depth(phi)
    if budget is None:
        budget = full_budget(phi)
        if budget.labels > translate._SLOT_CAP:
            return Unknown(f"the exhaustive budget of {budget.labels} labels "
                           f"exceeds the slot cap {translate._SLOT_CAP}")
    t = Translation(phi, budget)
    outcome = _decide(t.formula)
    if isinstance(outcome, Unknown):
        return outcome
    if isinstance(outcome, Unsat):
        if t.budget.full:
            return Unsat()
        return Unknown(f"no model within {t.budget.labels} labels")
    try:
        structure = decode_bts(t, outcome.model, outcome.state)
        model, s0 = bts.extract_model(structure)
        holds = model.check(s0, phi)
    except ResourceBudgetExceeded as err:
        return Unknown(str(err))
    if not holds:
        raise AssertionError("decoded model fails the source formula; "
                             "this is a bug")
    return Sat(model, s0)
