"""Encoding observation logic into dynamic logic over labeled bubbles.

A state of the target model stands for a whole bubble: a set of at most
``labels`` slots, each slot ``l`` carrying a truth assignment to the
closure of the source formula, an aliveness bit ``surv(l)``, and
per-agent adjacency bits. The first agent has one bit ``R_i(l,l+1)``
per pair of neighbouring slots, so its classes are intervals of slots;
every other agent has one bit ``R_i(l,m)`` per unordered pair of
distinct slots ``l < m``. Action letters move between bubbles, so
survival of a slot under an observation word is plain reachability in
the target model.

The truth assignment has an atom ``@l.psi`` only where ``psi`` is a
proposition, a negated proposition, or a modal or agent member. The
truth of ``true``, of a junction and of any other negation is fixed by
its parts, so it is written as that formula over the parts' atoms (the
structure-preserving clause form of Plaisted and Greenbaum, JSC 1986).

The budget decides how many slots are available. Only the exhaustive
budget, one slot per subset of the closure, makes unsatisfiability of
the encoding meaningful for the source formula; smaller budgets can
only confirm satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .. import obsregex as ox
from .. import syntax as sx
from ..errors import BudgetInvalid
from . import core as dc

__all__ = ["LabelBudget", "full_budget", "Translation"]

# The most slots of one encoding: the largest exhaustive budget known to
# give a verdict (``[a]p & [b]p & ~[a+b]p``, 12 closure members). A
# budget above it is refused before any slot is built.
_SLOT_CAP = 2 ** 12


@dataclass(frozen=True)
class LabelBudget:
    """Slot budget for the encoding. ``full`` marks the exhaustive one."""

    labels: int
    full: bool = False


def full_budget(phi: sx.Formula) -> LabelBudget:
    """The exhaustive budget for ``phi``: one slot per closure subset."""
    return LabelBudget(2 ** len(sx.fl_closure(phi)), full=True)


def _check_budget(budget: LabelBudget, cap: int) -> LabelBudget:
    if not isinstance(budget.labels, int) or budget.labels < 1:
        raise BudgetInvalid("label budget must be a positive integer")
    if budget.labels > cap:
        raise BudgetInvalid(
            f"label budget {budget.labels} exceeds the {cap} closure subsets")
    if budget.labels > _SLOT_CAP:
        raise BudgetInvalid(
            f"label budget {budget.labels} exceeds the slot cap {_SLOT_CAP}")
    if budget.full != (budget.labels == cap):
        raise BudgetInvalid(
            f"budget of {budget.labels} labels has full={budget.full}, "
            f"but the exhaustive budget is {cap}")
    return budget


class Translation:
    """The encoded formula together with its atom bookkeeping.

    ``at(l, psi)`` is the truth of the closure member ``psi`` at slot
    ``l``. Propositions, negated propositions and the ``Dia``, ``Box``,
    ``Know`` and ``Hat`` members have atoms ``@l.psi``. The others are
    derived from their parts: ``at(l, true)`` is ``true``, ``at(l, ~psi)``
    is ``~at(l, psi)`` and a junction is the junction of its parts'
    ``at``. The negated proposition keeps its atom, tied to the
    proposition's by ``@l.p <-> ~@l.~p``. With ``~@l.p`` in its place,
    the solver's decision list, which decides every atom outside a star
    member's unfolding and argument false, makes ``p`` false at every
    root slot. The lazy regime then leaves ``<b;b*>hK_i p`` and
    ``<b;a><(b;a)*>hK_j q`` undischarged at two labels, and the exact
    regime does not run on closures that large.

    Decoding (``polsat.decode_bts``) reads slot facts only by evaluating
    ``at``, ``surv`` and ``rel``, so only this class knows the atoms.

    ``formula`` is a set of root facts and one invariant under
    ``[Σ*]``. The root facts: slot 1 is alive, slot 1 satisfies the
    source formula, and the transitivity instances of every agent but
    the first. The invariant holds everywhere reachable: the
    truth-assignment clauses for every proposition, modal and agent
    member, one-step persistence ``x -> [a]x`` for every letter ``a``
    and every slot literal ``@l.p``, ``@l.~p``, adjacency atom and
    negated adjacency atom, existence of a successor per letter, and
    that dead slots stay dead.

    One-step persistence inside ``[Σ*]`` says as much as a root
    ``x -> [Σ*]x``: by induction along every path from the root, ``x``
    holds at each state on it. So the adjacency bits are the same in
    every reachable bubble, and the frame laws need only hold at the
    root. Reflexivity and symmetry need no clause: ``rel`` reads the
    diagonal as ``true`` and both orders of a pair as one formula.

    For the first agent, ``rel(i, l, m)`` with ``l < m`` is the
    conjunction of the links ``R_i(k,k+1)`` for ``l <= k < m``: two
    slots are related when no link between them is missing. Its classes
    are the runs of linked neighbours, an interval partition, so its
    relation is an equivalence by construction. For every other agent,
    transitivity is stated only for slot triples (l, l2, l3) with
    ``l < l3`` and ``l2`` distinct from both, each as one flat clause;
    by symmetry (l3, l2, l) is the same constraint, and ``l = l3`` is
    the diagonal, so these instances keep exactly the equivalence
    relations.

    Interval classes lose no model, so an ``Unsat`` at the full budget
    means what it means with a pair atom per slot pair for every agent.
    Only slot 1 carries root facts of its own, ``surv(1)`` and
    ``@1.source``; every other conjunct is unchanged by a permutation
    of slots 2..L applied to every slot's atoms at once. Take a model
    of the all-pairs encoding. The first agent's relation is an
    equivalence, and it is the same at every reachable state because
    ``R`` persists along every path. Number the slots class by class,
    slot 1's class first, slot 1 first in it. That permutation fixes
    slot 1, so renaming the slot atoms of every state by it gives
    another model of the all-pairs encoding, in which each of the
    first agent's classes is an interval. Setting each link to whether
    its two slots are related then satisfies this encoding. Conversely,
    an interval partition is an equivalence, so every model of this
    encoding is one of the all-pairs encoding. This is lex-leader
    symmetry breaking (Crawford, Ginsberg, Luks and Roy, KR 1996) on
    one agent: a single permutation cannot make the classes of two
    agents intervals in general.
    """

    def __init__(self, source: sx.Formula, budget: LabelBudget | None = None):
        fl = sx.fl_closure(source)
        cap = 2 ** len(fl)
        if budget is None:
            budget = LabelBudget(cap, full=True)
        self.source = source
        self.budget = _check_budget(budget, cap)
        self.fl = tuple(sorted(fl, key=sx.closure_order))
        self.labels = tuple(range(1, self.budget.labels + 1))
        self.agents = tuple(sorted(sx.agents(source)))
        letters = sorted(sx.letters(source))
        if not letters:
            letters = ["a"]
        self.alphabet = tuple(letters)
        self._at = {}
        for psi in self.fl:  # parts first, so each derivation finds them
            for ell in self.labels:
                self._at[(ell, psi)] = self._label_formula(ell, psi)
        self._surv = {ell: sx.prop(f"surv({ell})") for ell in self.labels}
        self._rel = self._adjacency()
        self.formula = self._build()

    # -- atoms ------------------------------------------------------------

    def at(self, ell: int, psi: sx.Formula) -> sx.Formula:
        """Truth of the member ``psi`` at slot ``ell``: its atom, or the
        formula over its parts' atoms that fixes it."""
        return self._at[(ell, psi)]

    def _label_formula(self, ell: int, psi: sx.Formula) -> sx.Formula:
        if isinstance(psi, sx.Top):
            return sx.top()
        if isinstance(psi, sx.Not) and not isinstance(psi.arg, sx.Prop):
            return sx.lnot(self.at(ell, psi.arg))
        if isinstance(psi, sx.Or):
            return dc.lor(*[self.at(ell, p) for p in psi.parts])
        if isinstance(psi, sx.And):
            return dc.land(*[self.at(ell, p) for p in psi.parts])
        return sx.prop(f"@{ell}.{sx.print_formula(psi)}")

    def surv(self, ell: int) -> sx.Formula:
        return self._surv[ell]

    def rel(self, agent: str, ell: int, ell2: int) -> sx.Formula:
        """Adjacency of two slots: ``true`` on the diagonal, and the
        formula of the unordered pair otherwise."""
        if ell == ell2:
            return sx.top()
        return self._rel[(agent, min(ell, ell2), max(ell, ell2))]

    def _adjacency(self) -> dict:
        """The formula of every agent and slot pair ``l < m``: the
        conjunction of the links from ``l`` to ``m`` for the first
        agent, one atom per pair for the others."""
        def pair(i, ell, ell2):
            return sx.prop(f"R_{i}({ell},{ell2})")

        return {(i, ell, ell2): dc.land(*[pair(i, k, k + 1)
                                          for k in range(ell, ell2)])
                if i == self.agents[0] else pair(i, ell, ell2)
                for i in self.agents
                for ell, ell2 in combinations(self.labels, 2)}

    # -- construction ------------------------------------------------------

    def _sem(self, psi: sx.Formula) -> sx.Formula:
        """Truth-assignment clause for one proposition, modal or agent
        member, all slots.

        A proposition's atom is the negation of its negation's atom.
        A modal or agent member's atom is pinned, both ways, to the
        truth of its argument at the slots it reads.
        """
        parts = []
        for ell in self.labels:
            if isinstance(psi, sx.Prop):
                pinned = sx.lnot(self.at(ell, sx.lnot(psi)))
            elif isinstance(psi, sx.Hat):
                pinned = dc.lor(*[dc.land(self.rel(psi.agent, ell, m),
                                          self.surv(m), self.at(m, psi.arg))
                                  for m in self.labels])
            elif isinstance(psi, sx.Know):
                pinned = dc.land(*[dc.lor(sx.lnot(self.rel(psi.agent, ell, m)),
                                          sx.lnot(self.surv(m)),
                                          self.at(m, psi.arg))
                                   for m in self.labels])
            elif isinstance(psi, sx.Dia):
                pinned = sx.dia(psi.pi, dc.land(self.at(ell, psi.arg),
                                                self.surv(ell)))
            elif isinstance(psi, sx.Box):
                pinned = sx.box(psi.pi, dc.implies(self.surv(ell),
                                                   self.at(ell, psi.arg)))
            else:
                raise TypeError(f"no clause for {psi!r}")
            parts.append(dc.iff(self.at(ell, psi), pinned))
        return dc.land(*parts)

    def _frame_laws(self) -> list:
        """The transitivity instances that the class docstring names,
        for every agent but the first: with reflexivity and symmetry
        built into ``rel``, they hold exactly when each such ``R_i`` is
        an equivalence relation."""
        return [dc.lor(sx.lnot(self.rel(i, ell, ell2)),
                       sx.lnot(self.rel(i, ell2, ell3)),
                       self.rel(i, ell, ell3))
                for i in self.agents[1:]
                for ell, ell3 in combinations(self.labels, 2)
                for ell2 in self.labels if ell2 not in (ell, ell3)]

    def _build(self) -> sx.Formula:
        letters = [ox.atom(a) for a in self.alphabet]
        invariant = [self._sem(psi) for psi in self.fl if isinstance(
            psi, (sx.Prop, sx.Hat, sx.Know, sx.Dia, sx.Box))]
        kept = [self.at(ell, g) for psi in self.fl
                if isinstance(psi, sx.Prop)
                for ell in self.labels for g in (psi, sx.lnot(psi))]
        kept += [x for r in self._rel.values() if isinstance(r, sx.Prop)
                 for x in (r, sx.lnot(r))]
        invariant += [dc.implies(x, sx.box(a, x))
                      for x in kept for a in letters]
        invariant += [sx.dia(a, sx.top()) for a in letters]
        invariant += [dc.implies(sx.lnot(self.surv(ell)),
                                 sx.dia(a, sx.lnot(self.surv(ell))))
                      for ell in self.labels for a in letters]
        return dc.land(self.surv(1), self.at(1, self.source),
                       *self._frame_laws(),
                       sx.box(ox.star(ox.alt(*letters)), dc.land(*invariant)))
