"""Encoding observation logic into dynamic logic over labeled bubbles.

A state of the target model stands for a whole bubble: a set of at most
``labels`` slots, each slot ``l`` carrying a truth assignment to the
closure of the source formula through atoms ``@l.psi``, an aliveness
bit ``surv(l)``, and per-agent adjacency bits ``R_i(l,l')``. Action
letters move between bubbles, so survival of a slot under an
observation word is plain reachability in the target model.

The budget decides how many slots are available. Only the exhaustive
budget, one slot per subset of the closure, makes unsatisfiability of
the encoding meaningful for the source formula; smaller budgets can
only confirm satisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obsregex as ox
from .. import syntax as sx
from ..errors import BudgetInvalid
from . import core as dc

__all__ = ["LabelBudget", "full_budget", "Translation"]


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
    if budget.full != (budget.labels == cap):
        raise BudgetInvalid(
            f"budget of {budget.labels} labels has full={budget.full}, "
            f"but the exhaustive budget is {cap}")
    return budget


class Translation:
    """The encoded formula together with its atom bookkeeping.

    ``formula`` is a conjunction: slot 1 is alive, slot 1 satisfies the
    source formula, and the invariant schema holds. The schema asserts,
    everywhere reachable: the truth-assignment clauses for every closure
    member, persistence of slot assignments and adjacency bits,
    existence of a successor per letter, and that dead slots stay dead.
    At the root it states the per-agent frame laws, which persistence
    carries everywhere: reflexivity, symmetry, and transitivity only
    for slot triples (l, l2, l3) with ``l < l3`` and ``l2`` distinct
    from both, each as one flat clause. Symmetry turns (l3, l2, l) into
    the same constraint and reflexivity settles ``l = l3``, so the root
    keeps the models it would have with every instance.
    """

    def __init__(self, source: sx.Formula, budget: LabelBudget | None = None):
        fl = sx.fl_closure(source)
        cap = 2 ** len(fl)
        if budget is None:
            budget = LabelBudget(cap, full=True)
        self.source = source
        self.budget = _check_budget(budget, cap)
        self.fl = tuple(sorted(
            fl, key=lambda g: (sx.formula_size(g), sx.formula_key(g))))
        self.labels = tuple(range(1, self.budget.labels + 1))
        self.agents = tuple(sorted(sx.agents(source)))
        letters = sorted(sx.letters(source))
        if not letters:
            letters = ["a"]
        self.alphabet = tuple(letters)
        self._at = {(ell, psi): dc.atom(f"@{ell}.{sx.print_formula(psi)}")
                    for ell in self.labels for psi in self.fl}
        self._surv = {ell: dc.atom(f"surv({ell})") for ell in self.labels}
        self._rel = {}
        for i in self.agents:
            for ell in self.labels:
                for ell2 in self.labels:
                    self._rel[(i, ell, ell2)] = dc.atom(
                        f"R_{i}({ell},{ell2})")
        self.formula = self._build()

    # -- atoms ------------------------------------------------------------

    def at(self, ell: int, psi: sx.Formula) -> sx.Formula:
        return self._at[(ell, psi)]

    def surv(self, ell: int) -> sx.Formula:
        return self._surv[ell]

    def rel(self, agent: str, ell: int, ell2: int) -> sx.Formula:
        return self._rel[(agent, ell, ell2)]

    # -- construction ------------------------------------------------------

    def _sigma_star(self) -> ox.ObsExpr:
        return ox.star(ox.alt(*[ox.atom(a) for a in self.alphabet]))

    def _sem(self, psi: sx.Formula) -> sx.Formula:
        """Truth-assignment clause for one closure member, all slots.

        Each member kind pins its atom to the atoms of its immediate
        parts. Both polarities of every connective get a clause; with
        only one polarity the encoding of, say, a conjunction inside a
        knowledge operator would be free to drift from its parts and
        satisfiability would not transfer back to the source formula.
        """
        parts = []
        for ell in self.labels:
            a = self.at(ell, psi)
            if isinstance(psi, sx.Top):
                parts.append(a)
            elif isinstance(psi, sx.Prop):
                parts.append(dc.iff(a, sx.lnot(self.at(ell, sx.lnot(psi)))))
            elif isinstance(psi, sx.Not):
                parts.append(dc.iff(a, sx.lnot(self.at(ell, psi.arg))))
            elif isinstance(psi, sx.Or):
                parts.append(dc.iff(a, dc.lor(*[self.at(ell, p)
                                                for p in psi.parts])))
            elif isinstance(psi, sx.And):
                parts.append(dc.iff(a, dc.land(*[self.at(ell, p)
                                                 for p in psi.parts])))
            elif isinstance(psi, sx.Hat):
                branches = [dc.land(self.rel(psi.agent, ell, ell2),
                                    self.surv(ell2),
                                    self.at(ell2, psi.arg))
                            for ell2 in self.labels]
                parts.append(dc.iff(a, dc.lor(*branches)))
            elif isinstance(psi, sx.Know):
                branches = [dc.lor(sx.lnot(self.rel(psi.agent, ell, ell2)),
                                   sx.lnot(self.surv(ell2)),
                                   self.at(ell2, psi.arg))
                            for ell2 in self.labels]
                parts.append(dc.iff(a, dc.land(*branches)))
            elif isinstance(psi, sx.Dia):
                parts.append(dc.iff(a, sx.dia(psi.pi,
                                              dc.land(self.at(ell, psi.arg),
                                                      self.surv(ell)))))
            elif isinstance(psi, sx.Box):
                parts.append(dc.iff(a, sx.box(psi.pi,
                                              dc.implies(self.surv(ell),
                                                         self.at(ell,
                                                                 psi.arg)))))
            else:
                raise TypeError(f"not a Formula: {psi!r}")
        return dc.land(*parts)

    def _frame_laws(self) -> list:
        """Reflexivity, symmetry and the transitivity instances that the
        class docstring names, for every agent: together they hold
        exactly when each ``R_i`` is an equivalence relation."""
        laws = []
        for i in self.agents:
            for ell in self.labels:
                laws.append(self.rel(i, ell, ell))
        for i in self.agents:
            for ell in self.labels:
                for ell2 in self.labels:
                    if ell == ell2:
                        continue
                    laws.append(dc.implies(self.rel(i, ell, ell2),
                                           self.rel(i, ell2, ell)))
        for i in self.agents:
            for ell in self.labels:
                for ell2 in self.labels:
                    if ell2 == ell:
                        continue
                    for ell3 in self.labels:
                        if ell3 <= ell or ell3 == ell2:
                            continue
                        laws.append(dc.lor(
                            sx.lnot(self.rel(i, ell, ell2)),
                            sx.lnot(self.rel(i, ell2, ell3)),
                            self.rel(i, ell, ell3)))
        return laws

    def _build(self) -> sx.Formula:
        ss = self._sigma_star()
        parts = [self.surv(1), self.at(1, self.source)]
        for psi in self.fl:
            parts.append(sx.box(ss, self._sem(psi)))
        for psi in self.fl:
            if not isinstance(psi, sx.Prop):
                continue
            neg = sx.lnot(psi)
            for ell in self.labels:
                parts.append(dc.implies(self.at(ell, psi),
                                        sx.box(ss, self.at(ell, psi))))
                parts.append(dc.implies(self.at(ell, neg),
                                        sx.box(ss, self.at(ell, neg))))
        for i in self.agents:
            for ell in self.labels:
                for ell2 in self.labels:
                    r = self.rel(i, ell, ell2)
                    parts.append(dc.implies(r, sx.box(ss, r)))
                    parts.append(dc.implies(sx.lnot(r),
                                            sx.box(ss, sx.lnot(r))))
        # Persistence carries the adjacency bits to every reachable
        # bubble, so the frame laws need only hold at the root.
        parts.extend(self._frame_laws())
        succ = [sx.dia(ox.atom(a), sx.top()) for a in self.alphabet]
        parts.append(sx.box(ss, dc.land(*succ)))
        dead = [dc.implies(sx.lnot(self.surv(ell)),
                           sx.dia(ox.atom(a), sx.lnot(self.surv(ell))))
                for ell in self.labels for a in self.alphabet]
        parts.append(sx.box(ss, dc.land(*dead)))
        return dc.land(*parts)

