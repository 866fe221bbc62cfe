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
    if not isinstance(budget, LabelBudget):
        raise BudgetInvalid(f"a budget is a LabelBudget, not {budget!r}")
    # not isinstance: a bool is an int to it, but no count of labels
    if type(budget.labels) is not int or budget.labels < 1:
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
    that dead slots stay dead. The existence law gives every bubble a
    successor for every letter: without it, the witness of ``[a]true``
    at two labels has no ``a``-successor.

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
    relation is an equivalence by construction. Only the links are
    atoms; the conjunction for a pair that is not a link is built when
    ``rel`` is first asked for it, which only decoding does, and kept.
    For every other agent, transitivity is stated only for slot triples
    (l, l2, l3) with ``l < l3`` and ``l2`` distinct from both, each as
    one flat clause; by symmetry (l3, l2, l) is the same constraint, and
    ``l = l3`` is the diagonal, so these instances keep exactly the
    equivalence relations.

    An agent member of every agent but the first is pinned at slot
    ``l`` by the pairwise clause: ``hK_i psi`` is the disjunction over
    ``m`` of ``rel(i, l, m) & surv(m) & @m.psi``, and ``K_i psi`` the
    conjunction of ``~rel(i, l, m) | ~surv(m) | @m.psi``, so L parts
    per slot. The first agent's member is read along its links instead
    (``_chains``). With ``cell(m)`` the part for ``m`` without its
    ``rel``, ``surv(m) & @m.psi`` for ``hK`` and ``~surv(m) | @m.psi``
    for ``K``, ``right(l)`` is ``cell(l) | (R_i(l,l+1) &
    right(l+1))`` for ``hK`` and ``cell(l) & (~R_i(l,l+1) |
    right(l+1))`` for ``K``, ``left(l)`` is the mirror image, and the
    member is pinned to ``left(l) | right(l)`` or ``left(l) &
    right(l)``. Unrolled, ``right(l)`` for ``hK`` is the disjunction
    over ``m >= l`` of the links from ``l`` to ``m`` conjoined with
    ``cell(m)``, which is the pairwise clause's part for ``m`` since
    those links are ``rel(i, l, m)``; ``K`` is the dual, and ``left``
    covers ``m <= l``. So every state has the models it has under the
    pairwise clause, while each chain node is shared by every slot that
    reads it: the clauses of one member take O(L) nodes, not O(L^2)
    parts with O(L^3) link occurrences.

    Interval classes lose no model, so an ``Unsat`` at the full budget
    means what it means with a pair atom per slot pair for every agent.
    Only slot 1 carries root facts of its own, ``surv(1)`` and
    ``@1.source``; every other conjunct of the all-pairs encoding is
    unchanged by a permutation of slots 2..L applied to every slot's
    atoms at once. Take a model of the all-pairs encoding. The first
    agent's relation is an equivalence, and it is the same at every
    reachable state because ``R`` persists along every path. Number the
    slots class by class, slot 1's class first, slot 1 first in it.
    That permutation fixes slot 1, so renaming the slot atoms of every
    state by it gives another model of the all-pairs encoding, in which
    each of the first agent's classes is an interval. Setting each link
    to whether its two slots are related then satisfies this encoding,
    whose first-agent clauses say, by the unrolling above, what the
    all-pairs ones say with each pair atom read as the conjunction of
    its links. Conversely, an interval partition is an equivalence, so
    every model of this encoding is one of the all-pairs encoding. This
    is lex-leader symmetry breaking (Crawford, Ginsberg, Luks and Roy,
    KR 1996) on one agent: a single permutation cannot make the classes
    of two agents intervals in general.
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
        formula of the unordered pair otherwise. A first-agent pair that
        is not a link is the conjunction of the links between its slots,
        built when first asked and kept."""
        if ell == ell2:
            return sx.top()
        key = (agent, min(ell, ell2), max(ell, ell2))
        got = self._rel.get(key)
        if got is None:
            got = self._rel[key] = dc.land(*[self._rel[(agent, k, k + 1)]
                                             for k in range(key[1], key[2])])
        return got

    def _adjacency(self) -> dict:
        """The relation atoms: the links ``R_i(l,l+1)`` of the first
        agent, and one atom ``R_i(l,m)`` per slot pair ``l < m`` for the
        others."""
        return {(i, ell, ell2): sx.prop(f"R_{i}({ell},{ell2})")
                for i in self.agents
                for ell, ell2 in (zip(self.labels, self.labels[1:])
                                  if i == self.agents[0]
                                  else combinations(self.labels, 2))}

    # -- construction ------------------------------------------------------

    def _sem(self, psi: sx.Formula) -> sx.Formula:
        """Truth-assignment clause for one proposition, modal or agent
        member, all slots.

        A proposition's atom is the negation of its negation's atom.
        A modal or agent member's atom is pinned, both ways, to the
        truth of its argument at the slots it reads.
        """
        if isinstance(psi, (sx.Hat, sx.Know)) and psi.agent == self.agents[0]:
            pinned = self._chains(psi)
        else:
            pinned = [self._pinned(psi, ell) for ell in self.labels]
        return dc.land(*[dc.iff(self.at(ell, psi), p)
                         for ell, p in zip(self.labels, pinned)])

    def _pinned(self, psi: sx.Formula, ell: int) -> sx.Formula:
        """What the atom of ``psi`` at slot ``ell`` is pinned to, an
        agent member's by its pairwise clause."""
        if isinstance(psi, sx.Prop):
            return sx.lnot(self.at(ell, sx.lnot(psi)))
        if isinstance(psi, sx.Hat):
            return dc.lor(*[dc.land(self.rel(psi.agent, ell, m),
                                    self.surv(m), self.at(m, psi.arg))
                            for m in self.labels])
        if isinstance(psi, sx.Know):
            return dc.land(*[dc.lor(sx.lnot(self.rel(psi.agent, ell, m)),
                                    sx.lnot(self.surv(m)),
                                    self.at(m, psi.arg))
                             for m in self.labels])
        if isinstance(psi, sx.Dia):
            return sx.dia(psi.pi, dc.land(self.at(ell, psi.arg),
                                          self.surv(ell)))
        if isinstance(psi, sx.Box):
            return sx.box(psi.pi, dc.implies(self.surv(ell),
                                             self.at(ell, psi.arg)))
        raise TypeError(f"no clause for {psi!r}")

    def _chains(self, psi: sx.Formula) -> list:
        """The first agent's member at each slot, read along its links
        by the chains of the class docstring. ``before[k]`` is the part
        that ``left`` adds to the cell of slot index ``k`` through the
        link on its left, and ``after[k]`` the part that ``right`` adds
        through the link on its right; the member's truth at ``k`` is
        the cell joined with both, which is ``left(k)`` joined with
        ``right(k)``."""
        hat = isinstance(psi, sx.Hat)
        join = dc.lor if hat else dc.land
        cells = [dc.land(self.surv(m), self.at(m, psi.arg)) if hat else
                 dc.lor(sx.lnot(self.surv(m)), self.at(m, psi.arg))
                 for m in self.labels]
        links = [self.rel(psi.agent, m, m + 1) for m in self.labels[:-1]]

        def beyond(link, chain):
            return dc.land(link, chain) if hat else dc.implies(link, chain)

        n = len(cells)
        before, after = [()] * n, [()] * n
        for k in range(1, n):
            before[k] = (beyond(links[k - 1],
                                join(cells[k - 1], *before[k - 1])),)
        for k in reversed(range(n - 1)):
            after[k] = (beyond(links[k], join(cells[k + 1], *after[k + 1])),)
        return [join(cells[k], *before[k], *after[k]) for k in range(n)]

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
