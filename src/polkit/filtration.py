"""Small-model construction by filtration.

States are merged when they satisfy exactly the same members of the
closure of the target formula, so the quotient has at most one state per
closure subset. The quotient relation for agent i relates two classes
when (1) some pair of members is related in the base model and (2) the
possibility formulas of the closure transfer between them. Pairs
satisfying (1) always link classes that agree on every closure formula
of the form ``hK_i psi``; condition (2) alone does not force transitivity
when the closure mentions no such formula, so the final relation is the
equivalence closure of the pairs, which stays inside that agreement
relation and therefore preserves what the construction guarantees.

``verify_filtration`` replays updates on both models and compares truth
of every closure member wherever the state and its class both survive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import syntax as sx
from .models import Model, equivalence_blocks, state_sort_key

__all__ = ["Filtration", "filtrate", "verify_filtration", "Disagreement"]


@dataclass(frozen=True)
class Filtration:
    """Result of filtrating a model through a formula."""

    model: Model
    class_of: dict          # base state -> class id
    members: tuple          # class id -> tuple of base states
    representative: tuple   # class id -> canonical base state


def filtrate(m: Model, phi: sx.Formula, rep_choice: str = "min") -> Filtration:
    """Quotient the model by truth of the closure members of ``phi``.

    ``rep_choice`` picks the canonical member of each class ("min" or
    "max" in the state order); expectations and valuations are read off
    the canonical member, with valuations restricted to the propositions
    of ``phi``.
    """
    if rep_choice not in ("min", "max"):
        raise ValueError("rep_choice must be 'min' or 'max'")
    fl = fl_list = sorted(sx.fl_closure(phi), key=sx.formula_key)
    profile = {
        s: frozenset(f for f in fl_list if m.check(s, f))
        for s in m.states
    }
    by_profile = {}
    for s in m.states:
        by_profile.setdefault(profile[s], []).append(s)
    member_lists = sorted(
        (sorted(v, key=state_sort_key) for v in by_profile.values()),
        key=lambda v: state_sort_key(v[0]))
    if len(member_lists) > 2 ** len(fl):
        raise AssertionError("more closure profiles than closure subsets")
    members = tuple(tuple(v) for v in member_lists)
    class_of = {s: c for c, v in enumerate(members) for s in v}
    pick = min if rep_choice == "min" else max
    representative = tuple(pick(v, key=state_sort_key) for v in members)
    cprofile = [profile[rep] for rep in representative]

    phi_props = sx.props(phi)
    relations = {}
    for agent in m.agents:
        hats = [f for f in fl_list
                if isinstance(f, sx.Hat) and f.agent == agent]

        def transfers(c_from, c_to):
            # every possibility formula true enough at c_from is known
            # possible at c_to
            return all(
                h in cprofile[c_to]
                for h in hats
                if h in cprofile[c_from] or h.arg in cprofile[c_from])

        edges = []
        for c1, c2 in itertools.combinations(range(len(members)), 2):
            witnessed = any(s2 in m.block(agent, s1)
                            for s1 in members[c1] for s2 in members[c2])
            if witnessed and transfers(c2, c1) and transfers(c1, c2):
                edges.append((c1, c2))
        blocks = equivalence_blocks(range(len(members)), edges)
        # classes joined by the closure still agree on the agent's
        # possibility formulas, which is what truth preservation needs
        for block in blocks:
            slices = {frozenset(h for h in hats if h in cprofile[c])
                      for c in block}
            if len(slices) > 1:
                raise AssertionError(
                    "joined classes disagree on possibility formulas")
        relations[agent] = blocks
    quotient = Model(
        m.alphabet, m.agents, range(len(members)),
        {c: m.props[representative[c]] & phi_props
         for c in range(len(members))},
        {c: m.exp[representative[c]] for c in range(len(members))},
        relations, m.max_contexts)
    return Filtration(quotient, class_of, members, representative)


@dataclass(frozen=True)
class Disagreement:
    """First point where base model and quotient disagree."""

    word: tuple
    state: object
    formula: sx.Formula
    in_model: bool
    in_quotient: bool

    def __str__(self):
        w = "-".join(self.word) if self.word else "the empty word"
        return (f"after {w} at state {self.state!r}: "
                f"{sx.print_formula(self.formula)} is {self.in_model} in "
                f"the model but {self.in_quotient} in the quotient")


def verify_filtration(m: Model, phi: sx.Formula, word_bound: int = 3,
                      rep_choice: str = "min"):
    """Compare truths of closure members in the model and its quotient.

    For every word up to the bound, wherever a state and its class both
    survive, every closure member must have the same truth value. Returns
    None if so, else the first Disagreement in a deterministic order.
    """
    filt = filtrate(m, phi, rep_choice)
    fl_list = sorted(sx.fl_closure(phi), key=sx.formula_key)
    syms = tuple(m.alphabet)
    for n in range(word_bound + 1):
        for word in itertools.product(syms, repeat=n):
            mw = m.update(word)
            qw = filt.model.update(word)
            if mw is None or qw is None:
                continue
            for s in mw.states:
                c = filt.class_of[s]
                if c not in qw.props:
                    continue
                for f in fl_list:
                    a = mw.check(s, f)
                    b = qw.check(c, f)
                    if a != b:
                        return Disagreement(word, s, f, a, b)
    return None
