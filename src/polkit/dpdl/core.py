"""Dynamic logic over deterministic models.

Formulas are those of ``polkit.syntax`` without the agent operators:
atoms, negation, disjunction, conjunction, and program modalities whose
programs are observation expressions over action letters. Atoms are the
propositions of ``syntax`` under any non-empty name. Models assign at
most one successor per state and letter, so a diamond and the matching
box can only disagree on whether a successor exists at all.

The construction rules here differ from those of ``syntax`` in one
respect: conjunction and disjunction flatten, so a conjunction of ten
parts is one node. This keeps the closure of machine-generated
formulas, which conjoin thousands of clauses, at one member per clause
block instead of one per spine node.
"""

from __future__ import annotations

from .. import obsregex as ox
from .. import syntax as sx
from ..errors import UnknownState, UnknownSymbol

__all__ = [
    "atom", "lor", "land", "implies", "iff", "parse_dpdl",
    "DpdlModel", "dpdl_check",
]


def atom(name: str) -> sx.Formula:
    if not isinstance(name, str) or not name:
        raise ValueError("atom names are non-empty strings")
    return sx._intern(("p", name), sx.Prop, name)


def _junction(cls, tag, parts, empty):
    flat = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return empty
    if len(flat) == 1:
        return flat[0]
    flat = tuple(flat)
    return sx._intern((tag,) + flat, cls, flat)


def lor(*parts) -> sx.Formula:
    return _junction(sx.Or, "|", parts, sx.lnot(sx.top()))


def land(*parts) -> sx.Formula:
    return _junction(sx.And, "&", parts, sx.top())


def implies(a: sx.Formula, b: sx.Formula) -> sx.Formula:
    return lor(sx.lnot(a), b)


def iff(a: sx.Formula, b: sx.Formula) -> sx.Formula:
    return land(lor(sx.lnot(a), b), lor(sx.lnot(b), a))


def parse_dpdl(text: str, alphabet=None) -> sx.Formula:
    """Parse the concrete syntax; quoted atoms carry arbitrary names.

    With an alphabet given, program letters outside it are rejected.
    """
    return sx._parse(sx._FormulaTokens(text, lor, land, atom, dpdl=True),
                     alphabet)


# --- models and truth ---------------------------------------------------------


class DpdlModel:
    """A finite deterministic model.

    ``trans`` maps pairs (state, letter) to the single successor; pairs
    absent from the map have no successor. ``val`` maps each state to
    the set of atom names true there.
    """

    __slots__ = ("states", "alphabet", "trans", "val")

    def __init__(self, states, trans, val, alphabet=None):
        self.states = tuple(states)
        if not self.states:
            raise ValueError("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        sset = set(self.states)
        syms = set()
        self.trans = {}
        for (s, a), t in trans.items():
            if s not in sset:
                raise UnknownState(f"transition source {s!r} is not a state")
            if t not in sset:
                raise UnknownState(f"transition target {t!r} is not a state")
            syms.add(a)
            self.trans[(s, a)] = t
        if alphabet is None:
            self.alphabet = tuple(sorted(syms))
        else:
            self.alphabet = tuple(alphabet)
            missing = syms - set(self.alphabet)
            if missing:
                raise UnknownSymbol(
                    f"transition letters {sorted(missing)!r} not in alphabet")
        for s in self.states:
            if s not in val:
                raise UnknownState(f"state {s!r} has no valuation")
        self.val = {s: frozenset(val[s]) for s in self.states}

    def successor(self, s, a):
        return self.trans.get((s, a))

    def __repr__(self):
        return (f"DpdlModel(states={len(self.states)}, "
                f"alphabet={list(self.alphabet)!r})")


def dpdl_check(m: DpdlModel, s, f: sx.Formula) -> bool:
    """Truth of ``f`` at state ``s``.

    An agent operator that the evaluation reaches is a TypeError.
    """
    if s not in m.val:
        raise UnknownState(f"state {s!r} not in model")
    alphabet = ox.Alphabet(sorted(set(m.alphabet) | sx.letters(f)) or ["a"])
    memo = {}

    def step(st):
        for a in m.alphabet:
            t = m.trans.get((st, a))
            if t is not None:
                yield a, t

    def ev(st, g):
        key = (st, g)
        v = memo.get(key)
        if v is not None:
            return v
        if isinstance(g, sx.Top):
            v = True
        elif isinstance(g, sx.Prop):
            v = g.name in m.val[st]
        elif isinstance(g, sx.Not):
            v = not ev(st, g.arg)
        elif isinstance(g, sx.Or):
            v = any(ev(st, p) for p in g.parts)
        elif isinstance(g, sx.And):
            v = all(ev(st, p) for p in g.parts)
        elif isinstance(g, sx.Dia):
            v = ox.search(ox.to_dfa(g.pi, alphabet), st, step,
                          lambda t: ev(t, g.arg)) is not None
        elif isinstance(g, sx.Box):
            v = ox.search(ox.to_dfa(g.pi, alphabet), st, step,
                          lambda t: not ev(t, g.arg)) is None
        else:
            raise TypeError(f"not a dynamic-logic formula: {g!r}")
        memo[key] = v
        return v

    return ev(s, f)
