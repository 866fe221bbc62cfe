"""Dynamic logic over deterministic models.

Formulas are those of ``polkit.syntax`` without the agent operators:
atoms, negation, disjunction, conjunction, and program modalities whose
programs are observation expressions over action letters. Atoms are the
propositions of ``syntax``, under its one name rule: any non-empty
string except ``true`` and ``false`` and the names that start with
``K_`` or ``hK_``. A name that is not an identifier, such as
``surv(1)``, is written quoted. Models assign at
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
from ..errors import InvalidInput, ParseError, UnknownState, UnknownSymbol
from ..models import _collect, _mapping, _ordered

__all__ = [
    "lor", "land", "implies", "iff", "parse_dpdl",
    "DpdlModel", "dpdl_check",
]


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
        if not isinstance(flat[0], sx.Formula):
            sx._refuse(flat[0])
        return flat[0]
    flat = tuple(flat)
    return ox._intern((tag,) + flat, cls, flat)


def lor(*parts) -> sx.Formula:
    return _junction(sx.Or, "|", parts, sx.lnot(sx.top()))


def land(*parts) -> sx.Formula:
    return _junction(sx.And, "&", parts, sx.top())


def implies(a: sx.Formula, b: sx.Formula) -> sx.Formula:
    return lor(sx.lnot(a), b)


def iff(a: sx.Formula, b: sx.Formula) -> sx.Formula:
    return land(lor(sx.lnot(a), b), lor(sx.lnot(b), a))


def parse_dpdl(text: str, alphabet=None) -> sx.Formula:
    """Parse the concrete syntax of ``syntax``, with flattening junctions.

    A formula with an agent operator is a ParseError. With an alphabet
    given, program letters outside it are rejected.
    """
    toks = sx._FormulaTokens(text, lor, land)
    f = sx._parse(toks, alphabet)
    if toks.agent_at is not None:
        raise ParseError("dynamic logic has no agent operators",
                         *toks.agent_at)
    return f


# --- models and truth ---------------------------------------------------------


class DpdlModel:
    """A finite deterministic model.

    ``trans`` maps pairs (state, letter) to the single successor; pairs
    absent from the map have no successor. ``val`` maps each state to
    the set of atom names true there. ``states``, ``alphabet`` (which may
    be empty) and each set of ``val`` are collections, not strings,
    ``trans`` and ``val`` are mappings or pairs, and each key of
    ``trans`` is a pair (else ``InvalidInput``).
    """

    __slots__ = ("states", "alphabet", "trans", "val")

    def __init__(self, states, trans, val, alphabet=None):
        self.states = _collect(tuple, states, "the states")
        if not self.states:
            raise InvalidInput("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise InvalidInput("duplicate state ids")
        sset = set(self.states)
        syms = set()
        self.trans = {}
        for key, t in _mapping(trans, "the transitions").items():
            if type(key) is not tuple or len(key) != 2:
                raise InvalidInput(f"transition key {key!r} is not a pair")
            s, a = key
            if s not in sset:
                raise UnknownState(f"transition source {s!r} is not a state")
            if t not in sset:
                raise UnknownState(f"transition target {t!r} is not a state")
            syms.add(a)
            self.trans[(s, a)] = t
        if alphabet is None:
            self.alphabet = tuple(_ordered(syms, "the transition letters"))
        else:
            self.alphabet = _collect(tuple, alphabet, "the alphabet")
            missing = _ordered(syms - set(self.alphabet), "the letters")
            if missing:
                raise UnknownSymbol(
                    f"transition letters {missing!r} not in alphabet")
        val = _mapping(val, "the valuations")
        for s in self.states:
            if s not in val:
                raise UnknownState(f"state {s!r} has no valuation")
        self.val = {s: _collect(frozenset, val[s],
                                f"the valuation of {s!r}")
                    for s in self.states}

    def __repr__(self):
        return (f"DpdlModel(states={len(self.states)}, "
                f"alphabet={list(self.alphabet)!r})")


def dpdl_check(m: DpdlModel, s, f: sx.Formula) -> bool:
    """Truth of ``f`` at state ``s``.

    An agent operator raises ``InvalidInput`` and a non-formula
    ``TypeError``, but only where the evaluation reaches them:
    ``p | ~p | K_i p`` is ``True``, as the disjunction stops at ``p``.
    A walk over the formula first would refuse it, at about half the
    checks' own time on the witnesses of ``dpdl_sat``. A modality walks
    its program's derivatives along the model's transitions, iterated
    in the evaluator's own frame (``ox.walk``), so a program letter
    that the model lacks labels no transition.
    """
    if s not in m.val:
        raise UnknownState(f"state {s!r} not in model")
    sx._check_depth(f)
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
            v = False
            for p in g.parts:
                if ev(st, p):
                    v = True
                    break
        elif isinstance(g, sx.And):
            v = True
            for p in g.parts:
                if not ev(st, p):
                    v = False
                    break
        elif isinstance(g, (sx.Dia, sx.Box)):
            # a walk ending at a body with truth ``want`` decides
            want = isinstance(g, sx.Dia)
            v = not want
            for t, q in ox.walk(g.pi, st, step):
                if q.nullable and ev(t, g.arg) is want:
                    v = want
                    break
        elif isinstance(g, (sx.Hat, sx.Know)):
            raise InvalidInput("dynamic logic has no agent operators")
        else:
            raise TypeError(f"not a dynamic-logic formula: {g!r}")
        memo[key] = v
        return v

    return ev(s, f)
