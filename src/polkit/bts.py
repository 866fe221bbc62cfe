"""Bubble structures: finite certificates of satisfiability.

A bubble packages an epistemic frame with one formula label per state.
Labels are Hintikka sets over the closure of a target formula: they
decide every closure member and spell out, through their modal members,
what each state expects to observe. A bubble transition structure
(``Bts``) links bubbles with deterministic letter transitions that mimic
public observation: states disappear, labels evolve, relations restrict.

Validation checks every condition in both directions. A label holds a
member exactly when the member's ``syntax.definition`` holds in it, so
only the free members (propositions, one-letter modalities and agent
operators) are chosen; ``K_a psi`` needs ``psi`` and ``psi`` needs
``hK_a psi``. In a bubble a present ``hK_a psi`` needs a related state
with ``psi`` and an absent ``K_a psi`` one without it, and related
states agree on their ``K_a`` and ``hK_a`` members. Along the
transitions a one-letter modality agrees with its argument after the
letter, and a present diamond or an absent box is realized by a word of
its expression.

A structure that validates certifies its target formula satisfiable.
``extract_model`` rebuilds a concrete witness: the observation
expression of each state is read off the transition graph as the
language of words whose bubble path keeps that state alive.
"""

from __future__ import annotations

from . import obsregex as ox
from . import syntax as sx
from .errors import (InvalidInput, NotABts, ResourceBudgetExceeded,
                     UnknownState)
from .models import (Model, _collect, _mapping, _ordered, block_map,
                     ordered_blocks, state_sort_key)
from .obsregex import Alphabet

__all__ = [
    "Violation", "Bubble", "Bts",
    "is_hintikka",
    "is_bubble", "is_a_successor", "is_bts", "extract_model",
]


class Violation:
    """Falsy diagnostic naming the first failed validation condition."""

    __slots__ = ("condition", "detail")

    def __init__(self, condition, detail):
        self.condition = condition
        self.detail = detail

    def __bool__(self):
        return False

    def __repr__(self):
        return f"Violation({self.condition!r}, {self.detail!r})"

    def __str__(self):
        return f"condition {self.condition}: {self.detail}"


def _pp(f):
    return sx.print_formula(f)


class _Closure:
    """A closure as the validators read it, built once per check: its
    members in closure order, each defined member with its
    ``syntax.definition``, and the agent operators. A closure that
    ``_collect`` refuses, or a member that is not a formula, raises
    ``InvalidInput``."""

    __slots__ = ("fl", "ordered", "defined", "knowledge")

    def __init__(self, fl):
        self.fl = _collect(frozenset, fl, "the closure")
        for f in self.fl:
            if not isinstance(f, sx.Formula):
                raise InvalidInput(f"closure member {f!r} is not a formula")
        self.ordered = sorted(self.fl, key=sx.closure_order)
        self.defined = []
        for f in self.ordered:
            kind, operands = sx.definition(f)
            if kind != "free":
                self.defined.append((f, kind, operands))
        self.knowledge = [f for f in self.ordered
                          if isinstance(f, (sx.Hat, sx.Know))]


def _holds(kind, operands, h) -> bool:
    """Does a definition hold in the label ``h``?"""
    if kind == "not":
        return operands[0] not in h
    if kind == "or":
        return any(g in h for g in operands)
    return all(g in h for g in operands)  # "and"


# --- Hintikka sets -------------------------------------------------------


def _hintikka_violation(h, c: _Closure):
    if not h <= c.fl:
        odd = sorted(repr(g) for g in h if not isinstance(g, sx.Formula))
        if odd:
            return Violation("membership", f"{odd[0]} is not a formula")
        f = min(h - c.fl, key=sx.closure_order)
        return Violation("membership", f"{_pp(f)} is not a closure member")
    for f, kind, operands in c.defined:
        if (f in h) != _holds(kind, operands, h):
            state = ("present but its definition fails" if f in h
                     else "absent but its definition holds")
            return Violation("1", f"{_pp(f)} is {state}")
    for f in c.knowledge:
        if isinstance(f, sx.Know) and f in h and f.arg not in h:
            return Violation("2", f"{_pp(f)} without {_pp(f.arg)}")
        if isinstance(f, sx.Hat) and f not in h and f.arg in h:
            return Violation("2", f"{_pp(f.arg)} without {_pp(f)}")
    return None


def is_hintikka(h, fl):
    """Check the label conditions for a set of closure members.

    ``fl`` is a closure as produced by ``syntax.fl_closure`` and ``h`` a
    candidate label, every element of which must be a closure member.

       1. every member that ``syntax.definition`` does not leave free
          is in h exactly when its definition holds in h: true is in h,
          ~psi is in h iff psi is not, a junction iff its parts are,
          and a modality over a composite expression iff its one-step
          unfolding is (so every member is decided by the free ones:
          propositions, one-letter modalities and agent operators)
       2. K_a psi in h requires psi in h, and psi in h requires
          hK_a psi in h when hK_a psi is a member

    Returns True, or a falsy Violation naming the first failed condition.
    A label that is a string or not a collection raises ``InvalidInput``.
    """
    v = _hintikka_violation(_collect(frozenset, h, "the label"), _Closure(fl))
    return True if v is None else v


# --- bubbles -------------------------------------------------------------


class Bubble:
    """An epistemic frame whose states carry formula labels.

    ``relations`` maps agents to partitions given as iterables of
    blocks; states missing from every block are singletons, as in
    ``Model``. ``states`` and each label are iterables that are not
    strings, and ``labels`` and ``relations`` are mappings or pairs
    (else ``InvalidInput``).
    """

    __slots__ = ("states", "labels", "agents", "_blocks")

    def __init__(self, states, labels, relations=None):
        sset = _collect(frozenset, states, "the states of a bubble")
        self.states = tuple(_ordered(sset, "the states", state_sort_key))
        labels = _mapping(labels, "the labels of a bubble")
        for s in labels:
            if s not in sset:
                raise UnknownState(f"labelled state {s!r} is not a state")
        self.labels = {s: _collect(frozenset, labels.get(s, ()),
                                   f"the label of {s!r}")
                       for s in self.states}
        relations = _mapping(relations or {}, "the relations of a bubble")
        self._blocks = {agent: block_map(self.states, agent, blocks)
                        for agent, blocks in relations.items()}
        self.agents = tuple(_ordered(self._blocks, "the agents"))

    def block(self, agent, s) -> frozenset:
        """Equivalence class of ``s``; unlisted agents see singletons."""
        if s not in self.labels:
            raise UnknownState(f"state {s!r} not in bubble")
        assigned = self._blocks.get(agent)
        return assigned[s] if assigned is not None else frozenset({s})

    def relation_blocks(self, agent):
        assigned = self._blocks.get(agent)
        if assigned is None:
            return tuple(frozenset({s}) for s in self.states)
        return ordered_blocks(assigned)

    def __repr__(self):
        return f"Bubble(states={self.states!r})"


def _bubble(b) -> Bubble:
    """``b``, which must be a ``Bubble`` (else ``InvalidInput``)."""
    if not isinstance(b, Bubble):
        raise InvalidInput(f"{b!r} is not a Bubble")
    return b


def _bubble_violation(b: Bubble, c: _Closure):
    n = len(c.fl)
    if n < 64 and len(b.states) > 1 << n:
        return Violation("1", f"{len(b.states)} states exceed the "
                              f"2^{n} label space")
    for s in b.states:
        v = _hintikka_violation(b.labels[s], c)
        if v is not None:
            return Violation("2", f"label of {s!r} fails {v}")
    for s in b.states:
        for f in c.knowledge:
            # a present hK_a psi needs psi at a related state, an absent
            # K_a psi needs psi missing at one
            want = isinstance(f, sx.Hat)
            if (f in b.labels[s]) == want and not any(
                    (f.arg in b.labels[t]) == want
                    for t in b.block(f.agent, s)):
                return Violation(
                    "3a", f"{'' if want else '~'}{_pp(f)} at {s!r} has no "
                          f"related state {'with' if want else 'without'} "
                          f"{_pp(f.arg)}")
    for agent in b.agents:
        for block in b.relation_blocks(agent):
            views = {s: frozenset(f for f in b.labels[s]
                                  if isinstance(f, (sx.Hat, sx.Know))
                                  and f.agent == agent)
                     for s in block}
            states = sorted(block, key=state_sort_key)
            for s in states[1:]:
                if views[s] != views[states[0]]:
                    return Violation(
                        "3b", f"{s!r} and {states[0]!r} are related for "
                              f"{agent!r} but disagree on K_{agent} or "
                              f"hK_{agent} members")
    return None


def is_bubble(b: Bubble, fl):
    """Validate a bubble against a closure.

       1. at most 2^|closure| states
       2. every label is a Hintikka set over the closure
      3a. hK_a psi in a label has a related state labelled psi, and an
          absent K_a psi member has a related state not labelled psi
      3b. states related for an agent carry the same K_a and hK_a
          members

    Returns True or a falsy Violation. A ``b`` that is not a ``Bubble``
    raises ``InvalidInput``.
    """
    v = _bubble_violation(_bubble(b), _Closure(fl))
    return True if v is None else v


def is_a_successor(b: Bubble, b2: Bubble, a: str, fl):
    """Is ``b2`` the result of publicly observing ``a`` in ``b``?

    Over the closure ``fl``:

      1. the states of b2 survive from b with unchanged propositions
      2. <a>psi labels a state of b exactly when the state survives
         with psi labelled in b2
      3. [a]psi labels a survivor exactly when psi labels it in b2
      4. each agent's relation in b2 is the restriction of its relation
         in b to the survivors

    Returns True or a falsy Violation. A ``b`` or ``b2`` that is not a
    ``Bubble`` raises ``InvalidInput``.
    """
    v = _successor_violation(_bubble(b), _bubble(b2), a,
                             _Closure(fl).ordered)
    return True if v is None else v


def _successor_violation(b: Bubble, b2: Bubble, a: str, ordered):
    """``is_a_successor`` over the closure members in closure order."""
    s2set = set(b2.states)
    for s in b2.states:
        if s not in b.labels:
            return Violation("1", f"state {s!r} appears from nowhere")
        p1 = {f for f in b.labels[s] if isinstance(f, sx.Prop)}
        p2 = {f for f in b2.labels[s] if isinstance(f, sx.Prop)}
        if p1 != p2:
            return Violation("1", f"propositions at {s!r} change")
    sym = ox.atom(a)
    steps = [f for f in ordered
             if isinstance(f, (sx.Dia, sx.Box)) and f.pi is sym]
    for f in steps:
        if isinstance(f, sx.Dia):
            for s in b.states:
                holds = f in b.labels[s]
                will = s in s2set and f.arg in b2.labels[s]
                if holds != will:
                    return Violation(
                        "2", f"{_pp(f)} at {s!r} is "
                             f"{'promised' if holds else 'unexpected'}")
    for f in steps:
        if isinstance(f, sx.Box):
            for s in b2.states:
                if (f in b.labels[s]) != (f.arg in b2.labels[s]):
                    return Violation(
                        "3", f"{_pp(f)} at {s!r} disagrees with "
                             f"{_pp(f.arg)} after the observation")
    for agent in _ordered(set(b.agents) | set(b2.agents), "the agents"):
        for s in b2.states:
            want = frozenset(x for x in b.block(agent, s) if x in s2set)
            if b2.block(agent, s) != want:
                return Violation(
                    "4", f"relation of {agent!r} at {s!r} is not the "
                         f"restriction to the survivors")
    return None


# --- transition structures -----------------------------------------------


class Bts:
    """Bubbles with deterministic observation transitions.

    ``delta`` maps (bubble index, symbol) pairs to bubble indices; a
    missing or None entry means the observation kills the structure.
    The alphabet is inferred from the formula and the transitions when
    not given, and is ``a`` alone when neither has a letter. The
    formula's letters are those that head the one-letter modalities of
    its closure, since every letter of a program is peeled into one by
    the unfoldings. ``bubbles`` is a collection of ``Bubble`` objects,
    and ``delta`` a mapping or pairs whose keys are pairs (else
    ``InvalidInput``).
    """

    def __init__(self, formula, bubbles, delta, initial: int = 0,
                 alphabet=None):
        self.formula = formula
        self.bubbles = _collect(tuple, bubbles, "the bubbles")
        for b in self.bubbles:
            _bubble(b)
        self.fl = sx.fl_closure(formula)
        syms = {g.pi.symbol for g in self.fl
                if isinstance(g, (sx.Dia, sx.Box))
                and isinstance(g.pi, ox.Atom)}
        clean = {}
        # not isinstance: a bool is an int to it, but no bubble index
        for key, j in _mapping(delta, "the transitions").items():
            if type(key) is not tuple or len(key) != 2:
                raise InvalidInput(f"transition key {key!r} is not a pair")
            i, a = key
            if type(i) is not int or not 0 <= i < len(self.bubbles):
                raise InvalidInput(f"transition from unknown bubble {i!r}")
            if j is None:
                continue
            if type(j) is not int or not 0 <= j < len(self.bubbles):
                raise InvalidInput(f"transition to unknown bubble {j!r}")
            syms.add(a)
            clean[(i, a)] = j
        syms = _ordered(syms, "the letters of a structure")
        if alphabet is None:
            alphabet = Alphabet(syms or ["a"])
        else:
            alphabet = ox._as_alphabet(alphabet)
        for a in syms:
            alphabet.require(a)
        self.alphabet = alphabet
        self.delta = clean
        if type(initial) is not int or (
                self.bubbles and not 0 <= initial < len(self.bubbles)):
            raise InvalidInput(f"initial bubble {initial!r} does not exist")
        self.initial = initial

    def __repr__(self):
        return (f"Bts({sx.print_formula(self.formula)!r}, "
                f"{len(self.bubbles)} bubbles)")


def _fulfilled(t: Bts, start: int, s, f, want: bool) -> bool:
    """Does some word of f.pi keep ``s`` alive from bubble ``start`` to a
    bubble whose label of ``s`` has f.arg exactly when ``want``?"""

    def step(bi):
        for a in t.alphabet:
            j = t.delta.get((bi, a))
            if j is not None and s in t.bubbles[j].labels:
                yield a, j

    return ox.search(
        f.pi, start, step,
        lambda bi: (f.arg in t.bubbles[bi].labels[s]) == want) is not None


def is_bts(t: Bts):
    """Validate a bubble transition structure against its formula.

      1. some state of the initial bubble is labelled with the formula
         (and every bubble validates against the formula's closure)
      2. every transition leads to an observation successor
      3. every diamond in a label, and every box absent from one, is
         realized by a word of its expression along the transitions,
         with the state surviving to a label that has the diamond's
         argument, or lacks the box's

    Returns True or a falsy Violation.
    """
    if not t.bubbles:
        return Violation("1", "no bubbles")
    init = t.bubbles[t.initial]
    if not any(t.formula in init.labels[s] for s in init.states):
        return Violation("1", "no initial state carries the target formula")
    c = _Closure(t.fl)
    for i, b in enumerate(t.bubbles):
        v = _bubble_violation(b, c)
        if v is not None:
            return Violation("1", f"bubble {i} is malformed: {v}")
    for (i, a), j in sorted(t.delta.items()):
        v = _successor_violation(t.bubbles[i], t.bubbles[j], a, c.ordered)
        if v is not None:
            return Violation("2", f"delta({i},{a!r})={j}: {v}")
    modal = [f for f in c.ordered if isinstance(f, (sx.Dia, sx.Box))]
    for i, b in enumerate(t.bubbles):
        for s in b.states:
            for f in modal:
                want = isinstance(f, sx.Dia)
                if (f in b.labels[s]) == want and not _fulfilled(
                        t, i, s, f, want):
                    return Violation(
                        "3", f"{'' if want else '~'}{_pp(f)} at state {s!r} "
                             f"of bubble {i} is never realized")
    return True


# --- model extraction ----------------------------------------------------


# The most nodes that ``_graph_regex`` joins into one sum, which ``ox.alt``
# prints; state elimination can grow them exponentially.
_JOIN_CAP = 10_000_000


def _graph_regex(n: int, delta, initial: int, finals) -> ox.ObsExpr:
    """Expression for the words leading from ``initial`` into ``finals``
    over the edge map ``delta``, by state elimination in ascending node
    order; a join past ``_JOIN_CAP`` raises ``ResourceBudgetExceeded``."""
    start, accept = n, n + 1
    edges = {}

    def add(u, v, e):
        old = edges.get((u, v))
        if old is not None:
            if old.size + e.size > _JOIN_CAP:
                raise ResourceBudgetExceeded(
                    f"model extraction would join expressions of more "
                    f"than {_JOIN_CAP} nodes")
            e = ox.alt(old, e)
        edges[(u, v)] = e

    for (i, a), j in sorted(delta.items()):
        add(i, j, ox.atom(a))
    add(start, initial, ox.epsilon())
    for f in sorted(finals):
        add(f, accept, ox.epsilon())
    for k in range(n):
        loop = edges.pop((k, k), None)
        mid = ox.star(loop) if loop is not None else ox.epsilon()
        ins = [(u, e) for (u, v), e in edges.items() if v == k]
        outs = [(v, e) for (u, v), e in edges.items() if u == k]
        for u, _ in ins:
            del edges[(u, k)]
        for v, _ in outs:
            del edges[(k, v)]
        for u, ein in ins:
            for v, eout in outs:
                add(u, v, ox.seq(ein, mid, eout))
    return edges.get((start, accept), ox.empty())


def extract_model(t: Bts):
    """Build a pointed model over the initial bubble from a valid
    structure.

    Each state's observation expression is the language of nonempty
    words whose transition path visits only bubbles containing the
    state, or the empty word when there is no such word. It is read as
    the words whose path ends in such a bubble: ``is_bts`` condition 2
    lets no state appear from nowhere, so every earlier bubble on the
    path contains the state too. Dropping the empty word beside other
    words preserves every survival question (prefixes are unchanged)
    and keeps the trivial expectation out of live expressions. The
    nonempty words are read from a fresh start node that copies the
    initial bubble's out-edges.

    Returns (model, state labelled with the target formula). Raises
    NotABts when the structure does not validate, and
    ``ResourceBudgetExceeded`` past ``_graph_regex``'s cap.
    """
    v = is_bts(t)
    if v is not True:
        raise NotABts(str(v))
    init = t.bubbles[t.initial]
    n = len(t.bubbles)
    delta = dict(t.delta)
    for (i, a), j in t.delta.items():
        if i == t.initial:
            delta[(n, a)] = j
    exp = {}
    for s in init.states:
        finals = frozenset(i for i, b in enumerate(t.bubbles)
                           if s in b.labels)
        e = _graph_regex(n + 1, delta, n, finals)
        exp[s] = ox.epsilon() if ox.is_empty_language(e) else e
    agents = tuple(_ordered(set(init.agents) | set(sx.agents(t.formula)),
                            "the agents"))
    props = {s: frozenset(f.name for f in init.labels[s]
                          if isinstance(f, sx.Prop))
             for s in init.states}
    relations = {agent: init.relation_blocks(agent) for agent in init.agents}
    model = Model(t.alphabet, agents, init.states, props, exp, relations)
    s0 = min((s for s in init.states if t.formula in init.labels[s]),
             key=state_sort_key)
    return model, s0
