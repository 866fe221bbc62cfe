"""Bubble structures: finite certificates of satisfiability.

A bubble packages an epistemic frame with one formula label per state.
Labels are Hintikka sets over the closure of a target formula: they
decide every closure member and spell out, through their modal members,
what each state expects to observe. A bubble transition structure
(``Bts``) links bubbles with deterministic letter transitions that mimic
public observation: states disappear, labels evolve, relations restrict.

A structure that validates certifies its target formula satisfiable.
``extract_model`` rebuilds a concrete witness: the observation
expression of each state is read off the transition graph as the
language of words whose bubble path keeps that state alive.
"""

from __future__ import annotations

from . import obsregex as ox
from . import syntax as sx
from .errors import ClosureTooLarge, NotABts, UnknownState
from .models import Model, block_map, ordered_blocks, state_sort_key
from .obsregex import Alphabet

__all__ = [
    "Violation", "Bubble", "Bts",
    "is_hintikka", "enumerate_hintikka",
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


def _ordered(formulas):
    memo = {}
    return sorted(formulas,
                  key=lambda f: (sx.formula_size(f, memo), sx.formula_key(f)))


def _pp(f):
    return sx.print_formula(f)


# --- Hintikka sets -------------------------------------------------------


def _hintikka_violation(h, fl, ordered=None):
    if ordered is None:
        ordered = _ordered(fl)
    for f in _ordered(h):
        if f not in fl:
            return Violation("membership",
                             f"{_pp(f)} is not a closure member")
    if sx.top() in fl and sx.top() not in h:
        return Violation("top", "the label omits true")
    for f in ordered:
        if isinstance(f, sx.Not) and (f in h) == (f.arg in h):
            state = "both present" if f in h else "neither present"
            return Violation("1", f"{_pp(f.arg)} and its negation: {state}")
    for f in ordered:
        if isinstance(f, sx.And) and (f in h) != all(p in h
                                                     for p in f.parts):
            return Violation("2", f"{_pp(f)} disagrees with its conjuncts")
    for f in ordered:
        if isinstance(f, sx.Or) and (f in h) != any(p in h
                                                    for p in f.parts):
            return Violation("3", f"{_pp(f)} disagrees with its disjuncts")
    for f in ordered:
        if isinstance(f, sx.Know) and f in h and f.arg not in h:
            return Violation("4", f"{_pp(f)} without {_pp(f.arg)}")
    for f in ordered:
        if isinstance(f, sx.Dia) and f in h and isinstance(f.pi, ox.Sum):
            needed = [g for p in f.pi.parts
                      if (g := sx.dia(p, f.arg)) in fl]
            if needed and not any(g in h for g in needed):
                return Violation("5", f"{_pp(f)} without any branch diamond")
    for f in ordered:
        if isinstance(f, sx.Dia) and f in h and isinstance(f.pi, ox.Concat):
            g = sx.dia(f.pi.parts[0],
                       sx.dia(ox.seq(*f.pi.parts[1:]), f.arg))
            if g in fl and g not in h:
                return Violation("6", f"{_pp(f)} without {_pp(g)}")
    for f in ordered:
        if isinstance(f, sx.Dia) and f in h and isinstance(f.pi, ox.Star):
            needed = [g for g in (f.arg, sx.dia(f.pi.body, f)) if g in fl]
            if needed and not any(g in h for g in needed):
                return Violation("7", f"{_pp(f)} neither stops nor unrolls")
    for f in ordered:
        if isinstance(f, sx.Box) and f in h and isinstance(f.pi, ox.Sum):
            for p in f.pi.parts:
                g = sx.box(p, f.arg)
                if g in fl and g not in h:
                    return Violation("8", f"{_pp(f)} without {_pp(g)}")
    for f in ordered:
        if isinstance(f, sx.Box) and f in h and isinstance(f.pi, ox.Concat):
            g = sx.box(f.pi.parts[0],
                       sx.box(ox.seq(*f.pi.parts[1:]), f.arg))
            if g in fl and g not in h:
                return Violation("9", f"{_pp(f)} without {_pp(g)}")
    for f in ordered:
        if isinstance(f, sx.Box) and f in h and isinstance(f.pi, ox.Star):
            for g in (f.arg, sx.box(f.pi.body, f)):
                if g in fl and g not in h:
                    return Violation("10", f"{_pp(f)} without {_pp(g)}")
    for f in ordered:
        if isinstance(f, sx.Dia) and f in h and isinstance(f.pi, ox.Epsilon) \
                and f.arg in fl and f.arg not in h:
            return Violation("eps-dia", f"{_pp(f)} without {_pp(f.arg)}")
    for f in ordered:
        if isinstance(f, sx.Box) and f in h and isinstance(f.pi, ox.Epsilon) \
                and f.arg in fl and f.arg not in h:
            return Violation("eps-box", f"{_pp(f)} without {_pp(f.arg)}")
    return None


def is_hintikka(h, fl):
    """Check the label conditions for a set of closure members.

    ``fl`` is a closure as produced by ``syntax.fl_closure`` and ``h`` a
    candidate label. The conditions, each applying only when the
    formulas it asks for are closure members:

       1. for each negation ~psi in the closure, exactly one of psi and
          ~psi is in h (so every member is decided)
       2. psi&chi is in h iff both conjuncts are
       3. psi|chi is in h iff some disjunct is
       4. K_a psi in h requires psi in h
       5. <p1+..+pn>psi in h requires some <pk>psi in h
       6. <p1;rest>psi in h requires <p1><rest>psi in h
       7. <p*>psi in h requires psi in h or <p><p*>psi in h
       8. [p1+..+pn]psi in h requires every [pk]psi in h
       9. [p1;rest]psi in h requires [p1][rest]psi in h
      10. [p*]psi in h requires both psi and [p][p*]psi in h

    In addition, a label contains true whenever it is a closure member,
    and the empty-word modalities <0*> and [0*] require their argument
    directly (their unrollings collapse under expression normalization).

    Returns True, or a falsy Violation naming the first failed condition.
    """
    v = _hintikka_violation(frozenset(h), frozenset(fl))
    return True if v is None else v


def enumerate_hintikka(fl, cap: int = 22):
    """All sets passing ``is_hintikka`` over ``fl``, in a fixed order.

    Every label decides each unnegated closure member, so the candidates
    are enumerated as bit patterns over those members, smallest first.
    Refuses closures with more than ``cap`` members, since the candidate
    space doubles with each one.
    """
    fl = frozenset(fl)
    if len(fl) > cap:
        raise ClosureTooLarge(
            f"{len(fl)} closure members exceed the cap of {cap}")
    ordered = _ordered(fl)
    cores = [f for f in ordered if not isinstance(f, sx.Not)]

    def member(f, present):
        neg = False
        while isinstance(f, sx.Not):
            neg = not neg
            f = f.arg
        return (f in present) != neg

    def gen():
        for mask in range(1 << len(cores)):
            present = {f for i, f in enumerate(cores) if mask >> i & 1}
            h = frozenset(f for f in fl if member(f, present))
            if _hintikka_violation(h, fl, ordered) is None:
                yield h

    return gen()


# --- bubbles -------------------------------------------------------------


class Bubble:
    """An epistemic frame whose states carry formula labels.

    ``relations`` maps agents to partitions given as iterables of
    blocks; states missing from every block are singletons, as in
    ``Model``. Bubbles with the same states, labels and relations
    compare equal.
    """

    __slots__ = ("states", "labels", "agents", "_blocks", "_canon")

    def __init__(self, states, labels, relations=None):
        self.states = tuple(sorted(set(states), key=state_sort_key))
        sset = set(self.states)
        labels = dict(labels)
        for s in labels:
            if s not in sset:
                raise UnknownState(f"labelled state {s!r} is not a state")
        self.labels = {s: frozenset(labels.get(s, ())) for s in self.states}
        self._blocks = {agent: block_map(self.states, agent, blocks)
                        for agent, blocks in dict(relations or {}).items()}
        self.agents = tuple(sorted(self._blocks))
        self._canon = None

    def label(self, s) -> frozenset:
        if s not in self.labels:
            raise UnknownState(f"state {s!r} not in bubble")
        return self.labels[s]

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

    def _key(self):
        if self._canon is None:
            rels = tuple(
                (agent, self.relation_blocks(agent))
                for agent in self.agents
                if any(len(b) > 1 for b in self.relation_blocks(agent)))
            self._canon = (self.states,
                           tuple(self.labels[s] for s in self.states),
                           rels)
        return self._canon

    def __eq__(self, other):
        return isinstance(other, Bubble) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Bubble(states={self.states!r})"


def is_bubble(b: Bubble, fl):
    """Validate a bubble against a closure.

       1. at most 2^|closure| states
       2. every label is a Hintikka set over the closure
      3a. hK_a psi in a label has a related state labelled psi
      3b. states related for an agent carry the same K_a members

    Returns True or a falsy Violation.
    """
    fl = frozenset(fl)
    if len(fl) < 64 and len(b.states) > 1 << len(fl):
        return Violation("1", f"{len(b.states)} states exceed the "
                              f"2^{len(fl)} label space")
    ordered = _ordered(fl)
    for s in b.states:
        v = _hintikka_violation(b.labels[s], fl, ordered)
        if v is not None:
            return Violation("2", f"label of {s!r} fails {v}")
    for s in b.states:
        for f in _ordered(b.labels[s]):
            if isinstance(f, sx.Hat):
                block = b.block(f.agent, s)
                if not any(f.arg in b.labels[s2] for s2 in block):
                    return Violation(
                        "3a", f"{_pp(f)} at {s!r} has no related state "
                              f"labelled {_pp(f.arg)}")
    for agent in b.agents:
        for block in b.relation_blocks(agent):
            know = {s: frozenset(f for f in b.labels[s]
                                 if isinstance(f, sx.Know)
                                 and f.agent == agent)
                    for s in block}
            states = sorted(block, key=state_sort_key)
            for s in states[1:]:
                if know[s] != know[states[0]]:
                    return Violation(
                        "3b", f"{s!r} and {states[0]!r} are related for "
                              f"{agent!r} but disagree on K_{agent} members")
    return True


def is_a_successor(b: Bubble, b2: Bubble, a: str, fl):
    """Is ``b2`` the result of publicly observing ``a`` in ``b``?

    Over the closure ``fl``:

      1. the states of b2 survive from b with unchanged propositions
      2. <a>psi labels a state of b exactly when the state survives
         with psi labelled in b2
      3. [a]psi labels a survivor exactly when psi labels it in b2
      4. each agent's relation in b2 is the restriction of its relation
         in b to the survivors

    Returns True or a falsy Violation.
    """
    fl = frozenset(fl)
    s2set = set(b2.states)
    for s in b2.states:
        if s not in b.labels:
            return Violation("1", f"state {s!r} appears from nowhere")
        p1 = {f for f in b.labels[s] if isinstance(f, sx.Prop)}
        p2 = {f for f in b2.labels[s] if isinstance(f, sx.Prop)}
        if p1 != p2:
            return Violation("1", f"propositions at {s!r} change")
    sym = ox.atom(a)
    for f in _ordered(fl):
        if isinstance(f, sx.Dia) and f.pi is sym:
            for s in b.states:
                holds = f in b.labels[s]
                will = s in s2set and f.arg in b2.labels[s]
                if holds != will:
                    return Violation(
                        "2", f"{_pp(f)} at {s!r} is "
                             f"{'promised' if holds else 'unexpected'}")
    for f in _ordered(fl):
        if isinstance(f, sx.Box) and f.pi is sym:
            for s in b2.states:
                if (f in b.labels[s]) != (f.arg in b2.labels[s]):
                    return Violation(
                        "3", f"{_pp(f)} at {s!r} disagrees with "
                             f"{_pp(f.arg)} after the observation")
    for agent in sorted(set(b.agents) | set(b2.agents)):
        for s in b2.states:
            want = frozenset(x for x in b.block(agent, s) if x in s2set)
            if b2.block(agent, s) != want:
                return Violation(
                    "4", f"relation of {agent!r} at {s!r} is not the "
                         f"restriction to the survivors")
    return True


# --- transition structures -----------------------------------------------


class Bts:
    """Bubbles with deterministic observation transitions.

    ``delta`` maps (bubble index, symbol) pairs to bubble indices; a
    missing or None entry means the observation kills the structure.
    The alphabet is inferred from the formula and the transitions when
    not given.
    """

    def __init__(self, formula, bubbles, delta, initial: int = 0,
                 alphabet=None):
        self.formula = formula
        self.bubbles = tuple(bubbles)
        syms = set(sx.letters(formula))
        clean = {}
        for (i, a), j in dict(delta).items():
            if not isinstance(i, int) or not 0 <= i < len(self.bubbles):
                raise ValueError(f"transition from unknown bubble {i!r}")
            if j is None:
                continue
            if not isinstance(j, int) or not 0 <= j < len(self.bubbles):
                raise ValueError(f"transition to unknown bubble {j!r}")
            syms.add(a)
            clean[(i, a)] = j
        if alphabet is None:
            alphabet = Alphabet(sorted(syms))
        elif not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        for a in sorted(syms):
            alphabet.require(a)
        self.alphabet = alphabet
        self.delta = clean
        if self.bubbles and not 0 <= initial < len(self.bubbles):
            raise ValueError(f"initial bubble {initial!r} does not exist")
        self.initial = initial
        self.fl = sx.fl_closure(formula)

    def __repr__(self):
        return (f"Bts({sx.print_formula(self.formula)!r}, "
                f"{len(self.bubbles)} bubbles)")


def _fulfilled(t: Bts, start: int, s, f) -> bool:
    """Does some word of f.pi keep ``s`` alive from bubble ``start`` to a
    bubble labelling it with f.arg?"""

    def step(bi):
        for a in t.alphabet:
            j = t.delta.get((bi, a))
            if j is not None and s in t.bubbles[j].labels:
                yield a, j

    return ox.search(ox.to_dfa(f.pi, t.alphabet), start, step,
                     lambda bi: f.arg in t.bubbles[bi].labels[s]) is not None


def is_bts(t: Bts):
    """Validate a bubble transition structure against its formula.

      1. some state of the initial bubble is labelled with the formula
         (and every bubble validates against the formula's closure)
      2. every transition leads to an observation successor
      3. every diamond in every label is realized by a word of its
         expression along the transitions, with the state surviving

    Returns True or a falsy Violation.
    """
    if not t.bubbles:
        return Violation("1", "no bubbles")
    init = t.bubbles[t.initial]
    if not any(t.formula in init.labels[s] for s in init.states):
        return Violation("1", "no initial state carries the target formula")
    for i, b in enumerate(t.bubbles):
        v = is_bubble(b, t.fl)
        if v is not True:
            return Violation("1", f"bubble {i} is malformed: {v}")
    for (i, a), j in sorted(t.delta.items()):
        v = is_a_successor(t.bubbles[i], t.bubbles[j], a, t.fl)
        if v is not True:
            return Violation("2", f"delta({i},{a!r})={j}: {v}")
    for i, b in enumerate(t.bubbles):
        for s in b.states:
            for f in _ordered(b.labels[s]):
                if isinstance(f, sx.Dia) and not _fulfilled(t, i, s, f):
                    return Violation(
                        "3", f"{_pp(f)} at state {s!r} of bubble {i} is "
                             f"never realized")
    return True


# --- model extraction ----------------------------------------------------


def _graph_regex(n: int, delta, initial: int, finals) -> ox.ObsExpr:
    """Expression for the words leading from ``initial`` into ``finals``
    over the edge map ``delta``, by state elimination in ascending node
    order."""
    start, accept = n, n + 1
    edges = {}

    def add(u, v, e):
        if ox.is_empty_language(e):
            return
        old = edges.get((u, v))
        edges[(u, v)] = e if old is None else ox.alt(old, e)

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


def _strip_epsilon(e: ox.ObsExpr, alphabet: Alphabet) -> ox.ObsExpr:
    """The language of ``e`` without the empty word."""
    if not ox.nullable(e):
        return e
    dfa = ox.to_dfa(e, alphabet)
    n = len(dfa.states)
    delta = dict(dfa.transitions)
    for a in alphabet:
        delta[(n, a)] = dfa.transitions[(0, a)]
    return _graph_regex(n + 1, delta, n, frozenset(dfa.accepting))


def _absorbing(t: Bts, finals) -> bool:
    """No path from a reachable non-final node back into the finals."""
    adj = {}
    for (i, _), j in t.delta.items():
        adj.setdefault(i, set()).add(j)
    reach = {t.initial}
    stack = [t.initial]
    while stack:
        for j in adj.get(stack.pop(), ()):
            if j not in reach:
                reach.add(j)
                stack.append(j)
    good = {f for f in finals if f in reach}
    changed = True
    while changed:
        changed = False
        for i in reach:
            if i not in good and any(j in good for j in adj.get(i, ())):
                good.add(i)
                changed = True
    return all(i in finals for i in good)


def extract_model(t: Bts, max_contexts: int = 10 ** 5):
    """Build a pointed model over the initial bubble from a valid
    structure.

    Each state's observation expression is the language of words whose
    transition path visits only bubbles containing the state. The empty
    word is dropped from that language when other words remain; this
    preserves every survival question (prefixes are unchanged) and keeps
    the trivial expectation out of live expressions.

    Returns (model, state labelled with the target formula). Raises
    NotABts when the structure does not validate.
    """
    v = is_bts(t)
    if v is not True:
        raise NotABts(str(v))
    init = t.bubbles[t.initial]
    exp = {}
    for s in init.states:
        finals = frozenset(i for i, b in enumerate(t.bubbles)
                           if s in b.labels)
        if not _absorbing(t, finals):
            raise AssertionError(f"state {s!r} resurrects")
        e = _graph_regex(len(t.bubbles), t.delta, t.initial, finals)
        if not ox.nullable(e):
            raise AssertionError(
                f"expectation of state {s!r} misses the empty word")
        stripped = _strip_epsilon(e, t.alphabet)
        exp[s] = ox.epsilon() if ox.is_empty_language(stripped) else stripped
    agents = tuple(sorted(set(init.agents) | set(sx.agents(t.formula))))
    props = {s: frozenset(f.name for f in init.labels[s]
                          if isinstance(f, sx.Prop))
             for s in init.states}
    relations = {agent: init.relation_blocks(agent) for agent in init.agents}
    model = Model(t.alphabet, agents, init.states, props, exp, relations,
                  max_contexts)
    s0 = min((s for s in init.states if t.formula in init.labels[s]),
             key=state_sort_key)
    return model, s0
