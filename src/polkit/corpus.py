"""Random generators for expressions, formulas and models.

Used by the tests and the ``perfbench`` workloads. Everything is driven
by an explicit random.Random so runs are reproducible from a seed.
"""

from __future__ import annotations

import random

from . import bts as bt
from . import obsregex as ox
from . import syntax as sx
from .errors import InvalidInput
from .models import Model

__all__ = [
    "random_regex", "random_live_regex", "random_partition", "random_model",
    "random_formula", "drone_model", "recall_counterexample_model",
    "two_bubble_bts",
]


def random_regex(rng: random.Random, symbols, depth: int = 3) -> ox.ObsExpr:
    if depth <= 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.75:
            return ox.atom(rng.choice(symbols))
        if r < 0.9:
            return ox.epsilon()
        return ox.empty()
    op = rng.random()
    if op < 0.35:
        return ox.alt(random_regex(rng, symbols, depth - 1),
                      random_regex(rng, symbols, depth - 1))
    if op < 0.75:
        return ox.seq(random_regex(rng, symbols, depth - 1),
                      random_regex(rng, symbols, depth - 1))
    return ox.star(random_regex(rng, symbols, depth - 1))


def random_live_regex(rng: random.Random, symbols,
                      depth: int = 3) -> ox.ObsExpr:
    """A random expression whose language is non-empty."""
    for _ in range(50):
        e = random_regex(rng, symbols, depth)
        if not ox.is_empty_language(e):
            return e
    return ox.star(ox.atom(rng.choice(symbols)))


def random_partition(rng: random.Random, items):
    items = list(items)
    rng.shuffle(items)
    blocks = []
    i = 0
    while i < len(items):
        j = i + rng.randint(1, len(items) - i)
        blocks.append(frozenset(items[i:j]))
        i = j
    return blocks


def random_model(rng: random.Random, symbols=("a", "b"), agents=("i",),
                 prop_names=("p", "q"), min_states: int = 1,
                 max_states: int = 4, regex_depth: int = 3,
                 live: bool = True) -> Model:
    """A random model. Every expectation has a non-empty language, as
    ``Model`` requires, so ``live=False`` is refused."""
    if not live:
        raise InvalidInput("every expectation of a model has a non-empty "
                           "language")
    n = rng.randint(min_states, max_states)
    states = list(range(n))
    props = {s: frozenset(p for p in prop_names if rng.random() < 0.5)
             for s in states}
    exp = {s: random_live_regex(rng, symbols, regex_depth) for s in states}
    relations = {a: random_partition(rng, states) for a in agents}
    return Model(ox.Alphabet(symbols), agents, states, props, exp,
                 relations)


def random_formula(rng: random.Random, symbols=("a", "b"), agents=("i",),
                   prop_names=("p", "q"), depth: int = 3,
                   regex_depth: int = 2) -> sx.Formula:
    if depth <= 0 or rng.random() < 0.25:
        if prop_names and rng.random() < 0.85:
            return sx.prop(rng.choice(prop_names))
        return sx.top()
    ops = ["not", "or", "and", "dia", "box"]
    if agents:
        ops += ["hat", "know"]
    op = rng.choice(ops)
    arg = random_formula(rng, symbols, agents, prop_names, depth - 1,
                         regex_depth)
    if op == "not":
        return sx.lnot(arg)
    if op == "or":
        return sx.lor(arg, random_formula(rng, symbols, agents, prop_names,
                                          depth - 1, regex_depth))
    if op == "and":
        return sx.land(arg, random_formula(rng, symbols, agents, prop_names,
                                           depth - 1, regex_depth))
    if op == "hat":
        return sx.hat(rng.choice(agents), arg)
    if op == "know":
        return sx.know(rng.choice(agents), arg)
    pi = random_regex(rng, symbols, regex_depth)
    return sx.dia(pi, arg) if op == "dia" else sx.box(pi, arg)


def drone_model() -> Model:
    """Two hypotheses about a drone overhead.

    State u (proposition T1): the drone scans, photographs, then circles
    and flies on. State v (T2): it scans, photographs, then leaves and
    flies on. Agent d hears the observations but cannot tell the states
    apart up front."""
    alphabet = ox.Alphabet(["s", "p", "c", "f", "l"])
    exp_u = ox.parse_regex("(s*;p*;c;f*)*", alphabet)
    exp_v = ox.parse_regex("(s*;p*;l;f*)*", alphabet)
    return Model(
        alphabet, ["d"], ["u", "v"],
        {"u": {"T1"}, "v": {"T2"}},
        {"u": exp_u, "v": exp_v},
        {"d": [{"u", "v"}]},
    )


def recall_counterexample_model() -> Model:
    """Two states the agent cannot tell apart with incompatible
    expectations; refutes commuting the epistemic operator out of an
    observation diamond."""
    return Model(
        ox.Alphabet(["a", "b"]), ["i"], ["u", "v"],
        {"u": frozenset(), "v": {"p"}},
        {"u": ox.atom("b"), "v": ox.atom("a")},
        {"i": [{"u", "v"}]},
    )


def two_bubble_bts() -> bt.Bts:
    """Two bubbles certifying [a]false & hK_i(<a>(p|q) & [a*]<a>(p|q)).

    State s dies on the first observation while state t, carrying p,
    expects an endless stream of a's; the second bubble is its own
    successor. Labels decide the full closure of the formula."""
    a = ox.atom("a")
    p, q = sx.prop("p"), sx.prop("q")
    pq = sx.lor(p, q)
    d = sx.dia(a, pq)
    always = sx.box(ox.star(a), d)
    unrolled = sx.box(a, always)
    both = sx.land(d, always)
    hears = sx.hat("i", both)
    dead = sx.box(a, sx.lnot(sx.top()))
    phi = sx.land(dead, hears)
    label_t = frozenset({
        sx.top(), both, d, always, unrolled, pq, p, hears,
        sx.lnot(phi), sx.lnot(dead), sx.lnot(q),
    })
    label_s = frozenset({
        sx.top(), phi, dead, hears, unrolled,
        sx.lnot(both), sx.lnot(d), sx.lnot(always),
        sx.lnot(pq), sx.lnot(p), sx.lnot(q),
    })
    start = bt.Bubble(("s", "t"), {"s": label_s, "t": label_t},
                      {"i": [("s", "t")]})
    after = bt.Bubble(("t",), {"t": label_t})
    return bt.Bts(phi, (start, after), {(0, "a"): 1, (1, "a"): 1})
