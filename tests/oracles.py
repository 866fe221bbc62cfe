"""Slow reference implementations used only to cross-check the library.

Everything here is written against the same data types but with different
algorithms than the package uses, so agreement is meaningful. The
exceptions are ``residuate``, ``member``, ``language_equivalent`` and
``validity_sample``: compositions of the package's own operations that
only the tests need.
"""

from __future__ import annotations

import itertools
import random

from polkit import bts as bt
from polkit import corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.models import Model
from polkit.obsregex import Atom, Concat, Empty, Epsilon, ObsExpr, Star, Sum


def node_count(node) -> int:
    """Nodes of a formula or expression tree, by plain recursion: a
    shared subtree counts each time it occurs, an n-ary node counts as
    its n - 1 binary equivalents, and a modality counts its expression."""
    if isinstance(node, (sx.Or, sx.And, Sum, Concat)):
        return len(node.parts) - 1 + sum(map(node_count, node.parts))
    if isinstance(node, (sx.Dia, sx.Box)):
        return 1 + node_count(node.pi) + node_count(node.arg)
    if isinstance(node, (sx.Not, sx.Hat, sx.Know)):
        return 1 + node_count(node.arg)
    if isinstance(node, Star):
        return 1 + node_count(node.body)
    if isinstance(node, (sx.Top, sx.Prop, Empty, Epsilon, Atom)):
        return 1
    raise TypeError(f"not a formula or expression: {node!r}")


def match_positions(e: ObsExpr, word: tuple, i: int, memo=None) -> frozenset:
    """All j with word[i:j] in L(e), by span decomposition (no derivatives)."""
    if memo is None:
        memo = {}
    key = (id(e), i)
    got = memo.get(key)
    if got is not None:
        return got
    if isinstance(e, Empty):
        out = frozenset()
    elif isinstance(e, Epsilon):
        out = frozenset({i})
    elif isinstance(e, Atom):
        out = frozenset({i + 1}) if i < len(word) and word[i] == e.symbol \
            else frozenset()
    elif isinstance(e, Sum):
        acc = set()
        for p in e.parts:
            acc |= match_positions(p, word, i, memo)
        out = frozenset(acc)
    elif isinstance(e, Concat):
        starts = {i}
        for p in e.parts:
            nxt = set()
            for s in starts:
                nxt |= match_positions(p, word, s, memo)
            starts = nxt
            if not starts:
                break
        out = frozenset(starts)
    elif isinstance(e, Star):
        closed = {i}
        frontier = {i}
        while frontier:
            new = set()
            for s in frontier:
                for j in match_positions(e.body, word, s, memo):
                    if j > s and j not in closed:
                        new.add(j)
            closed |= new
            frontier = new
        out = frozenset(closed)
    else:
        raise TypeError(f"not an ObsExpr: {e!r}")
    memo[key] = out
    return out


def member_oracle(e: ObsExpr, word) -> bool:
    word = tuple(word)
    return len(word) in match_positions(e, word, 0)


def words_up_to(symbols, max_len: int):
    """All words over ``symbols`` of length at most ``max_len``."""
    for n in range(max_len + 1):
        yield from itertools.product(symbols, repeat=n)


def language_sample(e: ObsExpr, symbols, max_len: int) -> frozenset:
    """The finite slice of L(e) up to the given length, by the oracle."""
    return frozenset(w for w in words_up_to(symbols, max_len)
                     if member_oracle(e, w))


def hintikka_by_masks(fl):
    """The Hintikka sets over ``fl`` by trying every assignment to its
    unnegated members, as bit patterns in closure order, smallest first,
    each negation decided by its argument."""
    fl = frozenset(fl)
    cores = sorted((f for f in fl if not isinstance(f, sx.Not)),
                   key=sx.closure_order)

    def member(f, present):
        neg = False
        while isinstance(f, sx.Not):
            neg = not neg
            f = f.arg
        return (f in present) != neg

    out = []
    for mask in range(1 << len(cores)):
        present = {f for i, f in enumerate(cores) if mask >> i & 1}
        h = frozenset(f for f in fl if member(f, present))
        if bt.is_hintikka(h, fl) is True:
            out.append(h)
    return out


def label_mismatches(t, model, max_len: int = 3):
    """Where a structure's labels disagree with its extracted model.

    For every word of at most ``max_len`` letters that the transitions
    of the bubble structure ``t`` follow from the initial bubble, each
    state of the bubble reached must survive the word in ``model``, and
    every formula of its label must hold there. Returns the failures as
    (word, state, formula text) triples, and the number of checks."""
    failures = []
    checked = 0
    for w in words_up_to(tuple(t.alphabet), max_len):
        cur = t.initial
        for a in w:
            cur = t.delta.get((cur, a))
            if cur is None:
                break
        if cur is None:
            continue
        mw = model.update(w)
        bubble = t.bubbles[cur]
        for s in bubble.states:
            if mw is None or s not in mw.states:
                failures.append((w, s, "the state does not survive"))
                continue
            for f in bubble.labels[s]:
                checked += 1
                if not mw.check(s, f):
                    failures.append((w, s, sx.print_formula(f)))
    return failures, checked


def residuated_model(m, word):
    """The model after publicly observing ``word``, built from scratch:
    each expectation residuated by the whole word (``residuate``),
    then a fresh ``Model`` over the states whose residual is not empty,
    with their propositions and the relations restricted to them. None
    if no state survives. ``Model.update`` walks its residuation graph
    instead, so this is its reference."""
    exp = {}
    for s in m.states:
        e = residuate(m.exp[s], word, m.alphabet)
        if not ox.is_empty_language(e):
            exp[s] = e
    if not exp:
        return None
    keep = set(exp)
    relations = {agent: [b & keep for b in m.relation_blocks(agent)
                         if b & keep]
                 for agent in m.agents}
    return Model(m.alphabet, m.agents, keep,
                 {s: m.props[s] for s in keep}, exp, relations)


def residual_maps(m) -> set:
    """The models reachable from ``m`` by observations, each as its map
    from surviving states to residuals keyed order-free, as
    ``frozenset(exp.items())``: a breadth-first walk that derives every
    residual by each letter with ``ox.derive`` and keeps the states
    whose residual is not empty."""
    start = frozenset(m.exp.items())
    seen = {start}
    queue = [start]
    for cur in queue:  # the queue grows while it is read
        for sym in m.alphabet:
            derived = ((s, ox.derive(e, sym)) for s, e in cur)
            nxt = frozenset((s, e) for s, e in derived
                            if not ox.is_empty_language(e))
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _model_key(m):
    return m.states, tuple(m.exp[s] for s in m.states)


def stepwise_check(m, s, f, memo=None) -> bool:
    """Truth of ``f`` at state ``s`` of ``m``, one state at a time.

    Uses the public API only. An observation modality walks words
    breadth first over pairs of an updated model (``residuated_model``)
    and a derivative of its expression (``ox.derive``), keeps the models
    that ``s`` survives and the derivatives whose language is not empty,
    and evaluates the body at ``s`` in the models met at nullable
    derivatives. ``memo`` caches truth per (model states
    and expectations, state, formula) within one base model."""
    if memo is None:
        memo = {}
    key = (_model_key(m), s, f)
    if key in memo:
        return memo[key]
    if isinstance(f, sx.Top):
        val = True
    elif isinstance(f, sx.Prop):
        val = f.name in m.props[s]
    elif isinstance(f, sx.Not):
        val = not stepwise_check(m, s, f.arg, memo)
    elif isinstance(f, sx.Or):
        val = any(stepwise_check(m, s, p, memo) for p in f.parts)
    elif isinstance(f, sx.And):
        val = all(stepwise_check(m, s, p, memo) for p in f.parts)
    elif isinstance(f, sx.Hat):
        val = any(stepwise_check(m, t, f.arg, memo)
                  for t in m.block(f.agent, s))
    elif isinstance(f, sx.Know):
        val = all(stepwise_check(m, t, f.arg, memo)
                  for t in m.block(f.agent, s))
    elif isinstance(f, (sx.Dia, sx.Box)):
        want = isinstance(f, sx.Dia)
        found = False
        if not ox.is_empty_language(f.pi):
            queue = [(m, f.pi)]
            seen = {(_model_key(m), f.pi)}
            for mw, q in queue:  # the queue grows while it is read
                if (ox.nullable(q)
                        and stepwise_check(mw, s, f.arg, memo) is want):
                    found = True
                    break
                for sym in m.alphabet:
                    nxt = residuated_model(mw, (sym,))
                    q2 = ox.derive(q, sym)
                    if (nxt is None or s not in nxt.states
                            or ox.is_empty_language(q2)):
                        continue
                    pair = (_model_key(nxt), q2)
                    if pair not in seen:
                        seen.add(pair)
                        queue.append((nxt, q2))
        val = found is want
    else:
        raise TypeError(f"not a Formula: {f!r}")
    memo[key] = val
    return val


class AllPairsTranslation(dp.Translation):
    """The bubble encoding with one adjacency atom per slot pair and the
    transitivity laws for every agent, the first one included, so no
    agent's classes are restricted to intervals of slots. Every agent
    member reads every slot pair, so the first agent's chains over
    neighbour links are not used either, and decoding reads every
    agent's classes pair by pair."""

    def classes(self, agent, holds, slots):
        return {frozenset(y for y in slots if holds(self.rel(agent, x, y)))
                for x in slots}

    def _chains(self, psi):
        return [self._pinned(psi, ell) for ell in self.labels]

    def _adjacency(self):
        return {(i, x, y): dp.atom(f"R_{i}({x},{y})") for i in self.agents
                for x, y in itertools.combinations(self.labels, 2)}

    def _frame_laws(self):
        return [dp.lor(sx.lnot(self.rel(i, x, y)), sx.lnot(self.rel(i, y, z)),
                       self.rel(i, x, z))
                for i in self.agents
                for x, z in itertools.combinations(self.labels, 2)
                for y in self.labels if y not in (x, z)]


def slot_fact(f, atoms) -> bool:
    """Truth of a slot fact of the bubble encoding (``true``, atoms,
    negations and junctions) under the true ``atoms``, by plain
    recursion; any other node is a TypeError."""
    if isinstance(f, sx.Top):
        return True
    if isinstance(f, sx.Prop):
        return f.name in atoms
    if isinstance(f, sx.Not):
        return not slot_fact(f.arg, atoms)
    if isinstance(f, sx.Or):
        return any(slot_fact(g, atoms) for g in f.parts)
    if isinstance(f, sx.And):
        return all(slot_fact(g, atoms) for g in f.parts)
    raise TypeError(f"not a slot fact: {f!r}")


def residuate(e: ObsExpr, word, alphabet=None) -> ObsExpr:
    """Derivative by a word: L(residuate(e, w)) = {u | w u in L(e)}. A
    symbol outside ``alphabet``, an ``Alphabet`` when given, raises
    UnknownSymbol."""
    for sym in word:
        if alphabet is not None:
            alphabet.require(sym)
        e = ox.derive(e, sym)
    return e


def member(e: ObsExpr, word) -> bool:
    """Whether ``word`` is in L(e), through ``residuate``."""
    return residuate(e, word).nullable


def language_equivalent(e1: ObsExpr, e2: ObsExpr, alphabet=None) -> bool:
    """Language equality: in each direction, ``ox.search`` finds no word
    that one expression holds and the other does not. The graph of each
    search is the other expression's derivatives under ``ox.derive``, so
    only the searched expression's derivatives meet the walk's cap. A
    symbol of either expression outside a given alphabet raises
    UnknownSymbol."""
    syms = sorted(ox.atoms(e1) | ox.atoms(e2))
    if alphabet is None:
        if not syms:
            # both languages are subsets of {epsilon}
            return e1.nullable == e2.nullable and e1.empty == e2.empty
        alphabet = ox.Alphabet(syms)
    else:
        alphabet = ox.Alphabet(alphabet)
        for sym in syms:
            alphabet.require(sym)

    def step(q):
        return [(sym, ox.derive(q, sym)) for sym in alphabet]

    def differs(ea, eb):
        return ox.search(ea, eb, step, lambda q: not q.nullable) is not None

    return not differs(e1, e2) and not differs(e2, e1)


def validity_sample(f, models: int = 500, seed: int = 0, **gen_kwargs):
    """Search random models for a state falsifying the formula.

    Returns (model, state) for the first counterexample, or None if the
    formula held everywhere in the sample.
    """
    rng = random.Random(seed)
    gen_kwargs.setdefault("agents", tuple(sorted(sx.agents(f))) or ("i",))
    gen_kwargs.setdefault("symbols", tuple(sorted(sx.letters(f))) or ("a",))
    for _ in range(models):
        m = corpus.random_model(rng, **gen_kwargs)
        for s in m.states:
            if not m.check(s, f):
                return m, s
    return None
