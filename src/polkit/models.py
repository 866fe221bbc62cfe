"""Models and model checking.

A model is an S5 epistemic model whose states each carry an observation
expression: the words that state expects to observe. Observing a word w
removes every state whose expected language contains no continuation of w
and residuates the expectations of the others.

``Model.check`` implements the truth definition directly. The observation
modalities quantify over words from a regular language, so the checker
explores the product of the word automaton with the model's residuation
graph: the (finite, by normalization of derivatives) set of models
reachable from this one by observations. Truth values are memoized per
(reached model, state, formula).

A state whose expectation has an empty language expects nothing, so it
does not survive any observation, including the empty one. Such states
can exist in a freshly built model and they still evaluate propositions
and knowledge normally; only observation diamonds are false (and boxes
true) there.
"""

from __future__ import annotations

from . import obsregex as ox
from . import syntax as sx
from .errors import ResourceBudgetExceeded, UnknownAgent, UnknownState
from .obsregex import Alphabet, ObsExpr

__all__ = ["Model", "state_sort_key", "validity_sample"]

_MISSING = object()


def state_sort_key(s):
    """Deterministic order for mixed int and string state ids."""
    return (isinstance(s, str), s)


def equivalence_blocks(states, pairs):
    """Partition ``states`` into the classes generated by ``pairs``.

    The blocks are sorted tuples, listed in the order of their least
    members.
    """
    parent = {s: s for s in states}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
    groups = {}
    for s in states:
        groups.setdefault(find(s), []).append(s)
    return tuple(tuple(sorted(g)) for g in
                 sorted(groups.values(), key=lambda g: sorted(g)[0]))


def block_map(states, agent, blocks) -> dict:
    """Map each of ``states`` to its block in the agent's partition.

    ``blocks`` is an iterable of blocks; states missing from all of them
    form singleton blocks of their own.
    """
    sset = set(states)
    assigned = {}
    for block in blocks:
        fb = frozenset(block)
        for s in fb:
            if s not in sset:
                raise UnknownState(f"state {s!r} in relation of "
                                   f"agent {agent!r} is not a state")
            if s in assigned:
                raise ValueError(
                    f"state {s!r} occurs in two blocks of {agent!r}")
            assigned[s] = fb
    for s in states:
        assigned.setdefault(s, frozenset({s}))
    return assigned


def ordered_blocks(assigned: dict) -> tuple:
    """The distinct blocks of a ``block_map``, by their least states."""
    return tuple(sorted(set(assigned.values()),
                        key=lambda b: state_sort_key(
                            min(b, key=state_sort_key))))


class _Ctx:
    """A model reached by some sequence of observations.

    Identified by its surviving states and their residuated expectations;
    propositions and relations are those of the base model, restricted.
    """

    __slots__ = ("cid", "survivors", "exp", "steps", "eps")

    def __init__(self, cid, survivors, exp):
        self.cid = cid
        self.survivors = survivors
        self.exp = exp
        self.steps = {}
        self.eps = None


class Model:
    """An epistemic expectation model.

    ``relations`` maps each agent to a partition of the states, given as
    an iterable of blocks; states missing from all blocks form singleton
    blocks of their own. ``exp`` maps each state to its observation
    expression and ``props`` to the set of propositions true there.
    """

    def __init__(self, alphabet, agents, states, props, exp, relations,
                 max_contexts: int = 10 ** 5):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self.alphabet = alphabet
        self.agents = tuple(agents)
        self.states = tuple(sorted(states, key=state_sort_key))
        if not self.states:
            raise ValueError("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        self.props = {s: frozenset(props.get(s, ())) for s in self.states}
        self.exp = {}
        for s in self.states:
            if s not in exp:
                raise ValueError(f"state {s!r} has no observation expression")
            e = exp[s]
            for sym in ox.atoms(e):
                alphabet.require(sym)
            self.exp[s] = e
        self._blocks = {agent: block_map(self.states, agent,
                                         relations.get(agent, ()))
                        for agent in self.agents}
        self.max_contexts = max_contexts
        self._ctxs = {}
        self._memo = {}
        self._top = self._ctx_for(frozenset(self.states), self.exp)

    # -- structure ------------------------------------------------------------

    def block(self, agent: str, s):
        """The equivalence class of ``s`` under the agent's relation."""
        if agent not in self._blocks:
            raise UnknownAgent(f"agent {agent!r} not in model")
        if s not in self.props:
            raise UnknownState(f"state {s!r} not in model")
        return self._blocks[agent][s]

    def relation_blocks(self, agent: str):
        """The partition of the agent's relation, canonically ordered."""
        if agent not in self._blocks:
            raise UnknownAgent(f"agent {agent!r} not in model")
        return ordered_blocks(self._blocks[agent])

    def is_alive(self, s) -> bool:
        """Does the state expect at least one observation word?"""
        return not ox.is_empty_language(self.exp[s])

    # -- update ---------------------------------------------------------------

    def update(self, word) -> "Model | None":
        """The model after publicly observing ``word``, or None if no
        state survives. Observing the empty word removes the states that
        expect nothing."""
        survivors = []
        new_exp = {}
        for s in self.states:
            e = ox.residuate(self.exp[s], word, self.alphabet)
            if not ox.is_empty_language(e):
                survivors.append(s)
                new_exp[s] = e
        if not survivors:
            return None
        keep = set(survivors)
        relations = {
            agent: [b & keep for b in self.relation_blocks(agent)
                    if b & keep]
            for agent in self.agents
        }
        return Model(self.alphabet, self.agents, survivors,
                     {s: self.props[s] for s in survivors},
                     new_exp, relations, self.max_contexts)

    # -- residuation graph ------------------------------------------------

    def _ctx_for(self, survivors, exp):
        key = (survivors,
               tuple(exp[s] for s in sorted(survivors, key=state_sort_key)))
        ctx = self._ctxs.get(key)
        if ctx is None:
            if len(self._ctxs) >= self.max_contexts:
                raise ResourceBudgetExceeded(
                    f"residuation graph exceeds {self.max_contexts} contexts")
            ctx = _Ctx(len(self._ctxs), survivors,
                       {s: exp[s] for s in survivors})
            self._ctxs[key] = ctx
        return ctx

    def _eps(self, ctx: _Ctx) -> "_Ctx | None":
        """The context after observing the empty word (prunes states
        that expect nothing); None when nothing survives."""
        if ctx.eps is None:
            alive = frozenset(s for s in ctx.survivors
                              if not ox.is_empty_language(ctx.exp[s]))
            if alive == ctx.survivors:
                ctx.eps = ctx
            elif not alive:
                ctx.eps = False
            else:
                ctx.eps = self._ctx_for(alive, ctx.exp)
        return ctx.eps or None

    def _step(self, ctx: _Ctx, sym: str) -> "_Ctx | None":
        got = ctx.steps.get(sym, _MISSING)
        if got is not _MISSING:
            return got
        survivors = set()
        exp = {}
        for s in ctx.survivors:
            e = ox.derive(ctx.exp[s], sym)
            if not ox.is_empty_language(e):
                survivors.add(s)
                exp[s] = e
        nxt = self._ctx_for(frozenset(survivors), exp) if survivors else None
        ctx.steps[sym] = nxt
        return nxt

    def residuation_graph(self):
        """Explore every context reachable by observations from this
        model. Returns (contexts, edges) where contexts maps context id
        to its surviving states with expectations and edges maps
        (context id, symbol) to the successor context id or None."""
        root = self._eps(self._top)
        edges = {}
        seen = set()
        frontier = [c for c in (self._top, root) if c is not None]
        order = []
        for c in frontier:
            if c.cid not in seen:
                seen.add(c.cid)
                order.append(c)
        i = 0
        while i < len(order):
            ctx = order[i]
            i += 1
            for sym in self.alphabet:
                nxt = self._step(ctx, sym)
                edges[(ctx.cid, sym)] = None if nxt is None else nxt.cid
                if nxt is not None and nxt.cid not in seen:
                    seen.add(nxt.cid)
                    order.append(nxt)
        contexts = {
            c.cid: {s: c.exp[s] for s in sorted(c.survivors,
                                                key=state_sort_key)}
            for c in order
        }
        return contexts, edges

    # -- truth ------------------------------------------------------------

    def check(self, s, f: sx.Formula) -> bool:
        """Is the formula true at state ``s``?"""
        if s not in self.props:
            raise UnknownState(f"state {s!r} not in model")
        return self._eval(self._top, s, f)

    def _eval(self, ctx: _Ctx, s, f: sx.Formula) -> bool:
        key = (ctx.cid, s, f)
        got = self._memo.get(key, _MISSING)
        if got is not _MISSING:
            return got
        if isinstance(f, sx.Top):
            val = True
        elif isinstance(f, sx.Prop):
            val = f.name in self.props[s]
        elif isinstance(f, sx.Not):
            val = not self._eval(ctx, s, f.arg)
        elif isinstance(f, (sx.Or, sx.And)):
            # a disjunction stops at a true part, a conjunction at a false
            stop = isinstance(f, sx.Or)
            val = not stop
            for p in f.parts:
                if self._eval(ctx, s, p) is stop:
                    val = stop
                    break
        elif isinstance(f, sx.Hat):
            val = any(self._eval(ctx, t, f.arg)
                      for t in self.block(f.agent, s) & ctx.survivors)
        elif isinstance(f, sx.Know):
            val = all(self._eval(ctx, t, f.arg)
                      for t in self.block(f.agent, s) & ctx.survivors)
        elif isinstance(f, sx.Dia):
            val = self._search(ctx, s, f.pi, f.arg, True)[0]
        elif isinstance(f, sx.Box):
            val = not self._search(ctx, s, f.pi, f.arg, False)[0]
        else:
            raise TypeError(f"not a Formula: {f!r}")
        self._memo[key] = val
        return val

    def _search(self, ctx: _Ctx, s, pi: ObsExpr, body: sx.Formula,
                want: bool):
        """Find a word w matching pi with s surviving it and the body
        evaluating to ``want`` afterwards. Returns (found, word, context).

        Branches where s has already died are skipped: a state that does
        not survive w survives no extension of w either.
        """
        start = self._eps(ctx)
        if start is None or s not in start.survivors:
            return False, None, None

        def step(c):
            for sym in self.alphabet:
                nc = self._step(c, sym)
                if nc is not None and s in nc.survivors:
                    yield sym, nc

        path = ox.search(ox.to_dfa(pi, self.alphabet), start, step,
                         lambda c: self._eval(c, s, body) is want)
        if path is None:
            return False, None, None
        end = path[-1][1] if path else start
        return True, tuple(sym for sym, _ in path), end

    # -- explanation --------------------------------------------------------

    def explain(self, s, f: sx.Formula, max_lines: int = 200):
        """Evaluate and return human-readable lines showing why."""
        lines = []
        self._explain(self._top, s, f, (), 0, lines, max_lines)
        if len(lines) > max_lines:
            del lines[max_lines:]
            lines.append("... (truncated)")
        return lines

    def _explain(self, ctx, s, f, word, depth, lines, max_lines):
        if len(lines) > max_lines:
            return
        val = self._eval(ctx, s, f)
        where = f" after {'-'.join(word)}" if word else ""
        lines.append("  " * depth +
                     f"{sx.print_formula(f)} @ {s}{where}: {val}")
        pad = "  " * (depth + 1)
        if isinstance(f, sx.Not):
            self._explain(ctx, s, f.arg, word, depth + 1, lines, max_lines)
        elif isinstance(f, (sx.Or, sx.And)):
            for p in f.parts:
                self._explain(ctx, s, p, word, depth + 1, lines, max_lines)
        elif isinstance(f, (sx.Hat, sx.Know)):
            for t in sorted(self.block(f.agent, s) & ctx.survivors,
                            key=state_sort_key):
                self._explain(ctx, t, f.arg, word, depth + 1, lines,
                              max_lines)
        elif isinstance(f, sx.Dia):
            found, w, c = self._search(ctx, s, f.pi, f.arg, True)
            if found:
                shown = "-".join(w) if w else "the empty word"
                lines.append(pad + f"witness observation: {shown}")
                self._explain(c, s, f.arg, word + w, depth + 1, lines,
                              max_lines)
            else:
                lines.append(pad + "no matching observation keeps the state "
                                   "alive with a true body")
        elif isinstance(f, sx.Box):
            found, w, c = self._search(ctx, s, f.pi, f.arg, False)
            if found:
                shown = "-".join(w) if w else "the empty word"
                lines.append(pad + f"failing observation: {shown}")
                self._explain(c, s, f.arg, word + w, depth + 1, lines,
                              max_lines)
            else:
                lines.append(pad + "every matching observation the state "
                                   "survives makes the body true")


def validity_sample(f: sx.Formula, models: int = 500, seed: int = 0,
                    **gen_kwargs):
    """Search random models for a state falsifying the formula.

    Returns (model, state) for the first counterexample, or None if the
    formula held everywhere in the sample.
    """
    import random

    from .corpus import random_model

    rng = random.Random(seed)
    gen_kwargs.setdefault("agents", tuple(sorted(sx.agents(f))) or ("i",))
    gen_kwargs.setdefault("symbols", tuple(sorted(sx.letters(f))) or ("a",))
    for _ in range(models):
        m = random_model(rng, **gen_kwargs)
        for s in m.states:
            if not m.check(s, f):
                return m, s
    return None
