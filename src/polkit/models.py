"""Models and model checking.

A model is an S5 epistemic model whose states each carry an observation
expression: the words that state expects to observe. Observing a word w
removes every state whose expected language contains no continuation of w
and residuates the expectations of the others.

``Model.check`` implements the truth definition set at a time. The
observation modalities quantify over words from a regular language, so
the checker explores the product of the word automaton with the model's
residuation graph: the (finite, by normalization of derivatives) set of
models reachable from this one by observations. For each reached model
and subformula it computes the set of states where the subformula
holds, once, as a bit mask over ``Model.states``, and memoizes it per
(reached model, formula), up to a fixed number of entries; ``check``
reads one bit of it.

Survival is carried by survivor masks. A state survives a word only if
it survived every prefix, so the survivors of a reached model shrink
along each walk through the product, and a state among them at the end
of a walk survived all of it. A diamond thus holds at exactly the
states that some reachable accepting pair keeps alive with a true body:
one sweep of the product ORs those sets together, for every state at
once, where a per-state search would walk the product once per state.

Every state expects some word: ``Model`` refuses an expectation whose
language is empty. Such a state would survive no observation, not even
the empty one, so ``<0*>true`` would fail there while ``true`` holds.
The decision procedure reads ``<0*>psi`` as ``psi`` and a star diamond
as true wherever its argument is (``syntax.definition``), which is
exact only at states that survive the empty word. Refusing dead states
makes that reading exact; keeping them would need a liveness condition
in every layer of the procedure. An observation keeps exactly the
states with a non-empty residual, so every reached model is live as
well, and observing the empty word changes nothing.
"""

from __future__ import annotations

from . import obsregex as ox
from . import syntax as sx
from .errors import (InvalidInput, ResourceBudgetExceeded, UnknownAgent,
                     UnknownState)
from .obsregex import Alphabet, ObsExpr

__all__ = ["Model", "state_sort_key", "validity_sample"]

_MISSING = object()

# Entries of ``Model._memo``, one per (reached model, formula) pair: far
# above what checking a few dozen formulas on a model needs, while a
# model checked against an endless stream of formulas starts over.
_MEMO_ENTRIES = 4096

# Contexts of one residuation graph, over all the walks a model's
# checks take; past it ``ResourceBudgetExceeded`` is raised.
_MAX_CONTEXTS = 10 ** 5


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
                raise InvalidInput(
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
    ``mask`` holds the survivors as a bit mask over the base model's
    states.
    """

    __slots__ = ("cid", "survivors", "mask", "exp", "steps")

    def __init__(self, cid, survivors, mask, exp):
        self.cid = cid
        self.survivors = survivors
        self.mask = mask
        self.exp = exp
        self.steps = {}


class Model:
    """An epistemic expectation model.

    ``relations`` maps each agent to a partition of the states, given as
    an iterable of blocks; states missing from all blocks form singleton
    blocks of their own. ``exp`` maps each state to its observation
    expression, whose language must not be empty, and ``props`` to the
    set of propositions true there.
    """

    def __init__(self, alphabet, agents, states, props, exp, relations):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self.alphabet = alphabet
        self.agents = tuple(agents)
        self.states = tuple(sorted(states, key=state_sort_key))
        if not self.states:
            raise InvalidInput("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise InvalidInput("duplicate state ids")
        self.props = {s: frozenset(props.get(s, ())) for s in self.states}
        self.exp = {}
        for s in self.states:
            if s not in exp:
                raise InvalidInput(
                    f"state {s!r} has no observation expression")
            e = exp[s]
            for sym in ox.atoms(e):
                alphabet.require(sym)
            if ox.is_empty_language(e):
                raise InvalidInput(f"state {s!r} expects no word")
            self.exp[s] = e
        self._blocks = {agent: block_map(self.states, agent,
                                         relations.get(agent, ()))
                        for agent in self.agents}
        # bit i of a mask stands for self.states[i]
        self._bit = {s: 1 << i for i, s in enumerate(self.states)}
        self._prop_masks = {}
        for s in self.states:
            for p in self.props[s]:
                self._prop_masks[p] = self._prop_masks.get(p, 0) | self._bit[s]
        self._block_masks = {agent: [self._mask(b)
                                     for b in set(assigned.values())]
                             for agent, assigned in self._blocks.items()}
        self._ctxs = {}
        self._memo = {}
        self._top = self._ctx_for(frozenset(self.states), self.exp)

    # -- structure ------------------------------------------------------------

    def _mask(self, states) -> int:
        bit = self._bit
        return sum(bit[s] for s in states)

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

    # -- update ---------------------------------------------------------------

    def update(self, word) -> "Model | None":
        """The model after publicly observing ``word``, or None if no
        state survives. Every state survives the empty word."""
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
                     new_exp, relations)

    # -- residuation graph ------------------------------------------------

    def _ctx_for(self, survivors, exp):
        mask = self._mask(survivors)
        # sorting by bit sorts in state order
        key = (mask, tuple(exp[s] for s in sorted(survivors,
                                                  key=self._bit.__getitem__)))
        ctx = self._ctxs.get(key)
        if ctx is None:
            if len(self._ctxs) >= _MAX_CONTEXTS:
                raise ResourceBudgetExceeded(
                    f"residuation graph exceeds {_MAX_CONTEXTS} contexts")
            ctx = _Ctx(len(self._ctxs), survivors, mask,
                       {s: exp[s] for s in survivors})
            self._ctxs[key] = ctx
        return ctx

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
        edges = {}
        seen = {self._top.cid}
        order = [self._top]
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
        sx._check_depth(f)
        return bool(self._eval(self._top, f) & self._bit[s])

    def _holds(self, ctx: _Ctx, s, f: sx.Formula) -> bool:
        return bool(self._eval(ctx, f) & self._bit[s])

    def _eval(self, ctx: _Ctx, f: sx.Formula) -> int:
        """The mask of the survivors of ``ctx`` where ``f`` holds."""
        key = (ctx.cid, f)
        got = self._memo.get(key)
        if got is not None:
            return got
        if isinstance(f, sx.Top):
            val = ctx.mask
        elif isinstance(f, sx.Prop):
            val = self._prop_masks.get(f.name, 0) & ctx.mask
        elif isinstance(f, sx.Not):
            val = ctx.mask & ~self._eval(ctx, f.arg)
        elif isinstance(f, sx.Or):
            val = 0
            for p in f.parts:
                val |= self._eval(ctx, p)
                if val == ctx.mask:
                    break
        elif isinstance(f, sx.And):
            val = ctx.mask
            for p in f.parts:
                val &= self._eval(ctx, p)
                if not val:
                    break
        elif isinstance(f, (sx.Hat, sx.Know)):
            if f.agent not in self._block_masks:
                raise UnknownAgent(f"agent {f.agent!r} not in model")
            blocks = [b & ctx.mask for b in self._block_masks[f.agent]]
            arg = self._eval(ctx, f.arg)
            # the blocks are disjoint, so their sum is their union
            if isinstance(f, sx.Hat):  # the blocks that meet the body
                val = sum(b for b in blocks if b & arg)
            else:  # the blocks that stay inside it
                val = sum(b for b in blocks if not b & ~arg)
        elif isinstance(f, sx.Dia):
            val = self._reach(ctx, f.pi, f.arg, True)
        elif isinstance(f, sx.Box):
            val = ctx.mask & ~self._reach(ctx, f.pi, f.arg, False)
        else:
            raise TypeError(f"not a Formula: {f!r}")
        if len(self._memo) >= _MEMO_ENTRIES:
            self._memo.clear()
        self._memo[key] = val
        return val

    def _reach(self, ctx: _Ctx, pi: ObsExpr, body: sx.Formula,
               want: bool) -> int:
        """The mask of the states s for which some word w matching pi
        has s surviving it and the body evaluating to ``want`` at s
        afterwards.

        Survivors only shrink along a word, so a state among the
        survivors at the end of a walk survived every step of it. The
        answer is therefore the union, over the live pairs of the
        product that ``ctx`` reaches, of the survivors at accepting
        pairs where the body evaluates to ``want``: the
        least fixpoint of propagating those sets backwards through the
        product, read at its start. A pair whose survivors are all in
        the union already adds nothing, and is not expanded.
        """
        dfa = ox.to_dfa(pi, self.alphabet)
        found = 0
        queue = [(ctx, 0)] if 0 in dfa.live else []
        seen = {(ctx.cid, 0)}
        for c, q in queue:  # the queue grows while it is read
            if not c.mask & ~found:
                continue
            if q in dfa.accepting:
                got = self._eval(c, body)
                found |= got if want else c.mask & ~got
                if found == ctx.mask:
                    break
            for sym in self.alphabet:
                nc = self._step(c, sym)
                if nc is None:
                    continue
                q2 = dfa.transitions[(q, sym)]
                if q2 in dfa.live and (nc.cid, q2) not in seen:
                    seen.add((nc.cid, q2))
                    queue.append((nc, q2))
        return found

    def _search(self, ctx: _Ctx, s, pi: ObsExpr, body: sx.Formula,
                want: bool):
        """Find a shortest word w matching pi with s surviving it and the
        body evaluating to ``want`` afterwards. Returns (found, word,
        context).

        Branches where s has already died are skipped: a state that does
        not survive w survives no extension of w either.
        """
        def step(c):
            for sym in self.alphabet:
                nc = self._step(c, sym)
                if nc is not None and s in nc.survivors:
                    yield sym, nc

        path = ox.search(ox.to_dfa(pi, self.alphabet), ctx, step,
                         lambda c: self._holds(c, s, body) is want)
        if path is None:
            return False, None, None
        end = path[-1][1] if path else ctx
        return True, tuple(sym for sym, _ in path), end

    # -- explanation --------------------------------------------------------

    def explain(self, s, f: sx.Formula, max_lines: int = 200):
        """Evaluate and return human-readable lines showing why."""
        if s not in self.props:
            raise UnknownState(f"state {s!r} not in model")
        sx._check_depth(f)
        lines = []
        self._explain(self._top, s, f, (), 0, lines, max_lines)
        if len(lines) > max_lines:
            del lines[max_lines:]
            lines.append("... (truncated)")
        return lines

    def _explain(self, ctx, s, f, word, depth, lines, max_lines):
        if len(lines) > max_lines:
            return
        val = self._holds(ctx, s, f)
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
