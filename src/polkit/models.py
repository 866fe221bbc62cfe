"""Models and model checking.

A model is an S5 epistemic model whose states each carry an observation
expression: the words that state expects to observe. Observing a word w
removes every state whose expected language contains no continuation of w
and residuates the expectations of the others.

``Model.check`` implements the truth definition set at a time. The
observation modalities quantify over words from a regular language, so
the checker walks pairs of a context and a derivative of the modality's
expression: the product of the expression's derivative automaton with
the model's residuation graph, the (finite, by normalization of
derivatives) set of models reachable from this one by observations.
For each reached model and subformula it computes the set of states
where the subformula holds, once, as a bit mask over ``Model.states``,
and memoizes it per (reached model, formula), up to a fixed number of
entries; ``check`` reads one bit of it.

An announcement is a step in the model's own residuation graph.
``Model.update`` walks the word from the model's context and returns a
model that stands at the context reached. The graph, its cached steps
and the memo are shared with every model that ``update`` returns, so
the checks after an announcement read what the checks before it
computed. ``residuation_graph`` numbers a model's contexts locally,
with the model itself at 0.

A context, a model reached by observations, is its map from survivors
to residuals in state order. An observation walks the parent's map in
that order, so the residuals and the survivor mask key it with no sort.

Survival is carried by survivor masks. A state survives a word only if
it survived every prefix, so the survivors of a reached model shrink
along each walk through the product, and a state among them at the end
of a walk survived all of it. A diamond thus holds at exactly the
states that some reachable accepting pair keeps alive with a true body:
one sweep of the product ORs those sets together, for every state at
once, where a per-state search would walk the product once per state.
The sweep is ``obsregex.walk``, iterated in ``_eval``'s own frame, so
each formula level costs one frame; it expands no context whose
survivors are all found already, and it stops once all are.

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

import copy

from . import obsregex as ox
from . import syntax as sx
from .errors import (InvalidInput, ResourceBudgetExceeded, UnknownAgent,
                     UnknownState)
from .obsregex import ObsExpr

__all__ = ["Model", "state_sort_key"]

_MISSING = object()

# Entries of ``Model._memo``, one per (reached model, formula) pair and
# shared, like the graph, with the models ``update`` returns: far above
# what checking a few dozen formulas on a model and its updates needs,
# while a model checked against an endless stream of formulas starts
# over.
_MEMO_ENTRIES = 4096

# Lines of one ``Model.explain``; past it the explanation is cut short.
_EXPLAIN_LINES = 200

# Contexts of one residuation graph, over all the walks that the checks
# of a model and of every model ``update`` returns from it take, since
# they share the graph; past it ``ResourceBudgetExceeded`` is raised.
_MAX_CONTEXTS = 10 ** 5


def state_sort_key(s):
    """Deterministic order for mixed int and string state ids."""
    return (isinstance(s, str), s)


def _collect(kind, items, what):
    """``kind(items)``, for ``kind`` ``tuple`` or ``frozenset``; a string,
    which would be read letter by letter, or an object that ``kind``
    refuses raises ``InvalidInput``."""
    if isinstance(items, str):
        raise InvalidInput(f"{what}: the string {items!r} is not a "
                           f"collection")
    try:
        return kind(items)
    except TypeError:
        raise InvalidInput(f"{what}: {items!r} is not a collection") from None


def _mapping(items, what) -> dict:
    """``dict(items)``, from a mapping or from pairs; an object that
    ``dict`` refuses raises ``InvalidInput``."""
    try:
        return dict(items)
    except (TypeError, ValueError):
        raise InvalidInput(f"{what}: {items!r} is not a mapping") from None


def block_map(states, agent, blocks) -> dict:
    """Map each of ``states`` to its block in the agent's partition.

    ``blocks`` is an iterable of blocks; states missing from all of them
    form singleton blocks of their own. ``blocks`` or a block that
    ``_collect`` refuses raises ``InvalidInput``.
    """
    sset = set(states)
    assigned = {}
    for block in _collect(tuple, blocks, f"the relation of {agent!r}"):
        fb = _collect(frozenset, block, f"a block of {agent!r}")
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

    ``exp`` maps the survivors to their residuals in state order, the
    bit order of ``mask``, the survivors' bit mask; read in that order,
    the residuals and the mask key the context. Propositions and
    relations are those of the base model, restricted.
    """

    __slots__ = ("cid", "mask", "exp", "steps")

    def __init__(self, cid, mask, exp):
        self.cid = cid
        self.mask = mask
        self.exp = exp
        self.steps = {}


class Model:
    """An epistemic expectation model.

    ``relations`` maps each agent to a partition of the states, given as
    an iterable of blocks; states missing from all blocks form singleton
    blocks of their own. ``exp`` maps each state to its observation
    expression (an ``ObsExpr``, else ``InvalidInput``), whose language
    must not be empty, and ``props`` to the set of propositions true
    there. ``agents``, ``states``, each relation, each block and each
    set of propositions are collections, not strings, and ``props``,
    ``exp`` and ``relations`` are mappings or pairs (else
    ``InvalidInput``). A key of ``props`` or ``exp`` that is not a
    state raises ``UnknownState``, and a key of ``relations`` that is
    not an agent ``UnknownAgent``.
    """

    def __init__(self, alphabet, agents, states, props, exp, relations):
        self.alphabet = alphabet = ox._as_alphabet(alphabet)
        self.agents = _collect(tuple, agents, "the agents")
        self.states = tuple(sorted(_collect(tuple, states, "the states"),
                                   key=state_sort_key))
        if not self.states:
            raise InvalidInput("a model needs at least one state")
        known = set(self.states)
        if len(known) != len(self.states):
            raise InvalidInput("duplicate state ids")
        props = _mapping(props, "the propositions")
        exp = _mapping(exp, "the expectations")
        relations = _mapping(relations, "the relations")
        for s in (*props, *exp):
            if s not in known:
                raise UnknownState(f"{s!r} has propositions or an "
                                   f"expectation but is not a state")
        for agent in relations:
            if agent not in self.agents:
                raise UnknownAgent(f"relation given for {agent!r}, which "
                                   f"is not an agent")
        self.props = {s: _collect(frozenset, props.get(s, ()),
                                 f"the propositions of state {s!r}")
                      for s in self.states}
        self.exp = {}
        for s in self.states:
            if s not in exp:
                raise InvalidInput(
                    f"state {s!r} has no observation expression")
            e = exp[s]
            if not isinstance(e, ObsExpr):
                raise InvalidInput(f"state {s!r} expects {e!r}, which is "
                                   f"not an observation expression")
            for sym in sorted(ox.atoms(e)):
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
        # a dict of its own, so that editing ``self.exp`` re-keys nothing
        self._top = self._ctx_for(dict(self.exp))

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
        state survives. Every state survives the empty word. A string
        ``word`` raises ``InvalidInput``: ``ox.parse_word`` reads text.

        The announcement is a walk along ``word`` in this model's own
        residuation graph. The model returned stands at the context
        reached, and shares the graph, its cached steps and the memo
        with this model and every other model that ``update`` returns
        from either."""
        ctx = self._top
        for sym in _collect(tuple, word, "the word"):
            self.alphabet.require(sym)
            if ctx is not None:
                ctx = self._step(ctx, sym)
        if ctx is None:
            return None
        new = copy.copy(self)
        new._top = ctx
        new.states = tuple(ctx.exp)
        new.props = {s: self.props[s] for s in new.states}
        new.exp = dict(ctx.exp)
        new._blocks = {agent: {s: assigned[s].intersection(ctx.exp)
                               for s in new.states}
                       for agent, assigned in self._blocks.items()}
        return new

    # -- residuation graph ------------------------------------------------

    def _ctx_for(self, exp):
        mask = self._mask(exp)
        # bit order is state order, and every map given here is built in
        # state order: the top's over self.states, each step's by walking
        # its parent's map in order
        key = (mask, tuple(exp.values()))
        ctx = self._ctxs.get(key)
        if ctx is None:
            if len(self._ctxs) >= _MAX_CONTEXTS:
                raise ResourceBudgetExceeded(
                    f"residuation graph exceeds {_MAX_CONTEXTS} contexts")
            ctx = _Ctx(len(self._ctxs), mask, exp)
            self._ctxs[key] = ctx
        return ctx

    def _step(self, ctx: _Ctx, sym: str) -> "_Ctx | None":
        got = ctx.steps.get(sym, _MISSING)
        if got is not _MISSING:
            return got
        exp = {}
        for s, e in ctx.exp.items():
            e = ox.derive(e, sym)
            if not ox.is_empty_language(e):
                exp[s] = e
        nxt = self._ctx_for(exp) if exp else None
        ctx.steps[sym] = nxt
        return nxt

    def residuation_graph(self):
        """Explore every context reachable by observations from this
        model. Returns (contexts, edges) where contexts maps context id
        to its surviving states with expectations and edges maps
        (context id, symbol) to the successor context id or None.

        Ids are local to this model: they number the contexts in
        breadth-first order from this model, which is context 0, and
        not by their place in the graph shared with its updates."""
        ids = {self._top: 0}
        order = [self._top]
        edges = {}
        for ctx in order:  # the order grows while it is read
            for sym in self.alphabet:
                nxt = self._step(ctx, sym)
                if nxt is not None and nxt not in ids:
                    ids[nxt] = len(order)
                    order.append(nxt)
                edges[(ids[ctx], sym)] = None if nxt is None else ids[nxt]
        contexts = {ids[c]: dict(c.exp) for c in order}
        return contexts, edges

    # -- truth ------------------------------------------------------------

    def check(self, s, f: sx.Formula) -> bool:
        """Is the formula true at state ``s``?"""
        if s not in self.props:
            raise UnknownState(f"state {s!r} not in model")
        # a formula is memoized only once it, or a formula containing
        # it, passed the depth check, so a hit needs no check
        got = self._memo.get((self._top.cid, f))
        if got is None:
            sx._check_depth(f)
            got = self._eval(self._top, f)
        return bool(got & self._bit[s])

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
        elif isinstance(f, (sx.Dia, sx.Box)):
            for sym in sorted(ox.atoms(f.pi)):
                self.alphabet.require(sym)
            # found: the survivors of ctx that some word of the program
            # keeps alive with the body true (diamond) or false (box); a
            # pair whose survivors are all found adds nothing (see the
            # module docstring), so it is neither evaluated nor expanded
            want = isinstance(f, sx.Dia)
            found = 0
            symbols, succ = self.alphabet.symbols, self._step

            def step(c):
                if not c.mask & ~found:
                    return ()
                return [(a, n) for a in symbols
                        if (n := succ(c, a)) is not None]

            for c, q in ox.walk(f.pi, ctx, step):
                if q.nullable and c.mask & ~found:
                    got = self._eval(c, f.arg)
                    found |= got if want else c.mask & ~got
                    if found == ctx.mask:
                        break
            val = found if want else ctx.mask & ~found
        else:
            raise TypeError(f"not a Formula: {f!r}")
        if len(self._memo) >= _MEMO_ENTRIES:
            self._memo.clear()
        self._memo[key] = val
        return val

    def _search(self, ctx: _Ctx, s, pi: ObsExpr, body: sx.Formula,
                want: bool):
        """A shortest word w matching pi with s surviving it and the body
        evaluating to ``want`` afterwards, with the context it reaches;
        None when there is none.

        Branches where s has already died are skipped: a state that does
        not survive w survives no extension of w either.
        """
        def step(c):
            for sym in self.alphabet:
                nc = self._step(c, sym)
                if nc is not None and s in nc.exp:
                    yield sym, nc

        path = ox.search(pi, ctx, step,
                         lambda c: self._holds(c, s, body) is want)
        if path is None:
            return None
        return tuple(sym for sym, _ in path), path[-1][1] if path else ctx

    # -- explanation --------------------------------------------------------

    def explain(self, s, f: sx.Formula):
        """Evaluate and return human-readable lines showing why, at most
        ``_EXPLAIN_LINES`` of them before a truncation mark."""
        if s not in self.props:
            raise UnknownState(f"state {s!r} not in model")
        sx._check_depth(f)
        lines = []
        self._explain(self._top, s, f, (), 0, lines)
        if len(lines) > _EXPLAIN_LINES:
            del lines[_EXPLAIN_LINES:]
            lines.append("... (truncated)")
        return lines

    def _explain(self, ctx, s, f, word, depth, lines):
        if len(lines) > _EXPLAIN_LINES:
            return
        val = self._holds(ctx, s, f)
        where = f" after {'-'.join(word)}" if word else ""
        lines.append("  " * depth +
                     f"{sx.print_formula(f)} @ {s}{where}: {val}")
        pad = "  " * (depth + 1)
        if isinstance(f, sx.Not):
            self._explain(ctx, s, f.arg, word, depth + 1, lines)
        elif isinstance(f, (sx.Or, sx.And)):
            for p in f.parts:
                self._explain(ctx, s, p, word, depth + 1, lines)
        elif isinstance(f, (sx.Hat, sx.Know)):
            block = self.block(f.agent, s)
            for t in filter(block.__contains__, ctx.exp):
                self._explain(ctx, t, f.arg, word, depth + 1, lines)
        elif isinstance(f, (sx.Dia, sx.Box)):
            want = isinstance(f, sx.Dia)
            found = self._search(ctx, s, f.pi, f.arg, want)
            if found is not None:
                w, c = found
                shown = "-".join(w) if w else "the empty word"
                kind = "witness" if want else "failing"
                lines.append(pad + f"{kind} observation: {shown}")
                self._explain(c, s, f.arg, word + w, depth + 1, lines)
            elif want:
                lines.append(pad + "no matching observation keeps the state "
                                   "alive with a true body")
            else:
                lines.append(pad + "every matching observation the state "
                                   "survives makes the body true")
