"""Satisfiability for dynamic logic over deterministic models.

Truth of every closure member is determined by the frontier members,
which are the atoms and the modalities over a single letter, through
the one-step equations that ``syntax.definition`` states. The solver
therefore works with truth assignments to the closure, read from the
one closure walk of ``syntax`` (``_Shape``). The equations are compiled
once per call, in one pass over the definitions, into the clauses of
one incremental CDCL solver (``_Shape.compile``), which asserts each
unit clause on its level 0 as it is added. Member ``v`` is variable
``v`` with literals ``2v`` and ``2v+1``, except that a negation is
polarity: its literal is its argument's, complemented. Both regimes
work on that database.

Every state that the search builds or enumerates is reachable from a
root of ``f``. So a top-level conjunct ``[π*]χ`` of ``f`` whose ``π``
holds every letter of the closure holds at each of them, and it is one
unit clause of the database: its consequences sit on the solver's level
0, derived once instead of from every demand's assumptions. The
bubble encoding of ``pol_sat`` has one such conjunct, its ``[Σ*]``
invariant. The lemmas below are therefore valid at every state
reachable from a model of ``f``, which is all that deciding ``f`` asks.

The lazy regime runs first, on every formula, and never enumerates. It
builds successor states only for demanded letters and memoizes states
by their incoming demand. Each state's demand is a set of assumptions,
and a refuted demand comes back with the core of them that the solver's
final conflict analysis rests on. The modal literals of the parent
behind that core are learned as a new clause, which holds at every
state reachable from a model of ``f``, and the search restarts. A
demand graph that leaves star eventualities undischarged is not a
refutation. When the database refutes an eventuality's discharge
outright, its star modality can never promise it, which is learned as a
unit clause with a restart; otherwise the run ends undecided. Every
solve decides along one static list of literals, computed once per
closure, that settles each star eventuality as early as the clauses
allow, as tableaux fulfil eventualities (Goré and Widmann, CADE 2009).
So each solve returns the least model in that list and the witnesses
are deterministic. That also lets a rebuilt graph reuse the models its
predecessor was given, as long as they satisfy the lemmas learned
since.

The exact regime backstops a lazy run that ends undecided, when at most
2^14 frontier assignments exist. Its atoms are the assignments that the
lazy run's database admits, one solve each with the frontier literals as
assumptions. The database holds only clauses that hold at every state
reachable from a model of ``f``, so it drops only assignments that no
such state has and elimination would drop: the survivors and the
witness are those of enumerating every assignment. Elimination keeps an
atom that has, per letter it demands, a surviving atom meeting that
demand, and that discharges every star eventuality through such
matching edges. A witness is read off by walking demanded
letters, steering each step toward the oldest undischarged eventuality.
An eventuality is carried into a successor only when some walk from
that successor still discharges it, so every eventuality on a node's
agenda has a walk and the steering never gets stuck.

``dpdl_sat`` validates a found witness with the model checker before
reporting it; ``_decide`` is the same search without that check.
Resource caps turn into an unknown verdict, never into a wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obsregex as ox
from .. import syntax as sx
from ..errors import InvalidInput, ResourceBudgetExceeded
from . import core as dc

__all__ = ["Sat", "Unsat", "Unknown", "dpdl_sat"]

# The most frontier assignments the exact regime enumerates.
_ATOM_CAP = 2 ** 14

# The most states of a demand graph or a witness walk.
_NODE_CAP = 5000

# The most lemma restarts of one lazy run.
_RESTART_CAP = 200

# The most steps of one propositional search, each a propagation that
# ends without a conflict.
_STEP_CAP = 5_000_000


@dataclass(frozen=True)
class Sat:
    model: object
    state: object


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str


class _Shape:
    """The closure of a formula as solver variables: member ``v`` is
    variable ``v``, and ``lit[v]`` is the literal that gives its truth.

    The members, each member's ``syntax.definition`` and the index come
    from the one closure walk (``syntax._closure``), and one loop visits
    every member to fill the rest: the free members (atoms and
    one-letter modalities) form the frontier, the one-letter modalities
    are indexed by letter, the star modalities and the atoms are listed,
    and an agent operator is refused with ``InvalidInput``, wherever it
    sits. ``lit[v]`` is ``2v``, except that a negation is polarity: its
    literal is its argument's with the sign flipped, so a chain of
    negations ends on the literal of a member that is not one. A
    negation's own variable is left out of every clause and decision. A
    state is an assignment, a list giving each member's truth, and the
    methods below read a state's demands, eventualities and valuation.

    ``decide`` is the solver's decision list: one literal per member,
    read through ``lit``, each decided in turn when propagation has left
    it open. So a negation's entry decides its argument. It settles
    every star eventuality as early as possible. Each one-letter
    modality that a star member's unfolding defers to is hinted not to
    defer: a box true, a diamond false. That hint depends only on the
    modality, so stars never disagree on it. Then each star's argument
    is hinted the truth that discharges it, true under a diamond and
    false under a box. An argument hint overrides an unfolding hint,
    and where two stars hint one argument both ways, the later star in
    member order wins. The hinted members come first, in index order,
    with their hinted truths; the others follow in index order, false.
    """

    def __init__(self, f):
        self.members, self.definitions, self.index = sx._closure(f)
        members, index = self.members, self.index
        self.lit = lit = list(range(0, 2 * len(members), 2))
        self.frontier = []
        self.dia = {}
        self.box = {}
        self.stars = []
        self.props = []
        for v, g in enumerate(members):
            cls = type(g)
            if cls is sx.Not:
                flip = 1
                h = g.arg
                while type(h) is sx.Not:
                    flip ^= 1
                    h = h.arg
                lit[v] = 2 * index[h] + flip
            elif self.definitions[v][0] == "free":
                self.frontier.append(g)
                if cls is sx.Prop:
                    self.props.append((v, g.name))
                elif cls is sx.Dia:
                    self.dia.setdefault(g.pi.symbol, []).append(g)
                elif cls is sx.Box:
                    self.box.setdefault(g.pi.symbol, []).append(g)
                else:
                    raise InvalidInput("dynamic logic has no agent operators")
            elif (cls is sx.Dia or cls is sx.Box) and type(g.pi) is ox.Star:
                self.stars.append(g)
        self.letters = tuple(sorted(set(self.dia) | set(self.box)))
        self.profile = {a: tuple(self.dia.get(a, []) + self.box.get(a, []))
                        for a in self.letters}
        hints = {index[h]: isinstance(h, sx.Box)
                 for h in self._unfold_frontier()}
        hints.update((index[g.arg], isinstance(g, sx.Dia))
                     for g in self.stars)
        self.decide = [lit[v] if hints[v] else lit[v] ^ 1
                       for v in sorted(hints)] + [
            lit[v] ^ 1 for v in range(len(members)) if v not in hints]

    def _unfold_frontier(self):
        """The one-letter modalities whose truth defers a star member to
        a successor, star by star."""
        definitions, index = self.definitions, self.index
        for g in self.stars:
            seen = {g}
            stack = [g]
            while stack:
                for h in definitions[index[stack.pop()]][1]:
                    if h in seen or not isinstance(h, (sx.Dia, sx.Box)):
                        continue
                    seen.add(h)
                    if definitions[index[h]][0] == "free":
                        yield h
                    else:
                        stack.append(h)

    def compile(self):
        """A solver over the clauses of every member's definition and
        one per pair of a diamond and a box over the same letter and
        argument, then the unit clauses: those of the ``true`` and
        ``false`` members, then one per global conjunct.

        Literals come through ``lit``, and a negation has no clause of
        its own. An operand is never its member or the member's
        negation, so no binary clause is a unit or a tautology, and each
        goes straight onto the implication lists of its two literals, as
        ``_Dpll._search`` adds a learned one. Only the long clause of a
        junction passes through ``add_clause``, which merges repeated
        operands and drops a tautology such as ``p | ~p``. The clauses,
        and the literals in each, come out in the order that
        ``add_clause`` on each of them would give.

        A global conjunct is a top-level conjunct of the formula (the
        formula itself when it is not a conjunction) of the form
        ``[π*]χ`` whose ``π`` holds every letter of ``letters``. It
        holds at every state reachable from a root, and those are the
        only states the solver is asked about (see the module
        docstring), so it is a unit. The unit clauses go through
        ``add_clause`` after every other clause is written, so each is
        asserted and propagated on level 0 over the whole database. The
        solver decides along ``decide`` and reports each member's truth
        through ``lit``.
        """
        dpll = _Dpll(len(self.members))
        dpll.decide = self.decide
        dpll.out = self.lit
        index = self.index
        lit = self.lit
        asserted = []
        bins = dpll.bins
        add_clause = dpll.add_clause
        for v, (kind, operands) in enumerate(self.definitions):
            if kind == "free" or kind == "not":
                continue
            pos = 2 * v
            neg = pos + 1
            if kind == "or":
                parts = [lit[index[h]] for h in operands]
                add_clause([neg] + parts)
                for h in parts:
                    bins[pos].append(h ^ 1)
                    bins[h ^ 1].append(pos)
            elif kind == "and":
                parts = [lit[index[h]] ^ 1 for h in operands]
                add_clause([pos] + parts)
                for h in parts:
                    bins[neg].append(h ^ 1)
                    bins[h ^ 1].append(neg)
            elif kind == "eq":
                h = lit[index[operands[0]]]
                bins[neg].append(h)
                bins[h].append(neg)
                bins[pos].append(h ^ 1)
                bins[h ^ 1].append(pos)
            else:
                asserted.append(pos if kind == "true" else neg)
        for a in self.letters:
            boxes = {g.arg: g for g in self.box.get(a, ())}
            for d in self.dia.get(a, ()):
                b = boxes.get(d.arg)
                if b is not None:
                    x, y = 2 * index[d] + 1, 2 * index[b]
                    bins[x].append(y)
                    bins[y].append(x)
        f = self.members[0]
        for g in f.parts if type(f) is sx.And else (f,):
            if (type(g) is sx.Box and type(g.pi) is ox.Star
                    and all(ox.derive(g.pi.body, a).nullable
                            for a in self.letters)):
                asserted.append(2 * index[g])
        for unit in asserted:
            add_clause([unit])
        return dpll

    def forcer(self, assign, a):
        """The first true diamond or false box over ``a``, which forces
        an ``a``-successor to exist; None when the state has none."""
        index = self.index
        for g in self.dia.get(a, ()):
            if assign[index[g]]:
                return g
        for g in self.box.get(a, ()):
            if not assign[index[g]]:
                return g
        return None

    def demand(self, assign, a):
        """The literals an ``a``-successor must satisfy, and who pins them.

        Under an existing ``a``-successor, every one-letter modality
        over ``a`` pins its argument's truth there to its own truth
        here. Returns the sorted tuple of those literals with a map from
        each variable to its literal and the modality that pins it; or
        None with a pair of modalities that pin one variable both ways,
        such as ``[a]p`` and ``[a]~p``, whose arguments share a variable.
        """
        index = self.index
        lit = self.lit
        req = {}
        for g in self.profile[a]:
            want = lit[index[g.arg]]
            if not assign[index[g]]:
                want ^= 1
            pinned = req.get(want >> 1)
            if pinned is None:
                req[want >> 1] = (want, g)
            elif pinned[0] != want:
                return None, (pinned[1], g)
        lits = tuple(sorted(want for want, _ in req.values()))
        return lits, req

    def eventualities(self, assign):
        """Star modalities that promise a discharge in a state.

        A true star diamond must reach its argument and a false star box
        must reach the argument's failure; everything else is a safety
        condition that edge matching enforces step by step.
        """
        out = []
        for g in self.stars:
            want = isinstance(g, sx.Dia)
            if assign[self.index[g]] == want:
                out.append((g.pi, g.arg, want))
        return out

    def witness(self, states, trans):
        """The deterministic model over numbered states and transitions."""
        val = {nid: frozenset(name for v, name in self.props if assign[v])
               for nid, assign in enumerate(states)}
        return dc.DpdlModel(tuple(range(len(states))), trans, val,
                            alphabet=self.letters)


# --- exact regime -------------------------------------------------------------


class _Exact:
    def __init__(self, f, shape, dpll):
        self.f = f
        self.shape = shape
        self.atoms = []
        for mask in range(2 ** len(shape.frontier)):
            status, assign = dpll.solve([
                2 * shape.index[g] + (not mask >> i & 1)
                for i, g in enumerate(shape.frontier)])
            if status == "sat":
                self.atoms.append(assign)
        self.alive = set(range(len(self.atoms)))
        # per atom, each letter it demands with its successor literals,
        # None where two modalities pin one literal both ways
        self._demands = [{a: shape.demand(atom, a)[0] for a in shape.letters
                          if shape.forcer(atom, a) is not None}
                         for atom in self.atoms]
        self._groups = {}
        for a in shape.letters:
            args = sorted({shape.lit[shape.index[g.arg]] >> 1
                           for g in shape.profile[a]})
            groups = {}
            for j, atom in enumerate(self.atoms):
                key = tuple(2 * v + (not atom[v]) for v in args)
                groups.setdefault(key, []).append(j)
            self._groups[a] = groups

    def _candidates(self, i, a):
        found = self._groups[a].get(self._demands[i][a], ())
        return [j for j in found if j in self.alive]

    def _discharged(self, i, expr, arg, want):
        return (ox.nullable(expr)
                and self.atoms[i][self.shape.index[arg]] == want)

    def _edges(self, j):
        """The (letter, atom) steps a walk from atom ``j`` may take."""
        for a in self._demands[j]:
            for k in self._candidates(j, a):
                yield a, k

    def _discharge_walk(self, i, pi, arg, want):
        """Shortest walk from atom ``i`` along a word of ``pi`` to an atom
        giving ``arg`` the truth ``want``, as (letter, atom) steps; None
        when there is none."""
        var = self.shape.index[arg]
        return ox.search(pi, i, self._edges,
                         lambda j: self.atoms[j][var] == want)

    def eliminate(self):
        changed = True
        while changed:
            changed = False
            for i in sorted(self.alive):
                if not (all(self._candidates(i, a) for a in self._demands[i])
                        and all(self._discharge_walk(i, *ev) is not None
                                for ev in self.shape.eventualities(
                                    self.atoms[i]))):
                    self.alive.discard(i)
                    changed = True

    def roots(self):
        var = self.shape.index[self.f]
        return [i for i in sorted(self.alive) if self.atoms[i][var]]

    def run(self):
        self.eliminate()
        if not self.roots():
            return Unsat()
        return Sat(*self.extract())

    # -- witness construction ---------------------------------------------

    def extract(self):
        nodes = {}
        trans = {}
        atom_of = []
        agenda_of = []

        def make(i, carried):
            agenda = [entry for entry in carried
                      if not self._discharged(i, *entry)]
            spawned = sorted(self.shape.eventualities(self.atoms[i]),
                             key=lambda ob: sx.print_formula(ob[1]))
            for entry in spawned:
                if entry not in agenda and not self._discharged(i, *entry):
                    agenda.append(entry)
            key = (i, tuple(agenda))
            nid = nodes.get(key)
            if nid is None:
                if len(atom_of) >= _NODE_CAP:
                    raise ResourceBudgetExceeded(
                        f"witness walk exceeded {_NODE_CAP} nodes")
                nid = nodes[key] = len(atom_of)
                atom_of.append(i)
                agenda_of.append(tuple(agenda))
            return nid

        start = make(self.roots()[0], ())
        pending = [start]
        done = set()
        while pending:
            nid = pending.pop()
            if nid in done:
                continue
            done.add(nid)
            i = atom_of[nid]
            agenda = agenda_of[nid]
            plan = None
            if agenda:
                path = self._discharge_walk(i, *agenda[0])
                if not path:
                    raise AssertionError("an agenda entry has no "
                                         "discharging walk; this is a bug")
                plan = path[0]
            for a in self._demands[i]:
                if plan is not None and plan[0] == a:
                    j = plan[1]
                else:
                    j = self._candidates(i, a)[0]
                carried = []
                for expr, arg, want in agenda:
                    entry = (ox.derive(expr, a), arg, want)
                    if (entry not in carried
                            and self._discharge_walk(j, *entry) is not None):
                        carried.append(entry)
                child = make(j, carried)
                trans[(nid, a)] = child
                if child not in done:
                    pending.append(child)
        model = self.shape.witness([self.atoms[i] for i in atom_of], trans)
        return model, start


# --- lazy regime ---------------------------------------------------------


class _Dpll:
    """Incremental CDCL under assumptions, with failed-assumption cores.

    One instance serves every solve of a lazy run. A binary clause
    ``x | y`` lives in the implication lists ``bins``, as ``y`` in
    ``bins[x]`` and ``x`` in ``bins[y]``: the literals that become true
    when the list's literal becomes false. Longer clauses keep their
    two watched literals in positions 0 and 1. Propagation walks a
    falsified literal's implication list before its watches. A
    propagated literal sits in position 0 of its reason, which for a
    binary implication is the pair ``(implied, falsified)``; a binary
    conflict is the pair of its two false literals. Level 0 holds the
    consequences of the unit clauses and persists between solves. It
    grows in place from the first clause on, as in MiniSat (Eén and
    Sörensson, SAT 2003): ``add_clause`` asserts and propagates a
    clause that level 0 leaves one literal open, a unit clause among
    them, and the search hands it each unit it learns. Each solve puts
    all of its assumptions on level 1 and decides above it. A conflict
    above level 1 is analysed to its first unique implication point;
    the learned clause is kept for later solves, since it follows from
    the clause database alone, and the search jumps back to where it
    asserts. A conflict on level 1 refutes the assumptions: walking its
    reasons back to them yields the core returned with ``unsat``.

    Decisions are static (no activity heuristic, phase saving or
    restarts): the search sets the first open literal of ``decide``,
    by default every variable's negative literal in index order, and
    ``_Shape.compile`` hands over its closure's list. So every answer
    is the least model in that list, the same model a chronological
    search finds, and witnesses stay deterministic. A ``sat`` answer
    gives, for each entry of ``out``, that literal's truth: by default
    each variable's positive literal, and ``_Shape.compile`` hands over
    its ``lit``, so a negation member reads its argument's complement.
    ``solves``, ``decisions``, ``conflicts`` (those above level 1, each
    teaching one clause), ``propagations`` and ``learned`` count the
    work done.
    """

    def __init__(self, nvars):
        self.bins = [[] for _ in range(2 * nvars)]
        self.watches = [[] for _ in range(2 * nvars)]
        self.empty = False
        self.value = [None] * (2 * nvars)
        self.level = [0] * nvars
        self.reason = [None] * nvars
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.decide = list(range(1, 2 * nvars, 2))
        self.out = range(0, 2 * nvars, 2)
        self.solves = 0
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0

    def add_clause(self, lits):
        """Add a clause on level 0; False when it is a tautology and was
        dropped.

        Sorting puts repeated and complementary literals side by side.
        Level 0 grows in place: literals false there go last, so no
        watch starts on one; a clause with one literal that is not false
        there asserts that literal on level 0 and propagates it, and one
        with none makes the database empty.
        """
        value = self.value
        kept = []
        false = []
        last = -2
        for lit in sorted(lits):
            if lit != last:
                if lit == last ^ 1:
                    return False
                (false if value[lit] is False else kept).append(lit)
                last = lit
        lits = kept + false
        if not lits or value[lits[0]] is False:
            self.empty = True
        elif len(lits) == 1 or value[lits[1]] is False:
            if value[lits[0]] is None:
                self._assign(lits[0], None)
                if self._propagate() is not None:
                    self.empty = True
        elif len(lits) == 2:
            self.bins[lits[0]].append(lits[1])
            self.bins[lits[1]].append(lits[0])
        else:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)
        return True

    def _assign(self, lit, reason):
        self.value[lit] = True
        self.value[lit ^ 1] = False
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel(self, lv):
        """Undo every assignment above decision level ``lv``."""
        if len(self.trail_lim) <= lv:
            return
        start = self.trail_lim[lv]
        value = self.value
        for lit in self.trail[start:]:
            value[lit] = value[lit ^ 1] = None
        del self.trail[start:]
        del self.trail_lim[lv:]
        self.qhead = start

    def _propagate(self):
        """Propagate the trail; the conflicting clause, or None."""
        value = self.value
        trail = self.trail
        bins = self.bins
        watches = self.watches
        level = self.level
        reason = self.reason
        lv = len(self.trail_lim)
        head = self.qhead
        conflict = None
        while head < len(trail):
            fal = trail[head] ^ 1
            head += 1
            for other in bins[fal]:
                truth = value[other]
                if truth is None:
                    value[other] = True
                    value[other ^ 1] = False
                    var = other >> 1
                    level[var] = lv
                    reason[var] = (other, fal)
                    trail.append(other)
                elif truth is False:
                    conflict = (other, fal)
                    break
            if conflict is not None:
                break
            watchlist = watches[fal]
            if not watchlist:
                continue
            kept = []
            pos = 0
            end = len(watchlist)
            while pos < end:
                clause = watchlist[pos]
                pos += 1
                if clause[0] == fal:
                    clause[0] = clause[1]
                    clause[1] = fal
                first = clause[0]
                if value[first] is True:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if value[other] is not False:
                        clause[1] = other
                        clause[k] = fal
                        watches[other].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value[first] is False:
                        kept.extend(watchlist[pos:])
                        conflict = clause
                        break
                    value[first] = True
                    value[first ^ 1] = False
                    var = first >> 1
                    level[var] = lv
                    reason[var] = clause
                    trail.append(first)
            watches[fal] = kept
            if conflict is not None:
                break
        self.propagations += head - self.qhead
        self.qhead = head
        return conflict

    def _analyze(self, conflict):
        """First-UIP clause of a conflict above level 1, and the level
        to jump back to. The asserting literal comes first and a literal
        of the jump level second, ready to be watched."""
        level = self.level
        trail = self.trail
        top = len(self.trail_lim)
        seen = set()
        learnt = [None]
        pending = 0
        clause = conflict
        idx = len(trail) - 1
        while True:
            for q in clause:
                var = q >> 1
                if var in seen or level[var] == 0:
                    continue
                seen.add(var)
                if level[var] == top:
                    pending += 1
                else:
                    learnt.append(q)
            while trail[idx] >> 1 not in seen:
                idx -= 1
            lit = trail[idx]
            idx -= 1
            pending -= 1
            if pending == 0:
                break
            clause = self.reason[lit >> 1]
        learnt[0] = lit ^ 1
        back = 0
        if len(learnt) > 1:
            best = max(range(1, len(learnt)),
                       key=lambda i: level[learnt[i] >> 1])
            learnt[1], learnt[best] = learnt[best], learnt[1]
            back = level[learnt[1] >> 1]
        return learnt, back

    def _final(self, start_vars, core):
        """Extend ``core`` by the assumptions that the level-1
        assignments of ``start_vars`` rest on."""
        level = self.level
        seen = {v for v in start_vars if level[v] > 0}
        trail = self.trail
        for idx in range(len(trail) - 1, self.trail_lim[0] - 1, -1):
            lit = trail[idx]
            var = lit >> 1
            if var not in seen:
                continue
            why = self.reason[var]
            if why is None:
                core.append(lit)
            else:
                seen.update(q >> 1 for q in why if level[q >> 1] > 0)
        return core

    def _assume(self, assumptions):
        """Open level 1 with the assumptions; a core if they fail.

        They are propagated one at a time from the last. That order
        decides which core comes back: it favours the later assumptions.
        """
        self.trail_lim.append(len(self.trail))
        for lit in reversed(assumptions):
            truth = self.value[lit]
            if truth is False:
                return self._final([lit >> 1], [lit])
            if truth is None:
                self._assign(lit, None)
                conflict = self._propagate()
                if conflict is not None:
                    return self._final([q >> 1 for q in conflict], [])
        return None

    def solve(self, assumptions):
        """("sat", assign) or ("unsat", core). Raises on step budget.

        ``assign`` gives the truth of each literal of ``out``, which is
        each member's truth for a compiled closure; ``core`` is a subset
        of ``assumptions`` that the clauses already refute.
        """
        self.solves += 1
        if self.empty:
            return "unsat", []
        try:
            return self._search(assumptions)
        finally:
            self._cancel(0)

    def _search(self, assumptions):
        value = self.value
        decide = self.decide
        step_cap = _STEP_CAP
        steps = 0
        while True:
            core = self._assume(assumptions)
            if core is not None:
                return "unsat", core
            pos = 0
            decided_at = [0, 0]
            while True:
                conflict = self._propagate()
                if conflict is not None:
                    if len(self.trail_lim) <= 1:
                        return "unsat", self._final(
                            [q >> 1 for q in conflict], [])
                    self.conflicts += 1
                    self.learned += 1
                    learnt, back = self._analyze(conflict)
                    self._cancel(back)
                    if back == 0:
                        self.add_clause(learnt)
                        if self.empty:
                            return "unsat", []
                        break
                    if len(learnt) == 2:
                        self.bins[learnt[0]].append(learnt[1])
                        self.bins[learnt[1]].append(learnt[0])
                    else:
                        self.watches[learnt[0]].append(learnt)
                        self.watches[learnt[1]].append(learnt)
                    self._assign(learnt[0], learnt)
                    pos = decided_at[back + 1]
                    del decided_at[back + 1:]
                    continue
                steps += 1
                if steps > step_cap:
                    raise ResourceBudgetExceeded(
                        f"propositional search exceeded {step_cap} steps")
                while pos < len(decide) and value[decide[pos]] is not None:
                    pos += 1
                if pos >= len(decide):
                    return "sat", list(map(value.__getitem__, self.out))
                lit = decide[pos]
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                decided_at.append(pos)
                self._assign(lit, None)


class _Lazy:
    """The lazy regime: one demand graph per round of ``run``.

    A round returns a ``Sat``, or restarts after ``_learn`` or
    ``_refute`` adds a lemma, or ends the run undecided when its graph
    leaves eventualities undischarged that ``_refute`` cannot refute.
    A restarted round asks many of the same demands again. So
    ``_solve`` keeps each ``sat`` answer by its assumptions and answers
    a repeat from the current or the previous round's table, when that
    assignment satisfies every lemma learned since it was given. That
    is what a fresh solve returns: a solve gives the least model in the
    static decision list, lemmas only remove models, and learned clauses
    follow from the database. An ``unsat`` answer is not kept, since its
    core depends on the database. Each answer a round keeps belongs to
    one of its states or refutation checks, so a table holds at most
    ``_NODE_CAP`` states' answers besides those checks, and only two
    rounds are kept.
    """

    def __init__(self, f, shape, dpll):
        self.f = f
        self.shape = shape
        self.dpll = dpll
        self.lemmas = []
        # assumptions -> (assignment, lemmas it was checked against)
        self.models = {}
        self.previous = {}

    def _next_round(self):
        self.previous, self.models = self.models, {}

    def _solve(self, assumptions):
        key = tuple(assumptions)
        kept = self.models.get(key) or self.previous.get(key)
        if kept is not None:
            assign, checked = kept
            if all(any(assign[l >> 1] == (l & 1 == 0) for l in lemma)
                   for lemma in self.lemmas[checked:]):
                self.models[key] = (assign, len(self.lemmas))
                return "sat", assign
        status, result = self.dpll.solve(assumptions)
        if status == "sat":
            self.models[key] = (result, len(self.lemmas))
        return status, result

    def _add_lemma(self, lits):
        self.lemmas.append(lits)
        self.dpll.add_clause(lits)

    def _learn(self, assign, a, culprits):
        """Refute this combination of modal truths at every state
        reachable from a model of ``f``.

        The culprits force facts at the successor that the clause
        database refutes. The successor of such a state is reachable
        too, so it satisfies the database, global conjuncts included.
        When none of the culprits is a true diamond or a false box,
        which force the successor to exist, ``_Shape.forcer`` adds a
        modality that does. So no reachable state of any deterministic
        model satisfies all of them at once. The literals are over
        distinct members, so the clause is never a tautology, and the
        current assignment falsifies it, so it is new.
        """
        index = self.shape.index
        culprits = list(culprits)
        if not any(assign[index[g]] == isinstance(g, sx.Dia)
                   for g in culprits):
            g = self.shape.forcer(assign, a)
            if g is None:
                raise AssertionError(
                    "demanded letter without an existence forcer")
            culprits.append(g)
        self._add_lemma([2 * index[g] + assign[index[g]] for g in culprits])

    def run(self):
        """Each round ends in a ``Sat``, or restarts after a lemma or a
        unit that ``_refute`` learned; a graph that leaves eventualities
        undischarged with nothing to refute ends the run undecided."""
        restarts = 0
        while restarts < _RESTART_CAP:
            self._next_round()
            status, assign = self._solve(
                [self.shape.lit[self.shape.index[self.f]]])
            if status == "unsat":
                return Unsat()
            outcome = self._expand(assign)
            if isinstance(outcome, Sat):
                return outcome
            if outcome is not None and not self._refute(outcome):
                return Unknown("eventualities left undischarged")
            restarts += 1
        return Unknown("lemma restarts exhausted without convergence")

    def _expand(self, root_assign):
        """Build the demand graph: a ``Sat`` when it discharges every
        eventuality, None when a lemma was learned, otherwise the
        eventualities it leaves undischarged."""
        shape = self.shape
        nodes = {}
        assigns = []
        trans = {}
        pending = []

        def register(key, assign):
            if len(assigns) >= _NODE_CAP:
                raise ResourceBudgetExceeded(
                    f"demand graph exceeded {_NODE_CAP} states")
            nid = len(assigns)
            nodes[key] = nid
            assigns.append(assign)
            pending.append(nid)
            return nid

        register(("root",), root_assign)
        while pending:
            nid = pending.pop()
            assign = assigns[nid]
            for a in shape.letters:
                if shape.forcer(assign, a) is None:
                    continue
                lits, pins = shape.demand(assign, a)
                if lits is None:
                    self._learn(assign, a, pins)
                    return None
                key = (a, lits)
                child = nodes.get(key)
                if child is None:
                    status, result = self._solve(lits)
                    if status == "unsat":
                        self._learn(assign, a,
                                    [pins[l >> 1][1] for l in result])
                        return None
                    child = register(key, result)
                trans[(nid, a)] = child

        def step(j):
            for a in shape.letters:
                child = trans.get((j, a))
                if child is not None:
                    yield a, child

        missing = []
        for nid, assign in enumerate(assigns):
            for pi, arg, want in shape.eventualities(assign):
                var = shape.index[arg]
                if not any(q.nullable and assigns[j][var] == want
                           for j, q in ox.walk(pi, nid, step)):
                    missing.append((pi, arg, want))
        if missing:
            return missing
        return Sat(shape.witness(assigns, trans), 0)

    def _refute(self, missing):
        """Learn that an eventuality whose discharge no state admits is
        never promised; True when some unit was learned.

        Every state reachable from a model of ``f`` satisfies the
        clause database, global conjuncts included, and so does every
        state that a walk from it reaches. So when the database refutes
        ``arg`` having truth ``want``, no walk discharges the
        eventuality, and its star modality never has the truth that
        promises it at such a state.
        """
        index = self.shape.index
        lit = self.shape.lit
        learned = False
        for pi, arg, want in dict.fromkeys(missing):
            status, _ = self._solve([lit[index[arg]] ^ (not want)])
            if status == "unsat":
                g = sx.dia(pi, arg) if want else sx.box(pi, arg)
                self._add_lemma([2 * index[g] + want])
                learned = True
        return learned


# --- entry point ----------------------------------------------------------


def _decide(f: sx.Formula):
    """``dpdl_sat`` without its witness check: a ``Sat`` here carries a
    witness that no checker has read. Caps end in ``Unknown``.

    No step here recurses on the depth of ``f``: the closure walk, the
    solver and both regimes are iterative, and the walks of programs
    guard their own depth. So it takes formulas of any depth, such as
    the bubble encodings that ``pol_sat`` hands it, whose chains nest
    two levels per slot; ``dpdl_sat`` applies the depth limit for its
    witness check, which does recurse."""
    shape = _Shape(f)
    dpll = shape.compile()
    try:
        outcome = _Lazy(f, shape, dpll).run()
    except ResourceBudgetExceeded as err:
        outcome = Unknown(str(err))
    if isinstance(outcome, Unknown) and 2 ** len(shape.frontier) <= _ATOM_CAP:
        try:
            outcome = _Exact(f, shape, dpll).run()
        except ResourceBudgetExceeded as err:
            outcome = Unknown(str(err))
    return outcome


def dpdl_sat(f: sx.Formula):
    """Decide satisfiability of ``f`` over deterministic models.

    Returns ``Sat`` carrying a finite deterministic witness that the
    model checker has validated, ``Unsat``, or ``Unknown`` when a
    resource cap was hit or the lazy regime left eventualities
    undischarged where the exact regime does not run. ``Unsat`` is only
    reported after a propositional refutation from lemmas that hold at
    every state reachable from a model of ``f`` (lazy regime) or
    exhaustive pruning (exact regime), so every definite verdict is
    sound. Each top-level conjunct ``[π*]χ`` whose ``π`` holds every
    letter of the closure holds at all of those states, so the solver
    takes it as a unit clause; the bubble encoding's ``[Σ*]`` invariant
    is one.

    The lazy regime runs first, on every formula, and decides along the
    closure's one static decision list (``_Shape.decide``), which
    discharges star eventualities as early as the clauses allow. When
    it ends undecided and the closure has at most 14 frontier members
    (atoms and one-letter modalities), the exact regime decides
    instead, on the lazy run's clause database: every clause the lazy
    run added holds at every state reachable from a model of ``f``, so
    it gives the verdict and witness that a fresh enumeration would.
    Module constants bound the work: ``_NODE_CAP`` the states of a
    demand graph or witness walk, ``_RESTART_CAP`` the lemma restarts,
    ``_STEP_CAP`` the steps of each propositional search and
    ``obsregex._MAX_DERIVATIVES`` the derivatives that each walk meets,
    the witness check's too. A formula with agent operators, wherever
    they sit, raises ``InvalidInput``. A formula that nests deeper than
    ``syntax._MAX_DEPTH`` raises ``FormulaTooDeep`` before the search:
    the witness check evaluates by recursion on the formula, one frame
    per level, and the search itself does not recurse.
    """
    sx._check_depth(f)
    outcome = _decide(f)
    if isinstance(outcome, Sat):
        try:
            if not dc.dpdl_check(outcome.model, outcome.state, f):
                raise AssertionError("solver produced a witness the model "
                                     "checker rejects; this is a bug")
        except ResourceBudgetExceeded as err:
            return Unknown(str(err))
    return outcome
