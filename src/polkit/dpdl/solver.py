"""Satisfiability for dynamic logic over deterministic models.

Truth of every closure member is determined by the frontier members,
which are the atoms and the modalities over a single letter, through
the one-step unfolding equations of composite programs. The solver
therefore works with truth assignments to the closure. The equations
are compiled once per call into the clauses of one incremental CDCL
solver, in one pass over the closure: member ``v`` is variable ``v``
with literals ``2v`` and ``2v+1``, each binary clause goes straight
onto its two watch lists, and only the long clause of a junction is
sorted and checked for tautology. Both regimes work on that database.

The lazy regime runs first, on every formula, and never enumerates. It
builds successor states only for demanded letters and memoizes states
by their incoming demand. Each state's demand is a set of assumptions,
and a refuted demand comes back with the core of them that the solver's
final conflict analysis rests on. The modal literals of the parent
behind that core are learned as a new clause, which is valid in every
deterministic model, and the search restarts. A demand graph that leaves
star eventualities undischarged is not a refutation. When the database
refutes an eventuality's discharge outright, its star modality can never
promise it, which is learned as a unit clause with a restart. Otherwise
one loop steers the decision polarity toward discharging them and
rebuilds the graph without spending a restart, for a bounded number of
steering rounds. Decision order and polarity are static within a solve,
so each solve returns the least model in that order and the witnesses
are deterministic.

The exact regime backstops a lazy run that ends undecided, when at most
2^14 frontier assignments exist. Its atoms are the assignments that the
lazy run's database admits, one solve each with the frontier literals as
assumptions. The database holds only clauses valid in every model, so
it drops only assignments that no state has and elimination would drop:
the survivors and the witness are those of enumerating every assignment.
Elimination keeps an atom that has, per letter it demands, a surviving
atom meeting that demand, and that discharges every star eventuality
through such matching edges. A witness is read off by walking demanded
letters, steering each step toward the oldest undischarged eventuality.
An eventuality is carried into a successor only when some walk from
that successor still discharges it, so every eventuality on a node's
agenda has a walk and the steering never gets stuck.

Both regimes validate a found witness with the model checker before
reporting it. Resource caps turn into an unknown verdict, never into a
wrong one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obsregex as ox
from .. import syntax as sx
from ..errors import ResourceBudgetExceeded
from . import core as dc

__all__ = ["Sat", "Unsat", "Unknown", "dpdl_sat"]

# The most frontier assignments the exact regime enumerates.
_ATOM_CAP = 2 ** 14


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


class _StepBudget(ResourceBudgetExceeded):
    pass


def _is_frontier(g) -> bool:
    if isinstance(g, sx.Prop):
        return True
    return (isinstance(g, (sx.Dia, sx.Box))
            and isinstance(g.pi, ox.Atom))


def _definition(g):
    """How the truth of ``g`` is determined by other closure members.

    One of ("true",), ("false",), ("frontier",), ("not", h),
    ("eq", h), ("or", parts), ("and", parts). Every operand is itself
    a closure member whenever ``g`` is.
    """
    if isinstance(g, sx.Top):
        return ("true",)
    if isinstance(g, sx.Prop):
        return ("frontier",)
    if isinstance(g, sx.Not):
        return ("not", g.arg)
    if isinstance(g, sx.Or):
        return ("or", g.parts)
    if isinstance(g, sx.And):
        return ("and", g.parts)
    make = sx.dia if isinstance(g, sx.Dia) else sx.box
    junction = "or" if isinstance(g, sx.Dia) else "and"
    pi = g.pi
    if isinstance(pi, ox.Atom):
        return ("frontier",)
    if isinstance(pi, ox.Epsilon):
        return ("eq", g.arg)
    if isinstance(pi, ox.Empty):
        return ("false",) if isinstance(g, sx.Dia) else ("true",)
    if isinstance(pi, ox.Sum):
        return (junction, tuple(make(p, g.arg) for p in pi.parts))
    if isinstance(pi, ox.Concat):
        rest = ox.seq(*pi.parts[1:])
        return ("eq", make(pi.parts[0], make(rest, g.arg)))
    if isinstance(pi, ox.Star):
        return (junction, (g.arg, make(pi.body, g)))
    raise TypeError(f"unsupported program {pi!r}")


class _Shape:
    """A closure as solver variables: member ``v`` is variable ``v``.

    A state is an assignment, a list giving each variable's truth. The
    one-letter modalities are indexed by letter, and the methods below
    read a state's demands, eventualities and valuation.
    """

    def __init__(self, members):
        self.members = tuple(members)
        self.index = {g: i for i, g in enumerate(self.members)}
        self.frontier = [g for g in self.members if _is_frontier(g)]
        self.dia = {}
        self.box = {}
        for g in self.members:
            if isinstance(g, (sx.Dia, sx.Box)) and isinstance(g.pi, ox.Atom):
                table = self.dia if isinstance(g, sx.Dia) else self.box
                table.setdefault(g.pi.symbol, []).append(g)
        self.letters = tuple(sorted(set(self.dia) | set(self.box)))
        # Every letter of a closure's programs also heads one of its
        # one-letter modalities, so this alphabet serves all of them.
        self.alphabet = ox.Alphabet(self.letters or ["a"])
        self.profile = {a: tuple(self.dia.get(a, []) + self.box.get(a, []))
                        for a in self.letters}
        self.stars = [g for g in self.members
                      if isinstance(g, (sx.Dia, sx.Box))
                      and isinstance(g.pi, ox.Star)]
        self.props = [(v, g.name) for v, g in enumerate(self.members)
                      if isinstance(g, sx.Prop)]

    def compile(self, step_cap):
        """A solver over the clauses of every member's definition, then
        one per pair of a diamond and a box over the same letter and
        argument.

        Literals come straight from member indices, and only the long
        clause of a junction passes through ``add_clause``. The clauses,
        and the literals in each, come out in the order that
        ``add_clause`` on each of them would give. It runs before the
        first solve, which builds level 0 from the units.
        """
        dpll = _Dpll(len(self.members), step_cap)
        index = self.index
        units = dpll.units
        add_clause = dpll.add_clause
        binary = dpll.add_binary
        for v, g in enumerate(self.members):
            d = _definition(g)
            kind = d[0]
            pos = 2 * v
            if kind == "frontier":
                continue
            if kind == "true":
                units.append(pos)
            elif kind == "false":
                units.append(pos + 1)
            elif kind == "not":
                h = 2 * index[d[1]]
                binary(pos + 1, h + 1)
                binary(pos, h)
            elif kind == "eq":
                h = 2 * index[d[1]]
                binary(pos + 1, h)
                binary(pos, h + 1)
            elif kind == "or":
                parts = [2 * index[h] for h in d[1]]
                add_clause([pos + 1] + parts)
                for h in parts:
                    binary(pos, h + 1)
            else:
                parts = [2 * index[h] for h in d[1]]
                add_clause([pos] + [h + 1 for h in parts])
                for h in parts:
                    binary(pos + 1, h)
        for a in self.letters:
            boxes = {g.arg: g for g in self.box.get(a, ())}
            for d in self.dia.get(a, ()):
                b = boxes.get(d.arg)
                if b is not None:
                    binary(2 * index[d] + 1, 2 * index[b])
        return dpll

    def needs(self, assign, a):
        """Whether a state must have an ``a``-successor."""
        index = self.index
        return (any(assign[index[g]] for g in self.dia.get(a, ()))
                or any(not assign[index[g]] for g in self.box.get(a, ())))

    def demand(self, assign, a):
        """The literals an ``a``-successor must satisfy, and who pins them.

        Under an existing ``a``-successor, every one-letter modality
        over ``a`` pins its argument's truth there to its own truth
        here. Returns the sorted tuple of those literals with a map from
        each variable to its truth and the modality that pins it; or None
        with a pair of modalities that pin one variable both ways.
        """
        index = self.index
        req = {}
        for g in self.profile[a]:
            truth = assign[index[g]]
            var = index[g.arg]
            if var in req:
                if req[var][0] != truth:
                    return None, (req[var][1], g)
            else:
                req[var] = (truth, g)
        lits = tuple(sorted(_Dpll.lit(var, truth)
                            for var, (truth, _) in req.items()))
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

    def discharge_walk(self, states, step, start, pi, arg, want):
        """Shortest walk from state ``start`` along a word of ``pi`` to a
        state giving ``arg`` the truth ``want``, as (letter, state) steps
        through the edges ``step`` yields; None when there is none."""
        var = self.index[arg]
        return ox.search(ox.to_dfa(pi, self.alphabet), start, step,
                         lambda j: states[j][var] == want)

    def witness(self, states, trans):
        """The deterministic model over numbered states and transitions."""
        val = {nid: frozenset(name for v, name in self.props if assign[v])
               for nid, assign in enumerate(states)}
        return dc.DpdlModel(tuple(range(len(states))), trans, val,
                            alphabet=self.letters)


# --- exact regime -------------------------------------------------------------


class _Exact:
    def __init__(self, f, shape, dpll, node_cap):
        self.f = f
        self.shape = shape
        self.node_cap = node_cap
        self.atoms = []
        for mask in range(2 ** len(shape.frontier)):
            status, assign = dpll.solve([
                _Dpll.lit(shape.index[g], bool(mask >> i & 1))
                for i, g in enumerate(shape.frontier)])
            if status == "sat":
                self.atoms.append(assign)
        self.alive = set(range(len(self.atoms)))
        # per atom, each letter it demands with its successor literals,
        # None where two modalities pin one literal both ways
        self._demands = [{a: shape.demand(atom, a)[0] for a in shape.letters
                          if shape.needs(atom, a)}
                         for atom in self.atoms]
        self._groups = {}
        for a in shape.letters:
            args = sorted({shape.index[g.arg] for g in shape.profile[a]})
            groups = {}
            for j, atom in enumerate(self.atoms):
                key = tuple(_Dpll.lit(v, atom[v]) for v in args)
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
        return self.shape.discharge_walk(self.atoms, self._edges, i,
                                         pi, arg, want)

    def eliminate(self):
        changed = True
        while changed:
            changed = False
            for i in sorted(self.alive):
                ok = True
                for a in self._demands[i]:
                    if not self._candidates(i, a):
                        ok = False
                        break
                if ok:
                    for pi, arg, want in self.shape.eventualities(
                            self.atoms[i]):
                        if self._discharge_walk(i, pi, arg, want) is None:
                            ok = False
                            break
                if not ok:
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
                             key=lambda ob: sx.formula_key(ob[1]))
            for entry in spawned:
                if entry not in agenda and not self._discharged(i, *entry):
                    agenda.append(entry)
            key = (i, tuple(agenda))
            nid = nodes.get(key)
            if nid is None:
                if len(atom_of) >= self.node_cap:
                    raise ResourceBudgetExceeded(
                        f"witness walk exceeded {self.node_cap} nodes")
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

    One instance serves every solve of a lazy run. Clauses keep their
    two watched literals in positions 0 and 1, and a propagated literal
    sits in position 0 of its reason clause. Level 0 holds the
    consequences of the unit clauses; it persists between solves and
    is rebuilt only after ``add_clause``. Each solve puts all of its
    assumptions on level 1 and decides above it. A conflict above
    level 1 is analysed to its first unique implication point; the
    learned clause is kept for later solves, since it follows from the
    clause database alone, and the search jumps back to where it
    asserts. A conflict on level 1 refutes the assumptions: walking its
    reasons back to them yields the core returned with ``unsat``.

    Decision order and polarity are static (no activity heuristic,
    phase saving or restarts), so every answer is the least model in
    that order and polarity, the same model a chronological search
    finds, and witnesses stay deterministic. ``solves``, ``decisions``,
    ``conflicts`` (those above level 1, each teaching one clause),
    ``propagations`` and ``learned`` count the work done.
    """

    def __init__(self, nvars, step_cap):
        self.nvars = nvars
        self.step_cap = step_cap
        self.units = []
        self.watches = [[] for _ in range(2 * nvars)]
        self.empty = False
        self.value = [None] * (2 * nvars)
        self.level = [0] * nvars
        self.reason = [None] * nvars
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.stale = True
        self._decide_key = None
        self._decide = None
        self.solves = 0
        self.decisions = 0
        self.conflicts = 0
        self.propagations = 0
        self.learned = 0

    @staticmethod
    def lit(var, positive):
        return 2 * var + (0 if positive else 1)

    def add_clause(self, lits):
        """Add a clause; False when it is a tautology and was dropped.

        Sorting puts repeated and complementary literals side by side.
        """
        lits = sorted(lits)
        kept = []
        last = -2
        for lit in lits:
            if lit != last:
                if lit == last ^ 1:
                    return False
                kept.append(lit)
                last = lit
        lits = kept
        self.stale = True
        if not lits:
            self.empty = True
        elif len(lits) == 1:
            self.units.append(lits[0])
        else:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)
        return True

    def add_binary(self, x, y):
        """``add_clause([x, y])`` without sorting or sets: one comparison
        tells a repeated literal (a unit) and a complementary pair
        (dropped) from a clause that goes straight onto its watch lists.
        """
        if x >> 1 != y >> 1:
            clause = [x, y] if x < y else [y, x]
            self.watches[clause[0]].append(clause)
            self.watches[clause[1]].append(clause)
        elif x == y:
            self.units.append(x)
        else:
            return False
        self.stale = True
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

    def _rebuild(self):
        """Recompute level 0 from the unit clauses."""
        self.stale = False
        self.value = [None] * (2 * self.nvars)
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        for lit in self.units:
            if self.value[lit] is False:
                self.empty = True
                return
            if self.value[lit] is None:
                self._assign(lit, None)
        if self._propagate() is not None:
            self.empty = True

    def _propagate(self):
        """Propagate the trail; the conflicting clause, or None."""
        value = self.value
        trail = self.trail
        watches = self.watches
        level = self.level
        reason = self.reason
        lv = len(self.trail_lim)
        head = self.qhead
        conflict = None
        while head < len(trail):
            fal = trail[head] ^ 1
            head += 1
            watchlist = watches[fal]
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

    def _decide_order(self, order):
        key = tuple(order) if order else ()
        if key != self._decide_key:
            chosen = set(key)
            self._decide_key = key
            self._decide = list(key) + [v for v in range(self.nvars)
                                        if v not in chosen]
        return self._decide

    def solve(self, assumptions, polarity=None, order=None):
        """("sat", assign) or ("unsat", core). Raises on step budget.

        ``assign`` gives every variable's truth; ``core`` is a subset
        of ``assumptions`` that the clauses already refute.
        """
        self.solves += 1
        if self.stale:
            self._rebuild()
        if self.empty:
            return "unsat", []
        try:
            return self._search(assumptions, polarity or {},
                                self._decide_order(order))
        finally:
            self._cancel(0)

    def _search(self, assumptions, polarity, decide):
        value = self.value
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
                        self.units.append(learnt[0])
                        self._assign(learnt[0], None)
                        if self._propagate() is not None:
                            self.empty = True
                            return "unsat", []
                        break
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._assign(learnt[0], learnt)
                    pos = decided_at[back + 1]
                    del decided_at[back + 1:]
                    continue
                steps += 1
                if steps > self.step_cap:
                    raise _StepBudget(
                        f"propositional search exceeded {self.step_cap} steps")
                while pos < len(decide) and value[2 * decide[pos]] is not None:
                    pos += 1
                if pos >= len(decide):
                    return "sat", [value[2 * v] for v in range(self.nvars)]
                var = decide[pos]
                self.decisions += 1
                self.trail_lim.append(len(self.trail))
                decided_at.append(pos)
                self._assign(self.lit(var, polarity.get(var, False)), None)


class _Lazy:
    def __init__(self, f, shape, dpll, node_cap, restart_cap):
        self.f = f
        self.shape = shape
        self.dpll = dpll
        self.node_cap = node_cap
        self.restart_cap = restart_cap
        self.polarity = {}
        self.retries = 0

    def _solve(self, assumptions):
        order = sorted(self.polarity) if self.polarity else None
        return self.dpll.solve(assumptions, self.polarity, order)

    def _forcer(self, assign, a):
        index = self.shape.index
        for g in self.shape.dia.get(a, ()):
            if assign[index[g]]:
                return g
        for g in self.shape.box.get(a, ()):
            if not assign[index[g]]:
                return g
        raise AssertionError("demanded letter without an existence forcer")

    def _learn(self, assign, a, culprits):
        """Refute this combination of modal truths as a new validity.

        The culprits force contradictory facts at the successor, and
        one of them (or the added forcer) forces the successor to
        exist, so no state of any deterministic model satisfies all of
        them at once. The literals are over distinct members, so the
        clause is never a tautology, and the current assignment falsifies
        it, so it is new.
        """
        lits = []
        seen = set()
        for g in list(culprits) + [self._forcer(assign, a)]:
            if g not in seen:
                seen.add(g)
                var = self.shape.index[g]
                lits.append(_Dpll.lit(var, not assign[var]))
        self.dpll.add_clause(lits)

    def run(self):
        """Each learned lemma spends a restart; a steering round, which
        rebuilds the graph after eventualities were left undischarged,
        spends none."""
        restarts = 0
        while restarts < self.restart_cap:
            status, assign = self._solve([2 * self.shape.index[self.f]])
            if status == "unsat":
                return Unsat()
            outcome = self._expand(assign)
            if outcome is None:
                restarts += 1
            elif isinstance(outcome, Sat):
                return outcome
            elif self._refute(outcome):
                restarts += 1
            elif not self._retry(outcome):
                return Unknown("eventualities left undischarged after the "
                               "discharge-steering retries")
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
            if len(assigns) >= self.node_cap:
                raise ResourceBudgetExceeded(
                    f"demand graph exceeded {self.node_cap} states")
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
                if not shape.needs(assign, a):
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
                if shape.discharge_walk(assigns, step, nid,
                                        pi, arg, want) is None:
                    missing.append((pi, arg, want))
        if missing:
            return missing
        return Sat(shape.witness(assigns, trans), 0)

    def _refute(self, missing):
        """Learn that an eventuality whose discharge no state admits is
        never promised; True when some unit was learned.

        Every state satisfies the clause database, so when the database
        refutes ``arg`` having truth ``want``, no walk discharges the
        eventuality, and its star modality never has the truth that
        promises it, in any deterministic model.
        """
        index = self.shape.index
        learned = False
        for pi, arg, want in dict.fromkeys(missing):
            status, _ = self._solve([_Dpll.lit(index[arg], want)])
            if status == "unsat":
                g = sx.dia(pi, arg) if want else sx.box(pi, arg)
                self.dpll.add_clause([_Dpll.lit(index[g], not want)])
                learned = True
        return learned

    def _unfold_frontier(self, g):
        """One-letter modalities whose truth defers ``g`` to a successor."""
        out = []
        seen = {g}
        stack = [g]
        while stack:
            d = _definition(stack.pop())
            if d[0] == "eq":
                parts = (d[1],)
            elif d[0] in ("or", "and"):
                parts = d[1]
            else:
                continue
            for h in parts:
                if h in seen or not isinstance(h, (sx.Dia, sx.Box)):
                    continue
                seen.add(h)
                if _is_frontier(h):
                    out.append(h)
                else:
                    stack.append(h)
        return out

    def _retry(self, missing):
        """Steer decisions toward discharging ``missing``; False when
        there is nothing left to steer.

        An undischarged obligation usually means the default branch
        deferred it forever: the one-letter unfolding kept renewing the
        promise at every successor while the argument never came true.
        The retry inverts the relevant defaults so each obligation is
        settled as early as the clauses allow, and deferral only happens
        when propagation forces it. Retrying stops once a failure adds
        no new steering, or after a fixed number of rounds.
        """
        index = self.shape.index
        hints = {}
        for pi, arg, want in missing:
            g = sx.dia(pi, arg) if want else sx.box(pi, arg)
            for h in self._unfold_frontier(g):
                hints[index[h]] = isinstance(h, sx.Box)
            hints[index[arg]] = want
        self.retries += 1
        if self.retries > 8 or all(self.polarity.get(v) == t
                                   for v, t in hints.items()):
            return False
        self.polarity.update(hints)
        return True


# --- entry point ----------------------------------------------------------


def dpdl_sat(f: sx.Formula, *, node_cap: int = 5000, restart_cap: int = 200,
             step_cap: int = 5_000_000):
    """Decide satisfiability of ``f`` over deterministic models.

    Returns ``Sat`` carrying a finite deterministic witness that the
    model checker has validated, ``Unsat``, or ``Unknown`` when a
    resource cap was hit. ``Unsat`` is only reported after a
    propositional refutation from valid lemmas (lazy regime) or
    exhaustive pruning (exact regime), so every definite verdict is
    sound.

    The lazy regime runs first, on every formula. When it ends
    undecided and the closure has at most 14 frontier members (atoms
    and one-letter modalities), the exact regime decides instead, on
    the lazy run's clause database: every clause the lazy run added is
    valid, so it gives the verdict and witness that a fresh enumeration
    would. ``node_cap`` bounds witness size, ``restart_cap`` the lemma
    restarts and ``step_cap`` each propositional search. A formula
    with agent operators is a TypeError.
    """
    members = sx.closure(f)
    if any(isinstance(g, (sx.Hat, sx.Know)) for g in members):
        raise TypeError("dynamic logic has no agent operators")
    shape = _Shape(members)
    dpll = shape.compile(step_cap)
    try:
        outcome = _Lazy(f, shape, dpll, node_cap, restart_cap).run()
    except ResourceBudgetExceeded as err:
        outcome = Unknown(str(err))
    if isinstance(outcome, Unknown) and 2 ** len(shape.frontier) <= _ATOM_CAP:
        try:
            outcome = _Exact(f, shape, dpll, node_cap).run()
        except ResourceBudgetExceeded as err:
            outcome = Unknown(str(err))
    if (isinstance(outcome, Sat)
            and not dc.dpdl_check(outcome.model, outcome.state, f)):
        raise AssertionError("solver produced a witness the model checker "
                             "rejects; this is a bug")
    return outcome
