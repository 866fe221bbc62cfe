"""Satisfiability for dynamic logic over deterministic models.

Truth of every closure member is determined by the members that are
atoms or modalities over a single letter, through the one-step
unfolding equations of composite programs. The solver therefore works
with truth assignments to the closure and has two regimes.

The exact regime enumerates all assignments to the determining members,
then prunes: a survivor needs, per letter it demands, some surviving
assignment agreeing with it on every one-letter modality over that
letter, and every star eventuality must be dischargeable through such
matching edges. A witness is read off by walking demanded letters,
steering each step toward the oldest undischarged eventuality.

The lazy regime never enumerates. It runs a propositional search over
the unfolding equations, builds successor states only for demanded
letters, and memoizes states by their incoming demand. One incremental
CDCL solver serves the whole run: each state's demand is a set of
assumptions, and a refuted demand comes back with a core of them,
which a deletion loop shrinks to an irreducible one. The modal literals
of the parent behind that core are learned as a new clause, which is
valid in every deterministic model, and the search restarts. Decision
order and polarity are static, so each solve returns the least model
in that order and the witnesses are deterministic.

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


class _Stuck(Exception):
    """Internal: the search cannot proceed; surfaces as Unknown."""


class _StepBudget(Exception):
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


def _topo_order(members):
    """Members ordered so each one's determining operands come first."""
    order = []
    state = {}
    for root in members:
        stack = [root]
        while stack:
            g = stack[-1]
            st = state.get(g)
            if st == 2:
                stack.pop()
                continue
            if st == 1:
                state[g] = 2
                order.append(g)
                stack.pop()
                continue
            state[g] = 1
            d = _definition(g)
            if d[0] in ("not", "eq"):
                deps = (d[1],)
            elif d[0] in ("or", "and"):
                deps = d[1]
            else:
                deps = ()
            for h in deps:
                if state.get(h) is None:
                    stack.append(h)
    return order


class _Shape:
    """Letter-indexed view of the one-letter modalities of a closure."""

    def __init__(self, members):
        self.members = members
        self.dia = {}
        self.box = {}
        for g in members:
            if isinstance(g, (sx.Dia, sx.Box)) and isinstance(g.pi, ox.Atom):
                table = self.dia if isinstance(g, sx.Dia) else self.box
                table.setdefault(g.pi.symbol, []).append(g)
        self.letters = tuple(sorted(set(self.dia) | set(self.box)))
        # Every letter of a closure's programs also heads one of its
        # one-letter modalities, so this alphabet serves all of them.
        self.alphabet = ox.Alphabet(self.letters or ["a"])
        self.profile = {a: tuple(self.dia.get(a, []) + self.box.get(a, []))
                        for a in self.letters}
        self.stars = [g for g in members
                      if isinstance(g, (sx.Dia, sx.Box))
                      and isinstance(g.pi, ox.Star)]

    def eventualities(self, truth):
        """Star modalities of ``truth`` that promise a discharge.

        ``truth`` answers membership queries. A true star diamond must
        reach its argument and a false star box must reach the
        argument's failure; everything else is a safety condition that
        edge matching enforces step by step.
        """
        out = []
        for g in self.stars:
            want = isinstance(g, sx.Dia)
            if (g in truth) == want:
                out.append((g.pi, g.arg, want))
        return out


# --- exact regime -------------------------------------------------------------


class _Exact:
    def __init__(self, f, members, node_cap):
        self.f = f
        self.members = members
        self.node_cap = node_cap
        self.shape = _Shape(members)
        self.frontier = [g for g in members if _is_frontier(g)]
        defs = [(g, _definition(g)) for g in _topo_order(members)
                if not _is_frontier(g)]
        self.atoms = []
        for mask in range(2 ** len(self.frontier)):
            val = {g: bool(mask >> i & 1)
                   for i, g in enumerate(self.frontier)}
            for g, d in defs:
                if d[0] == "true":
                    val[g] = True
                elif d[0] == "false":
                    val[g] = False
                elif d[0] == "not":
                    val[g] = not val[d[1]]
                elif d[0] == "eq":
                    val[g] = val[d[1]]
                elif d[0] == "or":
                    val[g] = any(val[h] for h in d[1])
                else:
                    val[g] = all(val[h] for h in d[1])
            self.atoms.append(frozenset(g for g in members if val[g]))
        self.alive = set(range(len(self.atoms)))
        self._groups = {}
        for a in self.shape.letters:
            groups = {}
            for j, atom in enumerate(self.atoms):
                args = tuple(g.arg in atom for g in self.shape.profile[a])
                groups.setdefault(args, []).append(j)
            self._groups[a] = groups

    def _required(self, i, a):
        atom = self.atoms[i]
        return tuple(g in atom for g in self.shape.profile[a])

    def _candidates(self, i, a):
        found = self._groups[a].get(self._required(i, a), ())
        return [j for j in found if j in self.alive]

    def _needs(self, i, a):
        atom = self.atoms[i]
        return (any(g in atom for g in self.shape.dia.get(a, ()))
                or any(g not in atom for g in self.shape.box.get(a, ())))

    def _discharged(self, i, expr, arg, want):
        return ox.nullable(expr) and (arg in self.atoms[i]) == want

    def _edges(self, j):
        """The (letter, atom) steps a walk from atom ``j`` may take."""
        for a in self.shape.letters:
            if self._needs(j, a):
                for k in self._candidates(j, a):
                    yield a, k

    def _discharge_walk(self, i, pi, arg, want):
        """Shortest walk from atom ``i`` along a word of ``pi`` to an atom
        giving ``arg`` the truth ``want``, as (letter, atom) steps; None
        when there is none."""
        return ox.search(ox.to_dfa(pi, self.shape.alphabet), i, self._edges,
                         lambda j: (arg in self.atoms[j]) == want)

    def eliminate(self):
        changed = True
        while changed:
            changed = False
            for i in sorted(self.alive):
                ok = True
                for a in self.shape.letters:
                    if self._needs(i, a) and not self._candidates(i, a):
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
        return [i for i in sorted(self.alive) if self.f in self.atoms[i]]

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
                    raise _Stuck(
                        "an eventuality became undischargeable during "
                        "witness construction")
                plan = path[0]
            for a in self.shape.letters:
                if not self._needs(i, a):
                    continue
                if plan is not None and plan[0] == a:
                    j = plan[1]
                else:
                    j = self._candidates(i, a)[0]
                carried = []
                for expr, arg, want in agenda:
                    e2 = ox.derive(expr, a)
                    if not ox.is_empty_language(e2):
                        entry = (e2, arg, want)
                        if entry not in carried:
                            carried.append(entry)
                child = make(j, carried)
                trans[(nid, a)] = child
                if child not in done:
                    pending.append(child)
        val = {nid: frozenset(g.name for g in self.atoms[i]
                              if isinstance(g, sx.Prop))
               for nid, i in enumerate(atom_of)}
        model = dc.DpdlModel(tuple(range(len(atom_of))), trans, val,
                             alphabet=self.shape.letters)
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
        """Add a clause; False when it is a tautology and was dropped."""
        lits = set(lits)
        if any(l ^ 1 in lits for l in lits):
            return False
        lits = sorted(lits)
        self.stale = True
        if not lits:
            self.empty = True
        elif len(lits) == 1:
            self.units.append(lits[0])
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

        They are propagated one at a time from the last, so a core
        favours the later assumptions, which a deletion loop over them
        in order tries to drop last.
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
                    raise _StepBudget()
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
    def __init__(self, f, members, node_cap, restart_cap, step_cap):
        self.f = f
        self.members = tuple(members)
        self.node_cap = node_cap
        self.restart_cap = restart_cap
        self.shape = _Shape(members)
        self.index = {g: i for i, g in enumerate(self.members)}
        self.dpll = _Dpll(len(self.members), step_cap)
        for g in self.members:
            self._emit(g)
        for a in self.shape.letters:
            boxes = {g.arg: g for g in self.shape.box.get(a, ())}
            for d in self.shape.dia.get(a, ()):
                b = boxes.get(d.arg)
                if b is not None:
                    self.dpll.add_clause([self._lit(d, False),
                                          self._lit(b, True)])
        self.polarity = {}
        self.retries = 0

    def _lit(self, g, positive):
        return _Dpll.lit(self.index[g], positive)

    def _emit(self, g):
        d = _definition(g)
        lit = self._lit
        if d[0] == "true":
            self.dpll.add_clause([lit(g, True)])
        elif d[0] == "false":
            self.dpll.add_clause([lit(g, False)])
        elif d[0] == "not":
            self.dpll.add_clause([lit(g, False), lit(d[1], False)])
            self.dpll.add_clause([lit(g, True), lit(d[1], True)])
        elif d[0] == "eq":
            self.dpll.add_clause([lit(g, False), lit(d[1], True)])
            self.dpll.add_clause([lit(g, True), lit(d[1], False)])
        elif d[0] == "or":
            self.dpll.add_clause([lit(g, False)]
                                 + [lit(h, True) for h in d[1]])
            for h in d[1]:
                self.dpll.add_clause([lit(g, True), lit(h, False)])
        elif d[0] == "and":
            self.dpll.add_clause([lit(g, True)]
                                 + [lit(h, False) for h in d[1]])
            for h in d[1]:
                self.dpll.add_clause([lit(g, False), lit(h, True)])

    def _solve(self, assumptions):
        order = sorted(self.polarity) if self.polarity else None
        return self.dpll.solve(assumptions, self.polarity, order)

    def _needs(self, assign, a):
        return (any(assign[self.index[g]]
                    for g in self.shape.dia.get(a, ()))
                or any(not assign[self.index[g]]
                       for g in self.shape.box.get(a, ())))

    def _demand(self, assign, a):
        """Signed successor requirements, or a conflicting member pair.

        Under an existing ``a``-successor, every one-letter modality
        over ``a`` pins its argument's truth there to its own truth
        here; the demand is that set of signed literals.
        """
        req = {}
        for g in self.shape.profile[a]:
            truth = assign[self.index[g]]
            var = self.index[g.arg]
            if var in req:
                if req[var][0] != truth:
                    return None, (req[var][1], g)
            else:
                req[var] = (truth, g)
        return req, None

    def _forcer(self, assign, a):
        for g in self.shape.dia.get(a, ()):
            if assign[self.index[g]]:
                return g
        for g in self.shape.box.get(a, ()):
            if not assign[self.index[g]]:
                return g
        raise AssertionError("demanded letter without an existence forcer")

    def _learn(self, assign, a, culprits):
        """Refute this combination of modal truths as a new validity.

        The culprits force contradictory facts at the successor, and
        one of them (or the added forcer) forces the successor to
        exist, so no state of any deterministic model satisfies all of
        them at once.
        """
        lits = []
        seen = set()
        for g in list(culprits) + [self._forcer(assign, a)]:
            if g not in seen:
                seen.add(g)
                lits.append(self._lit(g, not assign[self.index[g]]))
        if not self.dpll.add_clause(lits):
            raise _Stuck("a refuting lemma was already known; the "
                         "propositional search is not converging")

    def run(self):
        for _ in range(self.restart_cap):
            status, assign = self._solve([self._lit(self.f, True)])
            if status == "unsat":
                return Unsat()
            outcome = self._expand(assign)
            if outcome is not None:
                return outcome
        return Unknown("lemma restarts exhausted without convergence")

    def _expand(self, root_assign):
        """Build the demand graph; None means a lemma was learned."""
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
            for a in self.shape.letters:
                if not self._needs(assign, a):
                    continue
                req, conflict = self._demand(assign, a)
                if req is None:
                    self._learn(assign, a, conflict)
                    return None
                lits = sorted(_Dpll.lit(var, truth)
                              for var, (truth, _) in req.items())
                key = (a, tuple(lits))
                child = nodes.get(key)
                if child is None:
                    status, result = self._solve(lits)
                    if status == "unsat":
                        core = self._minimize_core(lits, result)
                        culprits = [req[l >> 1][1] for l in core]
                        self._learn(assign, a, culprits)
                        return None
                    child = register(key, result)
                trans[(nid, a)] = child
        return self._finish(assigns, trans)

    def _minimize_core(self, lits, core):
        """Drop each literal of ``lits`` in turn while the rest stay
        unsatisfiable. ``core`` is a refuted subset of ``lits``; a trial
        that still contains the latest such core is refuted without a
        solve."""
        kept = list(lits)
        core = set(core)
        for lit in lits:
            trial = [l for l in kept if l != lit]
            if lit not in core:
                kept = trial
                continue
            status, result = self._solve(trial)
            if status == "unsat":
                kept = trial
                core = set(result)
        return kept

    def _finish(self, assigns, trans):
        missing = []
        for nid, assign in enumerate(assigns):
            view = _AssignView(self.index, assign)
            for pi, arg, want in self.shape.eventualities(view):
                if not self._walk_discharges(assigns, trans, nid,
                                             pi, arg, want):
                    missing.append((pi, arg, want))
        if missing:
            return self._retry(missing)
        val = {nid: frozenset(g.name for g in self.members
                              if isinstance(g, sx.Prop)
                              and assign[self.index[g]])
               for nid, assign in enumerate(assigns)}
        model = dc.DpdlModel(tuple(range(len(assigns))), trans, val,
                             alphabet=self.shape.letters)
        return Sat(model, 0)

    def _walk_discharges(self, assigns, trans, nid, pi, arg, want):
        argvar = self.index[arg]

        def step(j):
            for a in self.shape.letters:
                child = trans.get((j, a))
                if child is not None:
                    yield a, child

        return ox.search(ox.to_dfa(pi, self.shape.alphabet), nid, step,
                         lambda j: assigns[j][argvar] == want) is not None

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
        """Steer decisions toward discharging, then rebuild the graph.

        An undischarged obligation usually means the default branch
        deferred it forever: the one-letter unfolding kept renewing the
        promise at every successor while the argument never came true.
        The retry inverts the relevant defaults so each obligation is
        settled as early as the clauses allow, and deferral only happens
        when propagation forces it. Retrying stops once a failure adds
        no new steering, or after a fixed number of rounds.
        """
        hints = {}
        for pi, arg, want in missing:
            g = sx.dia(pi, arg) if want else sx.box(pi, arg)
            for h in self._unfold_frontier(g):
                hints[self.index[h]] = isinstance(h, sx.Box)
            hints[self.index[arg]] = want
        self.retries += 1
        if self.retries > 8 or all(self.polarity.get(v) == t
                                   for v, t in hints.items()):
            return Unknown("eventualities left undischarged after the "
                           "discharge-steering retries")
        self.polarity.update(hints)
        status, assign = self._solve([self._lit(self.f, True)])
        if status == "unsat":
            return Unsat()
        return self._expand(assign)


class _AssignView:
    """Adapter letting _Shape.eventualities query a DPLL assignment."""

    __slots__ = ("index", "assign")

    def __init__(self, index, assign):
        self.index = index
        self.assign = assign

    def __contains__(self, g):
        return self.assign[self.index[g]]


# --- entry point ----------------------------------------------------------


def dpdl_sat(f: sx.Formula, *, atom_cap: int = 2 ** 14,
             node_cap: int = 5000, restart_cap: int = 200,
             step_cap: int = 5_000_000):
    """Decide satisfiability of ``f`` over deterministic models.

    Returns ``Sat`` carrying a finite deterministic witness that the
    model checker has validated, ``Unsat``, or ``Unknown`` when a
    resource cap was hit. ``Unsat`` is only reported after exhaustive
    pruning (exact regime) or a propositional refutation from valid
    lemmas (lazy regime), so every definite verdict is sound.

    ``atom_cap`` bounds the assignment enumeration of the exact regime;
    formulas whose determining members would exceed it are handled
    lazily. The remaining caps bound witness size and search effort.
    A formula with agent operators is a TypeError.
    """
    members = sx.closure(f)
    if any(isinstance(g, (sx.Hat, sx.Know)) for g in members):
        raise TypeError("dynamic logic has no agent operators")
    frontier_bits = sum(1 for g in members if _is_frontier(g))
    try:
        if 2 ** frontier_bits <= atom_cap:
            exact = _Exact(f, members, node_cap)
            exact.eliminate()
            if not exact.roots():
                return Unsat()
            model, state = exact.extract()
        else:
            outcome = _Lazy(f, members, node_cap, restart_cap,
                            step_cap).run()
            if not isinstance(outcome, Sat):
                return outcome
            model, state = outcome.model, outcome.state
    except ResourceBudgetExceeded as err:
        return Unknown(str(err))
    except _Stuck as err:
        return Unknown(str(err))
    except _StepBudget:
        return Unknown(f"propositional search exceeded {step_cap} steps")
    if not dc.dpdl_check(model, state, f):
        raise AssertionError("solver produced a witness the model checker "
                             "rejects; this is a bug")
    return Sat(model, state)
