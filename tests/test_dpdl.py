"""The deterministic-dynamic-logic solver: its propositional engine,
clause compilation and decision list, the lazy regime's lemmas and
answer reuse, and both regimes against brute force; the model checker
and the parser."""

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polkit import corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.dpdl import solver as dps
from polkit.errors import InvalidInput, ParseError, ResourceBudgetExceeded

from conftest import dpdl_formula_strategy
from oracles import JunctionPinnedTranslation


def satisfies(assign, clauses):
    return all(any(assign[l >> 1] == (l & 1 == 0) for l in c)
               for c in clauses)


def least_model(nvars, clauses, assumptions, decide):
    """The first model in the decision list ``decide``, which gives one
    literal per variable."""
    units = [[l] for l in assumptions]
    for flips in itertools.product((False, True), repeat=nvars):
        assign = [None] * nvars
        for lit, flip in zip(decide, flips):
            assign[lit >> 1] = (lit & 1 == 0) != flip
        if satisfies(assign, clauses + units):
            return assign
    return None


@st.composite
def cnf_problems(draw, max_vars=10):
    nvars = draw(st.integers(1, max_vars))
    lit = st.integers(0, 2 * nvars - 1)
    clauses = draw(st.lists(st.lists(lit, min_size=1, max_size=4),
                            max_size=4 * nvars))
    assumptions = draw(st.lists(lit, max_size=nvars,
                                unique_by=lambda l: l >> 1))
    perm = draw(st.permutations(range(nvars)))
    signs = draw(st.lists(st.integers(0, 1), min_size=nvars,
                          max_size=nvars))
    decide = [2 * v + signs[v] for v in perm]
    return nvars, clauses, assumptions, decide


def random_3cnf(rng, nvars, nclauses):
    return [[2 * v + rng.randint(0, 1) for v in rng.sample(range(nvars), 3)]
            for _ in range(nclauses)]


def solver_for(nvars, clauses):
    s = dps._Dpll(nvars)
    for c in clauses:
        s.add_clause(c)
    return s


class TestPropositionalEngine:
    @settings(max_examples=300, deadline=None)
    @given(cnf_problems())
    def test_least_model_or_refuting_core(self, problem):
        nvars, clauses, assumptions, decide = problem
        s = solver_for(nvars, clauses)
        s.decide = decide
        status, result = s.solve(assumptions)
        expected = least_model(nvars, clauses, assumptions, decide)
        if status == "sat":
            assert result == expected
        else:
            assert expected is None
            assert set(result) <= set(assumptions)
            assert least_model(nvars, clauses, result, decide) is None

    def test_answers_hold_across_solves_and_added_clauses(self):
        rng = random.Random(11)
        for _ in range(60):
            nvars = 10
            clauses = random_3cnf(rng, nvars, rng.randint(25, 45))
            s = solver_for(nvars, clauses)
            s.decide = [2 * v + rng.randint(0, 1)
                        for v in rng.sample(range(nvars), nvars)]
            for _ in range(6):
                if rng.random() < 0.3:
                    extra = random_3cnf(rng, nvars, 1)[0][:rng.randint(1, 3)]
                    clauses.append(extra)
                    s.add_clause(extra)
                assumptions = [2 * v + rng.randint(0, 1)
                               for v in rng.sample(range(nvars), 3)]
                status, result = s.solve(assumptions)
                expected = least_model(nvars, clauses, assumptions,
                                       s.decide)
                assert (result if status == "sat" else None) == expected

    def test_learned_clauses_persist(self):
        rng = random.Random(3)
        first_conflicts = 0
        for _ in range(150):
            nvars = 10
            s = solver_for(nvars, random_3cnf(rng, nvars, 42))
            assumptions = [2 * v + rng.randint(0, 1)
                           for v in rng.sample(range(nvars), 2)]
            status, result = s.solve(assumptions)
            first_conflicts += s.conflicts
            conflicts = s.conflicts
            again, repeat = s.solve(assumptions)
            assert again == status
            if status == "sat":
                assert repeat == result
            assert s.conflicts == conflicts
        assert first_conflicts > 0

    def test_counters(self):
        s = solver_for(3, [[0, 2], [0, 3]])
        assert s.solve([1]) == ("unsat", [1])
        assert (s.solves, s.decisions, s.conflicts) == (1, 0, 0)
        assert s.solve([]) == ("sat", [True, False, False])
        assert (s.solves, s.decisions, s.conflicts) == (2, 3, 1)
        assert s.propagations > 0

    def test_tautologies_are_dropped(self):
        s = dps._Dpll(2)
        assert s.add_clause([0, 1, 2]) is False
        assert s.add_clause([0, 2]) is True
        assert s.solve([1]) == ("sat", [False, True])

    def test_repeated_and_complementary_literals(self):
        s = dps._Dpll(2)
        assert s.add_clause([2, 2]) is True
        assert s.trail == [2]
        assert s.add_clause([3, 2]) is False
        assert s.add_clause([2, 0, 2, 1]) is False
        assert s.add_clause([2, 0, 2]) is True
        assert s.bins[0] == [2] and s.bins[2] == [0]
        assert s.watches == [[], [], [], []]
        assert s.solve([1]) == ("sat", [False, True])

    def test_learned_binary_clause_is_an_implication(self):
        # deciding x0 then x1 false conflicts, and the search learns
        # x0 | x1; a later solve assuming ~x0 gets x1 from that clause
        s = solver_for(3, [[0, 2, 4], [0, 2, 5]])
        assert s.solve([]) == ("sat", [False, True, False])
        assert s.conflicts == 1
        assert s.bins[0] == [2] and s.bins[2] == [0]
        assert all(len(c) == 3 for w in s.watches for c in w)
        assert s.solve([1]) == ("sat", [False, True, False])
        assert s.conflicts == 1
        assert s.reason[1] == (2, 0)

    def test_level_zero_grows_in_place(self):
        # after a first solve, a unit, a clause false at level 0 but for
        # one literal and one false there throughout are added in place;
        # each answer is a fresh solver's with the same clauses
        rng = random.Random(33)
        asserted = 0
        for _ in range(40):
            nvars = 8
            clauses = random_3cnf(rng, nvars, rng.randint(6, 14))
            clauses.append([2 * rng.randrange(nvars) + rng.randint(0, 1)])
            s = solver_for(nvars, clauses)
            s.decide = [2 * v + rng.randint(0, 1)
                        for v in rng.sample(range(nvars), nvars)]
            s.solve([])
            for step in ("unit", "all false but one", "all false"):
                false = [l for l in range(2 * nvars) if s.value[l] is False]
                free = [v for v in range(nvars) if s.value[2 * v] is None]
                if step == "all false":
                    clause = false[:3]
                elif not free:
                    continue
                elif step == "unit":
                    clause = [2 * rng.choice(free) + rng.randint(0, 1)]
                else:
                    clause = false[-2:] + [2 * free[-1] + 1]
                    asserted += 1
                # level 0 also holds units that the solves learned, so
                # the fresh solver gets them too
                learned = [[l] for l in s.trail]
                clauses.append(clause)
                s.add_clause(clause)
                fresh = solver_for(nvars, learned + clauses)
                fresh.decide = s.decide
                for _ in range(3):
                    assumptions = [2 * v + rng.randint(0, 1)
                                   for v in rng.sample(range(nvars), 2)]
                    status, result = s.solve(assumptions)
                    again = fresh.solve(assumptions)
                    assert s.empty == fresh.empty, step
                    # a core may be smaller than the fresh solver's,
                    # through clauses the first solves learned
                    assert status == again[0], step
                    if status == "sat":
                        assert result == again[1] == least_model(
                            nvars, clauses, assumptions, s.decide), step
                    else:
                        assert set(result) <= set(assumptions), step
                        assert least_model(nvars, clauses, result,
                                           s.decide) is None, step
            assert s.empty
        assert asserted > 20

    def test_step_cap_leaves_the_solver_usable(self, monkeypatch):
        # the work meter raises mid-search; under a raised cap the same
        # solver answers, its level 0 as it was
        s = solver_for(10, [[0, 2], [5]])
        assert s.trail == [5]
        monkeypatch.setattr(dps, "_WORK_CAP", 5)
        with pytest.raises(ResourceBudgetExceeded,
                           match=r"work cap 5 exceeded: \d+ propagations, "
                                 r"0 graph states, 1 solves"):
            s.solve([])
        assert s.trail == [5] and not s.trail_lim
        monkeypatch.setattr(dps, "_WORK_CAP", 1000)
        status, assign = s.solve([0, 6])
        assert status == "sat" and assign[0] and not assign[2]
        assert s.trail == [5]


def reference_closure(f):
    """``closure`` as a walk that reads a definition only where a
    modality over a composite expression unfolds."""
    seen = []
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.append(g)
        if isinstance(g, (dp.Dia, dp.Box)):
            stack.append(g.arg)
            if not isinstance(g.pi, ox.Atom):
                stack.extend(h for h in reversed(sx.definition(g)[1])
                             if h is not g.arg)
        elif isinstance(g, (dp.Or, dp.And)):
            stack.extend(reversed(g.parts))
        elif isinstance(g, (dp.Not, sx.Hat, sx.Know)):
            stack.append(g.arg)
    return tuple(seen)


def reference_lit(g, index):
    """The literal of a member: a negation is its argument's literal with
    the sign flipped, any other member ``v`` is ``2v``."""
    flip = 0
    while isinstance(g, dp.Not):
        g = g.arg
        flip ^= 1
    return 2 * index[g] + flip


class ReferenceShape(dps._Shape):
    """``_Shape`` built the old way: the members from a closure of their
    own, each definition read again, and one loop per field."""

    def __init__(self, f):
        members = reference_closure(f)
        if any(isinstance(g, (sx.Hat, sx.Know)) for g in members):
            raise InvalidInput("dynamic logic has no agent operators")
        self.members = members
        self.index = {g: i for i, g in enumerate(members)}
        self.lit = [reference_lit(g, self.index) for g in members]
        self.definitions = tuple(map(sx.definition, members))
        self.frontier = [g for g, (kind, _) in zip(members, self.definitions)
                         if kind == "free"]
        self.dia = {}
        self.box = {}
        for g in members:
            if isinstance(g, (dp.Dia, dp.Box)) and isinstance(g.pi, ox.Atom):
                table = self.dia if isinstance(g, dp.Dia) else self.box
                table.setdefault(g.pi.symbol, []).append(g)
        self.letters = tuple(sorted(set(self.dia) | set(self.box)))
        self.profile = {a: tuple(self.dia.get(a, []) + self.box.get(a, []))
                        for a in self.letters}
        self.stars = [g for g in members
                      if isinstance(g, (dp.Dia, dp.Box))
                      and isinstance(g.pi, ox.Star)]
        self.props = [(v, g.name) for v, g in enumerate(members)
                      if isinstance(g, dp.Atom)]
        hints = {self.index[h]: isinstance(h, dp.Box)
                 for h in self._unfold_frontier()}
        hints.update((self.index[g.arg], isinstance(g, dp.Dia))
                     for g in self.stars)
        # each member's literal, then the same through lit: a negation's
        # entry becomes its argument's
        old = [2 * v + (not hints[v]) for v in sorted(hints)] + [
            2 * v + 1 for v in range(len(members)) if v not in hints]
        self.decide = [self.lit[l >> 1] ^ (l & 1) for l in old]


def global_conjuncts(f, letters):
    """The top-level conjuncts ``[π*]χ`` of ``f`` whose ``π`` holds each
    of ``letters`` as a one-letter word."""
    conjuncts = f.parts if isinstance(f, dp.And) else (f,)
    return [g for g in conjuncts
            if isinstance(g, dp.Box) and isinstance(g.pi, ox.Star)
            and all(ox.nullable(ox.derive(g.pi.body, a)) for a in letters)]


def reference_database(f):
    """The clause database from one ``add_clause`` call per clause, in
    member order, then the diamond/box pairs, then the units: those of
    the junctions of no operands (an ``and`` true, an ``or`` false),
    then one per global conjunct. A negation has no clause: it is its
    argument's literal with the sign flipped."""
    shape = ReferenceShape(f)
    s = dps._Dpll(len(shape.members))

    def lit(g, positive):
        return reference_lit(g, shape.index) ^ (0 if positive else 1)

    for g, (kind, operands) in zip(shape.members, shape.definitions):
        if not operands:
            continue
        if kind == "or":
            s.add_clause([lit(g, False)] + [lit(h, True) for h in operands])
            for h in operands:
                s.add_clause([lit(g, True), lit(h, False)])
        elif kind == "and":
            s.add_clause([lit(g, True)] + [lit(h, False) for h in operands])
            for h in operands:
                s.add_clause([lit(g, False), lit(h, True)])
    for a in shape.letters:
        boxes = {g.arg: g for g in shape.box.get(a, ())}
        for d in shape.dia.get(a, ()):
            b = boxes.get(d.arg)
            if b is not None:
                s.add_clause([lit(d, False), lit(b, True)])
    for g, (kind, operands) in zip(shape.members, shape.definitions):
        if kind in ("or", "and") and not operands:
            s.add_clause([lit(g, kind == "and")])
    for g in global_conjuncts(f, shape.letters):
        s.add_clause([lit(g, True)])
    return s


def assert_compiled_as_reference(f):
    compiled = dps._Shape(f).compile()
    reference = reference_database(f)
    assert compiled.empty == reference.empty
    assert compiled.trail == reference.trail
    assert compiled.value == reference.value
    assert compiled.bins == reference.bins
    assert compiled.watches == reference.watches


def assert_one_walk(f):
    members, definitions, index = sx._closure(f)
    assert members == sx.closure(f) == reference_closure(f)
    assert definitions == tuple(map(sx.definition, members))
    assert index == {g: i for i, g in enumerate(members)}
    assert vars(dps._Shape(f)) == vars(ReferenceShape(f))


# encodings whose closures hold every kind of member and flattened
# junctions, the formulas that pol_sat hands the solver
TRANSLATIONS = {
    "K_i q full": lambda: dp.Translation(sx.parse_formula("K_i q")),
    "hK_i p & K_j q at 3": lambda: dp.Translation(
        sx.parse_formula("hK_i p & K_j q"), dp.LabelBudget(3)),
}


class TestOneWalk:
    @settings(max_examples=200, deadline=None)
    @given(dpdl_formula_strategy())
    def test_walk_and_shape_as_reference(self, f):
        assert_one_walk(f)

    @pytest.mark.parametrize("name", sorted(TRANSLATIONS))
    def test_walk_and_shape_on_translations(self, name):
        assert_one_walk(TRANSLATIONS[name]().formula)


class TestPins:
    """Each pin's two implications go straight into the invariant, and
    the encoding is the node that pins built as junctions give."""

    @pytest.mark.parametrize("name", sorted(TRANSLATIONS))
    def test_same_encoding_on_translations(self, name):
        t = TRANSLATIONS[name]()
        assert JunctionPinnedTranslation(t.source, t.budget).formula is (
            t.formula)

    @pytest.mark.parametrize("labels", [1, 2, 3])
    def test_same_encoding_on_a_seeded_sample(self, labels):
        rng = random.Random(8)
        done = 0
        while done < 25:
            phi = corpus.random_formula(rng, ("a", "b"), ("i", "j"),
                                        ("p", "q"), depth=3)
            if 2 ** len(sx.fl_closure(phi)) <= labels:
                continue
            budget = dp.LabelBudget(labels)
            assert JunctionPinnedTranslation(phi, budget).formula is (
                dp.Translation(phi, budget).formula), sx.print_formula(phi)
            done += 1


class TestCompilation:
    # random formulas seldom hold a diamond and a box over one letter
    # and one argument; the first example does, so its pair clause is
    # compared. The other two repeat an operand or complement one, so
    # the binary clauses that compile writes directly meet add_clause's
    # merge and tautology check on the same operands
    @settings(max_examples=200, deadline=None)
    @given(dpdl_formula_strategy())
    @example(dp.parse_dpdl("<a>p|[a]p&[b]~q"))
    @example(dp.parse_dpdl("p|p|q"))
    @example(dp.parse_dpdl("p|~p|q"))
    def test_same_database_as_one_call_per_clause(self, f):
        assert_compiled_as_reference(f)

    def test_same_database_on_a_full_budget_translation(self):
        assert_compiled_as_reference(TRANSLATIONS["K_i q full"]().formula)

    def test_same_database_on_a_two_agent_translation(self):
        assert_compiled_as_reference(
            TRANSLATIONS["hK_i p & K_j q at 3"]().formula)

    @settings(max_examples=200, deadline=None)
    @given(dpdl_formula_strategy())
    @example(dp.parse_dpdl("~~p|~p&[a]~~~q"))
    def test_a_negation_is_its_arguments_complement(self, f):
        shape = dps._Shape(f)
        dpll = shape.compile()
        negations = {v for v, g in enumerate(shape.members)
                     if isinstance(g, dp.Not)}
        for v in negations:
            arg = shape.index[shape.members[v].arg]
            assert shape.lit[v] == shape.lit[arg] ^ 1
        clauses = [[l] for l in dpll.trail] + [
            [l, m] for l, implied in enumerate(dpll.bins) for m in implied] + [
            c for w in dpll.watches for c in w]
        assert not {l >> 1 for c in clauses for l in c} & negations
        assert not {l >> 1 for l in shape.decide} & negations

    def test_decision_list_settles_stars_first(self):
        f = dp.parse_dpdl("<a*><b>p & [b*]q & ~[(a;b)*]<b>p")
        shape = dps._Shape(f)

        def lit(text, truth):
            return shape.lit[shape.index[dp.parse_dpdl(text)]] ^ (not truth)

        # unfoldings do not defer (diamonds false, boxes true), and each
        # argument takes its discharging truth; <b>p is both an
        # unfolding and an argument, and the later star, the box, wins
        hinted = [lit("<a><a*><b>p", False), lit("[b][b*]q", True),
                  lit("[a][b][(a;b)*]<b>p", True), lit("q", False),
                  lit("<b>p", False)]
        assert shape.stars[-1] == dp.parse_dpdl("[(a;b)*]<b>p")
        head = shape.decide[:len(hinted)]
        assert sorted(head) == sorted(hinted)
        assert head == sorted(head, key=lambda l: l >> 1)
        # the rest are false, and the negation's entry is its argument
        # true
        assert shape.decide[len(hinted):] == [
            shape.lit[v] ^ 1 for v in range(len(shape.members))
            if v not in {l >> 1 for l in hinted}]
        negation = shape.index[f.parts[-1]]
        assert shape.lit[negation] ^ 1 == 2 * shape.index[f.parts[-1].arg]
        assert shape.compile().decide == shape.decide
        assert dps._Dpll(3).decide == [1, 3, 5]
        # alone, the diamond's argument hint overrides its unfolding's
        alone = dps._Shape(dp.parse_dpdl("<a*><b>p"))
        assert 2 * alone.index[dp.parse_dpdl("<b>p")] in alone.decide


def lazy_run(f):
    """A lazy regime for ``f`` under ``dpdl_sat``'s caps."""
    shape = dps._Shape(f)
    return dps._Lazy(f, shape, shape.compile())


def lazy_sat(f):
    """The lazy regime alone, under ``dpdl_sat``'s caps."""
    try:
        return lazy_run(f).run()
    except ResourceBudgetExceeded as err:
        return dp.Unknown(str(err))


def fresh_solve(lazy, assumptions):
    """A solve of ``assumptions`` by a new solver that got the compiled
    clauses, with their decision list, and the lemmas ``lazy`` learned."""
    fresh = lazy.shape.compile()
    for lemma in lazy.lemmas:
        fresh.add_clause(lemma)
    return fresh.solve(list(assumptions))


def reused_answers(f):
    """Run the lazy regime on ``f``; each answer that ``_solve`` gave
    from its tables, paired with a fresh solve of its assumptions."""
    lazy = lazy_run(f)
    pairs = []
    solve = lazy._solve

    def checking(assumptions):
        before = lazy.dpll.solves
        answer = solve(assumptions)
        if lazy.dpll.solves == before:
            pairs.append((answer, fresh_solve(lazy, assumptions)))
        return answer

    lazy._solve = checking
    try:
        lazy.run()
    except ResourceBudgetExceeded:
        pass
    return pairs


def learned_lemmas(f):
    """Run the lazy regime on ``f``; the conjunction that each clause
    it learns refutes."""
    shape = dps._Shape(f)
    lazy = dps._Lazy(f, shape, shape.compile())
    refuted = []
    add_clause = lazy.dpll.add_clause

    def recording(lits):
        refuted.append(dp.land(*[
            dp.lnot(shape.members[l >> 1]) if l & 1 == 0
            else shape.members[l >> 1] for l in lits]))
        return add_clause(lits)

    lazy.dpll.add_clause = recording
    lazy.run()
    return refuted


class TestLazyRegime:
    # random formulas seldom teach a lemma; the examples teach 1 to 6,
    # and the first one's lemma is valid only with its forcer, <a>q. A
    # lemma holds wherever the global conjuncts of the formula hold,
    # which is at every state reachable from a model of it; the last
    # example's lemmas ~[a]p and ~[a][a]p hold only under its global
    # conjunct [(a+b)*](p&p)
    @settings(max_examples=100, deadline=None)
    @given(dpdl_formula_strategy())
    @example(dp.parse_dpdl("[a]p&[a]~p&<a>q"))
    @example(dp.parse_dpdl("[(a+b);a;a][a+a*]true"))
    @example(dp.parse_dpdl("<0*>~~q&[a]<b>[a;a;a]true"))
    @example(dp.parse_dpdl("<b>(~[(0*+b);b;b]true|<a>false)"))
    @example(dp.parse_dpdl("(p|<(a;a)*>p&<a>p)&<a;a;a>p"))
    @example(dp.parse_dpdl("[(b;b)*]true"))
    @example(dp.parse_dpdl("[(a;b)*]true"))
    @example(dp.parse_dpdl("<a*>~~false"))
    @example(dp.parse_dpdl("[(0*+a);b;a][a]p&[(a+b)*](p&p)"))
    def test_every_lemma_is_valid(self, f):
        where = global_conjuncts(f, dps._Shape(f).letters)
        for refuted in learned_lemmas(f):
            assert not isinstance(
                dp.brute_dpdl_sat(dp.land(refuted, *where), 2), dp.Sat)

    def test_lemma_adds_a_forcer_only_when_needed(self):
        # <a>~p already makes the a-successor exist, so the lemma leaves
        # out <a>q; under [a]p and [a]~p alone it needs <a>q. <a>~p and
        # [a]p pin the one variable of p both ways, so the pair comes
        # from the demand in pin order, not from a solver core
        for text, refuted in (("<a>q&[a]p&<a>~p", "<a>~p&[a]p"),
                              ("[a]p&[a]~p&<a>q", "[a]p&[a]~p&<a>q")):
            assert [sx.print_formula(g) for g in
                    learned_lemmas(dp.parse_dpdl(text))] == [refuted], text

    def test_undischargeable_eventuality_is_refuted(self):
        # each leaves an eventuality whose argument no state can give
        # the promised truth, which no decision list settles
        for text, want in (("[(b;b)*]true", dp.Sat),
                           ("[(a;b)*]true", dp.Sat),
                           ("<a*>~~false", dp.Unsat)):
            assert isinstance(lazy_sat(dp.parse_dpdl(text)), want), text

    # the examples learn 2 to 6 lemmas and reuse 1 to 5 answers
    @settings(max_examples=100, deadline=None)
    @given(dpdl_formula_strategy())
    @example(dp.parse_dpdl("<b>(~[(0*+b);b;b]true|<a>false)"))
    @example(dp.parse_dpdl("(p|<(a;a)*>p&<a>p)&<a;a;a>p"))
    @example(dp.parse_dpdl("[(a;b)*]true"))
    def test_reused_answer_equals_a_fresh_solve(self, f):
        for reused, fresh in reused_answers(f):
            assert reused == fresh

    def test_answers_are_reused_across_restarts(self):
        for text in ("(p|<(a;a)*>p&<a>p)&<a;a;a>p",
                     "<b>(~[(0*+b);b;b]true|<a>false)"):
            assert reused_answers(dp.parse_dpdl(text)), text

    def test_lemma_against_a_kept_model_forces_a_solve(self):
        f = dp.parse_dpdl("<a>p|<b>q")
        lazy = lazy_run(f)
        index = lazy.shape.index
        root = (2 * index[f],)
        lazy._next_round()
        status, assign = lazy._solve(root)
        assert status == "sat"
        solves = lazy.dpll.solves
        # a lemma the kept model satisfies keeps it
        lazy._add_lemma([2 * v + (not assign[v]) for v in (0, 1)])
        assert lazy._solve(root) == ("sat", assign)
        assert lazy.dpll.solves == solves
        # one it falsifies forces a solve, also from the previous round's
        # table
        told = next(g for g in map(dp.parse_dpdl, ("<a>p", "<b>q"))
                    if assign[index[g]])
        lazy._next_round()
        lazy._add_lemma([2 * index[told] + 1])
        answer = lazy._solve(root)
        assert lazy.dpll.solves == solves + 1
        assert answer[0] == "sat" and not answer[1][index[told]]
        assert answer == fresh_solve(lazy, root)

    def test_tables_hold_two_rounds(self):
        for text in ("[(a+b);a;a][a+a*]true", "(p|<(a;a)*>p&<a>p)&<a;a;a>p"):
            lazy = lazy_run(dp.parse_dpdl(text))
            asked = [set()]
            next_round, solve = lazy._next_round, lazy._solve

            def new_round():
                asked.append(set())
                next_round()

            def recording(assumptions):
                asked[-1].add(tuple(assumptions))
                answer = solve(assumptions)
                assert set(lazy.models) <= asked[-1]
                assert set(lazy.previous) <= asked[-2]
                return answer

            lazy._next_round = new_round
            lazy._solve = recording
            lazy.run()
            assert len(asked) > 2, text

    def test_first_graph_discharges_under_the_decision_list(self):
        # negative decisions by index defer these eventualities forever;
        # the closure's decision list discharges them in the first graph,
        # the one built on the first root assignment
        for text in ("<0*+b*>q", "q&~([a*]p|p)"):
            f = dp.parse_dpdl(text)
            assert isinstance(dp.dpdl_sat(f), dp.Sat), text
            for default in (False, True):
                shape = dps._Shape(f)
                lazy = dps._Lazy(f, shape, shape.compile())
                if default:
                    lazy.dpll.decide = [l ^ 1 for l in shape.lit]
                status, root = lazy._solve([shape.lit[shape.index[f]]])
                assert status == "sat", (text, default)
                graph = lazy._expand(root)
                assert isinstance(graph, dp.Sat) != default, (text, default)
                if not default:
                    # each state of the graph is charged to the meter once
                    assert len(graph.model.states) == lazy.dpll.states


def exact_sat(f):
    """The exact regime alone, on the closure's fresh clause database,
    which the cap admits for every formula of ``dpdl_formula_strategy``;
    a witness is checked."""
    shape = dps._Shape(f)
    assert 2 ** len(shape.frontier) <= dps._ATOM_CAP
    exact = dps._Exact(f, shape, shape.compile())
    try:
        verdict = exact.run()
    except ResourceBudgetExceeded as err:
        return dp.Unknown(str(err))
    if isinstance(verdict, dp.Sat):
        assert dp.dpdl_check(verdict.model, verdict.state, f)
    return verdict


class TestDpdlSat:
    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_lazy_unsat_has_no_small_model(self, f):
        verdict = lazy_sat(f)
        if isinstance(verdict, dp.Unsat):
            assert not isinstance(dp.brute_dpdl_sat(f, 2), dp.Sat)

    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_exact_unsat_has_no_small_model(self, f):
        verdict = exact_sat(f)
        if isinstance(verdict, dp.Unsat):
            assert not isinstance(dp.brute_dpdl_sat(f, 2), dp.Sat)

    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_lazy_never_contradicts_exact(self, f):
        lazy = type(lazy_sat(f))
        exact = type(exact_sat(f))
        assert {lazy, exact} != {dp.Sat, dp.Unsat}

    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_exact_unknown_names_the_node_cap(self, f):
        verdict = exact_sat(f)
        if isinstance(verdict, dp.Unknown):
            assert verdict.reason.startswith("witness walk exceeded")

    def test_exact_witness_walk_carries_dischargeable_entries(self):
        # an eventuality carried into every successor, also into one
        # from which no walk discharges it, left the walk stuck there
        for text in ("<(a+b)*>([b]~q&p)", "<(a+b)*>[b;(a+b)]p",
                     "<b>[(a+b)*]~(q|p)"):
            assert isinstance(exact_sat(dp.parse_dpdl(text)), dp.Sat), text

    def test_nullable_star_body_in_exact_regime(self):
        for text, want in (("<(a*;b*)*>p", dp.Sat),
                           ("<(0*+a)*>p & [b]q", dp.Sat),
                           ("<(a*;b*)*>p & [(a+b)*]~p", dp.Unsat)):
            assert isinstance(exact_sat(dp.parse_dpdl(text)), want), text

    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_verdict_kind_is_the_exact_regimes(self, f):
        assert type(dp.dpdl_sat(f)) is type(exact_sat(f))

    def test_a_global_conjunct_keeps_every_verdict(self):
        # psi & [pi*]chi with pi over every letter: the box is a unit of
        # the database; psi & ([pi*]chi | false) hides it from that rule
        rng = random.Random(33)
        letters = ("a", "b")
        kinds = []
        while len(kinds) < 600:
            pi = ox.star(corpus.random_regex(rng, letters, 2))
            psi = corpus.random_formula(rng, letters, (), depth=2)
            chi = corpus.random_formula(rng, letters, (), depth=1)
            if not (isinstance(pi, ox.Star) and all(
                    ox.nullable(ox.derive(pi.body, a)) for a in letters)):
                continue
            box = dp.box(pi, chi)
            f = dp.land(psi, box)
            shape = dps._Shape(f)
            # the box is true on level 0, unless level 0 refutes it
            dpll = shape.compile()
            assert dpll.value[2 * shape.index[box]] or dpll.empty
            verdict = dp.dpdl_sat(f)
            hidden = dp.dpdl_sat(dp.land(psi, dp.lor(box, dp.lnot(dp.top()))))
            assert type(verdict) is type(hidden), dp.print_dpdl(f)
            if isinstance(verdict, dp.Unsat):
                assert not isinstance(dp.brute_dpdl_sat(f, 2), dp.Sat)
            kinds.append(type(verdict))
        assert kinds.count(dp.Unsat) > 100

    def test_exact_regime_backstops_an_undecided_lazy_run(self):
        for text, want in (("<a*>~(p&p)&[a*+b](p|p)&~q", dp.Unsat),
                           ("[(a;a)*][a*](p&p|<a>p)", dp.Sat)):
            f = dp.parse_dpdl(text)
            assert isinstance(lazy_sat(f), dp.Unknown), text
            assert isinstance(dp.dpdl_sat(f), want), text

    @pytest.mark.parametrize("text", ["<a>p", "<a;b;a>p", "<(a;b)*>p&~p"])
    def test_automaton_cap_ends_in_unknown(self, monkeypatch, text):
        # the walks of (a;b)* outgrow the cap in the discharge walk, and
        # those of a and a;b;a in the check of the witness; like every
        # cap inside dpdl_sat, it ends in an Unknown that names it
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 1)
        verdict = dp.dpdl_sat(dp.parse_dpdl(text))
        assert isinstance(verdict, dp.Unknown)
        assert verdict.reason == "a walk meets more than 1 derivatives"

    def test_a_walk_that_stops_at_its_start_derives_nothing(self,
                                                            monkeypatch):
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 1)
        assert isinstance(dp.dpdl_sat(dp.parse_dpdl("<(a;b)*>p")), dp.Sat)

    def test_rejected_witness_is_a_bug(self, monkeypatch):
        # dpdl_sat's Sat carries a witness that dpdl_check's evaluator
        # accepted
        monkeypatch.setattr("polkit.dpdl.core._evaluator",
                            lambda m: lambda s, f: False)
        with pytest.raises(AssertionError, match="this is a bug"):
            dp.dpdl_sat(dp.parse_dpdl("<a>p"))

    @pytest.mark.parametrize("max_states", ["x", True, 0, -1])
    def test_brute_force_refuses_invalid_state_bounds(self, max_states):
        with pytest.raises(InvalidInput, match="must be a positive integer"):
            dp.brute_dpdl_sat(dp.parse_dpdl("p"), max_states)


class TestCaps:
    """Every ``Unknown`` site of the solver, reached through ``dpdl_sat``
    under small caps set by monkeypatch, each with its reason."""

    ROUNDS = "(p|<(a;a)*>p&<a>p)&<a;a;a>p"
    METER = (r"work cap {} exceeded: "
             r"\d+ propagations, \d+ graph states, \d+ solves")

    def metered_run(self, f):
        """The lazy run's verdict, a cap's ``Unknown`` included, and its
        work meter at the start of each round and at the end."""
        lazy = lazy_run(f)
        starts = []
        expand = lazy._expand

        def counting(assign):
            starts.append(lazy.dpll.propagations + lazy.dpll.states)
            return expand(assign)

        lazy._expand = counting
        try:
            verdict = lazy.run()
        except ResourceBudgetExceeded as err:
            verdict = dp.Unknown(str(err))
        return verdict, starts, lazy.dpll.propagations + lazy.dpll.states

    def test_the_meter_counts_propagations_and_states(self, monkeypatch):
        # the run's last work is a state: at its own total it passes,
        # one below it the meter raises, and the exact regime, which
        # starts on the spent meter, does not decide either
        f = dp.parse_dpdl(self.ROUNDS)
        verdict, starts, work = self.metered_run(f)
        assert isinstance(verdict, dp.Sat) and len(starts) > 2
        monkeypatch.setattr(dps, "_WORK_CAP", work)
        assert isinstance(dp.dpdl_sat(f), dp.Sat)
        monkeypatch.setattr(dps, "_WORK_CAP", work - 1)
        verdict = dp.dpdl_sat(f)
        assert isinstance(verdict, dp.Unknown)
        assert re.fullmatch(self.METER.format(work - 1), verdict.reason)

    def test_the_meter_ends_a_run_of_several_rounds(self, monkeypatch):
        # a cap reached in the third round ends the run there
        f = dp.parse_dpdl(self.ROUNDS)
        _, starts, _ = self.metered_run(f)
        monkeypatch.setattr(dps, "_WORK_CAP", starts[2])
        verdict, capped, _ = self.metered_run(f)
        assert len(capped) == 3
        assert re.fullmatch(self.METER.format(starts[2]), verdict.reason)
        verdict = dp.dpdl_sat(f)
        assert re.fullmatch(self.METER.format(starts[2]), verdict.reason)

    def test_the_exact_regime_gets_no_fresh_meter(self, monkeypatch):
        # the lazy run ends undecided well within the cap, and the exact
        # regime decides within it on its own, but not on what the lazy
        # run left of it
        f = dp.parse_dpdl("[(a;a)*][a*](p&p|<a>p)")
        lazy = lazy_run(f)
        assert lazy.run() == dp.Unknown("eventualities left undischarged")
        spent = lazy.dpll.propagations + lazy.dpll.states
        exact = dps._Exact(f, lazy.shape, lazy.dpll)
        assert isinstance(exact.run(), dp.Sat)
        alone = lazy.dpll.propagations + lazy.dpll.states - spent
        assert 0 < spent < alone
        monkeypatch.setattr(dps, "_WORK_CAP", alone)
        verdict = dp.dpdl_sat(f)
        assert isinstance(verdict, dp.Unknown)
        assert re.fullmatch(self.METER.format(alone), verdict.reason)

    def test_demand_graph_cap(self, monkeypatch):
        # 16 frontier members: the exact regime does not run
        f = dp.parse_dpdl("<" + ";".join("a" * 15) + ">p")
        assert 2 ** len(dps._Shape(f).frontier) > dps._ATOM_CAP
        assert len(dp.dpdl_sat(f).model.states) == 16
        monkeypatch.setattr(dps, "_NODE_CAP", 8)
        assert dp.dpdl_sat(f) == dp.Unknown("demand graph exceeded 8 states")

    def test_witness_walk_cap(self, monkeypatch):
        # the demand graph outgrows the cap first, and the exact regime,
        # which then runs, builds a witness of four states
        f = dp.parse_dpdl("<a;a;a>p")
        assert len(dp.dpdl_sat(f).model.states) == 4
        monkeypatch.setattr(dps, "_NODE_CAP", 2)
        with pytest.raises(ResourceBudgetExceeded,
                           match="demand graph exceeded 2 states"):
            lazy_run(f).run()
        assert dp.dpdl_sat(f) == dp.Unknown("witness walk exceeded 2 nodes")


class TestDpdlCheck:
    def test_letters_missing_from_the_model(self):
        model = dp.DpdlModel([0], {(0, "a"): 0}, {0: {"p"}})
        for text, truth in (("<b>p", False), ("[b]false", True),
                            ("<a;b*>p", True), ("[(a+b)*]p", True),
                            ("<a*;b>true", False)):
            assert dp.dpdl_check(model, 0, dp.parse_dpdl(text)) is truth


class TestParsing:
    def test_deep_nesting_is_a_parse_error(self):
        for text in ("~" * 3000 + "p", "(" * 2000 + "p" + ")" * 2000,
                     "<a>" * 3000 + "p"):
            with pytest.raises(ParseError):
                dp.parse_dpdl(text)
        assert dp.print_dpdl(dp.parse_dpdl("~" * 50 + "p")) == "~" * 50 + "p"

    @settings(max_examples=300)
    @given(dpdl_formula_strategy())
    def test_print_then_parse_is_identity(self, f):
        assert dp.parse_dpdl(dp.print_dpdl(f)) is f

    def test_quoted_atoms_with_escapes(self):
        for name in ('surv(1)', 'say "hi"', "back\\slash", "@1.p&q"):
            f = dp.atom(name)
            text = dp.print_dpdl(f)
            assert text.startswith('"')
            assert dp.parse_dpdl(text) is f
        assert dp.parse_dpdl(r'"a\"b\\c"') is dp.atom('a"b\\c')
        for bad in ('"open', '""', r'"bad\escape"', '"true"', '"K_a"'):
            with pytest.raises(ParseError):
                dp.parse_dpdl(bad)

    def test_junctions_flatten(self):
        p, q, r = dp.atom("p"), dp.atom("q"), dp.atom("r")
        assert dp.parse_dpdl("p&(q&r)") is dp.land(p, q, r)
        assert dp.parse_dpdl("(p|q)|r") is dp.lor(p, q, r)

    def test_no_agent_operators(self):
        for text in ("K_a", "K_a p"):
            with pytest.raises(ParseError):
                dp.parse_dpdl(text)
        with pytest.raises(ParseError) as ei:
            dp.parse_dpdl("p &\n <a>hK_b q")
        assert (ei.value.line, ei.value.column) == (2, 5)
        assert sx.parse_formula('"x"') is sx.prop("x")

    @pytest.mark.parametrize("f", [
        sx.know("a", sx.prop("q")),
        dp.land(dp.atom("p"), sx.know("a", sx.prop("q"))),
        dp.lor(sx.hat("a", sx.prop("q")), dp.atom("p")),
    ])
    def test_agent_operators_are_invalid_input_to_the_solver(self, f):
        # the solver's loop visits every closure member, so an agent
        # operator is refused wherever it sits among the operands
        with pytest.raises(InvalidInput, match="no agent operators"):
            dp.dpdl_sat(f)

    @pytest.mark.parametrize("f", [
        sx.know("a", sx.prop("q")),
        dp.land(dp.atom("p"), sx.know("a", sx.prop("q"))),
    ])
    def test_agent_operators_are_invalid_input_to_the_checker(self, f):
        # p holds, so evaluating the conjunction reaches K_a
        model = dp.DpdlModel([0], {}, {0: {"p"}})
        with pytest.raises(InvalidInput, match="no agent operators"):
            dp.dpdl_check(model, 0, f)

    def test_the_checker_refuses_agents_in_every_operand_order(self):
        # the disjunction's evaluation would stop at p, before K_i p, in
        # the first order; the refusal comes before the evaluation
        model = dp.DpdlModel([0], {}, {0: {"p"}})
        p = dp.atom("p")
        k = sx.know("i", p)
        for f in (dp.lor(p, sx.lnot(p), k), dp.lor(k, p)):
            with pytest.raises(InvalidInput, match="no agent operators"):
                dp.dpdl_check(model, 0, f)
            with pytest.raises(InvalidInput, match="no agent operators"):
                dp.brute_dpdl_sat(f)
        with pytest.raises(TypeError):
            dp.dpdl_check(model, 0, "p")
