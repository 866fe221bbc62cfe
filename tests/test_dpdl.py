"""The deterministic-dynamic-logic solver: its propositional engine,
clause compilation, its lemmas and steering loop, and both regimes
against brute force; the model checker and the parser."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polkit import dpdl as dp
from polkit import syntax as sx
from polkit.dpdl import solver as dps
from polkit.errors import ParseError, ResourceBudgetExceeded

from conftest import dpdl_formula_strategy


def satisfies(assign, clauses):
    return all(any(assign[l >> 1] == (l & 1 == 0) for l in c)
               for c in clauses)


def least_model(nvars, clauses, assumptions, order, polarity):
    """The first model in the solver's decision order and polarity."""
    decide = list(order) + [v for v in range(nvars) if v not in order]
    units = [[l] for l in assumptions]
    for flips in itertools.product((False, True), repeat=nvars):
        assign = [None] * nvars
        for v, flip in zip(decide, flips):
            assign[v] = polarity.get(v, False) != flip
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
    order = perm[:draw(st.integers(0, nvars))]
    polarity = draw(st.dictionaries(st.integers(0, nvars - 1),
                                    st.booleans()))
    return nvars, clauses, assumptions, order, polarity


def random_3cnf(rng, nvars, nclauses):
    return [[2 * v + rng.randint(0, 1) for v in rng.sample(range(nvars), 3)]
            for _ in range(nclauses)]


def solver_for(nvars, clauses):
    s = dps._Dpll(nvars, step_cap=10 ** 6)
    for c in clauses:
        s.add_clause(c)
    return s


class TestPropositionalEngine:
    @settings(max_examples=300, deadline=None)
    @given(cnf_problems())
    def test_least_model_or_refuting_core(self, problem):
        nvars, clauses, assumptions, order, polarity = problem
        s = solver_for(nvars, clauses)
        status, result = s.solve(assumptions, polarity, order)
        expected = least_model(nvars, clauses, assumptions, order, polarity)
        if status == "sat":
            assert result == expected
        else:
            assert expected is None
            assert set(result) <= set(assumptions)
            assert least_model(nvars, clauses, result, (), {}) is None

    def test_answers_hold_across_solves_and_added_clauses(self):
        rng = random.Random(11)
        for _ in range(60):
            nvars = 10
            clauses = random_3cnf(rng, nvars, rng.randint(25, 45))
            s = solver_for(nvars, clauses)
            for _ in range(6):
                if rng.random() < 0.3:
                    extra = random_3cnf(rng, nvars, 1)[0][:rng.randint(1, 3)]
                    clauses.append(extra)
                    s.add_clause(extra)
                assumptions = [2 * v + rng.randint(0, 1)
                               for v in rng.sample(range(nvars), 3)]
                order = rng.sample(range(nvars), rng.randint(0, nvars))
                polarity = {v: rng.random() < 0.5 for v in order}
                status, result = s.solve(assumptions, polarity, order)
                expected = least_model(nvars, clauses, assumptions, order,
                                       polarity)
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
            conflicts, learned = s.conflicts, s.learned
            again, repeat = s.solve(assumptions)
            assert again == status
            if status == "sat":
                assert repeat == result
            assert (s.conflicts, s.learned) == (conflicts, learned)
        assert first_conflicts > 0

    def test_counters(self):
        s = solver_for(3, [[0, 2], [0, 3]])
        assert s.solve([1]) == ("unsat", [1])
        assert (s.solves, s.decisions, s.conflicts, s.learned) == (1, 0, 0, 0)
        assert s.solve([]) == ("sat", [True, False, False])
        assert (s.solves, s.decisions, s.conflicts, s.learned) == (2, 3, 1, 1)
        assert s.propagations > 0

    def test_tautologies_are_dropped(self):
        s = dps._Dpll(2, step_cap=10)
        assert s.add_clause([0, 1, 2]) is False
        assert s.add_clause([0, 2]) is True
        assert s.solve([1]) == ("sat", [False, True])

    def test_repeated_and_complementary_literals(self):
        s = dps._Dpll(2, step_cap=10)
        assert s.add_clause([2, 2]) is True
        assert s.units == [2]
        assert s.add_clause([3, 2]) is False
        assert s.add_clause([2, 0, 2, 1]) is False
        assert s.add_clause([2, 0, 2]) is True
        assert s.watches[0] == [[0, 2]] and s.watches[2] == [[0, 2]]
        assert s.solve([1]) == ("sat", [False, True])

    def test_binary_clauses_as_add_clause(self):
        pairs = list(itertools.product(range(6), repeat=2))
        general, direct = dps._Dpll(3, step_cap=10), dps._Dpll(3, step_cap=10)
        for x, y in pairs:
            assert general.add_clause([x, y]) == direct.add_binary(x, y)
        assert general.units == direct.units
        assert general.watches == direct.watches

    def test_step_cap_leaves_the_solver_usable(self):
        s = solver_for(10, [[0, 2]])
        s.step_cap = 5
        with pytest.raises(dps._StepBudget):
            s.solve([])
        assert s.solve(list(range(0, 20, 2)))[0] == "sat"


def reference_database(members):
    """The clause database from one ``add_clause`` call per clause, in
    member order, then the diamond/box pairs."""
    index = {g: i for i, g in enumerate(members)}
    s = dps._Dpll(len(members), step_cap=1)

    def lit(g, positive):
        return dps._Dpll.lit(index[g], positive)

    for g in members:
        d = dps._definition(g)
        if d[0] == "true":
            s.add_clause([lit(g, True)])
        elif d[0] == "false":
            s.add_clause([lit(g, False)])
        elif d[0] == "not":
            s.add_clause([lit(g, False), lit(d[1], False)])
            s.add_clause([lit(g, True), lit(d[1], True)])
        elif d[0] == "eq":
            s.add_clause([lit(g, False), lit(d[1], True)])
            s.add_clause([lit(g, True), lit(d[1], False)])
        elif d[0] == "or":
            s.add_clause([lit(g, False)] + [lit(h, True) for h in d[1]])
            for h in d[1]:
                s.add_clause([lit(g, True), lit(h, False)])
        elif d[0] == "and":
            s.add_clause([lit(g, True)] + [lit(h, False) for h in d[1]])
            for h in d[1]:
                s.add_clause([lit(g, False), lit(h, True)])
    shape = dps._Shape(members)
    for a in shape.letters:
        boxes = {g.arg: g for g in shape.box.get(a, ())}
        for d in shape.dia.get(a, ()):
            b = boxes.get(d.arg)
            if b is not None:
                s.add_clause([lit(d, False), lit(b, True)])
    return s


def assert_compiled_as_reference(f):
    members = dp.closure(f)
    compiled = dps._Shape(members).compile(step_cap=1)
    reference = reference_database(members)
    assert compiled.empty == reference.empty
    assert compiled.units == reference.units
    assert compiled.watches == reference.watches


class TestCompilation:
    @settings(max_examples=200, deadline=None)
    @given(dpdl_formula_strategy())
    def test_same_database_as_one_call_per_clause(self, f):
        assert_compiled_as_reference(f)

    def test_same_database_on_a_full_budget_translation(self):
        assert_compiled_as_reference(
            dp.Translation(sx.parse_formula("K_i q")).formula)


def lazy_sat(f):
    """The lazy regime alone, with ``dpdl_sat``'s default caps."""
    shape = dps._Shape(dp.closure(f))
    lazy = dps._Lazy(f, shape, shape.compile(step_cap=5_000_000),
                     node_cap=5000, restart_cap=200)
    try:
        return lazy.run()
    except ResourceBudgetExceeded as err:
        return dp.Unknown(str(err))


def learned_lemmas(f):
    """Run the lazy regime on ``f``; the conjunction that each clause
    it learns refutes."""
    shape = dps._Shape(dp.closure(f))
    lazy = dps._Lazy(f, shape, shape.compile(step_cap=10 ** 6),
                     node_cap=5000, restart_cap=200)
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
    # random formulas seldom teach a lemma; the examples teach 1 to 14,
    # and the first one's lemma is valid only with its forcer, <a>q
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
    def test_every_lemma_is_valid(self, f):
        for refuted in learned_lemmas(f):
            assert not isinstance(dp.brute_dpdl_sat(refuted, 2), dp.Sat)

    def test_undischargeable_eventuality_is_refuted(self):
        # each leaves an eventuality whose argument no state can give
        # the promised truth; steering alone never settled them
        for text, want in (("[(b;b)*]true", dp.Sat),
                           ("[(a;b)*]true", dp.Sat),
                           ("<a*>~~false", dp.Unsat)):
            assert isinstance(lazy_sat(dp.parse_dpdl(text)), want), text

    def test_steering_round_spends_no_restart(self):
        for text in ("<0*+b*>q", "q&~([a*]p|p)"):
            f = dp.parse_dpdl(text)
            assert isinstance(dp.dpdl_sat(f, restart_cap=1), dp.Sat), text
            shape = dps._Shape(dp.closure(f))
            lazy = dps._Lazy(f, shape, shape.compile(step_cap=10 ** 6),
                             node_cap=5000, restart_cap=1)
            assert isinstance(lazy.run(), dp.Sat) and lazy.retries == 1


def exact_sat(f):
    """The exact regime alone, on the closure's fresh clause database,
    which the cap admits for every formula of ``dpdl_formula_strategy``;
    a witness is checked."""
    shape = dps._Shape(dp.closure(f))
    assert 2 ** len(shape.frontier) <= dps._ATOM_CAP
    exact = dps._Exact(f, shape, shape.compile(step_cap=5_000_000),
                       node_cap=5000)
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

    def test_exact_regime_backstops_an_undecided_lazy_run(self):
        for text, want in (("<a*>~(p&p)&[a*+b](p|p)&~q", dp.Unsat),
                           ("[(a;a)*][a*](p&p|<a>p)", dp.Sat)):
            f = dp.parse_dpdl(text)
            assert isinstance(lazy_sat(f), dp.Unknown), text
            assert isinstance(dp.dpdl_sat(f), want), text


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
        for name in ('surv(1)', 'say "hi"', "back\\slash", "true", "@1.p&q"):
            f = dp.atom(name)
            text = dp.print_dpdl(f)
            assert text.startswith('"')
            assert dp.parse_dpdl(text) is f
        assert dp.parse_dpdl(r'"a\"b\\c"') is dp.atom('a"b\\c')
        for bad in ('"open', '""', r'"bad\escape"'):
            with pytest.raises(ParseError):
                dp.parse_dpdl(bad)

    def test_junctions_flatten(self):
        p, q, r = dp.atom("p"), dp.atom("q"), dp.atom("r")
        assert dp.parse_dpdl("p&(q&r)") is dp.land(p, q, r)
        assert dp.parse_dpdl("(p|q)|r") is dp.lor(p, q, r)

    def test_no_agent_operators(self):
        k = dp.parse_dpdl("K_a")
        assert isinstance(k, dp.Atom) and k.name == "K_a"
        with pytest.raises(ParseError):
            dp.parse_dpdl("K_a p")
        with pytest.raises(ParseError):
            sx.parse_formula('"x"')

    @pytest.mark.parametrize("f", [
        sx.know("a", sx.prop("q")),
        dp.land(dp.atom("p"), sx.know("a", sx.prop("q"))),
    ])
    def test_agent_operators_are_type_errors(self, f):
        # p holds, so evaluating the conjunction reaches K_a
        model = dp.DpdlModel([0], {}, {0: {"p"}})
        with pytest.raises(TypeError):
            dp.dpdl_sat(f)
        with pytest.raises(TypeError):
            dp.dpdl_check(model, 0, f)
