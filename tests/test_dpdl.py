"""The deterministic-dynamic-logic solver: its propositional engine,
core minimisation, and the lazy regime against brute force."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polkit import dpdl as dp
from polkit import syntax as sx
from polkit.dpdl import solver as dps
from polkit.errors import ParseError

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

    def test_step_cap_leaves_the_solver_usable(self):
        s = solver_for(10, [[0, 2]])
        s.step_cap = 5
        with pytest.raises(dps._StepBudget):
            s.solve([])
        assert s.solve(list(range(0, 20, 2)))[0] == "sat"


def random_lazy(f, rnd):
    members = dp.closure(f)
    lazy = dps._Lazy(f, members, node_cap=100, restart_cap=10,
                     step_cap=10 ** 6)
    nvars = len(members)
    chosen = rnd.sample(range(nvars), rnd.randint(1, nvars))
    lits = sorted(2 * v + rnd.randint(0, 1) for v in chosen)
    return lazy, lits


class TestCoreMinimisation:
    @settings(max_examples=80, deadline=None)
    @given(dpdl_formula_strategy(), st.randoms(use_true_random=False))
    def test_minimized_core_is_irreducible(self, f, rnd):
        lazy, lits = random_lazy(f, rnd)
        status, core = lazy._solve(lits)
        assume(status == "unsat")
        kept = lazy._minimize_core(lits, core)
        assert lazy._solve(kept)[0] == "unsat"
        for lit in kept:
            assert lazy._solve([l for l in kept if l != lit])[0] == "sat"

    @settings(max_examples=80, deadline=None)
    @given(dpdl_formula_strategy(), st.randoms(use_true_random=False))
    def test_shortcut_keeps_the_deletion_result(self, f, rnd):
        lazy, lits = random_lazy(f, rnd)
        status, core = lazy._solve(lits)
        assume(status == "unsat")
        plain = list(lits)
        for lit in lits:
            trial = [l for l in plain if l != lit]
            if lazy._solve(trial)[0] == "unsat":
                plain = trial
        assert lazy._minimize_core(lits, core) == plain


class TestDpdlSat:
    @settings(max_examples=150, deadline=None)
    @given(dpdl_formula_strategy())
    def test_lazy_unsat_has_no_small_model(self, f):
        verdict = dp.dpdl_sat(f, atom_cap=1)
        if isinstance(verdict, dp.Unsat):
            assert not isinstance(dp.brute_dpdl_sat(f, 2), dp.Sat)

    @pytest.mark.xfail(strict=True, raises=KeyError,
                       reason="the exact regime orders a star with a "
                              "nullable body after its own unfolding")
    def test_nullable_star_body_in_exact_regime(self):
        dp.dpdl_sat(dp.parse_dpdl("<(a*;b*)*>p"))


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
