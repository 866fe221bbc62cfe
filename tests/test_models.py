import random

import pytest
from hypothesis import given, settings

from oracles import member_oracle, words_up_to
from polkit import obsregex as ox
from polkit.corpus import drone_model, random_model, recall_counterexample_model
from polkit.errors import ResourceBudgetExceeded, UnknownAgent, UnknownState
from polkit.models import Model, validity_sample
from polkit.obsregex import Alphabet, parse_regex, print_regex
from polkit.syntax import parse_formula


def naive_check(m, s, f, bound):
    """Reference checker built on the public update API; observation
    modalities quantify over words up to the given length only."""
    from polkit import syntax as sx

    if isinstance(f, sx.Top):
        return True
    if isinstance(f, sx.Prop):
        return f.name in m.props[s]
    if isinstance(f, sx.Not):
        return not naive_check(m, s, f.arg, bound)
    if isinstance(f, sx.Or):
        return any(naive_check(m, s, p, bound) for p in f.parts)
    if isinstance(f, sx.And):
        return all(naive_check(m, s, p, bound) for p in f.parts)
    if isinstance(f, sx.Hat):
        return any(naive_check(m, t, f.arg, bound)
                   for t in m.block(f.agent, s))
    if isinstance(f, sx.Know):
        return all(naive_check(m, t, f.arg, bound)
                   for t in m.block(f.agent, s))
    if isinstance(f, (sx.Dia, sx.Box)):
        results = []
        for w in words_up_to(tuple(m.alphabet), bound):
            if not member_oracle(f.pi, w):
                continue
            mw = m.update(w)
            if mw is None or s not in mw.props:
                continue
            results.append(naive_check(mw, s, f.arg, bound))
        return any(results) if isinstance(f, sx.Dia) else all(results)
    raise TypeError(f)


class TestUpdate:
    def test_update_prunes_and_residuates(self):
        m = drone_model()
        mc = m.update(("c",))
        assert mc.states == ("u",)
        assert print_regex(mc.exp["u"]) == "f*;(s*;p*;c;f*)*"
        assert mc.props["u"] == {"T1"}

    def test_update_restricts_relations(self):
        m = drone_model()
        mc = m.update(("s", "p", "c"))
        assert mc.relation_blocks("d") == (frozenset({"u"}),)

    def test_update_none_when_nothing_survives(self):
        m = drone_model()
        assert m.update(("f",)) is None

    def test_empty_word_update_prunes_dead_states(self):
        m = Model(Alphabet(["a"]), ["i"], [0, 1],
                  {1: {"p"}}, {0: ox.atom("a"), 1: ox.empty()},
                  {"i": [{0, 1}]})
        me = m.update(())
        assert me.states == (0,)

    def test_word_update_composes(self):
        rng = random.Random(7)
        for _ in range(30):
            m = random_model(rng, max_states=3)
            w = tuple(rng.choice(("a", "b")) for _ in range(3))
            one = m.update(w)
            step = m
            for sym in w:
                if step is not None:
                    step = step.update((sym,))
            if one is None:
                assert step is None
            else:
                assert step.states == one.states
                assert {s: step.exp[s] for s in step.states} == \
                    {s: one.exp[s] for s in one.states}


class TestDroneTruths:
    def test_uncertainty_persists_while_scanning(self):
        m = drone_model()
        f = parse_formula("[s*;p*]~(K_d T1|K_d ~T1)", m.alphabet)
        assert m.check("u", f)
        assert m.check("v", f)

    def test_circling_reveals_the_first_hypothesis(self):
        m = drone_model()
        f = parse_formula("<s*;p*;c>K_d T1", m.alphabet)
        assert m.check("u", f)
        assert not m.check("v", f)

    def test_knowledge_after_observing(self):
        m = drone_model()
        assert not m.check("u", parse_formula("K_d T1", m.alphabet))
        mc = m.update(("s", "c"))
        assert mc.check("u", parse_formula("K_d T1", m.alphabet))

    def test_explain_produces_witness(self):
        m = drone_model()
        f = parse_formula("<s*;p*;c>K_d T1", m.alphabet)
        lines = m.explain("u", f)
        assert lines[0].endswith("True")
        assert any("witness observation" in ln for ln in lines)

    @pytest.mark.parametrize("text,shown", [
        ("<s*;p*;c>K_d T1", "witness observation: c"),
        ("<(s+p)*;p;c>K_d T1", "witness observation: p-c"),
        ("[s;(s+p)*;c]T2", "failing observation: s-c"),
    ])
    def test_explain_reports_a_shortest_word(self, text, shown):
        m = drone_model()
        lines = m.explain("u", parse_formula(text, m.alphabet))
        assert lines[1].strip() == shown


class TestDeadStates:
    def setup_method(self):
        self.m = Model(Alphabet(["a"]), ["i"], ["u", "d"],
                       {"u": {"q"}, "d": {"p"}},
                       {"u": ox.star(ox.atom("a")), "d": ox.empty()},
                       {"i": [{"u", "d"}]})

    def test_dead_state_fails_every_diamond(self):
        assert not self.m.check("d", parse_formula("<0*>true"))
        assert self.m.check("d", parse_formula("[a*]false"))
        assert self.m.check("d", parse_formula("p"))

    def test_dead_neighbours_visible_before_any_observation(self):
        assert self.m.check("u", parse_formula("hK_i p"))

    def test_empty_observation_removes_dead_neighbours(self):
        assert not self.m.check("u", parse_formula("<0*>hK_i p"))
        assert self.m.check("u", parse_formula("<0*>hK_i q"))


class TestPerfectRecall:
    def test_diamond_knowledge_commutes_forward(self):
        f = parse_formula("~(<a>hK_i p) | hK_i <a>p")
        assert validity_sample(f, models=120, seed=3,
                               symbols=("a", "b")) is None

    def test_converse_fails(self):
        m = recall_counterexample_model()
        f = parse_formula("~(hK_i <a>p) | <a>hK_i p")
        assert not m.check("u", f)

    def test_converse_counterexample_found_by_sampling(self):
        f = parse_formula("~(hK_i <a>p) | <a>hK_i p")
        found = validity_sample(f, models=500, seed=0, symbols=("a", "b"))
        assert found is not None
        m, s = found
        assert not m.check(s, f)


class TestResiduationGraph:
    def test_graph_matches_updates(self):
        m = drone_model()
        contexts, edges = m.residuation_graph()
        # walking the edges agrees with the public update on sample words
        for w in words_up_to(tuple(m.alphabet), 3):
            cid = 0
            for sym in w:
                cid = edges.get((cid, sym))
                if cid is None:
                    break
            mw = m.update(w) if w else m.update(())
            if cid is None:
                assert mw is None
            else:
                assert tuple(sorted(contexts[cid])) == mw.states

    def test_graph_is_finite(self):
        rng = random.Random(11)
        for _ in range(20):
            m = random_model(rng, max_states=4)
            contexts, edges = m.residuation_graph()
            assert len(contexts) <= 10 ** 5

    def test_context_budget_enforced(self):
        m = Model(Alphabet(["a", "b"]), [], [0],
                  {}, {0: parse_regex("(a+b)*;a;(a+b);(a+b)")},
                  {}, max_contexts=2)
        with pytest.raises(ResourceBudgetExceeded):
            m.residuation_graph()


class TestCheckerAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(st_seed=__import__("hypothesis").strategies.integers(0, 10 ** 6))
    def test_star_free_formulas_agree_exactly(self, st_seed):
        from polkit.corpus import random_formula

        rng = random.Random(st_seed)
        m = random_model(rng, max_states=3, regex_depth=2)
        f = random_formula(rng, depth=3, regex_depth=1)
        # depth-1 regexes are single symbols or constants, so every
        # observation word in the formula has length <= nesting depth
        assert m.check(0, f) == naive_check(m, 0, f, bound=4)

    def test_star_witnesses_beyond_naive_bound(self):
        m = Model(Alphabet(["a"]), [], [0], {0: {"p"}},
                  {0: ox.seq(*([ox.atom("a")] * 6))}, {})
        f = parse_formula("<a*>(p & [a]false)")
        assert m.check(0, f)
        assert not naive_check(m, 0, f, bound=2)


class TestErrors:
    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            drone_model().check("w", parse_formula("true"))

    def test_unknown_agent(self):
        with pytest.raises(UnknownAgent):
            drone_model().check("u", parse_formula("K_e T1"))

    def test_regex_symbols_validated(self):
        with pytest.raises(Exception):
            Model(Alphabet(["a"]), [], [0], {}, {0: ox.atom("z")}, {})
