import random

import pytest
from hypothesis import given, settings

from oracles import (member_oracle, residual_maps, residuated_model,
                     stepwise_check, validity_sample, words_up_to)
from polkit import models
from polkit.bts import Bubble
from polkit.dpdl import DpdlModel, dpdl_check
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.corpus import (drone_model, random_formula, random_model,
                           recall_counterexample_model)
from polkit.errors import (FormulaTooDeep, InvalidInput,
                           ResourceBudgetExceeded, UnknownAgent,
                           UnknownState, UnknownSymbol)
from polkit.models import Model
from polkit.obsregex import Alphabet, parse_regex, print_regex
from polkit.syntax import parse_formula


def naive_check(m, s, f, bound):
    """Reference checker built on models residuated from scratch
    (``residuated_model``); observation modalities quantify over words
    up to the given length only."""
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
            mw = residuated_model(m, w)
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


def assert_same_model(got, want, formulas):
    """``got`` and ``want`` are both None, or have the same states,
    propositions, expectations and relations, and agree on every
    formula at every state."""
    if want is None:
        assert got is None
        return
    assert got.states == want.states
    assert got.props == want.props
    assert got.exp == want.exp
    for agent in want.agents:
        assert got.relation_blocks(agent) == want.relation_blocks(agent)
    for f in formulas:
        for s in want.states:
            assert got.check(s, f) == want.check(s, f), (s, f)


class TestSharedUpdate:
    """``update`` walks the residuation graph that it shares with the
    model it is called on; ``residuated_model`` builds from scratch."""

    def test_updates_equal_models_residuated_from_scratch(self):
        rng = random.Random(24)
        agents = ("i", "j")
        for _ in range(60):
            m = random_model(rng, agents=agents, max_states=5)
            formulas = [random_formula(rng, agents=agents, depth=3)
                        for _ in range(4)]
            # checks on the parent first, so its updates start from a
            # warm graph and memo
            for f in formulas:
                for s in m.states:
                    m.check(s, f)
            for n in range(4):
                w = tuple(rng.choice("ab") for _ in range(n))
                assert_same_model(m.update(w), residuated_model(m, w),
                                  formulas)
            u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            v = tuple(rng.choice("ab") for _ in range(rng.randint(0, 2)))
            mu = m.update(u)
            assert_same_model(None if mu is None else mu.update(v),
                              residuated_model(m, u + v), formulas)

    def test_symbols_after_a_dead_walk_are_checked(self):
        # "f" kills both states of the drone model
        m = drone_model()
        with pytest.raises(UnknownSymbol):
            m.update(("f", "zzz"))

    def test_errors_survive_a_warm_memo(self):
        m = drone_model()
        mc = m.update(("c",))
        deep = sx.prop("T1")
        for _ in range(sx._MAX_DEPTH - 1):
            deep = sx.lnot(deep)
        fs = [deep, parse_formula("<s*;p*;c>K_d T1", m.alphabet),
              parse_formula("K_d T1", m.alphabet)]
        for model in (m, mc):
            for f in fs:
                model.check("u", f)
        for model in (m, mc):
            with pytest.raises(FormulaTooDeep):
                model.check("u", sx.lnot(deep))
            with pytest.raises(UnknownAgent):
                model.check("u", parse_formula("K_e T1"))
        # v does not survive c, and the parent's answers for it are
        # memoized at the contexts that the two models share
        for f in fs:
            with pytest.raises(UnknownState):
                mc.check("v", f)

    def test_agent_operators_read_the_survivors_blocks(self):
        # each context keeps its agents' blocks cut to its survivors: a
        # block that lost states to an update counts only those left
        rng = random.Random(40)
        agents = ("i", "j")
        formulas = [parse_formula(text) for text in (
            "K_i p", "hK_i p", "K_j ~q", "hK_j (p&q)", "K_i true",
            "~K_j (p|q)", "K_i hK_j p", "<a>K_i p", "[b]hK_j q")]
        for _ in range(60):
            m = random_model(rng, agents=agents, max_states=6)
            for f in formulas:
                for s in m.states:
                    m.check(s, f)
            for w in (("a",), ("b",), ("a", "b"), ("b", "b")):
                fresh = residuated_model(m, w)
                if fresh is None:
                    continue
                mw = m.update(w)
                for f in formulas:
                    for s in fresh.states:
                        assert mw.check(s, f) == fresh.check(s, f), (w, s, f)

    def test_graph_ids_are_local(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_model(rng, max_states=4)
            m.residuation_graph()
            w = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
            mw, fresh = m.update(w), residuated_model(m, w)
            if fresh is None:
                assert mw is None
                continue
            contexts, edges = mw.residuation_graph()
            assert contexts[0] == {s: mw.exp[s] for s in mw.states}
            # same ids, so the same count, as the graph of a fresh model
            assert (contexts, edges) == fresh.residuation_graph()

    def test_context_budget_covers_the_shared_graph(self, monkeypatch):
        # the parent's walk through b;b and its update's walk from a;a
        # fill one graph: each fits under the cap, together they do not
        monkeypatch.setattr(models, "_MAX_CONTEXTS", 5)
        ab = Alphabet(["a", "b"])
        m = Model(ab, [], [0], {}, {0: parse_regex("a;a;a+b;b;b", ab)},
                  {})
        ma = m.update(("a",))
        assert m.check(0, parse_formula("<b;b>true", ab))
        assert len(residuated_model(m, ("a",)).residuation_graph()[0]) == 3
        with pytest.raises(ResourceBudgetExceeded):
            ma.residuation_graph()

    def test_a_step_past_the_budget_is_not_cached(self, monkeypatch):
        # by a the top steps to itself, by b to a new context over the
        # cap: a call that asks again must raise again, not read a
        # successor map with b missing as "no state survives b"
        monkeypatch.setattr(models, "_MAX_CONTEXTS", 1)
        ab = Alphabet(["a", "b"])
        m = Model(ab, [], [0], {}, {0: parse_regex("a*;b", ab)}, {})
        for _ in range(2):
            with pytest.raises(ResourceBudgetExceeded):
                m.check(0, parse_formula("<b>true", ab))
            with pytest.raises(ResourceBudgetExceeded):
                m.update(("b",))
        assert m.update(("a",)) is not None


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

    @pytest.mark.parametrize("entry", ["check", "explain"])
    def test_program_letter_outside_the_alphabet(self, entry):
        # z labels no step of the residuation graph, so a walk alone
        # would find no word for <z>T1 and call it false
        m = drone_model()
        f = sx.dia(ox.atom("z"), sx.prop("T1"))
        with pytest.raises(UnknownSymbol):
            getattr(m, entry)("u", f)

    @pytest.mark.parametrize("entry", ["check", "explain"])
    @pytest.mark.parametrize("text, error", [
        ("T1 | ~T1 | <z>T1", UnknownSymbol),
        ("<z>T1 | T1 | ~T1", UnknownSymbol),
        ("T1 | ~T1 | K_zz T1", UnknownAgent),
        ("K_zz T1 | T1 | ~T1", UnknownAgent),
    ])
    def test_unknown_names_are_refused_in_every_operand_order(
            self, entry, text, error):
        # the first disjunct decides the first two orders, so the names
        # are checked before the evaluation
        with pytest.raises(error):
            getattr(drone_model(), entry)("u", parse_formula(text))

    def test_the_least_unknown_letter_is_reported(self):
        # whatever the hash seed, so the message is deterministic
        with pytest.raises(UnknownSymbol, match="'y'"):
            drone_model().check("u", parse_formula("<z;y>T1"))

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

    def test_explain_walks_each_part_of_a_junction(self):
        m = drone_model()
        lines = m.explain("u", parse_formula("T1 | <s>T2", m.alphabet))
        assert lines == [
            "T1|<s>T2 @ u: True",
            "  T1 @ u: True",
            "  <s>T2 @ u: False",
            "    no matching observation keeps the state alive with a true "
            "body",
        ]


class TestLiveExpectations:
    """Every state expects some word, so none is dead on arrival."""

    @pytest.mark.parametrize("text", ["0", "0;a"])
    def test_model_refuses_an_empty_expectation(self, text):
        ab = Alphabet(["a"])
        with pytest.raises(InvalidInput, match="expects no word"):
            Model(ab, ["i"], ["u", "d"], {"d": {"p"}},
                  {"u": ox.star(ox.atom("a")), "d": parse_regex(text, ab)},
                  {"i": [{"u", "d"}]})

    def test_random_model_refuses_dead_expectations(self):
        with pytest.raises(InvalidInput):
            random_model(random.Random(0), live=False)


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


class TestClosureQuotient:
    def test_merging_by_closure_truth_loses_survival(self):
        # states 0 and 2 agree on every member of the closure of K_j p,
        # but 0 dies after one observation and 2 lives on; the quotient
        # by closure truth keeps 0's expectation for the merged state,
        # so after aa it loses 2, the state that refutes K_j p
        ab = Alphabet(["a", "b"])
        once, ever = parse_regex("a+b", ab), parse_regex("(a+b)*", ab)
        m = Model(ab, ["j"], [0, 1, 2],
                  {0: set(), 1: {"p", "q"}, 2: {"q"}},
                  {0: once, 1: ever, 2: ever}, {"j": [{0, 1, 2}]})
        quotient = Model(ab, ["j"], [0, 1], {0: set(), 1: {"p"}},
                         {0: once, 1: ever}, {"j": [{0, 1}]})
        f = parse_formula("<a;a>K_j p", ab)
        assert m.check(1, f) is False
        assert quotient.check(1, f) is True


class TestResiduationGraph:
    def test_graph_matches_updates(self):
        m = drone_model()
        contexts, edges = m.residuation_graph()
        # walking the edges agrees with models residuated from scratch
        # on sample words
        for w in words_up_to(tuple(m.alphabet), 3):
            cid = 0
            for sym in w:
                cid = edges.get((cid, sym))
                if cid is None:
                    break
            mw = residuated_model(m, w)
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

    def test_context_identity_is_order_free(self):
        # a context is keyed by its residuals in state order; shuffled
        # ids of both kinds, whose order is not the order given or the
        # order of their digits, must still give one context per
        # distinct map of survivors to residuals
        rng = random.Random(25)
        for _ in range(40):
            base = random_model(rng, agents=("i",), min_states=3,
                                max_states=8, regex_depth=4)
            ids = rng.sample(range(20), len(base.states))
            name = {s: n if rng.random() < 0.5 else str(n)
                    for s, n in zip(base.states, ids)}
            states = list(base.states)
            rng.shuffle(states)
            m = Model(base.alphabet, base.agents, [name[s] for s in states],
                      {name[s]: base.props[s] for s in states},
                      {name[s]: base.exp[s] for s in states},
                      {"i": [{name[s] for s in b}
                             for b in base.relation_blocks("i")]})
            contexts, _ = m.residuation_graph()
            maps = residual_maps(m)
            assert len(contexts) == len(maps)
            assert {frozenset(c.items()) for c in contexts.values()} == maps
            for c in contexts.values():
                assert list(c) == sorted(c, key=models.state_sort_key)
            for w in words_up_to(tuple(m.alphabet), 2):
                u = m.update(w)
                if u is not None:
                    assert list(u.exp) == list(u.states)
                    assert len(u.residuation_graph()[0]) == len(
                        residual_maps(u))

    def test_context_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(models, "_MAX_CONTEXTS", 2)
        m = Model(Alphabet(["a", "b"]), [], [0],
                  {}, {0: parse_regex("(a+b)*;a;(a+b);(a+b)")}, {})
        with pytest.raises(ResourceBudgetExceeded):
            m.residuation_graph()


class TestCheckerAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(st_seed=__import__("hypothesis").strategies.integers(0, 10 ** 6))
    def test_star_free_formulas_agree_exactly(self, st_seed):
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


def assert_agrees_everywhere(m, f):
    memo = {}
    for s in m.states:
        assert m.check(s, f) == stepwise_check(m, s, f, memo), (s, f)


class TestCheckerAgainstStepwise:
    """The set-at-a-time checker against the per-state reference."""

    def test_random_models_and_their_updates(self):
        rng = random.Random(2024)
        agents = ("i", "j")
        starred = 0
        for _ in range(150):
            m = random_model(rng, agents=agents, max_states=5,
                             regex_depth=3)
            word = tuple(rng.choice("ab") for _ in range(rng.randint(1, 2)))
            updated = m.update(word)
            for _ in range(6):
                f = random_formula(rng, agents=agents, depth=3,
                                   regex_depth=2)
                starred += "*" in sx.print_formula(f)
                assert_agrees_everywhere(m, f)
                if updated is not None:
                    assert_agrees_everywhere(updated, f)
        # the sample covers starred formulas
        assert starred

    def test_witness_goes_round_a_cycle_of_contexts(self):
        # the expectation a;(a;a;a)*;b cycles through three contexts
        # under a, and b is possible only after 1, 4, 7, ... letters, so
        # the shortest word of length at least 3 with b next is aaaa
        ab = Alphabet(["a", "b"])
        m = Model(ab, ["i"], [0, 1], {0: {"p"}},
                  {0: parse_regex("a;(a;a;a)*;b", ab),
                   1: parse_regex("(a+b)*", ab)}, {"i": [{0, 1}]})
        dia = parse_formula("<a;a;a;a*><b>true", ab)
        box = parse_formula("[a;a;a;a*][b]false", ab)
        assert m.check(0, dia) and not m.check(0, box)
        assert m.explain(0, dia)[1].strip() == "witness observation: a-a-a-a"
        assert m.explain(0, box)[1].strip() == "failing observation: a-a-a-a"
        for f in (dia, box, parse_formula("<a*>K_i <b>true", ab),
                  parse_formula("[a;a*]hK_i [b]false", ab)):
            assert_agrees_everywhere(m, f)

    @pytest.mark.parametrize("text", [
        "K_d T1", "<s*;p*;c>K_d T1", "[s*;p*]~(K_d T1|K_d ~T1)",
        "[s;(s+p)*;c]T2", "hK_d <(s+p)*;l>T2",
    ])
    def test_explain_agrees_with_check(self, text):
        m = drone_model()
        f = parse_formula(text, m.alphabet)
        for s in m.states:
            assert m.explain(s, f)[0].endswith(f": {m.check(s, f)}")


class TestDerivativeFirst:
    def test_a_diamond_builds_only_the_contexts_its_program_enters(self):
        # every state expects every word, so each letter leads somewhere;
        # <a>p derives its program by b and c to nothing, and by a to
        # 0*, which no letter keeps alive: the check steps the top by a
        # alone, and the a-successor not at all
        abc = Alphabet(["a", "b", "c"])
        anything = parse_regex("(a+b+c)*", abc)
        m = Model(abc, [], [0, 1], {0: {"p"}},
                  {0: anything, 1: parse_regex("(a;b)*", abc)}, {})
        assert m.check(0, parse_formula("<a>p", abc))
        assert not m.check(1, parse_formula("<a>p", abc))
        assert len(m._ctxs) == 2
        assert list(m._top.steps) == ["a"]
        (after_a,) = m._top.steps["a"]
        assert after_a.steps == {}
        assert after_a.mask == m._top.mask


class TestMemo:
    def test_memo_stays_bounded(self):
        # a long-lived model checked against a stream of formulas: the
        # memo starts over at its bound, and answers stay those of a
        # fresh model
        m = drone_model()
        rng = random.Random(1)
        peak = 0
        for k in range(5000):
            f = random_formula(rng, tuple(m.alphabet), ("d",),
                               ("T1", "T2"), depth=3)
            got = m.check("u", f)
            peak = max(peak, len(m._memo))
            if k % 250 == 0:
                assert got == drone_model().check("u", f)
        assert 1000 < peak <= models._MEMO_ENTRIES


class TestErrors:
    def test_unknown_state(self):
        with pytest.raises(UnknownState):
            drone_model().check("w", parse_formula("true"))

    @pytest.mark.parametrize("text", ["T1", "<s>T1"])
    def test_explain_unknown_state(self, text):
        m = drone_model()
        with pytest.raises(UnknownState):
            m.explain("w", parse_formula(text, m.alphabet))

    def test_unknown_agent(self):
        with pytest.raises(UnknownAgent):
            drone_model().check("u", parse_formula("K_e T1"))

    def test_stray_keys_are_refused(self):
        # a typo in a state id or agent name would otherwise build a
        # different model without a word
        with pytest.raises(UnknownState):
            Model(["a"], ["i"], [0], {5: {"p"}},
                  {0: ox.epsilon(), 7: ox.empty()}, {"j": [{0}]})
        with pytest.raises(UnknownState):
            Model(["a"], ["i"], [0], {}, {0: ox.epsilon(), 7: ox.empty()},
                  {})
        with pytest.raises(UnknownAgent):
            Model(["a"], ["i"], [0], {}, {0: ox.epsilon()}, {"j": [{0}]})

    # an id that cannot be hashed names no state, agent or letter
    @pytest.mark.parametrize("call,error", [
        (lambda m: m.check(["u"], sx.top()), UnknownState),
        (lambda m: m.update(("c",)).check(["u"], sx.top()), UnknownState),
        (lambda m: m.explain(["u"], sx.top()), UnknownState),
        (lambda m: m.block("d", ["u"]), UnknownState),
        (lambda m: m.block(["d"], "u"), UnknownAgent),
        (lambda m: m.relation_blocks(["d"]), UnknownAgent),
        (lambda m: m.update([["s"]]), UnknownSymbol),
        (lambda m: Model(m.alphabet, ["d"], [["u"]], {},
                         {("u",): ox.epsilon()}, {}), InvalidInput),
        (lambda m: Model(m.alphabet, [["d"]], ["u"], {},
                         {"u": ox.epsilon()}, {}), InvalidInput),
        (lambda m: dpdl_check(DpdlModel([0], {}, {0: ()}), [0], sx.top()),
         UnknownState),
        (lambda m: Bubble(["u"], {"u": ()}).block("d", ["u"]), UnknownState),
    ], ids=["check", "check-updated", "explain", "block-state", "block-agent",
            "relation-blocks", "update", "model-state", "model-agent",
            "dpdl-check", "bubble-block"])
    def test_unhashable_ids(self, call, error):
        with pytest.raises(error):
            call(drone_model())

    def test_regex_symbols_validated(self):
        with pytest.raises(Exception):
            Model(Alphabet(["a"]), [], [0], {}, {0: ox.atom("z")}, {})
