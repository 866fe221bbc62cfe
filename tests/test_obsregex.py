import gc
import random

import pytest
from hypothesis import given, settings

from oracles import (language_equivalent, language_sample, member,
                     member_oracle, residuate, words_up_to)
from polkit import corpus
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.errors import (InvalidInput, ParseError, StateBudgetExceeded,
                           UnknownSymbol)
from polkit.obsregex import (
    Alphabet, alt, atom, empty, epsilon, seq, star,
    derive, nullable, is_empty_language,
    parse_regex, parse_word, print_regex,
)

from conftest import obs_expr_strategy

AB = Alphabet(["a", "b"])


def re(text):
    return parse_regex(text, AB)


def live_derivatives(e):
    """The derivatives of ``e`` by words over {a, b} whose language is not
    empty, in the order that ``ox.search`` meets them on the graph whose
    nodes are the derivatives themselves."""
    met = []

    def step(q):
        met.append(q)
        return [(sym, derive(q, sym)) for sym in AB]

    assert ox.search(e, e, step, lambda q: False) is None
    return met


def nullable_reference(e):
    if isinstance(e, (ox.Epsilon, ox.Star)):
        return True
    if isinstance(e, (ox.Empty, ox.Atom)):
        return False
    if isinstance(e, ox.Sum):
        return any(nullable_reference(p) for p in e.parts)
    return all(nullable_reference(p) for p in e.parts)


def empty_reference(e):
    if isinstance(e, ox.Empty):
        return True
    if isinstance(e, (ox.Epsilon, ox.Atom, ox.Star)):
        return False
    if isinstance(e, ox.Sum):
        return all(empty_reference(p) for p in e.parts)
    return any(empty_reference(p) for p in e.parts)


class TestNormalization:
    def test_interning_gives_identity(self):
        assert re("a+b") is re("b+a")
        assert re("a;(b;a)") is re("(a;b);a")
        assert re("a+a") is re("a")

    def test_zero_laws(self):
        assert re("0;a") is empty()
        assert re("a;0") is empty()
        assert re("0+a") is re("a")
        assert re("0**") is epsilon()

    def test_unit_laws(self):
        assert re("0*;a") is re("a")
        assert re("a;0*") is re("a")
        assert seq() is epsilon()
        assert alt() is empty()

    def test_star_collapse(self):
        assert star(star(atom("a"))) is star(atom("a"))
        assert star(empty()) is epsilon()
        assert star(epsilon()) is epsilon()
        # star normal form: the body loses the empty word
        assert re("(a*;b*)*") is re("(a+b)*")
        assert re("(0*+a)*") is re("a*")

    def test_sum_sorted_and_deduped(self):
        e = alt(atom("b"), atom("a"), atom("b"))
        assert print_regex(e) == "a+b"


class TestPrintParse:
    @pytest.mark.parametrize("text,shown", [
        ("0", "0"),
        ("0*", "0*"),
        ("a", "a"),
        ("a;b", "a;b"),
        ("ab", "ab"),          # one two-letter symbol name
        ("a b", "a;b"),        # juxtaposition
        ("a+b;c", "a+b;c"),
        ("(a+b);c", "(a+b);c"),
        ("(a;b)*", "(a;b)*"),
        ("a**", "a*"),
        ("b*;a;a;(a+b)*", "b*;a;a;(a+b)*"),
    ])
    def test_round_trip(self, text, shown):
        e = parse_regex(text)
        assert print_regex(e) == shown
        assert parse_regex(print_regex(e)) is e

    @given(obs_expr_strategy())
    def test_print_then_parse_is_identity(self, e):
        assert parse_regex(print_regex(e)) is e

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as ei:
            parse_regex("a+\n+b")
        assert ei.value.line == 2
        assert ei.value.column == 1

    def test_unknown_symbol_rejected_with_alphabet(self):
        with pytest.raises(UnknownSymbol):
            parse_regex("a+c", AB)
        parse_regex("a+c")  # fine without one

    def test_alphabet_given_as_a_list(self):
        assert parse_regex("a;b", ["a", "b"]) is re("a;b")
        with pytest.raises(UnknownSymbol):
            parse_regex("z", ["a", "b"])

    @pytest.mark.parametrize("text,alphabet", [
        ("z", "ab"),      # read letter by letter, "ab" would be {a, b}
        ("ab", "xaby"),   # and a substring test would accept "ab"
        ("a", 5),
    ])
    def test_alphabet_that_is_no_sequence_of_symbols(self, text, alphabet):
        with pytest.raises(InvalidInput):
            parse_regex(text, alphabet)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_regex("a)")


class TestDerivatives:
    def test_after_observing_b_then_a(self):
        e = re("b*;a;a;(a+b)*")
        assert residuate(e, ("b", "a")) is re("a;(a+b)*")

    def test_after_observing_a(self):
        assert derive(re("b*;a;b"), "a") is re("b")

    def test_derivative_of_star(self):
        assert derive(re("(a;b)*"), "a") is re("b;(a;b)*")

    def test_unknown_symbol(self):
        # derive consults no alphabet: a symbol the expression does not
        # hold leaves no word
        assert derive(re("a"), "c") is empty()
        with pytest.raises(UnknownSymbol):
            ox.atom(1)

    @given(obs_expr_strategy())
    @settings(max_examples=200)
    def test_member_agrees_with_span_oracle(self, e):
        for w in words_up_to(("a", "b"), 4):
            assert member(e, w) == member_oracle(e, w), print_regex(e)

    @given(obs_expr_strategy())
    @settings(max_examples=200)
    def test_residual_language_is_quotient(self, e):
        for w in words_up_to(("a", "b"), 2):
            r = residuate(e, w)
            got = language_sample(r, ("a", "b"), 2)
            want = frozenset(u for u in words_up_to(("a", "b"), 2)
                             if member_oracle(e, w + u))
            assert got == want

    @given(obs_expr_strategy(max_leaves=20))
    @settings(max_examples=100)
    def test_finitely_many_derivatives(self, e):
        # normalization keeps the derivatives that a walk meets few
        assert len(live_derivatives(e)) <= 4096


class TestEmptiness:
    def test_structural_emptiness(self):
        assert is_empty_language(empty())
        assert is_empty_language(re("0;a*"))
        assert not is_empty_language(epsilon())
        assert not is_empty_language(re("a*"))

    @given(obs_expr_strategy())
    def test_emptiness_matches_sampled_language(self, e):
        if not is_empty_language(e):
            # some word shorter than the number of live derivatives is
            # accepted
            n = len(live_derivatives(e))
            assert any(member(e, w) for w in words_up_to(("a", "b"), min(n, 8)))
        else:
            assert not language_sample(e, ("a", "b"), 4)

    @given(obs_expr_strategy(max_leaves=20))
    def test_fields_match_recursive_reference(self, e):
        assert e.nullable is nullable(e) is nullable_reference(e)
        assert e.empty is is_empty_language(e) is empty_reference(e)

    def test_fields_of_nodes_built_without_factories(self):
        # factories never put 0 inside a sum or a concatenation
        a, z = atom("a"), empty()
        for e in (ox.Concat((a, z)), ox.Concat((z, epsilon())),
                  ox.Sum((z, z)), ox.Sum((z, epsilon()))):
            assert e.nullable is nullable_reference(e)
            assert e.empty is empty_reference(e)


class TestOneTable:
    """Expressions live in the one weak intern table of the package."""

    def test_dropped_expressions_are_reclaimed(self):
        def build():
            rng = random.Random(6)
            for _ in range(5000):
                e = corpus.random_regex(rng, ("a", "b"), 6)
                nullable(e)
                derive(e, "a")
                live_derivatives(e)

        def settle():
            ox._derive.cache_clear()
            gc.collect()
            return len(ox._interned)

        start = settle()
        build()
        assert settle() == start

    def test_formulas_share_the_table(self):
        f = sx.dia(re("a;b"), sx.prop("p"))
        assert ox._interned[("<>", f.pi, f.arg)]() is f
        assert ox._interned[(";",) + f.pi.parts]() is f.pi


class TestNesting:
    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_regex("(" * 2000 + "a" + ")" * 2000)
        assert parse_regex("(" * 50 + "a" + ")" * 50) is atom("a")

    def test_deep_factory_nesting_builds_and_prints(self):
        # ``alt`` sorts by the printed text, which each node keeps, so
        # building a level prints only the new nodes
        a, b = atom("a"), atom("b")
        e = a
        for _ in range(3000):
            e = seq(star(a), alt(e, b))
        assert print_regex(e) == "a*;(" * 3000 + "a" + "+b)" * 3000

    @staticmethod
    def starred(leaf):
        # each test starts from its own leaf, so none finds the texts
        # another kept
        e, b = atom(leaf), atom("b")
        for _ in range(3000):
            e = star(seq(b, e))
        return e

    def test_deep_factory_nesting_has_a_str(self):
        text = "(b;" * 3000 + "c" + ")*" * 3000
        assert str(self.starred("c")) == f"ObsExpr({text!r})"

    def test_deep_factory_nesting_prints(self):
        assert (print_regex(self.starred("d"))
                == "(b;" * 3000 + "d" + ")*" * 3000)

    def test_deep_factory_nesting_has_a_size(self):
        assert ox.expr_size(self.starred("e")) == 1 + 3 * 3000


class TestDfaAndEquivalence:
    def test_dfa_accepts_language(self):
        # a walk along the path that spells w reaches its end at a
        # nullable derivative exactly when e holds w
        e = re("b*;a;a;(a+b)*")
        for w in words_up_to(("a", "b"), 5):
            def step(i):
                return [(w[i], i + 1)] if i < len(w) else []

            found = ox.search(e, 0, step, lambda i: i == len(w))
            assert (found is not None) == member_oracle(e, w)

    def test_budget(self, monkeypatch):
        # the expression has 16 live derivatives
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 3)
        with pytest.raises(StateBudgetExceeded):
            live_derivatives(re("(a+b)*;a;(a+b);(a+b);(a+b)"))
        assert len(live_derivatives(re("a;b"))) == 3

    @pytest.mark.parametrize("x,y,eq", [
        ("(a+b)*", "(a*;b*)*", True),
        ("a;a*", "a*;a", True),
        ("a;a*", "a*", False),
        ("0*", "a*", False),
        ("(a;b)*;a", "a;(b;a)*", True),
    ])
    def test_language_equivalent(self, x, y, eq):
        assert language_equivalent(re(x), re(y), AB) is eq
        assert language_equivalent(re(y), re(x), AB) is eq

    @given(obs_expr_strategy(), obs_expr_strategy())
    @settings(max_examples=150)
    def test_equivalence_matches_bounded_sample(self, e1, e2):
        if language_equivalent(e1, e2, AB):
            assert language_sample(e1, ("a", "b"), 4) == \
                language_sample(e2, ("a", "b"), 4)

    def test_equivalence_without_alphabet_infers_symbols(self):
        assert language_equivalent(re("a+0"), re("a"))
        assert not language_equivalent(epsilon(), empty())

    def test_symbol_outside_the_alphabet(self):
        # a walk steps only the alphabet's letters, so an unchecked b
        # would never be read, and a and b would be equivalent
        for x, y in (("a", "b"), ("b", "a")):
            with pytest.raises(UnknownSymbol):
                language_equivalent(atom(x), atom(y), Alphabet(["a"]))

    def test_alphabet_given_as_a_list(self):
        assert not language_equivalent(atom("a"), atom("b"), ["a", "b"])
        assert language_equivalent(re("(a;b)*;a"), re("a;(b;a)*"), ["a", "b"])

    def test_equivalence_walks_meet_the_cap(self, monkeypatch):
        # padded has five derivatives, full one; equal languages are
        # searched in both directions, so in either order the search
        # that walks padded's derivatives meets the cap
        full, padded = re("(a+b)*"), re("(a;a;a;a)*+(a+b)*")
        assert language_equivalent(full, padded, AB)
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 3)
        for x, y in ((full, padded), (padded, full)):
            with pytest.raises(StateBudgetExceeded):
                language_equivalent(x, y, AB)


class TestProductSearch:
    # 0 -a-> 1 -a-> 2 -a-> 3 and a shortcut 0 -b-> 3
    LINE = {0: [("a", 1), ("b", 3)], 1: [("a", 2)], 2: [("a", 3)], 3: []}

    def walk(self, text, goal):
        return ox.search(re(text), 0, self.LINE.__getitem__, goal)

    def test_shortest_walk(self):
        assert self.walk("(a+b)*", lambda n: n == 3) == [("b", 3)]
        assert self.walk("a*", lambda n: n == 3) == \
            [("a", 1), ("a", 2), ("a", 3)]

    def test_start_pair_that_is_a_goal(self):
        assert self.walk("a*", lambda n: n == 0) == []

    def test_goal_only_counts_at_accepting_pairs(self):
        assert self.walk("a;a", lambda n: n == 0) is None
        assert self.walk("a;a", lambda n: n in (0, 2)) == [("a", 1), ("a", 2)]

    def test_unreachable_goal(self):
        assert self.walk("(a+b)*", lambda n: n == 4) is None
        assert self.walk("b;a", lambda n: n == 3) is None

    def test_dead_pairs_are_never_expanded(self):
        # a cycle on three nodes with both letters on every edge; only
        # the prefixes of a;b keep the automaton alive
        expanded = []

        def step(n):
            expanded.append(n)
            return [("a", (n + 1) % 3), ("b", (n + 1) % 3)]

        assert ox.search(re("a;b"), 0, step, lambda n: False) is None
        assert expanded == [0, 1, 2]
        expanded.clear()
        assert ox.search(empty(), 0, step, lambda n: True) is None
        assert expanded == []

    def test_automata_are_cached_and_the_cache_is_bounded(self):
        # the states of an automaton are derivatives, and the one cache
        # of derivatives holds a bounded number of them
        live_derivatives(re("(a;b)*;a"))
        info = ox._derive.cache_info()
        assert info.hits and info.maxsize is not None
        assert info.currsize <= info.maxsize


def reference_pairs(e, start, step):
    """The live pairs of the product breadth first, each once, written
    out without ``ox.walk``."""
    if is_empty_language(e):
        return []
    order, seen = [(start, e)], {(start, e)}
    for node, q in order:
        for sym, nxt in step(node):
            q2 = derive(q, sym)
            if not is_empty_language(q2) and (nxt, q2) not in seen:
                seen.add((nxt, q2))
                order.append((nxt, q2))
    return order


class TestWalk:
    # three nodes in a cycle, both letters on every edge
    @staticmethod
    def cycle(n):
        return [("a", (n + 1) % 3), ("b", (n + 1) % 3)]

    @given(obs_expr_strategy())
    @settings(max_examples=150)
    def test_live_pairs_once_breadth_first(self, e):
        pairs = list(ox.walk(e, 0, self.cycle))
        assert pairs == reference_pairs(e, 0, self.cycle)
        assert len(set(pairs)) == len(pairs)
        assert not any(is_empty_language(q) for _, q in pairs)

    @given(obs_expr_strategy())
    @settings(max_examples=100)
    def test_order_is_the_order_search_meets(self, e):
        # on the graph of e's own derivatives each pair is (q, q)
        def step(q):
            return [(sym, derive(q, sym)) for sym in AB]

        pairs = list(ox.walk(e, e, step))
        assert all(n is q for n, q in pairs)
        assert [n for n, _ in pairs] == live_derivatives(e)

    def test_empty_expression_yields_nothing(self):
        asked = []
        assert list(ox.walk(empty(), 0,
                            lambda n: asked.append(n) or [])) == []
        assert list(ox.walk(re("a;0"), 0,
                            lambda n: asked.append(n) or [])) == []
        assert asked == []

    def test_step_follows_the_consumers_body(self):
        events = []

        def step(n):
            events.append(("step", n))
            return self.cycle(n)

        for n, _ in ox.walk(re("a;b;a"), 0, step):
            events.append(("body", n))
        assert events == [("body", 0), ("step", 0), ("body", 1),
                          ("step", 1), ("body", 2), ("step", 2),
                          ("body", 0), ("step", 0)]

    def test_consumer_prunes_through_step(self):
        # the body marks node 1 done, and step then offers no edge out
        # of it, so the walk ends there
        done = set()

        def step(n):
            return [] if n in done else self.cycle(n)

        seen = []
        for n, _ in ox.walk(re("(a+b)*"), 0, step):
            seen.append(n)
            if n == 1:
                done.add(n)
        assert seen == [0, 1]

    def test_break_stops_stepping(self):
        asked = []

        def step(n):
            asked.append(n)
            return self.cycle(n)

        for n, _ in ox.walk(re("(a+b)*"), 0, step):
            if n == 2:
                break
        assert asked == [0, 1]

    def test_caps_fire_before_the_pair_is_yielded(self, monkeypatch):
        # (a+b)*;a;(a+b);(a+b);(a+b) has 16 live derivatives
        def step(q):
            return [(sym, derive(q, sym)) for sym in AB]

        e = re("(a+b)*;a;(a+b);(a+b);(a+b)")
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 3)
        yielded = []
        with pytest.raises(StateBudgetExceeded):
            for n, _ in ox.walk(e, e, step):
                yielded.append(n)
        assert len(yielded) == 3
        assert len(list(ox.walk(re("a;b"), re("a;b"), step))) == 3


class TestWords:
    def test_tokens_and_char_splitting(self):
        assert parse_word("b a", AB) == ("b", "a")
        assert parse_word("ba", AB) == ("b", "a")
        assert parse_word("b,a", AB) == ("b", "a")
        assert parse_word("", AB) == ()

    def test_named_symbol_wins_over_splitting(self):
        alpha = Alphabet(["ab", "a", "b"])
        assert parse_word("ab", alpha) == ("ab",)

    def test_unknown(self):
        with pytest.raises(UnknownSymbol):
            parse_word("ac", AB)

    def test_alphabet_given_as_a_list(self):
        assert parse_word("ba", ["a", "b"]) == ("b", "a")
        with pytest.raises(UnknownSymbol):
            parse_word("z", ["a"])
        with pytest.raises(InvalidInput):
            parse_word("z", "ab")
