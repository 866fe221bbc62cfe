import gc
import random

import pytest
from hypothesis import example, given, settings

from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.corpus import random_formula, random_regex
from polkit.errors import InvalidInput, ParseError, PolError, UnknownSymbol
from polkit.obsregex import Alphabet
from polkit.syntax import (
    And, Box, Dia, Hat, Know, Not, Or, Prop, Top,
    agents, box, dia, fl_closure, formula_size, hat, know, land, letters,
    lnot, lor, parse_formula, print_formula, prop, props, top,
)

from conftest import formula_strategy
from oracles import node_count, node_depth

AB = Alphabet(["a", "b"])
# proposition names that only a quoted token carries
AWKWARD = ("x y", 'a"b', "back\\slash", "@1.p&q", "surv(1)", "R_i(1,2)", "p")


def pf(text):
    return parse_formula(text)


def flattened(f):
    """``f`` rebuilt with the flattening junctions of ``polkit.dpdl``."""
    if isinstance(f, (Or, And)):
        return (dp.lor if isinstance(f, Or) else dp.land)(
            *map(flattened, f.parts))
    if isinstance(f, Not):
        return lnot(flattened(f.arg))
    if isinstance(f, (Dia, Box)):
        return (dia if isinstance(f, Dia) else box)(f.pi, flattened(f.arg))
    return f


class TestParsing:
    def test_constants_and_props(self):
        assert pf("true") is top()
        assert pf("false") is lnot(top())
        assert pf("motor_on") is prop("motor_on")

    def test_precedence(self):
        f = pf("~p&q|r")
        assert isinstance(f, Or)
        assert isinstance(f.parts[0], And)
        assert isinstance(f.parts[0].parts[0], Not)

    def test_binary_left_associative(self):
        f = pf("p&q&r")
        assert f is land(land(prop("p"), prop("q")), prop("r"))

    def test_modalities(self):
        f = pf("K_d T1")
        assert isinstance(f, Know) and f.agent == "d"
        g = pf("hK_d T1")
        assert isinstance(g, Hat) and g.agent == "d"
        h = pf("<a;b*>p")
        assert isinstance(h, Dia) and h.pi is ox.parse_regex("a;b*")
        k = pf("[a+b]p")
        assert isinstance(k, Box) and k.pi is ox.parse_regex("a+b")

    def test_unary_chains_right(self):
        f = pf("K_a ~<b>p")
        assert isinstance(f, Know)
        assert isinstance(f.arg, Not)
        assert isinstance(f.arg.arg, Dia)

    def test_example_formulas(self):
        f = pf("[s*;p*]~(K_d T1|K_d ~T1)")
        assert isinstance(f, Box)
        assert isinstance(f.arg, Not)
        g = pf("<s*;p*;c>K_d T1")
        assert isinstance(g, Dia)
        assert isinstance(g.arg, Know)

    def test_alphabet_checked_inside_modalities(self):
        parse_formula("<a;c>p")
        with pytest.raises(UnknownSymbol):
            parse_formula("<a;c>p", AB)

    @pytest.mark.parametrize("parse", [parse_formula, dp.parse_dpdl])
    def test_alphabet_given_as_a_list(self, parse):
        assert parse("<a;b>p", ["a", "b"]) is parse("<a;b>p", AB)
        with pytest.raises(UnknownSymbol):
            parse("<z>p", ["a", "b"])

    @pytest.mark.parametrize("parse", [parse_formula, dp.parse_dpdl])
    @pytest.mark.parametrize("text,alphabet", [
        ("<z>p", "ab"),      # read letter by letter, "ab" would be {a, b}
        ("<ab>p", "xaby"),   # and a substring test would accept "ab"
        ("<a>p", 5),
    ])
    def test_alphabet_that_is_no_sequence_of_symbols(self, parse, text,
                                                     alphabet):
        with pytest.raises(InvalidInput):
            parse(text, alphabet)

    def test_regex_error_position_is_global(self):
        with pytest.raises(ParseError) as ei:
            parse_formula("p & <a++b>q")
        assert ei.value.line == 1
        assert ei.value.column == 8

    @pytest.mark.parametrize("bad", [
        "", "p |", "~", "K_ p", "hK_ p", "<a p", "[a p", "(p", "p)q",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_formula(bad)

    def test_deep_nesting_is_a_parse_error(self):
        for text in ("~" * 3000 + "p", "(" * 2000 + "p" + ")" * 2000,
                     "K_i " * 3000 + "p"):
            with pytest.raises(ParseError):
                parse_formula(text)
        assert print_formula(pf("~" * 50 + "p")) == "~" * 50 + "p"

    def test_reserved_prop_names(self):
        with pytest.raises(ValueError):
            prop("true")
        with pytest.raises(ValueError):
            prop("K_d")
        # a quoted name that prop refuses fails at the quote
        for bad, column in (('"true"', 1), ('p & "K_a"', 5), ('p|""', 3),
                            ('~"hK_i"', 2)):
            with pytest.raises(ParseError) as ei:
                pf(bad)
            assert ei.value.column == column, bad


class TestParserFuzz:
    # bits of the concrete syntax of both logics, of regexes and of words
    PIECES = ("p", "q", "a", "b", "0", "1", "true", "false", "K_i ", "hK_j ",
              "K_", "~", "&", "|", "->", "<->", "(", ")", "<", ">", "[", "]",
              "*", "+", ";", ",", " ", "\n", "\t", '"', '"x y"', "\\",
              "@1.p", "é", "\x00")

    def texts(self, rng, count):
        """Random texts: printed random formulas and regexes, each cut,
        spliced or salted with pieces, and strings of pieces alone."""
        for _ in range(count):
            if rng.random() < 0.3:
                yield "".join(rng.choice(self.PIECES)
                              for _ in range(rng.randrange(12)))
                continue
            text = (print_formula(random_formula(rng, ("a", "b"), ("i", "j"),
                                                 ("p", "q"), depth=3))
                    if rng.random() < 0.6 else
                    ox.print_regex(random_regex(rng, ("a", "b"), depth=3)))
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(len(text) + 1)
                j = min(len(text), i + rng.randrange(4))
                how = rng.randrange(4)
                if how == 0:
                    text = text[:i] + text[j:]
                elif how == 1:
                    text = text[:i] + rng.choice(self.PIECES) + text[i:]
                elif how == 2:
                    text = text[:i] + text[i:j] * 2 + text[j:]
                else:
                    text = text[:i]
            yield text

    def test_parsers_raise_only_pol_errors(self):
        # every text either parses or fails with a PolError: no
        # IndexError, KeyError, RecursionError or other crash
        rng = random.Random(26)
        parsers = (parse_formula, lambda t: parse_formula(t, AB),
                   dp.parse_dpdl, ox.parse_regex,
                   lambda t: ox.parse_regex(t, AB),
                   lambda t: ox.parse_word(t, AB))
        parsed = 0
        for text in self.texts(rng, 3000):
            for parse in parsers:
                try:
                    parse(text)
                    parsed += 1
                except PolError:
                    pass
        assert parsed > 1000


class TestPrinting:
    @pytest.mark.parametrize("text,shown", [
        ("true", "true"),
        ("~true", "false"),
        ("~(p|q)", "~(p|q)"),
        ("p&q|r", "p&q|r"),
        ("p&(q|r)", "p&(q|r)"),
        ("p|(q|r)", "p|(q|r)"),
        ("p|q|r", "p|q|r"),
        ("K_d T1", "K_d T1"),
        ("hK_i (p & q)", "hK_i (p&q)"),
        ("[s*;p*]~(K_d T1|K_d ~T1)", "[s*;p*]~(K_d T1|K_d ~T1)"),
        ("<s*;p*;c>K_d T1", "<s*;p*;c>K_d T1"),
    ])
    def test_round_trip(self, text, shown):
        f = parse_formula(text)
        assert print_formula(f) == shown
        assert parse_formula(print_formula(f)) is f

    @given(formula_strategy())
    @settings(max_examples=300)
    def test_print_then_parse_is_identity(self, f):
        assert parse_formula(print_formula(f)) is f

    @given(formula_strategy(agent_names=("i", "5"), prop_names=AWKWARD))
    @example(land(prop("x y"), prop("q")))
    @example(hat("i", prop("surv(1)")))
    @example(dia(ox.atom("a"), lnot(prop("@1.p&q"))))
    @settings(max_examples=300)
    def test_awkward_names_print_and_parse_back(self, f):
        assert parse_formula(print_formula(f)) is f
        if agents(f):
            with pytest.raises(ParseError):
                dp.parse_dpdl(print_formula(f))
        else:
            g = flattened(f)
            assert dp.parse_dpdl(dp.print_dpdl(f)) is g
            assert dp.parse_dpdl(dp.print_dpdl(g)) is g


def nested(wrap, leaf, depth=3000):
    f = leaf
    for _ in range(depth):
        f = wrap(f)
    return f


class TestDeepFactoryNesting:
    # built with the factories, which have no depth limit; each test
    # builds its own formulas, so none finds the texts another kept

    def test_formula_size(self):
        assert formula_size(nested(lnot, prop("size"))) == 3001
        a = ox.atom("a")
        assert formula_size(nested(lambda f: dia(a, f), prop("size"))) == 6001

    def test_print_formula(self):
        assert (print_formula(nested(lnot, prop("shown")))
                == "~" * 3000 + "shown")
        a = ox.atom("a")
        assert (print_formula(nested(lambda f: dia(a, f), prop("shown")))
                == "<a>" * 3000 + "shown")


class TestInspection:
    def test_vocabulary(self):
        f = pf("K_d (T1 | <a;b>hK_e p)")
        assert props(f) == {"T1", "p"}
        assert agents(f) == {"d", "e"}
        assert letters(f) == {"a", "b"}

    def test_size_counts_regex_nodes(self):
        assert formula_size(pf("p")) == 1
        assert formula_size(pf("<a*>p")) == 4
        assert formula_size(pf("p&q")) == 3


class TestSizeField:
    """The size and depth each constructor keeps equal recursive counts."""

    def test_random_formulas(self):
        rng = random.Random(3)
        for _ in range(300):
            f = random_formula(rng, agents=("i", "j"), depth=4)
            assert formula_size(f) == f.size == node_count(f)
            assert f.depth == node_depth(f)

    def test_random_regexes(self):
        rng = random.Random(4)
        for _ in range(300):
            e = random_regex(rng, ("a", "b"), depth=5)
            assert ox.expr_size(e) == e.size == node_count(e)
            assert e.depth == node_depth(e)

    def test_translation_with_flattened_junctions(self):
        t = dp.Translation(pf("hK_i p & K_j <a>q"), dp.LabelBudget(2))
        assert any(isinstance(g, And) and len(g.parts) > 2
                   for g in dp.closure(t.formula))
        assert formula_size(t.formula) == node_count(t.formula)
        assert t.formula.depth == node_depth(t.formula)

    def test_non_nodes_are_type_errors(self):
        with pytest.raises(TypeError):
            formula_size("p")
        with pytest.raises(TypeError):
            ox.expr_size("a")


class TestClosure:
    def test_star_unfolding(self):
        f = pf("<a*>p")
        fl = fl_closure(f)
        assert pf("p") in fl
        assert pf("<a><a*>p") in fl
        assert pf("~<a*>p") in fl

    def test_concat_unfolds_and_strips_to_box_tail(self):
        fl = fl_closure(pf("[b*;a;b]p"))
        assert pf("[b]p") in fl
        assert pf("[b*][a;b]p") in fl
        assert pf("[a][b]p") in fl

    def test_sum_unfolding(self):
        fl = fl_closure(pf("<a+b>p"))
        assert pf("<a>p") in fl
        assert pf("<b>p") in fl

    def test_exact_small_closure(self):
        fl = fl_closure(pf("<a*>p"))
        positive = {pf("<a*>p"), pf("<a><a*>p"), pf("p")}
        assert fl == positive | {lnot(g) for g in positive}

    @pytest.mark.parametrize("text, kind, operands", [
        ("true", "and", []),
        ("p", "free", []),
        ("<a>p", "free", []),
        ("K_i p", "free", []),
        ("hK_i p", "free", []),
        ("~p", "not", ["p"]),
        ("p|q", "or", ["p", "q"]),
        ("<a+b>p", "or", ["<a>p", "<b>p"]),
        ("[a+b]p", "and", ["[a]p", "[b]p"]),
        ("<a;b>p", "or", ["<a><b>p"]),
        ("<a*>p", "or", ["p", "<a><a*>p"]),
        ("[a*]p", "and", ["p", "[a][a*]p"]),
        ("<0*>p", "or", ["p"]),
        ("<0>p", "or", []),
        ("[0]p", "and", []),
        ("[a;b]p", "and", ["[a][b]p"]),
        ("[0*]p", "and", ["p"]),
    ])
    def test_definition(self, text, kind, operands):
        assert sx.definition(pf(text)) == (kind, tuple(map(pf, operands)))

    def test_negation_pairing(self):
        fl = fl_closure(pf("~~p"))
        assert pf("~p") in fl
        assert pf("p") in fl
        # no double negation is introduced for members already negated
        assert pf("~~~p") not in fl

    @given(formula_strategy())
    @settings(max_examples=300)
    def test_closure_linear_and_closed(self, f):
        fl = fl_closure(f)
        assert len(fl) <= 4 * formula_size(f)
        for g in fl:
            if not isinstance(g, Not):
                assert lnot(g) in fl
            if isinstance(g, (Or, And)):
                assert all(p in fl for p in g.parts)
            if isinstance(g, (Not, Hat, Know, Dia, Box)):
                assert g.arg in fl
            if isinstance(g, (Dia, Box)):
                make = dia if isinstance(g, Dia) else box
                if isinstance(g.pi, ox.Star):
                    assert make(g.pi.body, g) in fl
                if isinstance(g.pi, ox.Sum):
                    for p in g.pi.parts:
                        assert make(p, g.arg) in fl
                if isinstance(g.pi, ox.Concat):
                    rest = ox.seq(*g.pi.parts[1:])
                    assert make(g.pi.parts[0], make(rest, g.arg)) in fl


class TestOneCore:
    """Observation logic and dynamic logic share one interned node set."""

    def test_props_are_atoms(self):
        assert sx.prop("p") is dp.atom("p")
        assert sx.lor(prop("p"), prop("q")) is dp.lor(prop("p"), prop("q"))

    def test_dropped_formulas_are_reclaimed(self):
        def build():
            for i in range(5000):
                land(prop(f"r{i}"), prop(f"s{i}"))

        gc.collect()
        start = len(ox._interned)
        build()
        gc.collect()
        assert len(ox._interned) == start
