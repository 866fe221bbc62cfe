import gc

import pytest
from hypothesis import given, settings

from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.errors import ParseError, UnknownSymbol
from polkit.obsregex import Alphabet
from polkit.syntax import (
    And, Box, Dia, Hat, Know, Not, Or, Prop, Top,
    agents, box, dia, fl_closure, formula_size, hat, know, land, letters,
    lnot, lor, parse_formula, print_formula, prop, props, top,
)

from conftest import formula_strategy

AB = Alphabet(["a", "b"])


def pf(text):
    return parse_formula(text)


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
        start = len(sx._interned)
        build()
        gc.collect()
        assert len(sx._interned) == start
