"""Every entry point that evaluates a formula recursively refuses one
that nests deeper than the stated limit, and accepts one at the limit."""

import functools

import pytest

from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.errors import ExpressionTooDeep, FormulaTooDeep, ParseError
from polkit.models import Model


def one_state_model():
    return Model(["a"], [], [0], {0: {"p"}}, {0: ox.star(ox.atom("a"))}, {})


ENTRY_POINTS = {
    "Model.check": lambda f: one_state_model().check(0, f),
    "Model.explain": lambda f: one_state_model().explain(0, f),
    "dpdl_check": lambda f: dp.dpdl_check(
        dp.DpdlModel([0], {(0, "a"): 0}, {0: {"p"}}), 0, f),
    "brute_dpdl_sat": lambda f: dp.brute_dpdl_sat(f, 1),
    "dpdl_sat": lambda f: dp.dpdl_sat(f),
    "pol_sat": lambda f: dp.pol_sat(f, dp.LabelBudget(1)),
    "pol_bounded_sat": lambda f: dp.pol_bounded_sat(f, 1),
}


def nested(make, depth):
    f = sx.prop("p")
    for _ in range(depth - 1):
        f = make(f)
    return f


def junction_chain(parts):
    """``p|p|...|p`` as the parser builds it: one level per part."""
    return functools.reduce(sx.lor, [sx.prop("p")] * parts)


DEEP = {
    "factories": lambda: nested(sx.lnot, 3000),
    # the formula that the text "p|p|...|p" of 3,000 parts denotes; the
    # parser refuses that text (see test_parser_refuses_a_deep_chain)
    "text": lambda: junction_chain(3000),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("source", sorted(DEEP))
def test_too_deep_is_refused(entry, source):
    f = DEEP[source]()
    assert f.depth == 3000
    with pytest.raises(FormulaTooDeep):
        ENTRY_POINTS[entry](f)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_at_the_limit_passes(entry):
    # an empty-word diamond costs every evaluator one frame per level
    # without any observation, so every entry point decides it quickly
    f = nested(lambda g: sx.dia(ox.epsilon(), g), sx._MAX_DEPTH)
    assert f.depth == sx._MAX_DEPTH
    ENTRY_POINTS[entry](f)
    with pytest.raises(FormulaTooDeep):
        ENTRY_POINTS[entry](sx.dia(ox.epsilon(), f))


def under_frames(n, call):
    """``call()`` under ``n`` more frames of this function."""
    return call() if n == 0 else under_frames(n - 1, call)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_caller_keeps_headroom_at_the_limit(entry):
    # at the limit every evaluator leaves its caller at least 700 of the
    # interpreter's default 1,000 frames (see syntax._MAX_DEPTH): each
    # iterates a modal level's walk in its own frame, and one more frame
    # on each modal level, such as a goal callback's, would leave fewer
    f = nested(lambda g: sx.dia(ox.epsilon(), g), sx._MAX_DEPTH)
    under_frames(700, lambda: ENTRY_POINTS[entry](f))


def test_parser_refuses_a_deep_chain():
    # the grammar's nesting cap does not count a junction chain, so the
    # parser checks the depth of what it built
    with pytest.raises(ParseError, match=f"limit is {sx._MAX_DEPTH}"):
        sx.parse_formula("|".join(["p"] * 3000))
    f = sx.parse_formula("|".join(["p"] * sx._MAX_DEPTH))
    assert f is junction_chain(sx._MAX_DEPTH)
    assert one_state_model().check(0, f)


def deep_program(depth, b="b"):
    """``a*;(b+a*;(b+...;(b+a)))``, one sum and one concatenation per
    round, nesting ``depth`` expression levels (an odd number)."""
    a, b = ox.atom("a"), ox.atom(b)
    e = a
    while e.depth < depth:
        e = ox.seq(ox.star(a), ox.alt(b, e))
    return e


def test_deep_expression_is_refused():
    e = deep_program(3001)
    assert e.depth == 3001
    alphabet = ox.Alphabet(["a", "b"])
    for refuse in (lambda: ox.search(e, 0, lambda n: [], lambda n: True),
                   lambda: next(ox.walk(e, 0, lambda n: [])),
                   lambda: ox.derive(e, "a"),
                   lambda: ox.star(ox.alt(ox.epsilon(), e)),
                   lambda: Model(alphabet, [], [0], {0: set()}, {0: e},
                                 {}).update(("a",))):
        with pytest.raises(ExpressionTooDeep, match="limit is 200"):
            refuse()
    # a modality's depth counts its program's
    f = sx.dia(e, sx.prop("p"))
    assert f.depth == 3002
    m = Model(alphabet, [], [0], {0: set()}, {0: ox.star(ox.atom("a"))}, {})
    with pytest.raises(FormulaTooDeep, match="limit is 200"):
        m.check(0, f)
    for entry in sorted(ENTRY_POINTS):
        with pytest.raises(FormulaTooDeep):
            ENTRY_POINTS[entry](f)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_program_at_the_limit_passes(entry):
    # half the levels are formulas above the modality, half its program;
    # the program has only the letter of the entry points' models
    f = sx.dia(deep_program(sx._MAX_DEPTH // 2 - 1, b="a"), sx.prop("p"))
    while f.depth < sx._MAX_DEPTH:
        f = sx.dia(ox.epsilon(), f)
    assert f.depth == sx._MAX_DEPTH
    ENTRY_POINTS[entry](f)


def test_pol_sat_decides_an_encoding_past_the_limit():
    # the chains that encode the first agent's knowledge nest two levels
    # per slot, so at 128 slots this encoding nests past the limit; the
    # solver does not recurse on depth, and pol_sat checks its model on
    # the shallow source formula, so only dpdl_sat's own witness check,
    # which recurses, refuses the encoding
    phi = sx.parse_formula("hK_i p & K_i q")
    budget = dp.LabelBudget(128)
    t = dp.Translation(phi, budget)
    assert t.formula.depth > sx._MAX_DEPTH
    with pytest.raises(FormulaTooDeep):
        dp.dpdl_sat(t.formula)
    assert isinstance(under_frames(700, lambda: dp.pol_sat(phi, budget)),
                      dp.Sat)


def test_pol_sat_refutes_at_a_full_budget_past_the_limit():
    phi = sx.parse_formula("~K_j (true|p)")
    t = dp.Translation(phi)
    assert t.budget.full and t.budget.labels == 256
    assert t.formula.depth > sx._MAX_DEPTH
    assert isinstance(dp.pol_sat(phi), dp.Unsat)
