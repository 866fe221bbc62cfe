"""Properties of the package source as a whole."""

import ast
import importlib
from pathlib import Path

import pytest

import polkit
from polkit import bts as bt
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.errors import PolError
from polkit.models import Model, block_map

SOURCE = Path(polkit.__file__).resolve().parent
PERFBENCH = SOURCE.parents[1] / "perfbench"


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so a check the package
    # relies on raises explicitly instead
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_imports_at_module_level():
    # an import inside a function hides an edge of the module graph, and
    # with it a cycle between modules
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{inner.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)
                  if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found


def test_walks_step_derivatives_in_obsregex_only():
    # obsregex.walk is the one loop over (node, derivative) pairs; a
    # loop of its own elsewhere would step ``_derive`` and count what it
    # meets with ``_meet``
    names = {"_derive", "_meet"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        if path == SOURCE / "obsregex.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SOURCE)}:{getattr(node, 'lineno', 0)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in names
                  or isinstance(node, ast.Name) and node.id in names
                  or isinstance(node, ast.alias) and node.name in names]
    assert not found


# Exported names that users call directly and that no module of the
# package or of perfbench/ needs to: the parsers' word reader and the
# DPDL parser, the paper's validation predicates, and worked examples.
ENTRY_POINTS = {
    "parse_word", "parse_dpdl", "is_hintikka", "is_bubble",
    "is_a_successor", "drone_model", "recall_counterexample_model",
    "two_bubble_bts",
}


def test_public_names_are_used():
    # a name in an ``__all__`` that neither the package nor the benchmark
    # reads, and that is no entry point, is dead API; its import or its
    # ``__all__`` entry alone does not count, and a used ``import ... as``
    # alias counts for the name it renames
    exported, used, renamed = set(), set(), {}
    for path in sorted(SOURCE.rglob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and node.asname:
                renamed.setdefault(node.asname, set()).add(node.name)
            elif (isinstance(node, ast.Assign) and path.is_relative_to(SOURCE)
                  and any(isinstance(t, ast.Name) and t.id == "__all__"
                          for t in node.targets)):
                exported |= set(ast.literal_eval(node.value))
    for name in list(used):
        used |= renamed.get(name, set())
    assert sorted(exported - used - ENTRY_POINTS) == []


def one_state_model():
    return Model(["a"], [], [0], {}, {0: ox.star(ox.atom("a"))}, {})


def two_bubbles(delta, initial=0):
    bubble = bt.Bubble((0,), {0: {sx.prop("p")}})
    return bt.Bts(sx.prop("p"), (bubble, bubble), delta, initial=initial)


@pytest.mark.parametrize("build", [
    lambda: ox.Alphabet([]),
    lambda: ox.Alphabet(["a", "a"]),
    lambda: sx.prop("true"),
    lambda: dp.atom(""),
    lambda: dp.DpdlModel([], {}, {}),
    lambda: Model(["a"], [], [0, 0], {}, {0: ox.epsilon()}, {}),
    lambda: Model(["a"], [], [0], {}, {0: ox.empty()}, {}),
    lambda: block_map([0], "i", [{0}, {0}]),
    lambda: bt.Bts(sx.prop("p"), (bt.Bubble((0,), {0: {sx.prop("p")}}),),
                   {}, initial=1),
    lambda: ox.Alphabet([1]),
    lambda: sx.prop(123),
    lambda: sx.prop(""),
    lambda: dp.atom("K_a"),
    lambda: sx.hat("x y", sx.top()),
    lambda: sx.know(5, sx.top()),
    lambda: sx.lnot("p"),
    lambda: sx.lnot(ox.atom("a")),
    lambda: sx.lor(sx.top(), "p"),
    lambda: sx.land(None, sx.top()),
    lambda: sx.hat("i", "p"),
    lambda: sx.know("i", 3),
    lambda: sx.dia("a", sx.top()),
    lambda: sx.box(ox.atom("a"), "p"),
    lambda: dp.lor(sx.top(), "p"),
    lambda: dp.land("p", "q", sx.top()),
    lambda: dp.lor("p"),
    lambda: sx.parse_formula(123),
    lambda: dp.parse_dpdl(123),
    lambda: ox.parse_regex(123),
    lambda: ox.parse_word(123, ox.Alphabet(["a"])),
    lambda: dp.pol_sat(sx.prop("p"), 2),
    lambda: dp.pol_sat(sx.prop("p"), dp.LabelBudget(True)),
    lambda: Model(["a"], ["i"], [0], {0: {"p"}}, {0: "a"}, {}),
    lambda: dp.pol_bounded_sat(sx.prop("p"), 1, pool=["a"]),
    lambda: Model(["a"], [], [0], {0: "pq"}, {0: ox.epsilon()}, {}),
    lambda: Model(["a"], [], [0], {0: 5}, {0: ox.epsilon()}, {}),
    lambda: Model(["a"], ["i"], [0], {}, {0: ox.epsilon()}, {"i": [5]}),
    lambda: Model(["a"], ["i"], [0], {}, {0: ox.epsilon()}, {"i": 5}),
    lambda: ox.Alphabet("ab"),
    lambda: dp.DpdlModel([0], {(0, "a"): 0}, {0: set()}, alphabet="ab"),
    lambda: dp.DpdlModel([0], {(0, "a"): 0}, {0: set()}, alphabet=5),
    lambda: dp.DpdlModel([0], {}, {0: "pq"}),
    lambda: dp.DpdlModel([0], {}, {0: 5}),
    lambda: dp.DpdlModel("ab", {}, {"a": set(), "b": set()}),
    lambda: dp.DpdlModel(5, {}, {}),
    lambda: dp.DpdlModel([0], {0: 0}, {0: set()}),
    lambda: dp.DpdlModel([0], {"ab": 0}, {0: set()}),
    lambda: Model(["a"], [], "uv", {}, {"u": ox.epsilon(),
                                        "v": ox.epsilon()}, {}),
    lambda: Model(["a"], [], 5, {}, {}, {}),
    lambda: Model(["a"], "ij", [0], {}, {0: ox.epsilon()}, {}),
    lambda: Model(["a"], 5, [0], {}, {0: ox.epsilon()}, {}),
    lambda: bt.Bubble("st", {}),
    lambda: bt.Bubble(5, {}),
    lambda: bt.Bubble(["s"], {"s": "pq"}),
    lambda: bt.Bubble(["s"], {"s": 5}),
    lambda: one_state_model().update("aa"),
    lambda: one_state_model().update(5),
    lambda: two_bubbles({}, initial=1.0),
    lambda: two_bubbles({}, initial="0"),
    lambda: two_bubbles({}, initial=True),
    lambda: two_bubbles({(True, "a"): 0}),
    lambda: two_bubbles({(0, "a"): True}),
    lambda: bt.is_hintikka(set(), {"p"}),
    lambda: bt.is_bubble(bt.Bubble([0], {}), {"p"}),
    lambda: bt.is_a_successor(bt.Bubble([0], {}), bt.Bubble([0], {}), "a",
                              {"p"}),
    lambda: bt.is_bts(bt.Bts(sx.prop("p"), ["x"], {})),
    lambda: bt.Bts(sx.prop("p"), [bt.Bubble([0], {})], {0: 0}),
    lambda: Model(["a"], [], [0], 5, {0: ox.epsilon()}, {}),
    lambda: Model(["a"], [], [0], {}, 5, {}),
    lambda: Model(["a"], [], [0], {}, {0: ox.epsilon()}, 5),
    lambda: dp.DpdlModel([0], 5, {0: set()}),
    lambda: dp.DpdlModel([0], {}, 5),
    lambda: bt.Bubble([0], 5),
    lambda: bt.Bubble([0], {}, 5),
    lambda: bt.Bts(sx.prop("p"), [bt.Bubble([0], {})], 5),
    lambda: bt.is_hintikka(5, {sx.prop("p")}),
    lambda: bt.is_bubble("x", {sx.prop("p")}),
    lambda: bt.is_a_successor(bt.Bubble([0], {}), "x", "a", {sx.prop("p")}),
    lambda: bt.is_a_successor("x", bt.Bubble([0], {}), "a", {sx.prop("p")}),
], ids=["empty-alphabet", "duplicate-symbol", "reserved-prop", "empty-atom",
        "stateless-dpdl-model", "duplicate-state", "empty-expectation",
        "overlapping-blocks", "missing-initial-bubble", "non-string-symbol",
        "non-string-prop", "empty-prop", "operator-atom", "spaced-agent",
        "non-string-agent", "string-negand", "program-negand",
        "string-disjunct", "none-conjunct", "string-hat-body",
        "int-know-body", "string-program", "string-box-body",
        "string-dpdl-disjunct", "string-dpdl-conjuncts",
        "lone-string-disjunct", "int-formula-text", "int-dpdl-text",
        "int-regex-text", "int-word-text", "int-budget", "bool-labels",
        "string-expectation", "string-pool-entry", "string-props",
        "int-props", "int-block", "int-relation", "str-alphabet",
        "str-dpdl-alphabet", "int-dpdl-alphabet", "str-dpdl-valuation",
        "int-dpdl-valuation", "str-dpdl-states", "int-dpdl-states",
        "int-dpdl-transition-key", "str-dpdl-transition-key",
        "str-states", "int-states", "str-agents", "int-agents",
        "str-bubble-states", "int-bubble-states", "str-bubble-label",
        "int-bubble-label", "str-word", "int-word",
        "float-initial-bubble", "str-initial-bubble", "bool-initial-bubble",
        "bool-source-bubble", "bool-target-bubble",
        "str-hintikka-closure-member", "str-bubble-closure-member",
        "str-successor-closure-member", "str-bubble-of-bts",
        "int-bts-transition-key", "int-props-map", "int-expectations",
        "int-relations", "int-dpdl-transitions", "int-dpdl-valuations",
        "int-bubble-labels", "int-bubble-relations", "int-bts-delta",
        "int-hintikka-label", "str-bubble", "str-successor-bubble",
        "str-predecessor-bubble"])
def test_construction_errors_are_pol_errors(build):
    # errors.py promises that every deliberate error is a PolError; a
    # bad constructor argument is also a ValueError
    with pytest.raises(PolError) as raised:
        build()
    assert isinstance(raised.value, ValueError)


def test_mappings_may_be_given_as_pairs():
    # the rule that refuses a non-mapping reads pairs as ``dict`` does
    p = sx.prop("p")
    b = bt.Bubble([0], [(0, {p})], [("i", [[0]])])
    assert b.labels == {0: frozenset({p})}
    t = bt.Bts(p, [b], [((0, "a"), 0)])
    assert bt.is_bts(t) is True
    m = Model(["a"], ["i"], [0], [(0, {"p"})], [(0, ox.epsilon())],
              [("i", [[0]])])
    assert m.check(0, p)
    d = dp.DpdlModel([0], [((0, "a"), 0)], [(0, {"p"})])
    assert dp.dpdl_check(d, 0, dp.atom("p"))


def test_exported_names_resolve():
    # a name deleted from a module must leave its ``__all__`` too
    missing = []
    for path in sorted(SOURCE.rglob("*.py")):
        parts = path.relative_to(SOURCE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        missing += [f"{module.__name__}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing
