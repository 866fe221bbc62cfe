"""Satisfiability of observation logic: the bubble encoding, and
``pol_sat`` at the full budget against the bounded model search
``pol_bounded_sat``."""

import itertools
import random

import pytest

from polkit import corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.dpdl import solver as dps
from polkit.errors import BudgetInvalid

POOLS = {
    "with-empty": (ox.empty(), ox.epsilon(), ox.atom("a"),
                   ox.star(ox.atom("b"))),
    "without-empty": (ox.epsilon(), ox.atom("a"), ox.star(ox.atom("b"))),
}


def small_formulas(count=15, seed=4):
    """Distinct random formulas whose closure has at most four members,
    so the full budget stays at 16 labels."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = corpus.random_formula(rng, ("a", "b"), ("i",), ("p", "q"),
                                  depth=2)
        if len(sx.fl_closure(f)) <= 4 and f not in out:
            out.append(f)
    return out


class TestFullBudget:
    def test_unsat_has_no_small_model(self):
        unsat = [f for f in small_formulas()
                 if isinstance(dp.pol_sat(f), dp.Unsat)]
        assert unsat, "the sample should reach at least one Unsat"
        for f in unsat:
            for name, pool in POOLS.items():
                found = dp.pol_bounded_sat(f, 2, pool=pool)
                assert not isinstance(found, dp.Sat), (
                    f"{sx.print_formula(f)} with the {name} pool")

    @pytest.mark.xfail(strict=True,
                       reason="the encoding requires the root to survive, "
                              "but a state may expect nothing")
    def test_state_expecting_nothing(self):
        phi = sx.parse_formula("~<0*>true")
        found = dp.pol_bounded_sat(phi, 1, pool=(ox.empty(), ox.epsilon()))
        assert isinstance(found, dp.Sat)
        assert not isinstance(dp.pol_sat(phi), dp.Unsat)


def is_equivalence(rel, labels):
    return (all((x, x) in rel for x in labels)
            and all((y, x) in rel for x, y in rel)
            and all((x, z) in rel
                    for x, y in rel for y2, z in rel if y == y2))


class TestEncoding:
    @pytest.mark.parametrize("labels, classes", [(3, 5), (4, 15)])
    def test_frame_laws_define_the_equivalences(self, labels, classes):
        t = dp.Translation(sx.parse_formula("K_i q"), dp.LabelBudget(labels))
        laws = dp.land(*t._frame_laws())
        pairs = list(itertools.product(t.labels, repeat=2))
        accepted = 0
        for mask in range(2 ** len(pairs)):
            rel = {pair for k, pair in enumerate(pairs) if mask >> k & 1}
            model = dp.DpdlModel(
                [0], {}, {0: {t.rel("i", x, y).name for x, y in rel}})
            holds = dp.dpdl_check(model, 0, laws)
            assert holds == is_equivalence(rel, t.labels), sorted(rel)
            accepted += holds
        assert accepted == classes

    def test_full_budget_encoding_size(self):
        t = dp.Translation(sx.parse_formula("K_i q"))
        assert t.budget.labels == 16
        assert len(sx.closure(t.formula)) <= 5100
        for text in ("K_i q", "~K_i q", "hK_i true"):
            assert isinstance(dp.pol_sat(sx.parse_formula(text)), dp.Sat)

    @pytest.mark.parametrize("text, labels", [("true", 2), ("p", 1)])
    def test_small_translations_stay_lazy(self, monkeypatch, text, labels):
        # their closures have 13 and 11 frontier members, few enough
        # that enumerating every assignment once decided them
        def refuse(*args):
            raise AssertionError("the exact regime ran")

        monkeypatch.setattr(dps, "_Exact", refuse)
        verdict = dp.pol_sat(sx.parse_formula(text), dp.LabelBudget(labels))
        assert isinstance(verdict, dp.Sat)

    @pytest.mark.parametrize("budget, message", [
        (dp.LabelBudget(0), "must be a positive integer"),
        (dp.LabelBudget(17), "exceeds the 16 closure subsets"),
        (dp.LabelBudget(16), "has full=False"),
        (dp.LabelBudget(4, full=True), "has full=True"),
    ])
    def test_invalid_budgets(self, budget, message):
        with pytest.raises(BudgetInvalid, match=message):
            dp.Translation(sx.parse_formula("K_i q"), budget)
