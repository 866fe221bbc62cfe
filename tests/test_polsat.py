"""Satisfiability of observation logic: ``pol_sat`` at the full budget
against the bounded model search ``pol_bounded_sat``."""

import random

import pytest

from polkit import corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx

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
