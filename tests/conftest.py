import functools
import random

import pytest
from hypothesis import strategies as st

from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx


def obs_expr_strategy(symbols=("a", "b"), max_leaves=8):
    """Hypothesis strategy for normalized observation expressions."""
    leaf = st.one_of(
        st.just(ox.empty()),
        st.just(ox.epsilon()),
        st.sampled_from([ox.atom(s) for s in symbols]),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: ox.alt(*ps)),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: ox.seq(*ps)),
            inner.map(ox.star),
        ),
        max_leaves=max_leaves,
    )


def formula_strategy(symbols=("a", "b"), agent_names=("i", "j"),
                     prop_names=("p", "q"), max_leaves=6, regex_leaves=4):
    """Hypothesis strategy for formulas over a small vocabulary."""
    regex = obs_expr_strategy(symbols, max_leaves=regex_leaves)
    leaf = st.one_of(
        st.just(sx.top()),
        st.sampled_from([sx.prop(p) for p in prop_names]),
    )
    agent = st.sampled_from(agent_names)
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(sx.lnot),
            st.tuples(inner, inner).map(lambda t: sx.lor(*t)),
            st.tuples(inner, inner).map(lambda t: sx.land(*t)),
            st.tuples(agent, inner).map(lambda t: sx.hat(*t)),
            st.tuples(agent, inner).map(lambda t: sx.know(*t)),
            st.tuples(regex, inner).map(lambda t: sx.dia(*t)),
            st.tuples(regex, inner).map(lambda t: sx.box(*t)),
        ),
        max_leaves=max_leaves,
    )


def dpdl_formula_strategy(symbols=("a", "b"), prop_names=("p", "q"),
                          max_leaves=6, regex_leaves=3):
    """Hypothesis strategy for dynamic-logic formulas."""
    regex = obs_expr_strategy(symbols, max_leaves=regex_leaves)
    leaf = st.one_of(
        st.just(dp.top()),
        st.sampled_from([dp.atom(p) for p in prop_names]),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            inner.map(dp.lnot),
            st.tuples(inner, inner).map(lambda t: dp.lor(*t)),
            st.tuples(inner, inner).map(lambda t: dp.land(*t)),
            st.tuples(regex, inner).map(lambda t: dp.dia(*t)),
            st.tuples(regex, inner).map(lambda t: dp.box(*t)),
        ),
        max_leaves=max_leaves,
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture(autouse=True, scope="session")
def checked_sat_verdicts():
    """Every SAT verdict seen by any test must carry a valid witness.

    The solver entry points are wrapped for the whole run so that a SAT
    answer whose model the matching checker rejects fails immediately,
    no matter which test produced it.
    """
    from polkit.dpdl import oracle as dpo
    from polkit.dpdl import polsat as dpp
    from polkit.dpdl import solver as dps

    def wrap(fn, validate):
        @functools.wraps(fn)
        def inner(target, *args, **kwargs):
            verdict = fn(target, *args, **kwargs)
            if isinstance(verdict, dp.Sat):
                assert validate(target, verdict), (
                    "SAT verdict carries a witness its checker rejects")
            return verdict
        return inner

    def by_dpdl_check(f, verdict):
        return dp.dpdl_check(verdict.model, verdict.state, f)

    def by_model_check(phi, verdict):
        return verdict.model.check(verdict.state, phi)

    saved = []
    for mod, name, validate in (
        (dps, "dpdl_sat", by_dpdl_check),
        (dp, "dpdl_sat", by_dpdl_check),
        (dpo, "brute_dpdl_sat", by_dpdl_check),
        (dp, "brute_dpdl_sat", by_dpdl_check),
        (dpp, "pol_sat", by_model_check),
        (dp, "pol_sat", by_model_check),
        (dpo, "pol_bounded_sat", by_model_check),
        (dp, "pol_bounded_sat", by_model_check),
    ):
        fn = getattr(mod, name)
        saved.append((mod, name, fn))
        setattr(mod, name, wrap(fn, validate))
    yield
    for mod, name, fn in saved:
        setattr(mod, name, fn)
