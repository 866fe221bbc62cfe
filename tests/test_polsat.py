"""Satisfiability of observation logic: the bubble encoding, and
``pol_sat`` at the full budget against the bounded model search
``pol_bounded_sat``."""

import itertools
import random

import pytest

from oracles import AllPairsTranslation, label_mismatches
from polkit import bts as bt
from polkit import corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.dpdl import solver as dps
from polkit.errors import BudgetInvalid, InvalidInput, UnknownState

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

    @pytest.mark.parametrize("text", ["~<0*>true", "[0*]false"])
    def test_state_expecting_nothing(self, text):
        # every state survives the empty word, so both are unsatisfiable
        phi = sx.parse_formula(text)
        assert isinstance(dp.pol_sat(phi), dp.Unsat)
        pool = (ox.empty(), ox.epsilon(), ox.atom("a"))
        found = dp.pol_bounded_sat(phi, 2, pool=pool)
        assert not isinstance(found, dp.Sat)

    def test_exhaustive_budget_above_the_slot_cap(self):
        # 2^34 slots cannot be built; pol_sat answers before trying, and
        # Translation refuses such a budget before building any slot
        phi = sx.parse_formula("<a;b;a;b>p & <b*>q & hK_i <a*;b>p")
        assert len(sx.fl_closure(phi)) == 34
        verdict = dp.pol_sat(phi)
        assert verdict == dp.Unknown(f"the exhaustive budget of {2 ** 34} "
                                     f"labels exceeds the slot cap 4096")
        for budget in (None, dp.LabelBudget(2 ** 12 + 1)):
            with pytest.raises(BudgetInvalid,
                               match="exceeds the slot cap 4096"):
                dp.Translation(phi, budget)
        assert isinstance(dp.pol_sat(phi, dp.LabelBudget(1)), dp.Sat)


class TestOneGuard:
    """``Model.check`` of the source formula is the one guard of a
    ``Sat``: ``pol_sat`` does not check the solver's witness."""

    def test_witness_is_not_checked(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pol_sat checked a DPDL witness")

        monkeypatch.setattr("polkit.dpdl.core.dpdl_check", refuse)
        sats = [(f, v) for f in small_formulas()
                for v in [dp.pol_sat(f)] if isinstance(v, dp.Sat)]
        assert sats, "the sample should reach at least one Sat"
        for f, verdict in sats:
            assert verdict.model.check(verdict.state, f)

    @pytest.mark.parametrize("text", ["<a>p", "<a;b;a>p", "<(a;b)*>p&~p"])
    def test_automaton_cap_ends_in_unknown(self, monkeypatch, text):
        # with no witness check on the route, the cap is hit in the
        # extraction or the final check, and still ends in an Unknown;
        # each formula's walks must derive its program
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 1)
        verdict = dp.pol_sat(sx.parse_formula(text), dp.LabelBudget(1))
        assert verdict == dp.Unknown("a walk meets more than 1 derivatives")

    def test_a_walk_that_stops_at_its_start_derives_nothing(self,
                                                            monkeypatch):
        monkeypatch.setattr(ox, "_MAX_DERIVATIVES", 1)
        verdict = dp.pol_sat(sx.parse_formula("<(a;b)*>p"), dp.LabelBudget(1))
        assert isinstance(verdict, dp.Sat)


def is_equivalence(rel, labels):
    return (all((x, x) in rel for x in labels)
            and all((y, x) in rel for x, y in rel)
            and all((x, z) in rel
                    for x, y in rel for y2, z in rel if y == y2))


class TestDecodedStructures:
    def test_labels_hold_at_two_labels(self):
        # the route of pol_sat, with the labels of the decoded structure
        # checked against the extracted model along its transitions
        rng = random.Random(3)
        structures = checked = 0
        for _ in range(150):
            phi = corpus.random_formula(rng, ("a", "b"), ("i", "j"),
                                        ("p", "q"), depth=3)
            if len(sx.fl_closure(phi)) > 10:
                continue
            t = dp.Translation(phi, dp.LabelBudget(2))
            outcome = dp.dpdl_sat(t.formula)
            if not isinstance(outcome, dp.Sat):
                continue
            structure = dp.decode_bts(t, outcome.model, outcome.state)
            model, s0 = bt.extract_model(structure)
            assert model.check(s0, phi)
            failures, n = label_mismatches(structure, model)
            assert not failures, (sx.print_formula(phi), failures[:3])
            structures += 1
            checked += n
        assert structures >= 50 and checked > 500

    @pytest.mark.parametrize("labels", [2, 3])
    def test_all_pairs_witnesses_decode(self, labels):
        # the route above on a second encoding, which spells every
        # relation as one atom per slot pair; each decoded slot fact is
        # also read by dpdl_check, an independent reader of the same
        # formulas, at the witness state that the bubble comes from
        rng = random.Random(25)
        structures = facts = 0
        for _ in range(400):
            phi = corpus.random_formula(rng, ("a", "b"), ("i", "j"),
                                        ("p", "q"), depth=3)
            cap = 2 ** len(sx.fl_closure(phi))
            if cap > 2 ** 8 or cap < labels:
                continue
            t = AllPairsTranslation(phi, dp.LabelBudget(labels,
                                                        full=labels == cap))
            outcome = dp.dpdl_sat(t.formula)
            if not isinstance(outcome, dp.Sat):
                continue
            witness = outcome.model
            structure = dp.decode_bts(t, witness, outcome.state)
            # the bubbles and the witness states they come from, walked
            # along the transitions of both
            pairs = {structure.initial: outcome.state}
            queue = [structure.initial]
            for k in queue:  # the queue grows while it is read
                for a in t.alphabet:
                    nxt = structure.delta.get((k, a))
                    if nxt is not None and nxt not in pairs:
                        pairs[nxt] = witness.trans[(pairs[k], a)]
                        queue.append(nxt)
            assert len(pairs) == len(structure.bubbles)
            for k, w in pairs.items():
                bubble = structure.bubbles[k]

                def holds(f):
                    return dp.dpdl_check(witness, w, f)

                live = [ell for ell in t.labels if holds(t.surv(ell))]
                assert list(bubble.states) == live
                for ell in live:
                    assert bubble.labels[ell] == {
                        psi for psi in t.fl if holds(t.at(ell, psi))}
                    for agent in t.agents:
                        assert bubble.block(agent, ell) == {
                            m for m in live if holds(t.rel(agent, ell, m))}
                facts += len(live) * (len(t.fl) + len(t.agents))
            model, s0 = bt.extract_model(structure)
            assert model.check(s0, phi)
            failures, _ = label_mismatches(structure, model)
            assert not failures, (sx.print_formula(phi), failures[:3])
            structures += 1
        assert structures >= 200 and facts > 2500


class TestIntervalClasses:
    def test_same_verdicts_as_all_pairs(self):
        # interval classes for the first agent lose no model, so the
        # verdict kind matches the encoding with a pair atom per slot
        # pair and transitivity for every agent; the first formula needs
        # a class of three slots
        formulas = [sx.parse_formula(text) for text in (
            "hK_i (p&~q) & hK_i (q&~p) & ~p & ~q",
            "K_i ~p & hK_j (p & hK_i q) & ~q")]
        rng = random.Random(9)
        while len(formulas) < 110:
            phi = corpus.random_formula(rng, ("a", "b"), ("i", "j"),
                                        ("p", "q"), depth=3)
            if sx.agents(phi) and len(sx.fl_closure(phi)) <= 8:
                formulas.append(phi)
        for phi in formulas:
            cap = 2 ** len(sx.fl_closure(phi))
            for labels in (3, 4):
                budget = dp.LabelBudget(labels, full=labels == cap)
                reference = dp.dpdl_sat(AllPairsTranslation(phi, budget)
                                        .formula)
                if isinstance(reference, dp.Unsat) and not budget.full:
                    reference = dp.Unknown("no model within the budget")
                verdict = dp.pol_sat(phi, budget)
                assert type(verdict) is type(reference), (
                    sx.print_formula(phi), labels, verdict, reference)
        assert sum(len(sx.agents(phi)) == 2 for phi in formulas) >= 10

    def test_dead_slot_between_linked_slots(self):
        t = dp.Translation(sx.parse_formula("K_i q & hK_j p"),
                           dp.LabelBudget(3))
        v = {"surv(1)", "surv(3)", "R_i(1,2)", "R_i(2,3)"}
        structure = dp.decode_bts(t, dp.DpdlModel([0], {}, {0: v}), 0)
        bubble = structure.bubbles[0]
        assert bubble.states == (1, 3)
        assert bubble.block("i", 1) == frozenset({1, 3})
        assert bubble.block("j", 1) == frozenset({1})

    def test_transitivity_break_is_refused(self):
        # the frame laws make R_j transitive in every witness, so the
        # classes are read, not closed: a valuation that breaks
        # transitivity gives overlapping classes
        t = dp.Translation(sx.parse_formula("hK_i p & K_j q"),
                           dp.LabelBudget(3))
        v = {"surv(1)", "surv(2)", "surv(3)", "R_j(1,2)", "R_j(2,3)"}
        with pytest.raises(InvalidInput):
            dp.decode_bts(t, dp.DpdlModel([0], {}, {0: v}), 0)

    def test_unknown_start_state_is_refused(self):
        t = dp.Translation(sx.parse_formula("hK_i p"), dp.LabelBudget(2))
        model = dp.DpdlModel([0], {}, {0: {"surv(1)"}})
        with pytest.raises(UnknownState):
            dp.decode_bts(t, model, 7)


class TestEncoding:
    def test_every_bubble_has_a_successor_for_every_letter(self):
        # the successor-existence law of the invariant; without it the
        # witness of [a]true has no a-step at all
        t = dp.Translation(sx.parse_formula("[a]true"), dp.LabelBudget(2))
        verdict = dp.dpdl_sat(t.formula)
        assert isinstance(verdict, dp.Sat)
        assert (verdict.state, "a") in verdict.model.trans

    @pytest.mark.parametrize("labels", [3, 4])
    def test_links_give_interval_classes(self, labels):
        # the first agent: every valuation of its links is an
        # equivalence whose classes are runs of linked neighbours
        t = dp.Translation(sx.parse_formula("K_i q & hK_j p"),
                           dp.LabelBudget(labels))
        links = [t.rel("i", x, x + 1) for x in t.labels[:-1]]
        for mask in range(2 ** len(links)):
            model = dp.DpdlModel([0], {}, {0: {
                g.name for k, g in enumerate(links) if mask >> k & 1}})
            rel = {(x, y) for x in t.labels for y in t.labels
                   if dp.dpdl_check(model, 0, t.rel("i", x, y))}
            assert is_equivalence(rel, t.labels), sorted(rel)
            assert rel == {(x, y) for x in t.labels for y in t.labels
                           if all(mask >> (k - 1) & 1
                                  for k in range(min(x, y), max(x, y)))}

    @pytest.mark.parametrize("labels, classes", [(3, 5), (4, 15)])
    def test_frame_laws_define_the_equivalences(self, labels, classes):
        # the second agent: the laws hold exactly on its equivalences
        t = dp.Translation(sx.parse_formula("K_i q & hK_j p"),
                           dp.LabelBudget(labels))
        laws = dp.land(*t._frame_laws())
        assert not any(isinstance(g, dp.Atom) and g.name.startswith("R_i(")
                       for g in sx.closure(laws))
        pairs = list(itertools.combinations(t.labels, 2))
        accepted = 0
        for mask in range(2 ** len(pairs)):
            model = dp.DpdlModel([0], {}, {0: {
                t.rel("j", x, y).name
                for k, (x, y) in enumerate(pairs) if mask >> k & 1}})
            rel = {(x, y) for x in t.labels for y in t.labels
                   if dp.dpdl_check(model, 0, t.rel("j", x, y))}
            holds = dp.dpdl_check(model, 0, laws)
            assert holds == is_equivalence(rel, t.labels), sorted(rel)
            accepted += holds
        assert accepted == classes

    @pytest.mark.parametrize("labels", [3, 4])
    def test_adjacency_atoms_per_agent(self, labels):
        t = dp.Translation(sx.parse_formula("K_i q & hK_j p"),
                           dp.LabelBudget(labels))
        names = {g.name for g in sx.closure(t.formula)
                 if isinstance(g, dp.Atom)}
        for i in t.agents:
            for x in t.labels:
                assert t.rel(i, x, x) is dp.top()
                assert f"R_{i}({x},{x})" not in names
                for y in t.labels:
                    assert t.rel(i, x, y) is t.rel(i, y, x)
        assert {n for n in names if n.startswith("R_i(")} == {
            f"R_i({x},{x + 1})" for x in t.labels[:-1]}
        assert {n for n in names if n.startswith("R_j(")} == {
            t.rel("j", x, y).name
            for x, y in itertools.combinations(t.labels, 2)}
        assert len([n for n in names if n.startswith("R_j(")]) == (
            labels * (labels - 1) // 2)

    @pytest.mark.parametrize("labels", [1, 2, 3, 4, 5])
    def test_chains_are_the_pairwise_clause(self, labels):
        # the first agent's members are pinned by chains over its links;
        # under every valuation of the atoms they read (a seeded sample
        # of 2,000 at five slots), they agree at every slot with the
        # clause over every slot pair, built here from ``rel``
        t = dp.Translation(sx.parse_formula("hK_i p & K_i q"),
                           dp.LabelBudget(labels))
        for psi in (sx.parse_formula("hK_i p"), sx.parse_formula("K_i q")):
            hat = isinstance(psi, sx.Hat)
            chains = t._chains(psi)
            pairwise = [
                dp.lor(*[dp.land(t.rel("i", ell, m), t.surv(m),
                                 t.at(m, psi.arg)) for m in t.labels])
                if hat else
                dp.land(*[dp.lor(sx.lnot(t.rel("i", ell, m)),
                                 sx.lnot(t.surv(m)), t.at(m, psi.arg))
                          for m in t.labels])
                for ell in t.labels]
            agree = dp.land(*[dp.iff(c, p) for c, p in zip(chains, pairwise)])
            atoms = ([t.rel("i", x, x + 1).name for x in t.labels[:-1]]
                     + [g.name for m in t.labels
                        for g in (t.surv(m), t.at(m, psi.arg))])
            masks = range(2 ** len(atoms))
            if labels == 5:
                masks = random.Random(26).sample(masks, 2000)
            for mask in masks:
                v = {a for k, a in enumerate(atoms) if mask >> k & 1}
                model = dp.DpdlModel([0], {}, {0: v})
                assert dp.dpdl_check(model, 0, agree), (
                    sx.print_formula(psi), sorted(v))

    def test_one_agent_encoding_grows_linearly(self):
        # each doubling of the slots at most about doubles the closure;
        # with a pair clause per slot pair it tripled and more
        phi = sx.parse_formula("hK_i p & K_i q")
        sizes = [len(sx.closure(dp.Translation(phi, dp.LabelBudget(n))
                                .formula)) for n in (16, 32, 64)]
        assert sizes[1] <= 2.05 * sizes[0] and sizes[2] <= 2.05 * sizes[1], (
            sizes)

    def test_all_pairs_oracle_reads_every_pair(self):
        # the reference encoding keeps a pair atom for the first agent
        # and reads it in its clauses, where this one has only links
        phi = sx.parse_formula("hK_i p & K_i q")
        far = dp.atom("R_i(1,3)")
        reference = AllPairsTranslation(phi, dp.LabelBudget(3))
        assert reference.rel("i", 1, 3) is far
        assert far in sx.closure(reference.formula)
        t = dp.Translation(phi, dp.LabelBudget(3))
        assert far not in sx.closure(t.formula)
        assert t.rel("i", 1, 3) is dp.land(t.rel("i", 1, 2),
                                           t.rel("i", 2, 3))

    def test_full_budget_encoding_size(self):
        t = dp.Translation(sx.parse_formula("K_i q"))
        assert t.budget.labels == 16
        assert len(sx.closure(t.formula)) <= 950
        t = dp.Translation(sx.parse_formula("hK_i true"))
        assert len(sx.closure(t.formula)) <= 560
        t = dp.Translation(sx.parse_formula("hK_i p & K_j q"),
                           dp.LabelBudget(2))
        assert len(sx.closure(t.formula)) <= 110
        t = dp.Translation(sx.parse_formula("<a>~q"))
        assert len(sx.closure(t.formula)) <= 380
        for text in ("K_i q", "~K_i q", "hK_i true"):
            assert isinstance(dp.pol_sat(sx.parse_formula(text)), dp.Sat)

    def test_atoms_only_for_propositions_and_modal_members(self):
        phi = sx.parse_formula("~(hK_i p | <a>~q) & [a*](K_j true | ~q)")
        t = dp.Translation(phi, dp.LabelBudget(2))
        names = {g.name for g in sx.closure(t.formula)
                 if isinstance(g, dp.Atom)}
        owned = set()
        for psi in t.fl:
            kept = (isinstance(psi, (sx.Prop, sx.Dia, sx.Box, sx.Hat,
                                     sx.Know))
                    or isinstance(psi, sx.Not)
                    and isinstance(psi.arg, sx.Prop))
            for ell in t.labels:
                a = t.at(ell, psi)
                assert isinstance(a, dp.Atom) == kept, sx.print_formula(psi)
                if kept:
                    assert a.name == f"@{ell}.{sx.print_formula(psi)}"
                    owned.add(a.name)
        assert {n for n in names if n.startswith("@")} == owned
        a_not_q = sx.parse_formula("<a>~q")
        for ell in t.labels:
            assert t.at(ell, sx.top()) is sx.top()
            assert t.at(ell, sx.lnot(a_not_q)) is sx.lnot(t.at(ell, a_not_q))
            assert t.at(ell, sx.parse_formula("K_j true | ~q")) is dp.lor(
                t.at(ell, sx.parse_formula("K_j true")),
                t.at(ell, sx.parse_formula("~q")))

    @pytest.mark.parametrize("text", [
        # Sat through the kept @l.~p atoms: with one atom per
        # proposition, the lazy regime leaves their eventualities
        # undischarged
        "<b;b*>hK_i p", "<b;a><(b;a)*>hK_j q",
        # Unknown ("eventualities left undischarged") while true,
        # junctions and negations had atoms of their own
        "[(a;b)*]true", "hK_j <b*>[a*]true", "[b]~[(a;b)*]true",
    ])
    def test_sat_at_two_labels(self, text):
        verdict = dp.pol_sat(sx.parse_formula(text), dp.LabelBudget(2))
        assert isinstance(verdict, dp.Sat), verdict

    @pytest.mark.parametrize("text, labels", [
        ("<a*>(<0>p&hK_j p)", 1), ("~[a+a*]hK_j true", 1),
        ("<a*>(<0>p&q)", 1), ("<a*>(<0>p&q)", 2),
    ])
    def test_lazy_run_refutes_through_the_invariant(self, monkeypatch, text,
                                                    labels):
        # the [Σ*] invariant is a unit of the solver's database, so its
        # consequences, such as @l.<0>p being false, sit on level 0;
        # without that the lazy run left eventualities undischarged, and
        # the exact regime took 29 s and 2.2 s on the first two
        def refuse(*args):
            raise AssertionError("the exact regime ran")

        monkeypatch.setattr(dps, "_Exact", refuse)
        verdict = dp.pol_sat(sx.parse_formula(text), dp.LabelBudget(labels))
        assert verdict == dp.Unknown(f"no model within {labels} labels")

    def test_one_label_sat_in_the_exact_regime(self, monkeypatch):
        # the lazy run leaves it undecided, and the exact regime keeps
        # only the frontier assignments that the invariant admits: 44
        # of 8,192, where 7,680 survived without it and the run took
        # seconds
        atoms = []
        run = dps._Exact.run

        def counting(exact):
            atoms.append(len(exact.atoms))
            return run(exact)

        monkeypatch.setattr(dps._Exact, "run", counting)
        verdict = dp.pol_sat(sx.parse_formula("~[b;b*]p"), dp.LabelBudget(1))
        assert isinstance(verdict, dp.Sat)
        assert len(atoms) == 1 and atoms[0] <= 64

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

    @pytest.mark.parametrize("max_states", ["x", True, 0, -1])
    def test_invalid_state_bounds(self, max_states):
        with pytest.raises(InvalidInput, match="must be a positive integer"):
            dp.pol_bounded_sat(sx.parse_formula("p"), max_states)
