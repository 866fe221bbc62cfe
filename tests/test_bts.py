"""Bubble structure validation and model extraction."""

import itertools
import random

import pytest

import polkit.bts as bt
import polkit.corpus as cx
import polkit.obsregex as ox
import polkit.syntax as sx
from polkit.errors import NotABts, UnknownSymbol

from oracles import (hintikka_by_masks, label_mismatches,
                     language_equivalent, member)


def closure(text):
    return sx.fl_closure(sx.parse_formula(text))


def pieces():
    a = ox.atom("a")
    p, q = sx.prop("p"), sx.prop("q")
    pq = sx.lor(p, q)
    d = sx.dia(a, pq)
    always = sx.box(ox.star(a), d)
    return a, p, q, pq, d, always


def brute_hintikka(fl):
    members = sorted(fl, key=sx.print_formula)
    out = set()
    for n in range(len(members) + 1):
        for combo in itertools.combinations(members, n):
            h = frozenset(combo)
            if bt.is_hintikka(h, fl) is True:
                out.add(h)
    return out


class TestHintikka:
    def test_knowledge_example_label(self):
        a, p, q, pq, d, always = pieces()
        both = sx.land(d, always)
        phi = sx.know("i", both)
        unrolled = sx.box(a, always)
        fl = sx.fl_closure(phi)
        shown = {phi, both, d, always, unrolled}
        completed = shown | {sx.lnot(pq), sx.lnot(p), sx.lnot(q)}
        assert bt.is_hintikka(frozenset(completed), fl) is True
        # the five formulas alone leave p|q undecided
        v = bt.is_hintikka(frozenset(shown), fl)
        assert v is not True and v.condition == "1"

    def test_direct_clash(self):
        p = sx.prop("p")
        fl = sx.fl_closure(p)
        v = bt.is_hintikka({p, sx.lnot(p)}, fl)
        assert v is not True and v.condition == "1"

    def test_conjunction_both_ways(self):
        fl = closure("p&q")
        p, q = sx.prop("p"), sx.prop("q")
        c = sx.land(p, q)
        v = bt.is_hintikka({c, p, sx.lnot(q)}, fl)
        assert v.condition == "1"
        v = bt.is_hintikka({sx.lnot(c), p, q}, fl)
        assert v.condition == "1"

    def test_disjunction_both_ways(self):
        fl = closure("p|q")
        p, q = sx.prop("p"), sx.prop("q")
        c = sx.lor(p, q)
        v = bt.is_hintikka({c, sx.lnot(p), sx.lnot(q)}, fl)
        assert v.condition == "1"
        v = bt.is_hintikka({sx.lnot(c), p, sx.lnot(q)}, fl)
        assert v.condition == "1"

    def test_knowledge_needs_truth(self):
        fl = closure("K_i p")
        v = bt.is_hintikka({sx.know("i", sx.prop("p")),
                            sx.lnot(sx.prop("p"))}, fl)
        assert v.condition == "2"

    def test_truth_needs_possibility(self):
        fl = closure("~hK_i p & p")
        hp, p = sx.parse_formula("hK_i p"), sx.prop("p")
        v = bt.is_hintikka({sx.parse_formula("~hK_i p & p"),
                            sx.lnot(hp), p}, fl)
        assert v.condition == "2"
        v = bt.is_hintikka({sx.lnot(sx.parse_formula("~hK_i p & p")),
                            hp, p}, fl)
        assert v is True

    def test_sum_diamond_needs_branch(self):
        fl = closure("<a+b>p")
        f = sx.parse_formula("<a+b>p")
        p = sx.prop("p")
        h = {f, sx.lnot(sx.parse_formula("<a>p")),
             sx.lnot(sx.parse_formula("<b>p")), p}
        v = bt.is_hintikka(h, fl)
        assert v.condition == "1"
        converse = {sx.lnot(f), sx.parse_formula("<a>p"),
                    sx.lnot(sx.parse_formula("<b>p")), p}
        v = bt.is_hintikka(converse, fl)
        assert v.condition == "1"

    def test_concat_diamond_unrolls(self):
        fl = closure("<a;b>p")
        h = {sx.parse_formula("<a;b>p"),
             sx.lnot(sx.parse_formula("<a><b>p")),
             sx.parse_formula("<b>p"), sx.prop("p")}
        v = bt.is_hintikka(h, fl)
        assert v.condition == "1"
        converse = {sx.lnot(sx.parse_formula("<a;b>p")),
                    sx.parse_formula("<a><b>p"),
                    sx.parse_formula("<b>p"), sx.prop("p")}
        v = bt.is_hintikka(converse, fl)
        assert v.condition == "1"

    def test_star_diamond_stops_or_unrolls(self):
        fl = closure("<a*>p")
        star = sx.parse_formula("<a*>p")
        unroll = sx.dia(ox.atom("a"), star)
        p = sx.prop("p")
        assert bt.is_hintikka({star, sx.lnot(p), unroll}, fl) is True
        assert bt.is_hintikka({star, p, sx.lnot(unroll)}, fl) is True
        v = bt.is_hintikka({star, sx.lnot(p), sx.lnot(unroll)}, fl)
        assert v.condition == "1"
        v = bt.is_hintikka({sx.lnot(star), p, sx.lnot(unroll)}, fl)
        assert v.condition == "1"

    def test_sum_box_needs_all(self):
        fl = closure("[a+b]p")
        h = {sx.parse_formula("[a+b]p"), sx.parse_formula("[a]p"),
             sx.lnot(sx.parse_formula("[b]p")), sx.prop("p")}
        v = bt.is_hintikka(h, fl)
        assert v.condition == "1"
        converse = {sx.lnot(sx.parse_formula("[a+b]p")),
                    sx.parse_formula("[a]p"), sx.parse_formula("[b]p"),
                    sx.prop("p")}
        v = bt.is_hintikka(converse, fl)
        assert v.condition == "1"

    def test_concat_box_unrolls(self):
        fl = closure("[a;b]p")
        h = {sx.parse_formula("[a;b]p"),
             sx.lnot(sx.parse_formula("[a][b]p")),
             sx.parse_formula("[b]p"), sx.prop("p")}
        v = bt.is_hintikka(h, fl)
        assert v.condition == "1"
        converse = {sx.lnot(sx.parse_formula("[a;b]p")),
                    sx.parse_formula("[a][b]p"),
                    sx.parse_formula("[b]p"), sx.prop("p")}
        v = bt.is_hintikka(converse, fl)
        assert v.condition == "1"

    def test_star_box_needs_argument(self):
        fl = closure("[a*]p")
        h = {sx.parse_formula("[a*]p"), sx.lnot(sx.prop("p")),
             sx.parse_formula("[a][a*]p")}
        v = bt.is_hintikka(h, fl)
        assert v.condition == "1"
        converse = {sx.lnot(sx.parse_formula("[a*]p")), sx.prop("p"),
                    sx.parse_formula("[a][a*]p")}
        v = bt.is_hintikka(converse, fl)
        assert v.condition == "1"

    def test_empty_word_modalities(self):
        fl = closure("<0*>p")
        v = bt.is_hintikka({sx.parse_formula("<0*>p"),
                            sx.lnot(sx.prop("p"))}, fl)
        assert v.condition == "1"
        v = bt.is_hintikka({sx.lnot(sx.parse_formula("<0*>p")),
                            sx.prop("p")}, fl)
        assert v.condition == "1"
        fl = closure("[0*]p")
        v = bt.is_hintikka({sx.parse_formula("[0*]p"),
                            sx.lnot(sx.prop("p"))}, fl)
        assert v.condition == "1"
        v = bt.is_hintikka({sx.lnot(sx.parse_formula("[0*]p")),
                            sx.prop("p")}, fl)
        assert v.condition == "1"

    def test_truth_constant_required(self):
        fl = closure("false")
        v = bt.is_hintikka({sx.lnot(sx.top())}, fl)
        assert v.condition == "1"
        assert bt.is_hintikka({sx.top()}, fl) is True

    def test_foreign_formula(self):
        fl = sx.fl_closure(sx.prop("p"))
        v = bt.is_hintikka({sx.prop("zz")}, fl)
        assert v.condition == "membership"

    def test_member_that_is_no_formula(self):
        # the name of a proposition is not the proposition
        p = sx.prop("p")
        fl = sx.fl_closure(p)
        for h in ({"p"}, {"p", p}, {"p", sx.prop("zz")}, {5, None}):
            v = bt.is_hintikka(h, fl)
            assert v.condition == "membership"
            assert "is not a formula" in v.detail
        v = bt.is_bubble(bt.Bubble((0,), {0: {"p"}}), fl)
        assert v.condition == "2" and "'p' is not a formula" in v.detail

    def test_enumerate_single_proposition(self):
        p = sx.prop("p")
        fl = sx.fl_closure(p)
        sets = hintikka_by_masks(fl)
        assert sets == [frozenset({sx.lnot(p)}), frozenset({p})]

    def test_enumerate_disjunction(self):
        fl = closure("p|q")
        pq = sx.parse_formula("p|q")
        sets = hintikka_by_masks(fl)
        assert len(sets) == 4
        assert sum(pq in h for h in sets) == 3
        assert sum(sx.lnot(pq) in h for h in sets) == 1

    @pytest.mark.parametrize("text", [
        "p", "p|q", "p&q", "<a*>p", "K_i p & <a>q",
        "K_i(<a>p & [a*]<a>p)",
    ])
    def test_enumerate_matches_brute_force(self, text):
        fl = closure(text)
        assert len(fl) <= 12
        got = hintikka_by_masks(fl)
        assert len(set(got)) == len(got)
        assert set(got) == brute_hintikka(fl)

    @pytest.mark.parametrize("text, labels", [
        ("<a+b>p & [a;b]q", 64), ("<(a;b)*>p", 8),
        ("hK_i <a*;b>p & K_i q", 30),
    ])
    def test_enumerate_matches_masks(self, text, labels):
        # beyond brute force: up to 18 members, and one unfolding
        # (<a;b><(a;b)*>p) that comes after its member in closure order
        assert len(hintikka_by_masks(closure(text))) == labels


class TestBubble:
    def test_fixture_bubbles_validate(self):
        t = cx.two_bubble_bts()
        for b in t.bubbles:
            assert bt.is_bubble(b, t.fl) is True

    def test_possibility_needs_witness(self):
        t = cx.two_bubble_bts()
        start = t.bubbles[0]
        isolated = bt.Bubble(start.states, start.labels, {"i": []})
        v = bt.is_bubble(isolated, t.fl)
        assert v is not True and v.condition == "3a"

    def test_knowledge_uniform_in_class(self):
        fl = closure("K_i p")
        kp = sx.parse_formula("K_i p")
        p = sx.prop("p")
        b = bt.Bubble((0, 1), {0: {kp, p}, 1: {sx.lnot(kp), p}},
                      {"i": [(0, 1)]})
        v = bt.is_bubble(b, fl)
        assert v is not True and v.condition == "3a"
        # alone in its class, state 1 knows p
        split = bt.Bubble((0, 1), {0: {kp, p}, 1: {sx.lnot(kp), p}})
        v = bt.is_bubble(split, fl)
        assert v is not True and v.condition == "3a"
        split = bt.Bubble((0, 1), {0: {kp, p},
                                   1: {sx.lnot(kp), sx.lnot(p)}})
        assert bt.is_bubble(split, fl) is True
        joined = bt.Bubble(split.states, split.labels, {"i": [(0, 1)]})
        v = bt.is_bubble(joined, fl)
        assert v is not True and v.condition == "3b"

    def test_possibility_uniform_in_class(self):
        fl = closure("hK_i p")
        hp, p = sx.parse_formula("hK_i p"), sx.prop("p")
        labels = {0: {hp, p}, 1: {sx.lnot(hp), sx.lnot(p)}}
        assert bt.is_bubble(bt.Bubble((0, 1), labels), fl) is True
        v = bt.is_bubble(bt.Bubble((0, 1), labels, {"i": [(0, 1)]}), fl)
        assert v is not True and v.condition == "3b"

    def test_state_bound(self):
        p = sx.prop("p")
        fl = sx.fl_closure(p)
        b = bt.Bubble(range(5), {i: {p} for i in range(5)})
        v = bt.is_bubble(b, fl)
        assert v is not True and v.condition == "1"

    def test_bad_label_reported(self):
        p = sx.prop("p")
        fl = sx.fl_closure(p)
        b = bt.Bubble((0,), {0: {p, sx.lnot(p)}})
        v = bt.is_bubble(b, fl)
        assert v.condition == "2" and "condition 1" in v.detail

    def test_empty_bubble_is_fine(self):
        assert bt.is_bubble(bt.Bubble((), {}), closure("p")) is True


class TestASuccessor:
    def test_fixture_transitions(self):
        t = cx.two_bubble_bts()
        start, after = t.bubbles
        assert bt.is_a_successor(start, after, "a", t.fl) is True
        assert bt.is_a_successor(after, after, "a", t.fl) is True

    def test_new_state_rejected(self):
        t = cx.two_bubble_bts()
        after = t.bubbles[1]
        label = after.labels["t"]
        bigger = bt.Bubble(("t", "u"), {"t": label, "u": label})
        v = bt.is_a_successor(after, bigger, "a", t.fl)
        assert v is not True and v.condition == "1"

    def test_valuation_must_persist(self):
        t = cx.two_bubble_bts()
        start, after = t.bubbles
        p = sx.prop("p")
        flipped = bt.Bubble(("t",),
                            {"t": after.labels["t"] - {p} | {sx.lnot(p)}})
        v = bt.is_a_successor(start, flipped, "a", t.fl)
        assert v.condition == "1"

    def test_diamond_promise_enforced(self):
        t = cx.two_bubble_bts()
        start, after = t.bubbles
        pq = sx.parse_formula("p|q")
        broken = bt.Bubble(("t",),
                           {"t": after.labels["t"] - {pq} | {sx.lnot(pq)}})
        v = bt.is_a_successor(start, broken, "a", t.fl)
        assert v.condition == "2"

    def test_box_promise_enforced(self):
        t = cx.two_bubble_bts()
        start, after = t.bubbles
        always = sx.parse_formula("[a*]<a>(p|q)")
        broken = bt.Bubble(
            ("t",),
            {"t": after.labels["t"] - {always} | {sx.lnot(always)}})
        v = bt.is_a_successor(start, broken, "a", t.fl)
        assert v.condition == "3"

    def test_perfect_recall(self):
        fl = closure("p")
        p = sx.prop("p")
        before = bt.Bubble((0, 1), {0: {p}, 1: {p}}, {"i": [(0, 1)]})
        after = bt.Bubble((0, 1), {0: {p}, 1: {p}})
        v = bt.is_a_successor(before, after, "a", fl)
        assert v is not True and v.condition == "4"
        kept = bt.Bubble((0, 1), {0: {p}, 1: {p}}, {"i": [(0, 1)]})
        assert bt.is_a_successor(before, kept, "a", fl) is True


class TestBts:
    def test_fixture_validates(self):
        assert bt.is_bts(cx.two_bubble_bts()) is True

    def test_unfulfilled_diamond(self):
        t = cx.two_bubble_bts()
        stuck = bt.Bts(t.formula, t.bubbles, {(1, "a"): 1})
        v = bt.is_bts(stuck)
        assert v is not True and v.condition == "3"

    def test_explicit_dead_end(self):
        t = cx.two_bubble_bts()
        stuck = bt.Bts(t.formula, t.bubbles, {(0, "a"): 1, (1, "a"): None})
        v = bt.is_bts(stuck)
        assert v is not True and v.condition == "3"

    def test_no_bubbles(self):
        t = cx.two_bubble_bts()
        v = bt.is_bts(bt.Bts(t.formula, (), {}))
        assert v is not True and v.condition == "1"

    def test_initial_needs_the_formula(self):
        t = cx.two_bubble_bts()
        v = bt.is_bts(bt.Bts(t.formula, (t.bubbles[1],), {(0, "a"): 0}))
        assert v is not True and v.condition == "1"

    def test_transition_must_be_successor(self):
        t = cx.two_bubble_bts()
        looped = bt.Bts(t.formula, t.bubbles, {(0, "a"): 0, (1, "a"): 1})
        v = bt.is_bts(looped)
        assert v is not True and v.condition == "2"

    def test_constructor_rejects_bad_indices(self):
        t = cx.two_bubble_bts()
        with pytest.raises(ValueError):
            bt.Bts(t.formula, t.bubbles, {(5, "a"): 0})
        with pytest.raises(ValueError):
            bt.Bts(t.formula, t.bubbles, {(0, "a"): 7})
        with pytest.raises(ValueError):
            bt.Bts(t.formula, t.bubbles, {}, initial=9)

    def test_alphabet_without_letters(self):
        phi = sx.parse_formula("p")
        t = bt.Bts(phi, (bt.Bubble((0,), {0: {phi}}),), {})
        assert tuple(t.alphabet) == ("a",)
        assert bt.is_bts(t) is True

    def test_alphabet_checked(self):
        t = cx.two_bubble_bts()
        with pytest.raises(UnknownSymbol):
            bt.Bts(t.formula, t.bubbles, dict(t.delta), alphabet=("b",))


def star_free(rng, depth):
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice([ox.atom("a"), ox.atom("b"),
                           ox.epsilon(), ox.empty()])
    op = rng.choice([ox.alt, ox.seq])
    return op(star_free(rng, depth - 1), star_free(rng, depth - 1))


def brute_fulfilled(t, start, s, f, want, bound=4):
    for n in range(bound + 1):
        for w in itertools.product(tuple(t.alphabet), repeat=n):
            if not member(f.pi, w):
                continue
            cur, alive = start, True
            for a in w:
                cur = t.delta.get((cur, a))
                if cur is None or s not in t.bubbles[cur].labels:
                    alive = False
                    break
            if alive and (f.arg in t.bubbles[cur].labels[s]) == want:
                return True
    return False


class TestFulfillment:
    def test_matches_word_enumeration(self):
        rng = random.Random(7)
        p, q = sx.prop("p"), sx.prop("q")
        pools = [frozenset(), frozenset({p}), frozenset({q}),
                 frozenset({p, q})]
        checked = 0
        for _ in range(120):
            f = sx.dia(star_free(rng, 2), p)
            n = rng.randint(1, 3)
            bubbles = []
            for _ in range(n):
                states = tuple(range(rng.randint(0, 2)))
                bubbles.append(bt.Bubble(
                    states, {s: rng.choice(pools) for s in states}))
            delta = {}
            for i in range(n):
                for a in ("a", "b"):
                    j = rng.randrange(n + 1)
                    if j < n:
                        delta[(i, a)] = j
            t = bt.Bts(sx.lor(p, q), bubbles, delta, alphabet=("a", "b"))
            for i, b in enumerate(t.bubbles):
                for s in b.states:
                    for want in (True, False):
                        got = bt._fulfilled(t, i, s, f, want)
                        assert got == brute_fulfilled(t, i, s, f, want)
                        checked += 1
        assert checked > 100


class TestExtraction:
    def test_fixture_expectations(self):
        t = cx.two_bubble_bts()
        m, s0 = bt.extract_model(t)
        assert s0 == "s"
        assert language_equivalent(m.exp["s"], ox.epsilon(), t.alphabet)
        assert language_equivalent(m.exp["t"], ox.parse_regex("a;a*"),
                                   t.alphabet)
        assert m.check(s0, t.formula)

    def test_extraction_is_deterministic(self):
        m1, _ = bt.extract_model(cx.two_bubble_bts())
        m2, _ = bt.extract_model(cx.two_bubble_bts())
        assert ox.print_regex(m1.exp["t"]) == ox.print_regex(m2.exp["t"])

    def test_single_bubble(self):
        phi = sx.parse_formula("p&~q")
        p = sx.prop("p")
        label = frozenset({phi, p, sx.lnot(sx.prop("q"))})
        b = bt.Bubble(("u",), {"u": label})
        t = bt.Bts(phi, (b,), {}, alphabet=("a",))
        assert bt.is_bts(t) is True
        m, s0 = bt.extract_model(t)
        assert s0 == "u" and m.states == ("u",)
        assert language_equivalent(m.exp["u"], ox.epsilon(), m.alphabet)
        assert m.check("u", phi)

    def test_rejects_invalid_structure(self):
        t = cx.two_bubble_bts()
        with pytest.raises(NotABts):
            bt.extract_model(bt.Bts(t.formula, (), {}))

    def test_refuses_a_state_that_comes_back(self):
        # t dies on the first a and is back after the second; validation
        # refuses it, so extraction never reads an expectation for it
        p = sx.prop("p")
        both = bt.Bubble(("s", "t"), {"s": {p}, "t": {sx.lnot(p)}})
        alone = bt.Bubble(("s",), {"s": {p}})
        t = bt.Bts(p, (both, alone, both), {(0, "a"): 1, (1, "a"): 2})
        v = bt.is_bts(t)
        assert v is not True and v.condition == "2"
        with pytest.raises(NotABts, match="appears from nowhere"):
            bt.extract_model(t)

    def test_labels_hold_along_observations(self):
        t = cx.two_bubble_bts()
        m, _ = bt.extract_model(t)
        failures, checked = label_mismatches(t, m)
        assert not failures and checked > 0


def decided(fl, present):
    """The label over ``fl`` holding exactly the unnegated members in
    ``present``, given as text, and the negations of the others."""
    present = {sx.parse_formula(text) for text in present}

    def holds(f):
        return not holds(f.arg) if isinstance(f, sx.Not) else f in present

    return frozenset(f for f in fl if holds(f))


# Single-bubble structures for unsatisfiable formulas, each with its
# unnegated members and the letters that loop on the bubble. Every one
# of them reads a definition, a box or a knowledge operator one way only.
UNSOUND = [
    ("~<a+b>p & <a>p", ["~<a+b>p & <a>p", "<a>p", "p"], "a"),
    ("[a]p & [b]p & ~[a+b]p",
     ["[a]p & [b]p & ~[a+b]p", "[a]p & [b]p", "[a]p", "[b]p"], ""),
    ("~[a*]p & p", ["~[a*]p & p", "p"], "a"),
    ("~[a]p", [], ""),
    ("~hK_i p & p", ["~hK_i p & p", "p"], ""),
    ("~hK_i true", ["true"], ""),
]


def random_structures(rng, tries):
    """The structures among ``tries`` random ones that ``is_bts``
    accepts: labels from hintikka_by_masks, random bubbles of up to
    three states, relations and transitions."""
    labels = {}
    for _ in range(tries):
        phi = cx.random_formula(rng, depth=rng.randint(1, 3),
                                regex_depth=rng.randint(0, 2))
        fl = sx.fl_closure(phi)
        if len(fl) > 12:
            continue
        if fl not in labels:
            labels[fl] = hintikka_by_masks(fl)
        hs = labels[fl]
        initial = [h for h in hs if phi in h]
        if not initial:
            continue
        n = rng.randint(1, 3)
        bubbles = []
        for k in range(n):
            states = [s for s in range(3) if rng.random() < 0.6]
            if k == 0 and 0 not in states:
                states.insert(0, 0)
            label = {s: rng.choice(hs) for s in states}
            if k == 0:
                label[0] = rng.choice(initial)
            bubbles.append(bt.Bubble(
                states, label, {"i": cx.random_partition(rng, states)}))
        delta = {}
        for i in range(n):
            for a in ("a", "b"):
                j = rng.randrange(n + 1)
                if j < n:
                    delta[(i, a)] = j
        t = bt.Bts(phi, bubbles, delta, alphabet=("a", "b"))
        if bt.is_bts(t) is True:
            yield t


def own_eliminations(t):
    """Each initial state's expectation from a state elimination of its
    own, as ``extract_model`` documents it."""
    n = len(t.bubbles)
    delta = dict(t.delta)
    delta.update({(n, a): j for (i, a), j in t.delta.items()
                  if i == t.initial})
    exp = {}
    for s in t.bubbles[t.initial].states:
        finals = frozenset(i for i, b in enumerate(t.bubbles)
                           if s in b.labels)
        e = bt._graph_regex(n + 1, delta, n, finals)
        exp[s] = ox.epsilon() if ox.is_empty_language(e) else e
    return exp


class TestSharedElimination:
    def test_states_in_the_same_bubbles_share_an_expectation(self):
        # one elimination per set of bubbles gives every state the
        # expectation that an elimination of its own gives it
        shared = 0
        for t in random_structures(random.Random(40), 1500):
            m, _ = bt.extract_model(t)
            assert m.exp == own_eliminations(t)
            shared += len(set(map(id, m.exp.values()))) < len(m.exp)
        assert shared > 50


class TestSoundness:
    @pytest.mark.parametrize("text, present, loops", UNSOUND)
    def test_one_sided_structures_are_refused(self, text, present, loops):
        phi = sx.parse_formula(text)
        fl = sx.fl_closure(phi)
        label = decided(fl, present)
        assert phi in label
        t = bt.Bts(phi, (bt.Bubble((0,), {0: label}),),
                   {(0, a): 0 for a in loops}, alphabet=("a", "b"))
        assert not bt.is_bts(t)
        with pytest.raises(NotABts):
            bt.extract_model(t)

    def test_random_structures(self):
        # labels from hintikka_by_masks, random bubbles, relations and
        # transitions: every accepted structure is a certificate
        accepted = 0
        for t in random_structures(random.Random(5), 3000):
            phi = t.formula
            accepted += 1
            m, s0 = bt.extract_model(t)
            assert m.check(s0, phi), sx.print_formula(phi)
            failures, _ = label_mismatches(t, m)
            assert not failures, (sx.print_formula(phi), failures[:3])
        assert accepted > 500
