"""The four workloads: seeded inputs, the timed operation, its traced
replay, and the correctness check of its outcome.

Every workload is a closed loop with one caller: an operation starts
when the previous one returns. Inputs come from ``polkit.corpus`` (and,
for ``dpdl``, from a generator over the vocabulary of the test suite's
``dpdl_formula_strategy``), seeded by a string so the stream does not
depend on ``PYTHONHASHSEED``.

An operation returns the library's result as is; ``outcome`` turns it,
after the clock has stopped, into an ``Outcome``: its kind (``sat``,
``unsat``, ``unknown``, ``done``), a canonical text that pins the result
down to the witness, and, when the correctness check needs it, a
payload. An operation that raises is recorded by the caller as kind
``error:<type>``.

Traced replays time each call into a library layer with ``Tracer`` and
count the work that layer did. Spans sit in this file only, around
public functions of one module each; nothing inside ``polkit`` is
instrumented.
"""

from __future__ import annotations

import collections
import hashlib
import inspect
import random
import time
from dataclasses import dataclass

from polkit import bts, corpus
from polkit import dpdl as dp
from polkit import obsregex as ox
from polkit import syntax as sx
from polkit.models import Model

AGENTS = ("i", "j")
PROPS = ("p", "q")
LETTERS = ("a", "b")

# check: models of tens of states over three letters with deep
# expectations, so residuation contexts and the word search dominate.
CHECK_SYMBOLS = ("a", "b", "c")
CHECK_MODELS = 70
CHECK_FORMULAS = 40
CHECK_WORDS = 3
CHECK_STATES = (30, 60)
CHECK_REGEX_DEPTH = 5
# Formulas per model whose announcement identity is checked, for every
# word and state; checking all of them costs as much as the pass.
CHECK_ORACLE_FORMULAS = 8

# sat-2: closures of 4 to 12 members. Leaves are left out because at two
# labels a leaf can fall into the enumerating regime (seconds instead of
# milliseconds); closures above 12 are left out because there a single
# formula can take a second and decide the pass time of a seed.
SAT2_FORMULAS = 700
SAT2_FL = (4, 12)
SAT2_LABELS = 2

# sat-full: one fixed count per shape stratum, drawn from depth-2
# formulas with at most four closure members (at most 16 labels). The
# strata have costs that differ by up to 300x at this commit (a letter
# modality over a negated proposition takes seconds, its positive twin
# tens of milliseconds), so drawing them at their natural rates would
# make a seed's pass time bimodal. The agent stratum is the largest, so
# that the median and the tenth-slowest operation both fall in it. Depth
# 3 is not used: it adds negated modalities over negated propositions,
# one of which alone takes 20 s.
SATFULL_DEPTH = 2
SATFULL_STRATA = (
    ("small", 1),      # |FL| <= 3: literals, true, false, double negations
    ("agent", 11),     # a knowledge or possibility operator
    ("plain", 2),      # no agent and no letter, e.g. <0*>p, [0]q, p&p
    ("letter", 2),     # a letter modality over a proposition or true
    ("letter-neg", 1),  # a letter modality over a negated proposition
)
SATFULL_POOL = (ox.empty(), ox.epsilon(), ox.atom("a"), ox.atom("b"),
                ox.star(ox.atom("a")), ox.star(ox.atom("b")))

# dpdl: a fixed count per closure-size band (lowest, highest, count).
# Formulas whose closure has more than DPDL_MAX_FRONTIER atoms and
# one-letter modalities are redrawn: the exact regime enumerates
# 2^frontier assignments and prunes them pairwise, and from 8 on one
# formula takes seconds where the band otherwise takes milliseconds. The
# lowest band holds half as many, since its formulas decide in
# microseconds; this also keeps the median operation inside one frontier
# size instead of on the step between two.
DPDL_DEPTH = 4
DPDL_REGEX_DEPTH = 2
DPDL_BANDS = ((1, 3, 200), (4, 6, 400), (7, 9, 400), (10, 12, 400),
              (13, 15, 400))
DPDL_MAX_FRONTIER = 6
DPDL_BRUTE_STATES = 2


@dataclass
class Outcome:
    kind: str
    text: str
    payload: object = None


class Tracer:
    """Per-layer seconds and work counts of one traced pass."""

    def __init__(self):
        self.seconds = collections.Counter()
        self.counts = collections.Counter()

    def timed(self, name, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds[name] += time.perf_counter() - start


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\n")
    return h.hexdigest()


def _histogram(values) -> dict:
    return {str(k): v for k, v in sorted(collections.Counter(values).items())}


def _defaults(fn) -> dict:
    return {name: repr(p.default)
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not inspect.Parameter.empty}


def _is_frontier(g) -> bool:
    """Atoms and one-letter modalities: the members whose truth the
    solver chooses; every other closure member follows from them."""
    return isinstance(g, dp.Atom) or (
        isinstance(g, (dp.Dia, dp.Box)) and isinstance(g.pi, ox.Atom))


def frontier_size(members) -> int:
    return sum(1 for g in members if _is_frontier(g))


# --- canonical texts of results -------------------------------------------


def _model_text(model: Model, s0) -> str:
    blocks = {a: [sorted(map(repr, b)) for b in model.relation_blocks(a)]
              for a in model.agents}
    return repr((
        list(model.alphabet), model.states, repr(s0),
        [sorted(model.props[s]) for s in model.states],
        [ox.print_regex(model.exp[s]) for s in model.states],
        sorted(blocks.items()),
    ))


def _dpdl_model_text(model, state) -> str:
    return repr((
        model.states, repr(state),
        sorted((repr(k), repr(v)) for k, v in model.trans.items()),
        [sorted(model.val[s]) for s in model.states],
    ))


def _verdict(v, payload=None) -> Outcome:
    if isinstance(v, dp.Sat):
        if isinstance(v.model, Model):
            return Outcome("sat", "sat " + _model_text(v.model, v.state),
                           payload)
        return Outcome("sat", "sat " + _dpdl_model_text(v.model, v.state),
                       payload)
    if isinstance(v, dp.Unsat):
        return Outcome("unsat", "unsat", payload)
    return Outcome("unknown", "unknown " + v.reason, payload)


# --- traced replays of the library's entry points ---------------------------


def dpdl_sat_traced(f, tr: Tracer):
    """``dpdl_sat`` with its closure and its witness check timed by
    separate calls, so the solver's own share can be told apart."""
    members = tr.timed("dpdl.core.closure_s", dp.closure, f)
    tr.counts["dpdl.core.closure_members"] += len(members)
    tr.counts["dpdl.core.frontier_members"] += frontier_size(members)
    try:
        v = tr.timed("dpdl.solver.call_s", dp.dpdl_sat, f)
    except Exception:
        tr.counts["dpdl.solver.errors"] += 1
        raise
    tr.counts["dpdl.solver." + type(v).__name__.lower()] += 1
    if isinstance(v, dp.Sat):
        tr.counts["dpdl.solver.witness_states"] += len(v.model.states)
        tr.timed("dpdl.core.check_s", dp.dpdl_check, v.model, v.state, f)
    return v


def pol_sat_traced(text: str, budget, tr: Tracer):
    """The body of ``pol_sat`` step by step, each step a span."""
    phi = tr.timed("syntax.parse_s", sx.parse_formula, text)
    fl = tr.timed("syntax.fl_closure_s", sx.fl_closure, phi)
    tr.counts["syntax.fl_members"] += len(fl)
    t = tr.timed("dpdl.translate.build_s", dp.Translation, phi, budget)
    tr.counts["dpdl.translate.labels"] += t.budget.labels
    tr.counts["dpdl.translate.dpdl_nodes"] += dp.dpdl_size(t.formula)
    v = dpdl_sat_traced(t.formula, tr)
    if isinstance(v, dp.Unknown):
        return v
    if isinstance(v, dp.Unsat):
        if t.budget.full:
            return v
        return dp.Unknown(f"no model within {t.budget.labels} labels")
    structure = tr.timed("dpdl.polsat.decode_s", dp.decode_bts, t, v.model,
                         v.state)
    tr.counts["dpdl.polsat.bubbles"] += len(structure.bubbles)
    tr.timed("bts.is_bts_s", bts.is_bts, structure)
    model, s0 = tr.timed("bts.extract_s", bts.extract_model, structure)
    tr.counts["bts.model_states"] += len(model.states)
    tr.counts["bts.exp_nodes"] += sum(ox.expr_size(e)
                                      for e in model.exp.values())
    if not tr.timed("models.check_s", model.check, s0, phi):
        raise AssertionError("decoded model fails the source formula")
    return dp.Sat(model, s0)


# --- check ----------------------------------------------------------------


class Check:
    """Model checking at every state, before and after announcements."""

    name = "check"

    def inputs(self, rng: random.Random):
        out = []
        for _ in range(CHECK_MODELS):
            m = corpus.random_model(
                rng, CHECK_SYMBOLS, AGENTS, PROPS,
                min_states=CHECK_STATES[0], max_states=CHECK_STATES[1],
                regex_depth=CHECK_REGEX_DEPTH, live=True)
            formulas = [corpus.random_formula(rng, CHECK_SYMBOLS, AGENTS,
                                              PROPS, depth=3)
                        for _ in range(CHECK_FORMULAS)]
            words = [tuple(rng.choice(CHECK_SYMBOLS)
                           for _ in range(rng.randint(1, 3)))
                     for _ in range(CHECK_WORDS)]
            relations = {a: m.relation_blocks(a) for a in AGENTS}
            out.append((m.alphabet, m.states, m.props, m.exp, relations,
                        formulas, words))
        return out

    def input_text(self, inp) -> str:
        alphabet, states, props, exp, relations, formulas, words = inp
        return repr((list(alphabet), states,
                     [sorted(props[s]) for s in states],
                     [ox.print_regex(exp[s]) for s in states],
                     sorted((a, [sorted(b) for b in bl])
                            for a, bl in relations.items()),
                     [sx.print_formula(f) for f in formulas], words))

    def describe(self, inputs) -> dict:
        return {
            "states": _histogram(len(inp[1]) // 10 * 10 for inp in inputs),
            "formulas_per_model": CHECK_FORMULAS,
            "words_per_model": CHECK_WORDS,
        }

    def _run(self, inp, build, check, update):
        alphabet, states, props, exp, relations, formulas, words = inp
        m = build(alphabet, AGENTS, states, props, exp, relations)
        before = check(m, formulas)
        after = []
        for w in words:
            u = update(m, w)
            after.append(None if u is None else (u.states, check(u, formulas)))
        return before, after

    def op(self, inp):
        return self._run(
            inp, Model,
            lambda m, fs: [m.check(s, f) for f in fs for s in m.states],
            Model.update)

    def op_traced(self, inp, tr: Tracer):
        def check(m, fs):
            return tr.timed("models.check_s", lambda: [
                m.check(s, f) for f in fs for s in m.states])

        def update(m, w):
            u = tr.timed("models.update_s", m.update, w)
            if u is not None:
                models.append(u)
            return u

        def build(*parts):
            m = tr.timed("models.build_s", Model, *parts)
            models.append(m)
            return m

        models = []
        result = self._run(inp, build, check, update)
        for m in models:
            contexts, _ = m.residuation_graph()
            tr.counts["models.contexts"] += len(contexts)
        return result

    def outcome(self, result) -> Outcome:
        before, after = result
        text = "".join("1" if b else "0" for b in before) + repr(
            [None if a is None else (a[0], "".join("1" if b else "0"
                                                   for b in a[1]))
             for a in after])
        return Outcome("done", text, after)

    def verify(self, inp, outcome: Outcome):
        """Announcement identity: <w>f holds at s iff s survives the
        announcement of w and f holds at s in the updated model."""
        alphabet, states, props, exp, relations, formulas, words = inp
        m = Model(alphabet, AGENTS, states, props, exp, relations)
        checked = formulas[:CHECK_ORACLE_FORMULAS]
        for w, after in zip(words, outcome.payload):
            survivors = () if after is None else after[0]
            n = len(survivors)
            for k, f in enumerate(checked):
                diamond = sx.dia(ox.seq(*map(ox.atom, w)), f)
                for s in m.states:
                    want = s in survivors and after[1][
                        k * n + survivors.index(s)]
                    if m.check(s, diamond) != want:
                        return (f"<{''.join(w)}>{sx.print_formula(f)} at "
                                f"{s!r} disagrees with the updated model")
        return None


# --- sat-2 and sat-full ---------------------------------------------------


class _PolSat:
    budget = None

    def input_text(self, inp) -> str:
        return inp

    def describe(self, inputs) -> dict:
        phis = [sx.parse_formula(t) for t in inputs]
        return {
            "fl_members": _histogram(len(sx.fl_closure(f)) for f in phis),
            "label_budgets": _histogram(
                (self.budget or dp.full_budget(f)).labels for f in phis),
            "pol_sat_defaults": _defaults(dp.pol_sat),
            "dpdl_sat_defaults": _defaults(dp.dpdl_sat),
        }

    def op(self, text):
        return dp.pol_sat(sx.parse_formula(text), self.budget)

    def op_traced(self, text, tr: Tracer):
        return pol_sat_traced(text, self.budget, tr)

    def outcome(self, verdict) -> Outcome:
        # The checks below need only the input, so the witness is dropped.
        return _verdict(verdict)

    def verify(self, text, outcome: Outcome):
        # A Sat witness is model-checked by pol_sat itself before it is
        # returned; a failure there surfaces as an error outcome.
        if outcome.kind == "unsat":
            return self._refute_unsat(sx.parse_formula(text))
        return None

    def _refute_unsat(self, phi):
        return "Unsat below the full budget"


class Sat2(_PolSat):
    """pol_sat at two labels on closures of 4 to 12 members."""

    name = "sat-2"
    budget = dp.LabelBudget(SAT2_LABELS)

    def inputs(self, rng: random.Random):
        out, seen = [], set()
        while len(out) < SAT2_FORMULAS:
            f = corpus.random_formula(rng, LETTERS, AGENTS, PROPS, depth=3)
            text = sx.print_formula(f)
            if (SAT2_FL[0] <= len(sx.fl_closure(f)) <= SAT2_FL[1]
                    and text not in seen):
                seen.add(text)
                out.append(text)
        return out


def _satfull_stratum(f) -> str:
    if len(sx.fl_closure(f)) <= 3:
        return "small"
    if sx.agents(f):
        return "agent"
    if not sx.letters(f):
        return "plain"
    if (isinstance(f, (sx.Dia, sx.Box)) and isinstance(f.arg, sx.Not)
            and isinstance(f.arg.arg, sx.Prop)):
        return "letter-neg"
    return "letter"


class SatFull(_PolSat):
    """pol_sat at the full budget on formulas of at most four closure
    members, the only setting where Unsat is a definite verdict."""

    name = "sat-full"

    def inputs(self, rng: random.Random):
        want = dict(SATFULL_STRATA)
        got = {k: [] for k in want}
        seen = set()
        while any(len(got[k]) < n for k, n in want.items()):
            f = corpus.random_formula(rng, LETTERS, AGENTS, PROPS,
                                      depth=SATFULL_DEPTH)
            if len(sx.fl_closure(f)) > 4:
                continue
            text = sx.print_formula(f)
            k = _satfull_stratum(f)
            if text not in seen and len(got[k]) < want[k]:
                seen.add(text)
                got[k].append(text)
        return [t for k, _ in SATFULL_STRATA for t in got[k]]

    def describe(self, inputs) -> dict:
        out = super().describe(inputs)
        out["strata"] = dict(SATFULL_STRATA)
        return out

    def _refute_unsat(self, phi):
        found = dp.pol_bounded_sat(phi, 2, pool=SATFULL_POOL)
        if isinstance(found, dp.Sat):
            return "Unsat refuted by a model of at most 2 states"
        return None


# --- dpdl -----------------------------------------------------------------


def random_dpdl(rng: random.Random, depth: int):
    """A random formula over the vocabulary of the test suite's
    ``dpdl_formula_strategy``: true, p, q, negation, disjunction,
    conjunction, and both modalities over random programs."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.85:
            return dp.atom(rng.choice(PROPS))
        return dp.top()
    op = rng.choice(("not", "or", "and", "dia", "box"))
    arg = random_dpdl(rng, depth - 1)
    if op == "not":
        return dp.lnot(arg)
    if op == "or":
        return dp.lor(arg, random_dpdl(rng, depth - 1))
    if op == "and":
        return dp.land(arg, random_dpdl(rng, depth - 1))
    pi = corpus.random_regex(rng, LETTERS, DPDL_REGEX_DEPTH)
    return dp.dia(pi, arg) if op == "dia" else dp.box(pi, arg)


def _band(size: int):
    for band in DPDL_BANDS:
        if band[0] <= size <= band[1]:
            return band
    return None


class Dpdl:
    """dpdl_sat on random formulas, almost all in the exact regime."""

    name = "dpdl"

    def __init__(self):
        self.redrawn = 0

    def inputs(self, rng: random.Random):
        got = {b: [] for b in DPDL_BANDS}
        self.redrawn = 0
        while any(len(v) < b[2] for b, v in got.items()):
            f = random_dpdl(rng, DPDL_DEPTH)
            members = dp.closure(f)
            band = _band(len(members))
            if band is None or len(got[band]) >= band[2]:
                continue
            if frontier_size(members) > DPDL_MAX_FRONTIER:
                self.redrawn += 1
                continue
            got[band].append(f)
        return [f for b in DPDL_BANDS for f in got[b]]

    def input_text(self, f) -> str:
        return dp.print_dpdl(f)

    def describe(self, inputs) -> dict:
        sizes = [len(dp.closure(f)) for f in inputs]
        return {
            "closure_bands": {f"{lo}-{hi}": sum(lo <= n <= hi for n in sizes)
                              for lo, hi, _ in DPDL_BANDS},
            "closure_members": _histogram(sizes),
            "frontier_members": _histogram(frontier_size(dp.closure(f))
                                           for f in inputs),
            "redrawn_for_frontier": self.redrawn,
            "dpdl_sat_defaults": _defaults(dp.dpdl_sat),
        }

    def op(self, f):
        return dp.dpdl_sat(f)

    def op_traced(self, f, tr: Tracer):
        return dpdl_sat_traced(f, tr)

    def outcome(self, verdict) -> Outcome:
        return _verdict(verdict, verdict)

    def verify(self, f, outcome: Outcome):
        if outcome.kind == "sat":
            v = outcome.payload
            if not dp.dpdl_check(v.model, v.state, f):
                return "witness rejected by dpdl_check"
        elif outcome.kind == "unsat":
            if isinstance(dp.brute_dpdl_sat(f, DPDL_BRUTE_STATES), dp.Sat):
                return (f"Unsat refuted by a model of at most "
                        f"{DPDL_BRUTE_STATES} states")
        return None


WORKLOADS = {w.name: w for w in (Check, Sat2, SatFull, Dpdl)}
