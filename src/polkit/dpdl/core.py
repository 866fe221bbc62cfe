"""Dynamic logic over deterministic models.

Formulas are built from named atoms with negation, disjunction,
conjunction, and program modalities whose programs are observation
expressions over action letters. Models assign at most one successor
per state and letter, so a diamond and the matching box can only
disagree on whether a successor exists at all.

Conjunction and disjunction nodes are n-ary and flatten on
construction; a conjunction of ten parts is one node. This keeps the
closure of machine-generated formulas, which conjoin thousands of
clauses, at one member per clause block instead of one per spine node.
"""

from __future__ import annotations

import weakref

from .. import obsregex as ox
from ..errors import ParseError, UnknownState, UnknownSymbol

__all__ = [
    "DpdlFormula", "Top", "Atom", "Not", "Or", "And", "Dia", "Box",
    "top", "atom", "lnot", "lor", "land", "dia", "box", "implies", "iff",
    "closure", "dpdl_size", "dpdl_letters",
    "print_dpdl", "parse_dpdl", "dpdl_key",
    "DpdlModel", "dpdl_check",
]


class DpdlFormula:
    """Base class of formula nodes. Construct via the factory functions.

    Nodes are interned, so identity is structural equality, and the
    identity comparison and hash inherited from ``object`` serve as is.
    """

    __slots__ = ("_key", "__weakref__")

    def __repr__(self):
        return f"DpdlFormula({print_dpdl(self)!r})"


class Top(DpdlFormula):
    __slots__ = ()


class Atom(DpdlFormula):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Not(DpdlFormula):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Or(DpdlFormula):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


class And(DpdlFormula):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


class Dia(DpdlFormula):
    """<pi> arg: some run of pi ends in a state satisfying arg."""

    __slots__ = ("pi", "arg")

    def __init__(self, pi, arg):
        self.pi = pi
        self.arg = arg


class Box(DpdlFormula):
    __slots__ = ("pi", "arg")

    def __init__(self, pi, arg):
        self.pi = pi
        self.arg = arg


_TOP = Top()

# Values are weak so formulas are reclaimed once nothing outside the
# table refers to them; machine-generated encodings run to millions of
# nodes and would otherwise pin memory for the life of the process.
# Keys hold the operands themselves, which keeps an entry's operands
# alive exactly as long as the entry and rules out identity reuse.
_interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _intern(key, make):
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = make()
    return node


def top() -> DpdlFormula:
    return _TOP


def atom(name: str) -> DpdlFormula:
    if not isinstance(name, str) or not name:
        raise ValueError("atom names are non-empty strings")
    return _intern(("p", name), lambda: Atom(name))


def lnot(arg: DpdlFormula) -> DpdlFormula:
    return _intern(("~", arg), lambda: Not(arg))


def _nary(cls, tag, parts, empty):
    flat = []
    for p in parts:
        if isinstance(p, cls):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return empty
    if len(flat) == 1:
        return flat[0]
    key = (tag,) + tuple(flat)
    return _intern(key, lambda: cls(tuple(flat)))


def lor(*parts) -> DpdlFormula:
    return _nary(Or, "|", parts, lnot(_TOP))


def land(*parts) -> DpdlFormula:
    return _nary(And, "&", parts, _TOP)


def dia(pi: ox.ObsExpr, arg: DpdlFormula) -> DpdlFormula:
    return _intern(("<>", pi, arg), lambda: Dia(pi, arg))


def box(pi: ox.ObsExpr, arg: DpdlFormula) -> DpdlFormula:
    return _intern(("[]", pi, arg), lambda: Box(pi, arg))


def implies(a: DpdlFormula, b: DpdlFormula) -> DpdlFormula:
    return lor(lnot(a), b)


def iff(a: DpdlFormula, b: DpdlFormula) -> DpdlFormula:
    return land(lor(lnot(a), b), lor(lnot(b), a))


# --- closure and measures -----------------------------------------------------


def closure(f: DpdlFormula) -> tuple:
    """Subformulas of ``f`` together with their modal unfoldings.

    A modality over a composite program unfolds one step toward the
    program's head: sequencing peels its first factor, a sum branches,
    a star either stops or runs its body once and recurs. Every formula
    produced by an unfolding is itself a member, so a truth assignment
    to the members determines each member from atoms and modalities
    over single letters alone. The returned order is deterministic.
    """
    seen = []
    seen_set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen_set:
            continue
        seen_set.add(g)
        seen.append(g)
        if isinstance(g, (Top, Atom)):
            pass
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (Or, And)):
            stack.extend(reversed(g.parts))
        elif isinstance(g, (Dia, Box)):
            make = dia if isinstance(g, Dia) else box
            stack.append(g.arg)
            pi = g.pi
            if isinstance(pi, ox.Concat):
                rest = ox.seq(*pi.parts[1:])
                stack.append(make(pi.parts[0], make(rest, g.arg)))
            elif isinstance(pi, ox.Sum):
                for p in reversed(pi.parts):
                    stack.append(make(p, g.arg))
            elif isinstance(pi, ox.Star):
                stack.append(make(pi.body, g))
        else:
            raise TypeError(f"not a DpdlFormula: {g!r}")
    return tuple(seen)


def dpdl_size(f: DpdlFormula, _memo=None) -> int:
    """Node count, with observation expression nodes and n-ary nodes
    counted as their binary equivalents."""
    if _memo is None:
        _memo = {}
    n = _memo.get(f)
    if n is not None:
        return n
    if isinstance(f, (Top, Atom)):
        n = 1
    elif isinstance(f, Not):
        n = 1 + dpdl_size(f.arg, _memo)
    elif isinstance(f, (Or, And)):
        n = len(f.parts) - 1 + sum(dpdl_size(p, _memo) for p in f.parts)
    elif isinstance(f, (Dia, Box)):
        n = 1 + ox.expr_size(f.pi) + dpdl_size(f.arg, _memo)
    else:
        raise TypeError(f"not a DpdlFormula: {f!r}")
    _memo[f] = n
    return n


def dpdl_letters(f: DpdlFormula) -> frozenset:
    """All action letters occurring in programs of ``f``."""
    out = set()
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (Or, And)):
            stack.extend(g.parts)
        elif isinstance(g, (Dia, Box)):
            out |= ox.atoms(g.pi)
            stack.append(g.arg)
    return frozenset(out)


# --- printing -----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def _prec(f: DpdlFormula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Not, Dia, Box)):
        return _PREC_UNARY
    return 4


def _wrap(f: DpdlFormula, floor: int) -> str:
    s = print_dpdl(f)
    return f"({s})" if _prec(f) < floor else s


def _print_atom(name: str) -> str:
    if ox._is_identifier(name) and name not in ("true", "false"):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_dpdl(f: DpdlFormula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Not):
        if isinstance(f.arg, Top):
            return "false"
        return "~" + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Atom):
        return _print_atom(f.name)
    if isinstance(f, Or):
        return "|".join(_wrap(p, _PREC_OR + 1) for p in f.parts)
    if isinstance(f, And):
        return "&".join(_wrap(p, _PREC_AND + 1) for p in f.parts)
    if isinstance(f, Dia):
        return f"<{ox.print_regex(f.pi)}>" + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Box):
        return f"[{ox.print_regex(f.pi)}]" + _wrap(f.arg, _PREC_UNARY)
    raise TypeError(f"not a DpdlFormula: {f!r}")


def dpdl_key(f: DpdlFormula) -> str:
    """Stable string for deterministic ordering of formula sets."""
    key = getattr(f, "_key", None)
    if key is None:
        key = print_dpdl(f)
        f._key = key
    return key


# --- parsing ------------------------------------------------------------------


class _DpdlTokens(ox._RegexTokens):
    PUNCT = "()&|~<>[]"

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self._advance(1)
        if self.pos >= len(self.text):
            return None
        c = self.text[self.pos]
        if c in self.PUNCT:
            return c
        if c == '"':
            j = self.pos + 1
            while j < len(self.text):
                if self.text[j] == "\\":
                    j += 2
                    continue
                if self.text[j] == '"':
                    return self.text[self.pos:j + 1]
                j += 1
            self.error("unterminated quoted atom")
        if c in ox._IDENT_FIRST:
            j = self.pos + 1
            while j < len(self.text) and self.text[j] in ox._IDENT_REST:
                j += 1
            return self.text[self.pos:j]
        self.error(f"unexpected character {c!r}")

    def take_regex_until(self, close: str):
        start = self.pos
        line, col = self.line, self.col
        end = self.text.find(close, start)
        if end < 0:
            self.error(f"missing {close!r}")
        text = self.text[start:end]
        self._advance(end - start)
        return text, line, col


def _unquote(tok: str, toks) -> str:
    body = tok[1:-1]
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                toks.error("bad escape in quoted atom")
            out.append(body[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    if not out:
        toks.error("quoted atom is empty")
    return "".join(out)


def _parse_regex_in(toks, close, alphabet):
    text, line, col = toks.take_regex_until(close)
    try:
        return ox.parse_regex(text, alphabet)
    except ParseError as err:
        msg = err.args[0].split(" (line")[0]
        if err.line == 1:
            raise ParseError(msg, line, col + err.column - 1) from None
        raise ParseError(msg, line + err.line - 1, err.column) from None


def _parse_or(toks, alphabet):
    parts = [_parse_and(toks, alphabet)]
    while toks.peek() == "|":
        toks.take()
        parts.append(_parse_and(toks, alphabet))
    return lor(*parts)


def _parse_and(toks, alphabet):
    parts = [_parse_unary(toks, alphabet)]
    while toks.peek() == "&":
        toks.take()
        parts.append(_parse_unary(toks, alphabet))
    return land(*parts)


def _parse_unary(toks, alphabet):
    tok = toks.peek()
    if tok is None:
        toks.error("unexpected end of formula")
    if tok == "~":
        toks.take()
        return lnot(toks.nested(_parse_unary, alphabet))
    if tok == "<":
        toks.take()
        pi = _parse_regex_in(toks, ">", alphabet)
        toks.take()
        return dia(pi, toks.nested(_parse_unary, alphabet))
    if tok == "[":
        toks.take()
        pi = _parse_regex_in(toks, "]", alphabet)
        toks.take()
        return box(pi, toks.nested(_parse_unary, alphabet))
    return _parse_base(toks, alphabet)


def _parse_base(toks, alphabet):
    tok = toks.peek()
    if tok is None:
        toks.error("unexpected end of formula")
    if tok == "(":
        toks.take()
        f = toks.nested(_parse_or, alphabet)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.take()
        return f
    if tok in _DpdlTokens.PUNCT:
        toks.error(f"unexpected {tok!r}")
    toks.take()
    if tok.startswith('"'):
        return atom(_unquote(tok, toks))
    if tok == "true":
        return top()
    if tok == "false":
        return lnot(top())
    return atom(tok)


def parse_dpdl(text: str, alphabet=None) -> DpdlFormula:
    """Parse the concrete syntax; quoted atoms carry arbitrary names.

    With an alphabet given, program letters outside it are rejected.
    """
    toks = _DpdlTokens(text)
    f = _parse_or(toks, alphabet)
    if toks.peek() is not None:
        toks.error(f"unexpected {toks.peek()!r} after formula")
    return f


# --- models and truth ---------------------------------------------------------


class DpdlModel:
    """A finite deterministic model.

    ``trans`` maps pairs (state, letter) to the single successor; pairs
    absent from the map have no successor. ``val`` maps each state to
    the set of atom names true there.
    """

    __slots__ = ("states", "alphabet", "trans", "val")

    def __init__(self, states, trans, val, alphabet=None):
        self.states = tuple(states)
        if not self.states:
            raise ValueError("a model needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state ids")
        sset = set(self.states)
        syms = set()
        self.trans = {}
        for (s, a), t in trans.items():
            if s not in sset:
                raise UnknownState(f"transition source {s!r} is not a state")
            if t not in sset:
                raise UnknownState(f"transition target {t!r} is not a state")
            syms.add(a)
            self.trans[(s, a)] = t
        if alphabet is None:
            self.alphabet = tuple(sorted(syms))
        else:
            self.alphabet = tuple(alphabet)
            missing = syms - set(self.alphabet)
            if missing:
                raise UnknownSymbol(
                    f"transition letters {sorted(missing)!r} not in alphabet")
        for s in self.states:
            if s not in val:
                raise UnknownState(f"state {s!r} has no valuation")
        self.val = {s: frozenset(val[s]) for s in self.states}

    def successor(self, s, a):
        return self.trans.get((s, a))

    def __repr__(self):
        return (f"DpdlModel(states={len(self.states)}, "
                f"alphabet={list(self.alphabet)!r})")


def _dfa_for(pi: ox.ObsExpr, letters):
    """Derivative automaton of ``pi`` over ``letters`` and its own atoms."""
    return ox.to_dfa(pi, ox.Alphabet(sorted(set(letters) | ox.atoms(pi))
                                     or ["a"]))


def dpdl_check(m: DpdlModel, s, f: DpdlFormula) -> bool:
    """Truth of ``f`` at state ``s``."""
    if s not in m.val:
        raise UnknownState(f"state {s!r} not in model")
    memo = {}

    def step(st):
        for a in m.alphabet:
            t = m.trans.get((st, a))
            if t is not None:
                yield a, t

    def ev(st, g):
        key = (st, g)
        v = memo.get(key)
        if v is not None:
            return v
        if isinstance(g, Top):
            v = True
        elif isinstance(g, Atom):
            v = g.name in m.val[st]
        elif isinstance(g, Not):
            v = not ev(st, g.arg)
        elif isinstance(g, Or):
            v = any(ev(st, p) for p in g.parts)
        elif isinstance(g, And):
            v = all(ev(st, p) for p in g.parts)
        elif isinstance(g, Dia):
            v = ox.search(_dfa_for(g.pi, m.alphabet), st, step,
                          lambda t: ev(t, g.arg)) is not None
        elif isinstance(g, Box):
            v = ox.search(_dfa_for(g.pi, m.alphabet), st, step,
                          lambda t: not ev(t, g.arg)) is None
        else:
            raise TypeError(f"not a DpdlFormula: {g!r}")
        memo[key] = v
        return v

    return ev(s, f)
