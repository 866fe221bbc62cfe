"""Formulas of public observation logic.

The language has truth, propositions, negation, disjunction and
conjunction, the epistemic possibility and knowledge operators of each
agent, and the observation modalities ``<pi>`` and ``[pi]`` indexed by
observation expressions.

Concrete syntax::

    true, false          constants (false abbreviates ~true)
    p, motor_on, T1      propositions (identifiers)
    ~f, f & g, f | g     connectives, ~ binds tighter than & than |
    hK_i f               agent i considers f possible
    K_i f                agent i knows f
    <pi>f, [pi]f         some/every word matching pi can be observed
                         such that f holds afterwards

Unary operators bind tightest and chain to the right, so ``K_a ~<b>p | q``
reads ``(K_a ~<b>p) | q``.

``fl_closure`` computes the closure of a formula: the smallest set
containing it that is closed under subformulas, under unfolding of the
observation modalities through the regex constructors, and under single
negations. Its size is linear in the formula's size.
"""

from __future__ import annotations

from . import obsregex as ox
from .errors import ParseError, UnknownSymbol
from .obsregex import Alphabet, ObsExpr

__all__ = [
    "Formula", "Top", "Prop", "Not", "Or", "And", "Hat", "Know", "Dia", "Box",
    "top", "prop", "lnot", "lor", "land", "hat", "know", "dia", "box",
    "parse_formula", "print_formula", "formula_size",
    "props", "agents", "letters", "fl_closure",
]

_RESERVED = {"true", "false"}


class Formula:
    """Base class of formula nodes. Construct via the factory functions.

    Nodes are interned, so identity is structural equality, and the
    identity comparison and hash inherited from ``object`` serve as is.
    """

    __slots__ = ("_key",)

    def __repr__(self):
        return f"Formula({print_formula(self)!r})"


class Top(Formula):
    __slots__ = ()


class Prop(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class Or(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right


class Hat(Formula):
    """hK_agent arg: the agent considers arg possible."""
    __slots__ = ("agent", "arg")

    def __init__(self, agent, arg):
        self.agent = agent
        self.arg = arg


class Know(Formula):
    __slots__ = ("agent", "arg")

    def __init__(self, agent, arg):
        self.agent = agent
        self.arg = arg


class Dia(Formula):
    """<pi> arg: some word matching pi survives and leads to arg."""
    __slots__ = ("pi", "arg")

    def __init__(self, pi, arg):
        self.pi = pi
        self.arg = arg


class Box(Formula):
    __slots__ = ("pi", "arg")

    def __init__(self, pi, arg):
        self.pi = pi
        self.arg = arg


_TOP = Top()
_interned: dict = {}


def _intern(key, make):
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = make()
    return node


def top() -> Formula:
    return _TOP


def prop(name: str) -> Formula:
    if name in _RESERVED or name.startswith("K_") or name.startswith("hK_"):
        raise ValueError(f"reserved proposition name {name!r}")
    return _intern(("p", name), lambda: Prop(name))


def lnot(arg: Formula) -> Formula:
    return _intern(("~", id(arg)), lambda: Not(arg))


def lor(left: Formula, right: Formula) -> Formula:
    return _intern(("|", id(left), id(right)), lambda: Or(left, right))


def land(left: Formula, right: Formula) -> Formula:
    return _intern(("&", id(left), id(right)), lambda: And(left, right))


def hat(agent: str, arg: Formula) -> Formula:
    return _intern(("hK", agent, id(arg)), lambda: Hat(agent, arg))


def know(agent: str, arg: Formula) -> Formula:
    return _intern(("K", agent, id(arg)), lambda: Know(agent, arg))


def dia(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("<>", id(pi), id(arg)), lambda: Dia(pi, arg))


def box(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("[]", id(pi), id(arg)), lambda: Box(pi, arg))


def formula_size(f: Formula, _memo=None) -> int:
    """Node count, with nodes of observation expressions included."""
    if _memo is None:
        _memo = {}
    got = _memo.get(id(f))
    if got is not None:
        return got
    if isinstance(f, (Top, Prop)):
        n = 1
    elif isinstance(f, (Not, Hat, Know)):
        n = 1 + formula_size(f.arg, _memo)
    elif isinstance(f, (Or, And)):
        n = 1 + formula_size(f.left, _memo) + formula_size(f.right, _memo)
    elif isinstance(f, (Dia, Box)):
        n = 1 + ox.expr_size(f.pi) + formula_size(f.arg, _memo)
    else:
        raise TypeError(f"not a Formula: {f!r}")
    _memo[id(f)] = n
    return n


def _walk(f: Formula):
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        yield g
        if isinstance(g, (Not, Hat, Know, Dia, Box)):
            stack.append(g.arg)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)


def props(f: Formula) -> frozenset:
    return frozenset(g.name for g in _walk(f) if isinstance(g, Prop))


def agents(f: Formula) -> frozenset:
    return frozenset(g.agent for g in _walk(f) if isinstance(g, (Hat, Know)))


def letters(f: Formula) -> frozenset:
    """All observation symbols occurring in the formula's expressions."""
    out = set()
    for g in _walk(f):
        if isinstance(g, (Dia, Box)):
            out |= ox.atoms(g.pi)
    return frozenset(out)


def fl_closure(f: Formula) -> frozenset:
    """The closure of ``f``: subformulas, modal unfoldings, and negations.

    Membership facts used elsewhere: for every member, its modal
    unfoldings are members; every non-negated member has its negation in
    the set; the set's size is at most four times ``formula_size(f)``.
    """
    members: set = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in members:
            continue
        members.add(g)
        if isinstance(g, (Top, Prop)):
            pass
        elif isinstance(g, Not):
            stack.append(g.arg)
        elif isinstance(g, (Or, And)):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Hat, Know)):
            stack.append(g.arg)
        elif isinstance(g, (Dia, Box)):
            make = dia if isinstance(g, Dia) else box
            stack.append(g.arg)
            pi = g.pi
            if isinstance(pi, ox.Concat):
                rest = ox.seq(*pi.parts[1:])
                stack.append(make(pi.parts[0], make(rest, g.arg)))
            elif isinstance(pi, ox.Sum):
                for p in pi.parts:
                    stack.append(make(p, g.arg))
            elif isinstance(pi, ox.Star):
                stack.append(make(pi.body, g))
        else:
            raise TypeError(f"not a Formula: {g!r}")
    for g in list(members):
        if not isinstance(g, Not):
            members.add(lnot(g))
    return frozenset(members)


# --- printing ----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def _fprec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Not, Hat, Know, Dia, Box)):
        return _PREC_UNARY
    return 4


def _wrap(f: Formula, floor: int) -> str:
    s = print_formula(f)
    return f"({s})" if _fprec(f) < floor else s


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Not):
        if isinstance(f.arg, Top):
            return "false"
        return "~" + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, Or):
        # left associative: a|b|c groups as (a|b)|c
        right = _wrap(f.right, _PREC_OR + 1)
        return _wrap(f.left, _PREC_OR) + "|" + right
    if isinstance(f, And):
        right = _wrap(f.right, _PREC_AND + 1)
        return _wrap(f.left, _PREC_AND) + "&" + right
    if isinstance(f, Hat):
        return f"hK_{f.agent} " + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Know):
        return f"K_{f.agent} " + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Dia):
        return f"<{ox.print_regex(f.pi)}>" + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Box):
        return f"[{ox.print_regex(f.pi)}]" + _wrap(f.arg, _PREC_UNARY)
    raise TypeError(f"not a Formula: {f!r}")


def formula_key(f: Formula) -> str:
    """Stable string for deterministic ordering of formula sets."""
    key = getattr(f, "_key", None)
    if key is None:
        key = print_formula(f)
        f._key = key
    return key


# --- parsing -----------------------------------------------------------------

class _FormulaTokens(ox._RegexTokens):
    PUNCT = "()&|~<>[]"

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self._advance(1)
        if self.pos >= len(self.text):
            return None
        c = self.text[self.pos]
        if c in self.PUNCT:
            return c
        if c in ox._IDENT_FIRST:
            j = self.pos + 1
            while j < len(self.text) and self.text[j] in ox._IDENT_REST:
                j += 1
            return self.text[self.pos:j]
        self.error(f"unexpected character {c!r}")

    def take_regex_until(self, close: str):
        """Consume up to (not including) the closing delimiter."""
        start = self.pos
        line, col = self.line, self.col
        end = self.text.find(close, start)
        if end < 0:
            self.error(f"missing {close!r}")
        text = self.text[start:end]
        self._advance(end - start)
        return text, line, col


def _parse_guarded_regex(toks, close, alphabet):
    text, line, col = toks.take_regex_until(close)
    try:
        return ox.parse_regex(text, alphabet)
    except ParseError as err:
        if err.line == 1:
            raise ParseError(err.args[0].split(" (line")[0],
                             line, col + err.column - 1) from None
        raise ParseError(err.args[0].split(" (line")[0],
                         line + err.line - 1, err.column) from None


def _parse_or(toks, alphabet):
    f = _parse_and(toks, alphabet)
    while toks.peek() == "|":
        toks.take()
        f = lor(f, _parse_and(toks, alphabet))
    return f


def _parse_and(toks, alphabet):
    f = _parse_unary(toks, alphabet)
    while toks.peek() == "&":
        toks.take()
        f = land(f, _parse_unary(toks, alphabet))
    return f


def _parse_unary(toks, alphabet):
    tok = toks.peek()
    if tok is None:
        toks.error("unexpected end of formula")
    if tok == "~":
        toks.take()
        return lnot(toks.nested(_parse_unary, alphabet))
    if tok == "<":
        toks.take()
        pi = _parse_guarded_regex(toks, ">", alphabet)
        toks.take()  # '>'
        return dia(pi, toks.nested(_parse_unary, alphabet))
    if tok == "[":
        toks.take()
        pi = _parse_guarded_regex(toks, "]", alphabet)
        toks.take()  # ']'
        return box(pi, toks.nested(_parse_unary, alphabet))
    if tok.startswith("K_") and len(tok) > 2:
        toks.take()
        return know(tok[2:], toks.nested(_parse_unary, alphabet))
    if tok.startswith("hK_") and len(tok) > 3:
        toks.take()
        return hat(tok[3:], toks.nested(_parse_unary, alphabet))
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
    if tok in _FormulaTokens.PUNCT:
        toks.error(f"unexpected {tok!r}")
    toks.take()
    if tok == "true":
        return top()
    if tok == "false":
        return lnot(top())
    if tok in ("K_", "hK_"):
        toks.error(f"operator {tok!r} needs an agent name")
    return prop(tok)


def parse_formula(text: str, alphabet: Alphabet | None = None) -> Formula:
    """Parse a formula; observation symbols are checked when an alphabet
    is supplied."""
    toks = _FormulaTokens(text)
    f = _parse_or(toks, alphabet)
    if toks.peek() is not None:
        toks.error(f"trailing input {toks.peek()!r}")
    return f
