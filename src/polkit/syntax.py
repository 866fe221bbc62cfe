"""Formulas of public observation logic and of deterministic dynamic logic.

Both languages share one set of formula nodes: truth, propositions,
negation, disjunction, conjunction, and the modalities ``<pi>`` and
``[pi]`` indexed by observation expressions. Observation logic adds the
epistemic possibility and knowledge operators of each agent; the
dynamic logic of ``polkit.dpdl`` reads propositions as atoms and the
expressions as programs over action letters.

Concrete syntax::

    true, false          constants (false abbreviates ~true)
    p, motor_on, T1      propositions (identifiers)
    ~f, f & g, f | g     connectives, ~ binds tighter than & than |
    hK_i f               agent i considers f possible
    K_i f                agent i knows f
    <pi>f, [pi]f         some/every word matching pi can be observed
                         such that f holds afterwards

Unary operators bind tightest and chain to the right, so ``K_a ~<b>p | q``
reads ``(K_a ~<b>p) | q``. The dynamic-logic syntax has no agent
operators and admits quoted atoms such as ``"surv(1)"``.

Disjunction and conjunction nodes hold a tuple of parts. The factories
here are binary, so observation-logic formulas keep their shape as
written; ``polkit.dpdl`` adds factories that flatten nested junctions.

``closure`` collects subformulas and modal unfoldings; ``fl_closure``
adds single negations. Both are linear in the formula's size.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref

from . import obsregex as ox
from .errors import ParseError
from .obsregex import Alphabet, ObsExpr

__all__ = [
    "Formula", "Top", "Prop", "Not", "Or", "And", "Hat", "Know", "Dia", "Box",
    "top", "prop", "lnot", "lor", "land", "hat", "know", "dia", "box",
    "parse_formula", "print_formula", "formula_size", "formula_key",
    "props", "agents", "letters", "closure", "fl_closure",
]


class Formula:
    """Base class of formula nodes. Construct via the factory functions.

    Nodes are interned, so identity is structural equality, and the
    identity comparison and hash inherited from ``object`` serve as is.
    """

    __slots__ = ("_key", "__weakref__")

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
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


class And(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


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

# Values are weak references, so formulas are reclaimed once nothing
# outside the table refers to them; machine-generated encodings run to
# millions of nodes and would otherwise pin memory for the life of the
# process. A dead reference removes its own entry, unless the key has
# been bound to a new node meanwhile. Keys hold the operands themselves,
# which keeps an entry's operands alive exactly as long as the entry
# and rules out identity reuse. This is ``weakref.WeakValueDictionary``
# without its Python-level method calls, which made building and
# dropping formulas half again as slow.
_interned: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    _remove_dead_weakref(_interned, ref.key)


def _intern(key, cls, *args):
    ref = _interned.get(key)
    node = None if ref is None else ref()
    if node is None:
        node = cls(*args)
        ref = _interned[key] = _Ref(node, _forget)
        ref.key = key
    return node


def top() -> Formula:
    return _TOP


def prop(name: str) -> Formula:
    if name in ("true", "false") or name.startswith(("K_", "hK_")):
        raise ValueError(f"reserved proposition name {name!r}")
    return _intern(("p", name), Prop, name)


def lnot(arg: Formula) -> Formula:
    return _intern(("~", arg), Not, arg)


def lor(left: Formula, right: Formula) -> Formula:
    return _intern(("|", left, right), Or, (left, right))


def land(left: Formula, right: Formula) -> Formula:
    return _intern(("&", left, right), And, (left, right))


def hat(agent: str, arg: Formula) -> Formula:
    return _intern(("hK", agent, arg), Hat, agent, arg)


def know(agent: str, arg: Formula) -> Formula:
    return _intern(("K", agent, arg), Know, agent, arg)


def dia(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("<>", pi, arg), Dia, pi, arg)


def box(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("[]", pi, arg), Box, pi, arg)


# --- closure and measures ----------------------------------------------------


def formula_size(f: Formula, _memo=None) -> int:
    """Node count, with observation expression nodes included and
    junctions counted as their binary equivalents."""
    if _memo is None:
        _memo = {}
    n = _memo.get(f)
    if n is not None:
        return n
    if isinstance(f, (Top, Prop)):
        n = 1
    elif isinstance(f, (Not, Hat, Know)):
        n = 1 + formula_size(f.arg, _memo)
    elif isinstance(f, (Or, And)):
        n = len(f.parts) - 1 + sum(formula_size(p, _memo) for p in f.parts)
    elif isinstance(f, (Dia, Box)):
        n = 1 + ox.expr_size(f.pi) + formula_size(f.arg, _memo)
    else:
        raise TypeError(f"not a Formula: {f!r}")
    _memo[f] = n
    return n


def _walk(f: Formula):
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        yield g
        if isinstance(g, (Or, And)):
            stack.extend(g.parts)
        elif not isinstance(g, (Top, Prop)):
            stack.append(g.arg)


def props(f: Formula) -> frozenset:
    return frozenset(g.name for g in _walk(f) if isinstance(g, Prop))


def agents(f: Formula) -> frozenset:
    return frozenset(g.agent for g in _walk(f) if isinstance(g, (Hat, Know)))


def letters(f: Formula) -> frozenset:
    """All observation symbols occurring in the formula's expressions."""
    pis = {g.pi for g in _walk(f) if isinstance(g, (Dia, Box))}
    return frozenset().union(*map(ox.atoms, pis))


def closure(f: Formula) -> tuple:
    """Subformulas of ``f`` together with their modal unfoldings.

    A modality over a composite expression unfolds one step toward the
    expression's head: sequencing peels its first factor, a sum
    branches, a star either stops or runs its body once and recurs.
    Every formula produced by an unfolding is itself a member, so a
    truth assignment to the members determines each member from
    propositions and modalities over single letters alone. The returned
    order is deterministic.
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
        if isinstance(g, (Top, Prop)):
            pass
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
        elif isinstance(g, (Not, Hat, Know)):
            stack.append(g.arg)
        else:
            raise TypeError(f"not a Formula: {g!r}")
    return tuple(seen)


def fl_closure(f: Formula) -> frozenset:
    """The closure of ``f``: subformulas, modal unfoldings, and negations.

    Membership facts used elsewhere: for every member, its modal
    unfoldings are members; every non-negated member has its negation in
    the set; the set's size is at most four times ``formula_size(f)``.
    """
    members = closure(f)
    return frozenset(members).union(
        [lnot(g) for g in members if not isinstance(g, Not)])


# --- printing ----------------------------------------------------------------

_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3


def _prec(f: Formula) -> int:
    if isinstance(f, Or):
        return _PREC_OR
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, (Not, Hat, Know, Dia, Box)):
        return _PREC_UNARY
    return 4


def _wrap(f: Formula, floor: int) -> str:
    s = print_formula(f)
    return f"({s})" if _prec(f) < floor else s


def _print_prop(name: str) -> str:
    if ox._is_identifier(name) and name not in ("true", "false"):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_formula(f: Formula) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Not):
        if isinstance(f.arg, Top):
            return "false"
        return "~" + _wrap(f.arg, _PREC_UNARY)
    if isinstance(f, Prop):
        return _print_prop(f.name)
    if isinstance(f, (Or, And)):
        # Junctions group to the left: the first part is printed at the
        # junction's own level and later parts one level above it, so
        # binary a|b|c reads (a|b)|c and a|(b|c) keeps its parentheses.
        prec = _prec(f)
        first, *rest = f.parts
        return ("|" if prec == _PREC_OR else "&").join(
            [_wrap(first, prec)] + [_wrap(p, prec + 1) for p in rest])
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
    """Tokens of one formula text, with the factories that build it.

    Dynamic-logic text (``dpdl``) admits quoted atoms and reads ``K_a``
    as an atom; observation-logic text reads it as an agent operator.
    """

    PUNCT = "()&|~<>[]"

    def __init__(self, text, lor, land, atom, dpdl):
        super().__init__(text)
        self.lor = lor
        self.land = land
        self.atom = atom
        self.dpdl = dpdl

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self._advance(1)
        if self.pos >= len(self.text):
            return None
        c = self.text[self.pos]
        if c in self.PUNCT:
            return c
        if c == '"' and self.dpdl:
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
        """Consume up to (not including) the closing delimiter."""
        start = self.pos
        line, col = self.line, self.col
        end = self.text.find(close, start)
        if end < 0:
            self.error(f"missing {close!r}")
        text = self.text[start:end]
        self._advance(end - start)
        return text, line, col

    def unquote(self, tok: str) -> str:
        body = tok[1:-1]
        out = []
        i = 0
        while i < len(body):
            c = body[i]
            if c == "\\":
                if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                    self.error("bad escape in quoted atom")
                out.append(body[i + 1])
                i += 2
            else:
                out.append(c)
                i += 1
        if not out:
            self.error("quoted atom is empty")
        return "".join(out)


def _parse_guarded_regex(toks, close, alphabet):
    text, line, col = toks.take_regex_until(close)
    try:
        return ox.parse_regex(text, alphabet)
    except ParseError as err:
        msg = err.args[0].split(" (line")[0]
        if err.line == 1:
            raise ParseError(msg, line, col + err.column - 1) from None
        raise ParseError(msg, line + err.line - 1, err.column) from None


def _parse_or(toks, alphabet):
    f = _parse_and(toks, alphabet)
    while toks.peek() == "|":
        toks.take()
        f = toks.lor(f, _parse_and(toks, alphabet))
    return f


def _parse_and(toks, alphabet):
    f = _parse_unary(toks, alphabet)
    while toks.peek() == "&":
        toks.take()
        f = toks.land(f, _parse_unary(toks, alphabet))
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
    if not toks.dpdl:
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
    if tok.startswith('"'):
        return toks.atom(toks.unquote(tok))
    if tok == "true":
        return top()
    if tok == "false":
        return lnot(top())
    if tok in ("K_", "hK_") and not toks.dpdl:
        toks.error(f"operator {tok!r} needs an agent name")
    return toks.atom(tok)


def _parse(toks: _FormulaTokens, alphabet) -> Formula:
    f = _parse_or(toks, alphabet)
    if toks.peek() is not None:
        toks.error(f"trailing input {toks.peek()!r}")
    return f


def parse_formula(text: str, alphabet: Alphabet | None = None) -> Formula:
    """Parse a formula; observation symbols are checked when an alphabet
    is supplied."""
    return _parse(_FormulaTokens(text, lor, land, prop, dpdl=False), alphabet)
