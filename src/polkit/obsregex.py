"""Observation expressions: regular expressions over observation symbols.

Expressions are built through the factory functions ``empty``, ``epsilon``,
``atom``, ``alt``, ``seq`` and ``star``, which normalize on construction:
sums are flattened, deduplicated and sorted, unit and zero laws for
concatenation are applied, and stars are in star normal form
(Brueggemann-Klein, TCS 1993): the body of a star never holds the empty
word, so ``(a*;b*)*`` is ``(a+b)*`` and ``(0*+a)*`` is ``a*``.
Normalization keeps the set of word derivatives of any expression finite,
which is what makes every walk below terminate.

Normalized expressions are interned in ``_interned``, the one intern
table of the package, which the formulas of ``polkit.syntax`` share. Its
values are weak: an expression equal to a live one is that same object,
and a dropped expression is reclaimed. Each node's constructor sets its
``nullable``, ``empty`` and ``size`` fields from its parts, so
``nullable``, ``is_empty_language`` and ``expr_size`` read a field.
Derivatives are cached in one bounded table.

The derivative of an expression by a symbol follows Brzozowski: the
language of ``derive(pi, a)`` is exactly ``{u | a u in L(pi)}``. So an
expression's derivatives are the states of its automaton, and ``walk``
generates the product of a graph with that automaton by deriving the
expression along each edge's letter, on demand (Owens, Reppy & Turon,
JFP 2009). Model checking, bubble validation and the dynamic-logic
solver all consume it, directly or through ``search``.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from functools import lru_cache

from .errors import (ExpressionTooDeep, InvalidInput, ParseError,
                     StateBudgetExceeded, UnknownSymbol)

__all__ = [
    "Alphabet", "ObsExpr", "Empty", "Epsilon", "Atom", "Sum", "Concat", "Star",
    "empty", "epsilon", "atom", "alt", "seq", "star",
    "nullable", "derive", "is_empty_language",
    "atoms", "expr_size",
    "walk", "search",
    "parse_regex", "print_regex", "parse_word",
]

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


def _is_identifier(name) -> bool:
    # an ASCII Python identifier is a letter or _ then letters, digits, _
    return isinstance(name, str) and name.isascii() and name.isidentifier()


class Alphabet:
    """An ordered, finite, non-empty set of observation symbol names."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols):
        # a string would be read letter by letter
        if isinstance(symbols, str):
            raise InvalidInput(f"alphabet is the string {symbols!r}, not "
                               f"a sequence of symbols")
        try:
            syms = tuple(symbols)
        except TypeError:
            raise InvalidInput(f"alphabet {symbols!r} is not a sequence of "
                               f"symbols") from None
        if not syms:
            raise InvalidInput("alphabet must be non-empty")
        seen = set()
        for s in syms:
            if not _is_identifier(s):
                raise InvalidInput(f"symbol {s!r} is not a valid identifier")
            if s in seen:
                raise InvalidInput(f"duplicate symbol {s!r}")
            seen.add(s)
        self.symbols = syms
        self._index = {s: i for i, s in enumerate(syms)}

    def __contains__(self, sym):
        return sym in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({list(self.symbols)!r})"

    def require(self, sym):
        if sym not in self._index:
            raise UnknownSymbol(f"symbol {sym!r} not in alphabet {list(self.symbols)}")


def _as_alphabet(symbols) -> Alphabet:
    """``symbols`` itself when it is an ``Alphabet``, else
    ``Alphabet(symbols)``."""
    return symbols if isinstance(symbols, Alphabet) else Alphabet(symbols)


class ObsExpr:
    """Base class of observation expression nodes. Construct via factories.

    Nodes are interned, so identity is structural equality, and the
    identity comparison and hash inherited from ``object`` serve as is.
    ``nullable`` (the language holds the empty word), ``empty`` (the
    language is empty), ``size`` (the node count, n-ary nodes counted
    as their binary equivalents) and ``depth`` (the nodes on the longest
    path down to a leaf) are set by each constructor from its parts.
    """

    __slots__ = ("_key", "__weakref__", "nullable", "empty", "size", "depth")

    def __repr__(self):
        return f"ObsExpr({print_regex(self)!r})"


class Empty(ObsExpr):
    """The empty language."""
    __slots__ = ()

    def __init__(self):
        self.nullable, self.empty, self.size, self.depth = False, True, 1, 1


class Epsilon(ObsExpr):
    """The language containing only the empty word (printed ``0*``)."""
    __slots__ = ()

    def __init__(self):
        self.nullable, self.empty, self.size, self.depth = True, False, 1, 1


class Atom(ObsExpr):
    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = symbol
        self.nullable, self.empty, self.size, self.depth = False, False, 1, 1


class Sum(ObsExpr):
    """N-ary union; operands are deduplicated and canonically ordered."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts
        self.nullable = any(p.nullable for p in parts)
        self.empty = all(p.empty for p in parts)
        self.size = len(parts) - 1 + sum(p.size for p in parts)
        self.depth = 1 + max(p.depth for p in parts)


class Concat(ObsExpr):
    """N-ary concatenation, flattened."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts
        self.nullable = all(p.nullable for p in parts)
        self.empty = any(p.empty for p in parts)
        self.size = len(parts) - 1 + sum(p.size for p in parts)
        self.depth = 1 + max(p.depth for p in parts)


class Star(ObsExpr):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body
        self.nullable, self.empty = True, False
        self.size, self.depth = 1 + body.size, 1 + body.depth


_EMPTY = Empty()
_EPSILON = Epsilon()

# The one intern table of the package: observation expressions and the
# formulas of ``polkit.syntax`` alike. Values are weak references, so
# nodes are reclaimed once nothing outside the table refers to them;
# machine-generated encodings run to millions of nodes and would
# otherwise pin memory for the life of the process. A dead reference
# removes its own entry, unless the key has been bound to a new node
# meanwhile. Keys hold the operands themselves, which keeps an entry's
# operands alive exactly as long as the entry and rules out identity
# reuse. This is ``weakref.WeakValueDictionary`` without its
# Python-level method calls, which made building and dropping formulas
# half again as slow.
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


def empty() -> ObsExpr:
    return _EMPTY


def epsilon() -> ObsExpr:
    return _EPSILON


def atom(symbol: str) -> ObsExpr:
    if not _is_identifier(symbol):
        raise UnknownSymbol(f"symbol {symbol!r} is not a valid identifier")
    return _intern(("a", symbol), Atom, symbol)


def alt(*parts) -> ObsExpr:
    """Union with flattening, identity ``0``, deduplication and sorting."""
    flat = []
    for p in parts:
        if isinstance(p, Sum):
            flat.extend(p.parts)
        elif isinstance(p, Empty):
            continue
        else:
            flat.append(p)
    uniq = sorted(set(flat), key=print_regex)
    if not uniq:
        return _EMPTY
    if len(uniq) == 1:
        return uniq[0]
    uniq = tuple(uniq)
    return _intern(("+",) + uniq, Sum, uniq)


def seq(*parts) -> ObsExpr:
    """Concatenation with flattening and the unit and zero laws."""
    flat = []
    for p in parts:
        if isinstance(p, Empty):
            return _EMPTY
        if isinstance(p, Epsilon):
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return _EPSILON
    if len(flat) == 1:
        return flat[0]
    flat = tuple(flat)
    return _intern((";",) + flat, Concat, flat)


# ``_derive`` and ``_strip`` recurse once per expression level, ``_derive``
# with two frames on a sum, so ``derive``, ``star`` and every walk refuse
# an expression deeper than this, a walk each derivative before it
# derives it. The formulas of ``polkit.syntax`` share the limit, and a
# modality's depth counts its expression's.
_MAX_DEPTH = 200


def _check_depth(e: ObsExpr) -> None:
    if e.depth > _MAX_DEPTH:
        raise ExpressionTooDeep(f"expression nests {e.depth} levels deep; "
                                f"the limit is {_MAX_DEPTH}")


def _strip(e: ObsExpr) -> ObsExpr:
    """An expression whose star is the star of ``e`` and whose language
    lacks the empty word (Brueggemann-Klein's ``e°``)."""
    if not e.nullable:
        return e
    if isinstance(e, Epsilon):
        return _EMPTY
    if isinstance(e, Star):
        return _strip(e.body)
    # a nullable sum, or a concatenation of nullable parts
    return alt(*map(_strip, e.parts))


def star(body: ObsExpr) -> ObsExpr:
    """The star in star normal form: its body never holds the empty word."""
    if body.nullable:
        _check_depth(body)
        body = _strip(body)
    if isinstance(body, Empty):
        return _EPSILON
    return _intern(("*", body), Star, body)


def nullable(e: ObsExpr) -> bool:
    """Does the language of ``e`` contain the empty word?"""
    return e.nullable


# Bounded, and the only cache of derivatives: the derivative of a star
# holds the star, so a cache on each node would keep whole chains of
# derivatives alive through the intern table's keys. Every walk steps
# through it.
@lru_cache(maxsize=4096)
def _derive(e: ObsExpr, sym: str) -> ObsExpr:
    if isinstance(e, (Empty, Epsilon)):
        return _EMPTY
    if isinstance(e, Atom):
        return _EPSILON if e.symbol == sym else _EMPTY
    if isinstance(e, Sum):
        return alt(*(_derive(p, sym) for p in e.parts))
    if isinstance(e, Concat):
        # d(p1 p2 .. pk) = d(p1) p2..pk  (+ d(p2..pk) while prefixes nullable)
        out = []
        for i, p in enumerate(e.parts):
            out.append(seq(_derive(p, sym), *e.parts[i + 1:]))
            if not p.nullable:
                break
        return alt(*out)
    if isinstance(e, Star):
        return seq(_derive(e.body, sym), e)
    raise TypeError(f"not an ObsExpr: {e!r}")


def derive(e: ObsExpr, sym: str) -> ObsExpr:
    """Brzozowski derivative of ``e`` by one symbol. No alphabet is
    consulted: a symbol that ``e`` does not hold gives ``empty()``."""
    _check_depth(e)
    return _derive(e, sym)


def is_empty_language(e: ObsExpr) -> bool:
    """Emptiness; exact because there is no complement."""
    return e.empty


# Bounded like ``_derive``'s cache: ``syntax.letters`` reads the symbols
# of every program in a formula, for each formula a ``Model`` checks.
@lru_cache(maxsize=4096)
def atoms(e: ObsExpr) -> frozenset:
    """The set of symbols occurring in the expression."""
    return frozenset(n.symbol for n in _nodes(e, _children)
                     if isinstance(n, Atom))


def _nodes(root, children) -> set:
    """The distinct nodes at and below ``root``."""
    seen = set()
    stack = [root]
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            stack.extend(children(n))
    return seen


def _kept_text(node, children, render) -> str:
    """The text ``node`` keeps in ``_key``. Nodes at and below it that
    keep none get theirs from ``render`` first, children before parents,
    so ``render`` reads each child's text from its ``_key``. An explicit
    stack stands in for recursion, so no nesting depth reaches the
    interpreter's recursion limit."""
    text = getattr(node, "_key", None)
    if text is not None:
        return text
    stack = [node]
    while stack:
        n = stack[-1]
        if getattr(n, "_key", None) is not None:
            stack.pop()
            continue
        todo = [c for c in children(n) if getattr(c, "_key", None) is None]
        if todo:
            stack.extend(todo)
        else:
            n._key = render(stack.pop())
    return node._key


def _children(e: ObsExpr) -> tuple:
    if isinstance(e, (Sum, Concat)):
        return e.parts
    if isinstance(e, Star):
        return (e.body,)
    return ()


def expr_size(e: ObsExpr) -> int:
    """Node count of the expression tree (shared subtrees count each
    time, n-ary nodes as their binary equivalents): the ``size`` field
    that each node's constructor keeps."""
    if not isinstance(e, ObsExpr):
        raise TypeError(f"not an ObsExpr: {e!r}")
    return e.size


# Distinct derivatives that one walk may meet; past it the walk raises
# ``StateBudgetExceeded``.
_MAX_DERIVATIVES = 10 ** 6


def _meet(e: ObsExpr, met: set) -> None:
    """Add ``e`` to ``met``, the derivatives that one walk has met, when
    the walk reaches ``e`` for the first time, before it derives ``e``.
    An ``e`` deeper than ``_MAX_DEPTH`` raises ExpressionTooDeep, which
    keeps ``_derive`` within the frame budget, and a walk's
    ``_MAX_DERIVATIVES + 1``-th derivative raises StateBudgetExceeded."""
    _check_depth(e)
    if len(met) >= _MAX_DERIVATIVES:
        raise StateBudgetExceeded(f"a walk meets more than "
                                  f"{_MAX_DERIVATIVES} derivatives")
    met.add(e)


def walk(e: ObsExpr, start, step):
    """The live pairs of the product of ``e``'s automaton with a graph,
    the one loop over such products.

    Yields ``(node, derivative)`` pairs from ``(start, e)``, breadth
    first and each once. ``step(node)`` yields the graph's ``(symbol,
    successor)`` edges, and each edge derives the pair's expression by
    its symbol. A pair whose derivative has an empty language is never
    yielded: no walk through it ends at a nullable one. ``step(node)``
    is called only when the pair after ``node``'s is asked for, so it
    may prune by what the consumer has found. Each derivative is met
    (``_meet``, which raises ExpressionTooDeep and StateBudgetExceeded)
    before its pair is yielded. A suspended generator holds no frame, so
    an evaluator that iterates a walk in its own frame spends one frame
    per formula level.
    """
    return _walk(e, start, step, {})


def _walk(e, start, step, parent):
    # parent: each queued pair -> the pair and symbol it was reached by
    parent[(start, e)] = None
    queue = [] if e.empty else [(start, e)]
    met = set()
    for pair in queue:  # the queue grows while it is read
        node, q = pair
        if q not in met:
            _meet(q, met)
        yield pair
        for sym, nxt in step(node):
            q2 = _derive(q, sym)
            if not q2.empty and (nxt, q2) not in parent:
                parent[(nxt, q2)] = (pair, sym)
                queue.append((nxt, q2))


def search(e: ObsExpr, start, step, goal):
    """Shortest walk to a goal through the pairs of ``walk(e, start,
    step)``, asking ``goal(node)`` only at nullable pairs: the
    ``(symbol, node)`` steps to the first goal met, ``[]`` when the
    start pair is one, or None when no goal can be reached."""
    parent = {}
    for pair in _walk(e, start, step, parent):
        if pair[1].nullable and goal(pair[0]):
            path = []
            while parent[pair] is not None:
                prev, sym = parent[pair]
                path.append((sym, pair[0]))
                pair = prev
            path.reverse()
            return path
    return None


# --- concrete syntax ---------------------------------------------------------

_PREC_SUM, _PREC_CAT, _PREC_STAR = 1, 2, 3


def _prec(e: ObsExpr) -> int:
    if isinstance(e, Sum):
        return _PREC_SUM
    if isinstance(e, Concat):
        return _PREC_CAT
    return _PREC_STAR


def print_regex(e: ObsExpr) -> str:
    """The text of ``e``. Each node keeps its text once printed, so a
    new node's text joins the kept texts of its parts; ``alt`` sorts by
    it, which prints the parts of every sum as they are built. Parts
    without a text are printed first, on an explicit stack."""
    return _kept_text(e, _children, _print_node)


def _print_node(e: ObsExpr) -> str:
    if isinstance(e, Empty):
        return "0"
    if isinstance(e, Epsilon):
        return "0*"
    if isinstance(e, Atom):
        return e.symbol
    if isinstance(e, Sum):
        return "+".join(print_regex(p) for p in e.parts)
    if isinstance(e, Concat):
        out = []
        for p in e.parts:
            s = print_regex(p)
            out.append(f"({s})" if _prec(p) < _PREC_CAT else s)
        return ";".join(out)
    if isinstance(e, Star):
        s = print_regex(e.body)
        if _prec(e.body) < _PREC_STAR or isinstance(e.body, Epsilon):
            s = f"({s})"
        return s + "*"
    raise TypeError(f"not an ObsExpr: {e!r}")


# The parsers recurse once per nesting level; refusing deeper input
# keeps a formula and the expressions inside it well within the stack.
_MAX_NESTING = 64


class _RegexTokens:
    """Tokens of one expression text: the characters of ``PUNCT`` and
    identifiers. ``>`` and ``]`` end an expression, so a formula's parser
    reads the program of ``<pi>f`` or ``[pi]f`` on its own cursor."""

    PUNCT = "()+;*0>]"

    def __init__(self, text):
        if not isinstance(text, str):
            raise InvalidInput(f"{text!r} is not a text to parse")
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.depth = 0

    def error(self, msg):
        raise ParseError(msg, self.line, self.col)

    def nested(self, parse, *args):
        """``parse(self, *args)`` one nesting level deeper; a ParseError
        once the input nests deeper than ``_MAX_NESTING`` levels."""
        if self.depth >= _MAX_NESTING:
            self.error(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1
        result = parse(self, *args)
        self.depth -= 1
        return result

    def _advance(self, n):
        for c in self.text[self.pos:self.pos + n]:
            if c == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\r\n":
            self._advance(1)
        if self.pos >= len(self.text):
            return None
        c = self.text[self.pos]
        if c in self.PUNCT:
            return c
        if c in _IDENT_FIRST:
            j = self.pos + 1
            while j < len(self.text) and self.text[j] in _IDENT_REST:
                j += 1
            return self.text[self.pos:j]
        return self.other(c)

    def other(self, c):
        # the token at ``c``, which is no punctuation and no identifier
        self.error(f"unexpected character {c!r}")

    def take(self):
        tok = self.peek()
        if tok is not None:
            self._advance(len(tok))
        return tok


def _parse_sum(toks, alphabet):
    parts = [_parse_cat(toks, alphabet)]
    while toks.peek() == "+":
        toks.take()
        parts.append(_parse_cat(toks, alphabet))
    return alt(*parts) if len(parts) > 1 else parts[0]


def _parse_cat(toks, alphabet):
    parts = [_parse_factor(toks, alphabet)]
    while True:
        tok = toks.peek()
        if tok == ";":
            toks.take()
            parts.append(_parse_factor(toks, alphabet))
        elif tok is not None and (tok in ("(", "0") or tok[0] in _IDENT_FIRST):
            # juxtaposition is concatenation
            parts.append(_parse_factor(toks, alphabet))
        else:
            break
    return seq(*parts) if len(parts) > 1 else parts[0]


def _parse_factor(toks, alphabet):
    e = _parse_base(toks, alphabet)
    while toks.peek() == "*":
        toks.take()
        e = star(e)
    return e


def _parse_base(toks, alphabet):
    tok = toks.peek()
    if tok is None:
        toks.error("unexpected end of expression")
    if tok == "(":
        toks.take()
        e = toks.nested(_parse_sum, alphabet)
        if toks.peek() != ")":
            toks.error("expected ')'")
        toks.take()
        return e
    if tok == "0":
        toks.take()
        return _EMPTY
    if tok[0] not in _IDENT_FIRST:
        toks.error(f"unexpected {tok!r}")
    toks.take()
    if alphabet is not None and tok not in alphabet:
        raise UnknownSymbol(
            f"symbol {tok!r} not in alphabet {list(alphabet.symbols)}")
    return atom(tok)


def parse_regex(text: str, alphabet: Alphabet | None = None) -> ObsExpr:
    """Parse the concrete regex syntax.

    Grammar: ``0`` (empty), symbols, ``+``, ``;`` (or juxtaposition), ``*``
    and parentheses, with ``*`` binding tighter than ``;`` than ``+``.
    Symbols are identifiers, so ``ab`` is one symbol while ``a;b`` (or
    ``a b``) concatenates two.
    """
    toks = _RegexTokens(text)
    if alphabet is not None:
        alphabet = _as_alphabet(alphabet)
    e = _parse_sum(toks, alphabet)
    if toks.peek() is not None:
        toks.error(f"trailing input {toks.peek()!r}")
    return e


def parse_word(text: str, alphabet: Alphabet) -> tuple:
    """Parse an observation word.

    Tokens are separated by whitespace or commas. A token that names an
    alphabet symbol stands for itself; otherwise, if each of its characters
    is a symbol, it abbreviates that character sequence (so ``ba`` over
    {a, b} is the two-letter word b a). The empty string is the empty word.
    """
    if not isinstance(text, str):
        raise InvalidInput(f"{text!r} is not a text to parse")
    alphabet = _as_alphabet(alphabet)
    word = []
    for tok in text.replace(",", " ").split():
        if tok in alphabet:
            word.append(tok)
        elif all(c in alphabet for c in tok):
            word.extend(tok)
        else:
            raise UnknownSymbol(
                f"cannot read {tok!r} as symbols from {list(alphabet.symbols)}")
    return tuple(word)
