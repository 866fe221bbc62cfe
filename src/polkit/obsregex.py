"""Observation expressions: regular expressions over observation symbols.

Expressions are built through the factory functions ``empty``, ``epsilon``,
``atom``, ``alt``, ``seq`` and ``star``, which normalize on construction:
sums are flattened, deduplicated and sorted, unit and zero laws for
concatenation are applied, and nested stars collapse. Normalized
expressions are interned, so two equal expressions are the same object.
Normalization keeps the set of word derivatives of any expression finite,
which is what makes the automaton construction below terminate.

The derivative of an expression by a symbol (and by extension a word)
follows Brzozowski: the language of ``residuate(pi, w)`` is exactly
``{u | w u in L(pi)}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParseError, StateBudgetExceeded, UnknownSymbol

__all__ = [
    "Alphabet", "ObsExpr", "Empty", "Epsilon", "Atom", "Sum", "Concat", "Star",
    "empty", "epsilon", "atom", "alt", "seq", "star",
    "nullable", "derive", "residuate", "is_empty_language", "member",
    "atoms", "expr_size", "normalize",
    "Dfa", "to_dfa", "search", "language_equivalent",
    "parse_regex", "print_regex", "parse_word",
]

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


def _is_identifier(name: str) -> bool:
    # an ASCII Python identifier is a letter or _ then letters, digits, _
    return name.isascii() and name.isidentifier()


class Alphabet:
    """An ordered, finite, non-empty set of observation symbol names."""

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must be non-empty")
        seen = set()
        for s in syms:
            if not _is_identifier(s):
                raise ValueError(f"symbol {s!r} is not a valid identifier")
            if s in seen:
                raise ValueError(f"duplicate symbol {s!r}")
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


class ObsExpr:
    """Base class of observation expression nodes. Construct via factories.

    Nodes are interned, so identity is structural equality, and the
    identity comparison and hash inherited from ``object`` serve as is.
    """

    __slots__ = ("_key",)

    def __repr__(self):
        return f"ObsExpr({print_regex(self)!r})"


class Empty(ObsExpr):
    """The empty language."""
    __slots__ = ()


class Epsilon(ObsExpr):
    """The language containing only the empty word (printed ``0*``)."""
    __slots__ = ()


class Atom(ObsExpr):
    __slots__ = ("symbol",)

    def __init__(self, symbol):
        self.symbol = symbol


class Sum(ObsExpr):
    """N-ary union; operands are deduplicated and canonically ordered."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


class Concat(ObsExpr):
    """N-ary concatenation, flattened."""
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


class Star(ObsExpr):
    __slots__ = ("body",)

    def __init__(self, body):
        self.body = body


_EMPTY = Empty()
_EPSILON = Epsilon()
_interned: dict = {}


def empty() -> ObsExpr:
    return _EMPTY


def epsilon() -> ObsExpr:
    return _EPSILON


def atom(symbol: str) -> ObsExpr:
    if not _is_identifier(symbol):
        raise UnknownSymbol(f"symbol {symbol!r} is not a valid identifier")
    key = ("a", symbol)
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Atom(symbol)
    return node


def _sort_key(e: ObsExpr) -> str:
    key = getattr(e, "_key", None)
    if key is None:
        key = print_regex(e)
        e._key = key
    return key


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
    uniq = sorted(set(flat), key=_sort_key)
    if not uniq:
        return _EMPTY
    if len(uniq) == 1:
        return uniq[0]
    key = ("+",) + tuple(id(p) for p in uniq)
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Sum(tuple(uniq))
    return node


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
    key = (";",) + tuple(id(p) for p in flat)
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Concat(tuple(flat))
    return node


def star(body: ObsExpr) -> ObsExpr:
    if isinstance(body, (Empty, Epsilon)):
        return _EPSILON
    if isinstance(body, Star):
        return body
    key = ("*", id(body))
    node = _interned.get(key)
    if node is None:
        node = _interned[key] = Star(body)
    return node


def normalize(e: ObsExpr) -> ObsExpr:
    """Rebuild an expression through the normalizing factories."""
    if isinstance(e, Empty):
        return _EMPTY
    if isinstance(e, Epsilon):
        return _EPSILON
    if isinstance(e, Atom):
        return atom(e.symbol)
    if isinstance(e, Sum):
        return alt(*(normalize(p) for p in e.parts))
    if isinstance(e, Concat):
        return seq(*(normalize(p) for p in e.parts))
    if isinstance(e, Star):
        return star(normalize(e.body))
    raise TypeError(f"not an ObsExpr: {e!r}")


@lru_cache(maxsize=None)
def nullable(e: ObsExpr) -> bool:
    """Does the language of ``e`` contain the empty word?"""
    if isinstance(e, (Epsilon, Star)):
        return True
    if isinstance(e, (Empty, Atom)):
        return False
    if isinstance(e, Sum):
        return any(nullable(p) for p in e.parts)
    if isinstance(e, Concat):
        return all(nullable(p) for p in e.parts)
    raise TypeError(f"not an ObsExpr: {e!r}")


@lru_cache(maxsize=None)
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
            if not nullable(p):
                break
        return alt(*out)
    if isinstance(e, Star):
        return seq(_derive(e.body, sym), e)
    raise TypeError(f"not an ObsExpr: {e!r}")


def derive(e: ObsExpr, sym: str, alphabet: Alphabet | None = None) -> ObsExpr:
    """Brzozowski derivative of ``e`` by one symbol."""
    if alphabet is not None:
        alphabet.require(sym)
    return _derive(e, sym)


def residuate(e: ObsExpr, word, alphabet: Alphabet | None = None) -> ObsExpr:
    """Derivative by a word: L(residuate(e, w)) = {u | w u in L(e)}."""
    for sym in word:
        e = derive(e, sym, alphabet)
    return e


@lru_cache(maxsize=None)
def is_empty_language(e: ObsExpr) -> bool:
    """Structural emptiness; exact because there is no complement."""
    if isinstance(e, Empty):
        return True
    if isinstance(e, (Epsilon, Atom, Star)):
        return False
    if isinstance(e, Sum):
        return all(is_empty_language(p) for p in e.parts)
    if isinstance(e, Concat):
        return any(is_empty_language(p) for p in e.parts)
    raise TypeError(f"not an ObsExpr: {e!r}")


def member(e: ObsExpr, word, alphabet: Alphabet | None = None) -> bool:
    return nullable(residuate(e, word, alphabet))


def atoms(e: ObsExpr) -> frozenset:
    """The set of symbols occurring in the expression."""
    out = set()
    stack = [e]
    seen = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Atom):
            out.add(n.symbol)
        elif isinstance(n, (Sum, Concat)):
            stack.extend(n.parts)
        elif isinstance(n, Star):
            stack.append(n.body)
    return frozenset(out)


def expr_size(e: ObsExpr, _memo=None) -> int:
    """Node count of the expression tree (shared subtrees count each time)."""
    if _memo is None:
        _memo = {}
    got = _memo.get(id(e))
    if got is not None:
        return got
    if isinstance(e, (Sum, Concat)):
        # n-ary nodes stand for a chain of n-1 binary applications
        n = (len(e.parts) - 1) + sum(expr_size(p, _memo) for p in e.parts)
    elif isinstance(e, Star):
        n = 1 + expr_size(e.body, _memo)
    else:
        n = 1
    _memo[id(e)] = n
    return n


@dataclass(frozen=True)
class Dfa:
    """Deterministic automaton over derivatives. State 0 is initial."""

    alphabet: Alphabet
    states: tuple          # tuple of ObsExpr, index = state id
    transitions: dict      # (state, symbol) -> state
    accepting: frozenset
    live: frozenset        # states whose language is not empty

    def step(self, state: int, sym: str) -> int:
        return self.transitions[(state, sym)]

    def accepts(self, word) -> bool:
        state = 0
        for sym in word:
            state = self.transitions[(state, sym)]
        return state in self.accepting


@lru_cache(maxsize=4096)
def to_dfa(e: ObsExpr, alphabet: Alphabet, max_states: int = 10 ** 6) -> Dfa:
    """Derivative automaton of ``e``; all states reachable from the initial.

    Results are cached, so equal arguments give the same automaton,
    which callers must not mutate. The cache is the only automaton cache
    of the package and holds a bounded number of automata.
    """
    for sym in atoms(e):
        alphabet.require(sym)
    index = {e: 0}
    states = [e]
    transitions = {}
    frontier = [e]
    while frontier:
        nxt = []
        for src in frontier:
            src_id = index[src]
            for sym in alphabet:
                dst = _derive(src, sym)
                dst_id = index.get(dst)
                if dst_id is None:
                    if len(states) >= max_states:
                        raise StateBudgetExceeded(
                            f"derivative automaton exceeds {max_states} states")
                    dst_id = index[dst] = len(states)
                    states.append(dst)
                    nxt.append(dst)
                transitions[(src_id, sym)] = dst_id
        frontier = nxt
    accepting = frozenset(i for i, s in enumerate(states) if nullable(s))
    live = frozenset(i for i, s in enumerate(states)
                     if not is_empty_language(s))
    return Dfa(alphabet, tuple(states), transitions, accepting, live)


def search(dfa: Dfa, start, step, goal):
    """Shortest walk through the product of ``dfa`` with a graph.

    The walk starts at the pair ``(start, 0)``. ``step(node)`` yields the
    graph's ``(symbol, successor)`` edges out of ``node``, and each edge
    moves the automaton by its symbol. Pairs are visited breadth first;
    ``goal(node)`` is asked only at pairs whose automaton state accepts.
    A pair whose automaton state has an empty language is never queued,
    since no walk through it ends in an accepting state.

    Returns the ``(symbol, node)`` steps of a shortest walk to the first
    goal met, ``[]`` when the start pair is one, or None when no goal
    can be reached.
    """
    first = (start, 0)
    parent = {first: None}
    queue = [first] if 0 in dfa.live else []
    for pair in queue:  # the queue grows while it is read
        node, q = pair
        if q in dfa.accepting and goal(node):
            path = []
            while parent[pair] is not None:
                prev, sym = parent[pair]
                path.append((sym, pair[0]))
                pair = prev
            path.reverse()
            return path
        for sym, nxt in step(node):
            q2 = dfa.transitions[(q, sym)]
            if q2 in dfa.live and (nxt, q2) not in parent:
                parent[(nxt, q2)] = (pair, sym)
                queue.append((nxt, q2))
    return None


def language_equivalent(e1: ObsExpr, e2: ObsExpr,
                        alphabet: Alphabet | None = None,
                        max_states: int = 10 ** 6) -> bool:
    """Language equality via emptiness of the product symmetric difference."""
    if alphabet is None:
        syms = sorted(atoms(e1) | atoms(e2))
        if not syms:
            # both languages are subsets of {epsilon}
            return nullable(e1) == nullable(e2) and \
                is_empty_language(e1) == is_empty_language(e2)
        alphabet = Alphabet(syms)
    d1 = to_dfa(e1, alphabet, max_states)
    d2 = to_dfa(e2, alphabet, max_states)
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        nxt = []
        for s1, s2 in frontier:
            if (s1 in d1.accepting) != (s2 in d2.accepting):
                return False
            for sym in alphabet:
                pair = (d1.transitions[(s1, sym)], d2.transitions[(s2, sym)])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
    return True


# --- concrete syntax ---------------------------------------------------------

_PREC_SUM, _PREC_CAT, _PREC_STAR = 1, 2, 3


def _prec(e: ObsExpr) -> int:
    if isinstance(e, Sum):
        return _PREC_SUM
    if isinstance(e, Concat):
        return _PREC_CAT
    return _PREC_STAR


def print_regex(e: ObsExpr) -> str:
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
    def __init__(self, text):
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
        if c in "()+;*0":
            return c
        if c in _IDENT_FIRST:
            j = self.pos + 1
            while j < len(self.text) and self.text[j] in _IDENT_REST:
                j += 1
            return self.text[self.pos:j]
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
        elif tok is not None and (tok == "(" or tok == "0" or tok not in ")+;*"):
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
    if tok in ")+;*":
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
