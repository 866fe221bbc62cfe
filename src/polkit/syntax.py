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
    "surv(1)", "x y"     propositions (quoted, \\ escapes " and \\)
    ~f, f & g, f | g     connectives, ~ binds tighter than & than |
    hK_i f               agent i considers f possible
    K_i f                agent i knows f
    <pi>f, [pi]f         some/every word matching pi can be observed
                         such that f holds afterwards

Unary operators bind tightest and chain to the right, so ``K_a ~<b>p | q``
reads ``(K_a ~<b>p) | q``.

One name rule serves both logics, and ``prop`` is its one factory. A
proposition name is any non-empty string except ``true`` and ``false``
and the names that start with ``K_`` or ``hK_``; an agent name is a
non-empty string of ASCII letters, digits and ``_``. So an identifier
token is a constant, an agent operator when it starts with ``K_`` or
``hK_``, and a proposition otherwise, in either logic. A proposition
name that is not an identifier, such as the translation's ``@1.<a>p``,
is printed quoted, and every printed formula parses back to itself.
The dynamic logic of ``polkit.dpdl`` reads the same text and refuses
agent operators.

Disjunction and conjunction nodes hold a tuple of parts. The factories
here are binary, so observation-logic formulas keep their shape as
written; ``polkit.dpdl`` adds factories that flatten nested junctions.

``definition`` states how a formula's truth follows from others in one
step, unfolding modalities over composite expressions. ``closure``
collects subformulas and the operands of those definitions in one walk
that reads each member's definition once, and the solver of
``polkit.dpdl`` reads the definitions from that same walk;
``fl_closure`` adds single negations. Both are linear in the formula's
size.
"""

from __future__ import annotations

import re

from . import obsregex as ox
from .errors import FormulaTooDeep, InvalidInput, ParseError
from .obsregex import Alphabet, ObsExpr, _intern

__all__ = [
    "Formula", "Top", "Prop", "Not", "Or", "And", "Hat", "Know", "Dia", "Box",
    "top", "prop", "lnot", "lor", "land", "hat", "know", "dia", "box",
    "parse_formula", "print_formula", "formula_size", "closure_order",
    "props", "agents", "letters", "definition", "closure", "fl_closure",
]


class Formula:
    """Base class of formula nodes. Construct via the factory functions.

    Nodes are interned, in the one intern table of ``polkit.obsregex``,
    so identity is structural equality, and the identity comparison and
    hash inherited from ``object`` serve as is. Each constructor sets
    two fields from the node's parts: ``size``, the node count with
    observation expression nodes included and junctions counted as
    their binary equivalents, and ``depth``, the number of nodes on the
    longest path from this node down to a leaf, where a modality's
    paths run into its expression as well as its argument.
    """

    __slots__ = ("_key", "__weakref__", "size", "depth")

    def __repr__(self):
        return f"Formula({print_formula(self)!r})"


# A node constructor runs only when the intern table misses, and no key
# with an operand of the wrong type ever gets into the table, so the
# constructors check each operand once per distinct node, and a factory
# call that hits the table pays nothing for the check.
def _refuse(operand, kind="a formula"):
    raise InvalidInput(f"{operand!r} is not {kind}")


class Top(Formula):
    __slots__ = ()

    def __init__(self):
        self.size = self.depth = 1


class Prop(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name
        self.size = self.depth = 1


class Not(Formula):
    __slots__ = ("arg",)

    def __init__(self, arg):
        if not isinstance(arg, Formula):
            _refuse(arg)
        self.arg = arg
        self.size, self.depth = 1 + arg.size, 1 + arg.depth


# Each pair of node shapes below shares the constructor of a private base.
class _Junction(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts):
        size = len(parts) - 1
        depth = 0
        for p in parts:
            if not isinstance(p, Formula):
                _refuse(p)
            size += p.size
            d = p.depth
            if d > depth:
                depth = d
        self.parts = parts
        self.size = size
        self.depth = 1 + depth


class Or(_Junction):
    __slots__ = ()


class And(_Junction):
    __slots__ = ()


class _Epistemic(Formula):
    __slots__ = ("agent", "arg")

    def __init__(self, agent, arg):
        if not isinstance(arg, Formula):
            _refuse(arg)
        self.agent = agent
        self.arg = arg
        self.size, self.depth = 1 + arg.size, 1 + arg.depth


class Hat(_Epistemic):
    """hK_agent arg: the agent considers arg possible."""
    __slots__ = ()


class Know(_Epistemic):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("pi", "arg")

    def __init__(self, pi, arg):
        if not isinstance(pi, ObsExpr):
            _refuse(pi, "an observation expression")
        if not isinstance(arg, Formula):
            _refuse(arg)
        self.pi = pi
        self.arg = arg
        self.size = 1 + pi.size + arg.size
        self.depth = 1 + max(pi.depth, arg.depth)


class Dia(_Modal):
    """<pi> arg: some word matching pi survives and leads to arg."""
    __slots__ = ()


class Box(_Modal):
    __slots__ = ()


_TOP = Top()


def top() -> Formula:
    return _TOP


def prop(name: str) -> Formula:
    if (not isinstance(name, str) or not name or name in ("true", "false")
            or name.startswith(("K_", "hK_"))):
        raise InvalidInput(
            f"{name!r} is not a proposition name: a name is a non-empty "
            f"string other than true and false, not starting with K_ or hK_")
    return _intern(("p", name), Prop, name)


def lnot(arg: Formula) -> Formula:
    return _intern(("~", arg), Not, arg)


def lor(left: Formula, right: Formula) -> Formula:
    return _intern(("|", left, right), Or, (left, right))


def land(left: Formula, right: Formula) -> Formula:
    return _intern(("&", left, right), And, (left, right))


def _agent(name: str) -> str:
    # only a non-empty run of ASCII letters, digits and _ reads back as
    # the one token K_<name>
    if not (isinstance(name, str) and name and ox._IDENT_REST.issuperset(name)):
        raise InvalidInput(f"{name!r} is not an agent name: a name is a "
                           f"non-empty string of ASCII letters, digits and _")
    return name


def hat(agent: str, arg: Formula) -> Formula:
    return _intern(("hK", _agent(agent), arg), Hat, agent, arg)


def know(agent: str, arg: Formula) -> Formula:
    return _intern(("K", _agent(agent), arg), Know, agent, arg)


def dia(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("<>", pi, arg), Dia, pi, arg)


def box(pi: ObsExpr, arg: Formula) -> Formula:
    return _intern(("[]", pi, arg), Box, pi, arg)


# --- closure and measures ----------------------------------------------------


def _children(f: Formula) -> tuple:
    if isinstance(f, (Or, And)):
        return f.parts
    if isinstance(f, (Not, Hat, Know, Dia, Box)):
        return (f.arg,)
    return ()


def formula_size(f: Formula) -> int:
    """Node count, with observation expression nodes included and
    junctions counted as their binary equivalents: the ``size`` field
    that each node's constructor keeps."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a Formula: {f!r}")
    return f.size


# Every evaluator spends one frame per formula level: a modal level
# iterates its walk (``ox.walk``) in its own frame, and a suspended walk
# holds none, and ``Model.explain`` spends one frame more in all. A
# modality's depth counts its program's: the walk of a modal level
# derives the program, at most two frames per expression level, on top
# of that level's frame and never inside the body's evaluation. So 200
# levels (``ox._MAX_DEPTH``) of modalities leave about 800 of the
# interpreter's default recursion limit of 1,000 to the caller.
_MAX_DEPTH = ox._MAX_DEPTH


def _check_depth(f: Formula) -> None:
    """FormulaTooDeep when ``f`` nests deeper than ``_MAX_DEPTH``. A
    non-formula passes, and the evaluator's own TypeError reports it."""
    if isinstance(f, Formula) and f.depth > _MAX_DEPTH:
        raise FormulaTooDeep(f"formula nests {f.depth} levels deep; the "
                             f"limit is {_MAX_DEPTH}")


def props(f: Formula) -> frozenset:
    return frozenset(g.name for g in ox._nodes(f, _children)
                     if isinstance(g, Prop))


def agents(f: Formula) -> frozenset:
    return frozenset(g.agent for g in ox._nodes(f, _children)
                     if isinstance(g, (Hat, Know)))


def letters(f: Formula) -> frozenset:
    """All observation symbols occurring in the formula's expressions."""
    pis = {g.pi for g in ox._nodes(f, _children) if isinstance(g, (Dia, Box))}
    return frozenset().union(*map(ox.atoms, pis))


def definition(g: Formula) -> tuple:
    """How the truth of ``g`` follows from other formulas, in one step.

    Returns ``(kind, operands)``: ``not`` with one operand, which ``g``
    negates; ``or`` and ``and`` with any number (an ``and`` of none is
    true, an ``or`` of none false, a junction of one its operand); or
    ``free`` with none. Propositions, modalities over a single letter
    and the agent operators are free: their truth is not fixed by other
    formulas at the same state. A modality over a composite expression
    is the junction, ``or`` under a diamond and ``and`` under a box, of
    one step toward the expression's head: sequencing peels its first
    factor, a sum branches, a star either stops or runs its body once
    and recurs, the empty word defers to the argument, and the empty
    language has no branch. The empty-word and star rules are exact
    because every state of a model survives the empty word (see
    ``models``). Every node is of a class that has no subclass, so the
    cases dispatch on the exact class.
    """
    cls = type(g)
    if cls is Or:
        return ("or", g.parts)
    if cls is Not:
        return ("not", (g.arg,))
    if cls is Prop:
        return ("free", ())
    if cls is Dia or cls is Box:
        pi = g.pi
        kind = type(pi)
        if kind is ox.Atom:
            return ("free", ())
        make, junction = (dia, "or") if cls is Dia else (box, "and")
        if kind is ox.Star:
            return (junction, (g.arg, make(pi.body, g)))
        if kind is ox.Concat:
            rest = ox.seq(*pi.parts[1:])
            return (junction, (make(pi.parts[0], make(rest, g.arg)),))
        if kind is ox.Sum:
            return (junction, tuple(make(p, g.arg) for p in pi.parts))
        if kind is ox.Epsilon:
            return (junction, (g.arg,))
        if kind is ox.Empty:
            return (junction, ())
        raise TypeError(f"unsupported expression {pi!r}")
    if cls is And:
        return ("and", g.parts)
    if cls is Top:
        return ("and", ())
    if cls is Hat or cls is Know:
        return ("free", ())
    raise TypeError(f"not a Formula: {g!r}")


def _closure(f: Formula) -> tuple:
    """The one closure walk: ``closure(f)``, each member's
    ``definition`` in the same order, read once as the walk reaches the
    member, and the index of each member in that order."""
    definitions = []
    index = {}
    stack = [f]
    push = stack.append
    while stack:
        g = stack.pop()
        if g in index:
            continue
        index[g] = len(definitions)
        d = definition(g)
        definitions.append(d)
        cls = type(g)
        if cls is Or or cls is And:
            stack.extend(reversed(d[1]))
        elif cls is not Top and cls is not Prop:
            # a unary node's argument goes first, then the operands of
            # its definition that differ from it
            arg = g.arg
            push(arg)
            for h in reversed(d[1]):
                if h is not arg:
                    push(h)
    # a dict keeps its keys in insertion order, the members' order
    return tuple(index), tuple(definitions), index


def closure(f: Formula) -> tuple:
    """Subformulas of ``f`` together with their modal unfoldings.

    Every operand of a member's ``definition`` is itself a member, so a
    truth assignment to the members determines each member from the
    free ones alone. The order is deterministic: one walk (``_closure``)
    takes each member from a stack, reads its definition once, and
    pushes its argument and then its definition's operands, last first.
    """
    return _closure(f)[0]


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
    # ``prop`` refuses the names an identifier token reads otherwise
    if ox._is_identifier(name):
        return name
    escaped = name.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def print_formula(f: Formula) -> str:
    """The text of ``f``. Each node keeps its text once printed, and
    parts without a text are printed first, on an explicit stack."""
    return ox._kept_text(f, _children, _print_node)


def _print_node(f: Formula) -> str:
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


def closure_order(f: Formula) -> tuple:
    """Sort key of the closure order, in which bubble validation checks
    labels and the encoding lists members: by size, then by text."""
    return (f.size, print_formula(f))


# --- parsing -----------------------------------------------------------------


# a quoted proposition name, in which \" and \\ stand for " and \
_QUOTED = re.compile(r'"(?:[^"\\]|\\["\\])*"')


class _FormulaTokens(ox._RegexTokens):
    """Tokens of one formula text, in either logic, with the junction
    factories that build it: binary ones for observation logic and
    flattening ones for ``polkit.dpdl``. They add the connectives and
    quoted names to the tokens of ``obsregex``, so the program of
    ``<pi>`` or ``[pi]`` is read on this cursor."""

    PUNCT = "()&|~<>[]+;*0"

    def __init__(self, text, lor, land):
        super().__init__(text)
        self.lor = lor
        self.land = land
        # where the first agent operator starts, which parse_dpdl refuses
        self.agent_at = None

    def other(self, c):
        quoted = _QUOTED.match(self.text, self.pos) if c == '"' else None
        if quoted is None:
            return super().other(c)
        return quoted.group()


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
    if tok in ("<", "["):
        toks.take()
        pi = ox._parse_sum(toks, alphabet)
        close = ">" if tok == "<" else "]"
        if toks.peek() != close:
            toks.error(f"expected {close!r}")
        toks.take()
        make = dia if tok == "<" else box
        return make(pi, toks.nested(_parse_unary, alphabet))
    op, _, agent = tok.partition("_")
    if op in ("K", "hK") and agent:
        if toks.agent_at is None:
            toks.agent_at = (toks.line, toks.col)
        toks.take()
        make = know if op == "K" else hat
        return make(agent, toks.nested(_parse_unary, alphabet))
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
    if tok in ("true", "false"):
        toks.take()
        return top() if tok == "true" else lnot(top())
    # a bare K_ or hK_, and a quoted name that prop refuses, fail here
    name = re.sub(r'\\(.)', r'\1', tok[1:-1]) if tok[0] == '"' else tok
    try:
        f = prop(name)
    except InvalidInput as err:
        toks.error(str(err))
    toks.take()
    return f


def _parse(toks: _FormulaTokens, alphabet) -> Formula:
    if alphabet is not None:
        alphabet = ox._as_alphabet(alphabet)
    f = _parse_or(toks, alphabet)
    if toks.peek() is not None:
        toks.error(f"trailing input {toks.peek()!r}")
    # the grammar's nesting cap does not count junction chains, so the
    # parsed formula meets the evaluators' depth limit here
    if f.depth > _MAX_DEPTH:
        raise ParseError(f"formula nests {f.depth} levels deep; the limit "
                         f"is {_MAX_DEPTH}")
    return f


def parse_formula(text: str, alphabet: Alphabet | None = None) -> Formula:
    """Parse a formula; observation symbols are checked when an alphabet
    is supplied."""
    return _parse(_FormulaTokens(text, lor, land), alphabet)
