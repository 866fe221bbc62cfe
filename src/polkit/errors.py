"""Exception taxonomy shared across the toolkit.

Every error the library raises deliberately derives from PolError, so
callers can tell malformed input and exhausted budgets apart from
genuine bugs. An argument that breaks a stated contract raises
InvalidInput, which is also a ValueError; a symbol, agent or state
that the model or alphabet at hand does not hold raises the matching
Unknown error.
"""


class PolError(Exception):
    """Base class for all toolkit errors."""


class ParseError(PolError):
    """Malformed concrete syntax. Carries 1-based line and column."""

    def __init__(self, message, line=1, column=1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class InvalidInput(PolError, ValueError):
    """A constructor argument that violates its stated contract."""


class FormulaTooDeep(PolError):
    """A formula nesting deeper than the evaluators' stated limit."""


class ExpressionTooDeep(PolError):
    """An observation expression nesting deeper than the stated limit."""


class UnknownSymbol(PolError):
    """An observation symbol that is not part of the ambient alphabet."""


class UnknownAgent(PolError):
    """An agent name that is not part of the declared agent set."""


class UnknownState(PolError):
    """A state id that does not occur in the model."""


class ResourceBudgetExceeded(PolError):
    """A named resource cap was hit; in ``dpdl_sat`` the verdict is UNKNOWN."""


class StateBudgetExceeded(ResourceBudgetExceeded):
    """One walk through a product with an expression's derivatives met
    more than ``obsregex._MAX_DERIVATIVES`` of them."""


class BudgetInvalid(PolError, ValueError):
    """A label budget that is not a ``LabelBudget`` or lies outside the
    allowed range."""


class NotABts(PolError):
    """A structure that fails bubble transition structure validation."""

