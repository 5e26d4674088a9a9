"""Exception vocabulary shared across the package."""


class InvalidInstanceError(ValueError):
    """Input failed structural or mode validation."""


class Graph6Error(InvalidInstanceError):
    """Malformed graph6 bytes.  Carries the byte offset where decoding failed."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)


class CycleSidesError(ValueError):
    """A vertex sequence is not a simple cycle cutting a plane graph in two.

    Raised by :func:`crosscolor.drawing.cycle_sides` (and by
    ``CycleSides.vertex_side`` for a vertex the graph does not have) rather
    than by ``assert``, so callers that test a candidate cycle can rely on
    it under ``python -O``.
    """


class TaskPreconditionError(ValueError):
    """A boundary colouring task violates the shape its recursion relies on."""


class RuleInapplicable(Exception):
    """Internal punt: a reduction or endgame routine declined the position.

    Raised when preconditions that the calling code could not cheaply check
    turn out not to hold (drawability, measure decrease, blocker counts).
    The dispatcher treats it as "try the next candidate", never as failure.
    """


class BudgetExceededError(RuntimeError):
    """Backtracking search hit its node budget before deciding."""


class PipelineIncompleteError(RuntimeError):
    """The constructive pipeline punted and fallback was disabled."""


class InvalidColoringError(AssertionError):
    """A colouring the package built failed its own validation.

    Raised explicitly rather than by ``assert``, so the check also runs
    under ``python -O``; it is an AssertionError so existing handlers for
    internal faults still catch it.
    """


class TheoremViolationError(AssertionError):
    """A mode-valid instance admitted no coloring at all.

    This should be impossible; if it fires the instance is a counterexample
    to the guarantee the solver is built on (or, far more likely, a bug).
    """
