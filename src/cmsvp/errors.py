"""Exception taxonomy for the cmsvp package.

Every failure mode that callers are expected to distinguish gets its own
class; the CLI maps these onto stable exit codes.
"""


class CmsvpError(Exception):
    """Base class for all package-specific errors."""


class InputError(CmsvpError):
    """Invalid user input: bad coordinates, malformed files, wrong counts."""


class NonPrimeConductorError(InputError):
    """A built-in construction was requested for a non-prime conductor."""


class DependentUnitsError(InputError):
    """A supplied unit basis failed the multiplicative-independence check."""


class DegenerateSimplexError(CmsvpError):
    """A simplex's vertex points lie on a hyperplane through the origin
    (det A = 0), decided exactly."""

    def __init__(self, perm):
        self.perm = tuple(perm)
        super().__init__(
            f"simplex_data: degenerate simplex for permutation {self.perm}: det A = 0 "
            "exactly (the trace Gram of its vertex points is singular)"
        )


class PrecisionError(CmsvpError):
    """Interval arithmetic failed to certify a result at its bits; through
    `interval.climb` the caller sees it only from the ladder's top rung."""


class BudgetExceededError(CmsvpError):
    """Enumeration visited or listed, or was estimated to visit or list,
    more nodes or vectors (`what`) than its budget allows."""

    def __init__(self, budget, log10_estimate=None, what="nodes"):
        self.budget = budget
        if log10_estimate is None:
            message = f"enumeration exceeded the budget of {budget} {what}"
        else:
            message = (
                f"enumeration refused before it started: the Gaussian heuristic "
                f"estimates about 10^{log10_estimate:.1f} {what}, above the budget "
                f"of {budget} {what}"
            )
        super().__init__(message)


class SimplexBudgetError(BudgetExceededError):
    """The theorem bound needs more simplices than its limit allows."""

    def __init__(self, simplices, limit):
        self.budget = limit
        message = f"the bound needs {simplices} simplices, above the limit of {limit}"
        CmsvpError.__init__(self, message)


class NotPositiveDefiniteError(CmsvpError):
    """A Gram matrix expected to be positive definite is not."""


class SelfTestError(CmsvpError):
    """An internal cross-check between two independent methods disagreed."""
