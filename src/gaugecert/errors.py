"""Exception hierarchy.

Two kinds of failure are kept strictly apart:

* input problems (bad parameters, failed hypotheses) -- ordinary
  ``ValueError`` subclasses a caller may handle or report;
* internal consistency failures (``InternalCheckError``, ``ClosedFormMismatch``)
  -- these mean a bug in the arithmetic itself, never a property of the
  input, and the command line maps them to a distinct exit status.
"""


class GaugeCertError(Exception):
    """Base class for all package errors."""


class InternalCheckError(GaugeCertError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class ClosedFormMismatch(InternalCheckError):
    """The trigonometric and closed forms of an index disagreed."""


class NoSolution(GaugeCertError, ValueError):
    """A congruence system has no solution."""


class BadParameters(GaugeCertError, ValueError):
    """Arguments violate a documented precondition."""


class Degenerate(GaugeCertError, ValueError):
    """A strand or evaluation point is degenerate (no normal form exists)."""


class NotHomologySphere(GaugeCertError, ValueError):
    """Seifert data does not describe an integer homology sphere."""


class HypothesisFailed(GaugeCertError, ValueError):
    """A stated hypothesis of a lemma or theorem fails for this input."""


class NotDefinite(GaugeCertError, ValueError):
    """A quadratic form expected to be negative definite is not."""


class SingularPivot(GaugeCertError):
    """A Hermitian form is singular: the evaluation point is a root of the
    Alexander polynomial, so the constant coefficient of the characteristic
    polynomial is zero and the signature is not defined."""
