"""Exception types shared across the package."""


class CopwinError(Exception):
    """Base class for all package-specific errors."""


class EdgeListParseError(CopwinError):
    """Malformed edge-list input (bad line, self-loop, duplicate arc, id out of range)."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class UnsupportedVariantError(CopwinError, ValueError):
    """Game variant combination outside the supported set."""


class StateBudgetExceededError(CopwinError):
    """A solve exceeded its arena-transition budget.

    Deliberately distinct from a game verdict: callers must never
    interpret it as a robber win.  ``explored`` counts the transitions
    the solve made.  A solve that the pre-flight in ``solver.solve``
    refuses has explored 0 and carries the pre-flight's arena-size
    estimate in ``bound``; that estimate is not an upper bound on the
    transitions a kernel would count.
    """

    def __init__(self, budget, explored, bound=None):
        if bound is None:
            message = f"state budget exceeded: {explored} arena transitions > budget {budget}"
        else:
            message = (f"state budget exceeded: refused before solving, pre-flight arena "
                       f"estimate {bound} > budget {budget}")
        super().__init__(message)
        self.budget = budget
        self.explored = explored
        self.bound = bound


class SizeLimitError(CopwinError, ValueError):
    """Instance exceeds a solver's documented exact-computation size limit."""


class CertificateError(CopwinError):
    """Malformed certificate or certificate/graph fingerprint mismatch."""


class ConstructionUnavailableError(CopwinError, NotImplementedError):
    """A published gadget construction has not been transcribed into code."""
