"""Exception hierarchy.

Two branches matter for the CLI exit-code contract: ``InputError`` maps to
exit code 2 (bad files, bad arguments, violated preconditions on data) and
``NumericalError`` maps to exit code 3 (the computation itself failed).
"""


class SpillcastError(Exception):
    """Base class for all package errors."""


class InputError(SpillcastError):
    """Invalid input data, file, or configuration (CLI exit code 2)."""


class NumericalError(SpillcastError):
    """Numerical failure during computation (CLI exit code 3)."""


# --- ingest ---------------------------------------------------------------

class MissingFile(InputError):
    pass


class ParseError(InputError):
    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GapTooLong(InputError):
    pass


class RangeViolation(InputError):
    def __init__(self, field, message, line=None):
        self.field = field
        self.line = line
        where = "" if line is None else f" (line {line})"
        super().__init__(f"{field}: {message}{where}")


class NonWeeklySpacing(InputError):
    pass


class NegativeCount(InputError):
    pass


class UnknownKey(InputError):
    pass


class InvariantViolation(InputError):
    def __init__(self, key, message):
        self.key = key
        super().__init__(f"{key}: {message}")


# --- epimodel -------------------------------------------------------------

class NonFiniteInput(NumericalError):
    pass


class LengthMismatch(InputError):
    pass


class BlowUp(NumericalError):
    pass


# --- r0 -------------------------------------------------------------------

class ZeroDenominator(NumericalError):
    pass


# --- carrycap -------------------------------------------------------------

class InsufficientData(InputError):
    pass


class EmptyHistory(InputError):
    pass


class DegenerateBin(InputError):
    pass


class NoUsableBin(InputError):
    pass


# --- weathercast ----------------------------------------------------------

class TooShort(InputError):
    pass


class SingularDesign(NumericalError):
    pass


class HistoryTooShort(InputError):
    pass


# --- onset ----------------------------------------------------------------

class TooFewSamples(InputError):
    pass


class ZeroBandwidth(InputError):
    pass


class NonFiniteFit(NumericalError):
    """A fitted onset density, its thresholds or a severity rate surface
    is not finite (a bandwidth or feature weight too large for doubles)."""


# --- severity -------------------------------------------------------------

class EmptyCurve(InputError):
    pass


class ZeroEvidence(NumericalError):
    pass


# --- eval -----------------------------------------------------------------

class UnnormalizedDist(InputError):
    pass


class TooFewObservations(InputError):
    pass


class WeekMismatch(InputError):
    pass


class NoConvergence(NumericalError):
    pass


# --- trend ----------------------------------------------------------------

class EmptyYear(InputError):
    pass


class TooFewYears(InputError):
    pass


class ZeroVariance(InputError):
    pass


class TooFewResiduals(InputError):
    pass
