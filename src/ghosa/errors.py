"""Exception hierarchy for the ghosa package.

Errors are grouped so the CLI can map them to exit codes: configuration
problems, instance/parsing problems, and everything else.
"""


class GhosaError(Exception):
    """Base class for all package errors."""


class ConfigError(GhosaError):
    """Invalid configuration (bad probabilities, budgets, flag combinations)."""


class InstanceError(GhosaError):
    """A problem instance or instance file is malformed."""


# --- operator errors -------------------------------------------------------

class InvalidPosition(GhosaError, IndexError):
    """Position index outside the solution string."""


class UnknownEvent(GhosaError, ValueError):
    """Bait/event id not in the problem's event universe."""


class ShiftOutOfRange(GhosaError, ValueError):
    """Rotation shift not in [1, segment_length - 1]."""


# --- continuous-domain errors ----------------------------------------------

class DimensionMismatch(InstanceError, ValueError):
    """Vectors, or an instance file's records, of another dimension than required."""


class DegenerateFitnessWarning(UserWarning):
    """Previous fitness too close to zero for a relative-change update."""


class OutOfBounds(GhosaError, ValueError):
    """Point outside the declared evaluation range."""


# --- problem-evaluation errors ---------------------------------------------

class NonFiniteValue(InstanceError):
    """An instance number (coordinate, weight, capacity, velocity) is NaN or infinite."""


class InvalidTour(InstanceError):
    """Tour is not a permutation of the instance's cities."""


class InvalidPermutation(InstanceError):
    """Sequence is not a permutation of 1..n."""


class ThresholdOutOfRange(GhosaError, ValueError):
    """Knapsack decode threshold outside 1..n."""


class DisconnectedPath(InstanceError):
    """Consecutive path nodes are not adjacent in the network."""


class WrongEndpoints(InstanceError):
    """Path does not run from the declared source to the destination."""


# --- parser errors ----------------------------------------------------------

class ParseError(InstanceError):
    """Base class for instance-file parsing failures."""


class MissingHeaderField(ParseError):
    pass


class UnsupportedEdgeWeightType(ParseError):
    pass


class TruncatedMatrix(ParseError):
    pass


class NonNumericToken(ParseError):
    pass


class TruncatedSection(ParseError):
    pass


class CountMismatch(ParseError):
    pass


class DuplicateEdge(ParseError):
    """A road file lists the same directed edge twice."""


class UnknownNodeReference(ParseError):
    pass


class NonPositiveVelocity(ParseError):
    pass


# --- oracle errors -----------------------------------------------------------

class TooLarge(GhosaError, ValueError):
    """Instance exceeds the exact solver's exhaustive-search limit."""


class Disconnected(InstanceError):
    """No path exists between source and destination."""


class EmptyInput(GhosaError, ValueError):
    """Aggregation requested over an empty result list."""


class IoFailure(GhosaError, OSError):
    """Report or trace files could not be written."""
