"""Exception taxonomy for the interdep toolkit.

Every error raised by the package derives from InterdepError so the CLI can
catch one base class and turn it into a single-line diagnostic.
"""


class InterdepError(Exception):
    """Base class for all toolkit errors."""


# --- gridworld ---

class MalformedGrid(InterdepError):
    """Layout text is ragged, contains unknown glyphs, or is not enclosed."""


class MissingStation(InterdepError):
    """A required tile class (dispenser, pot, serving station) is absent."""


class SpawnCountError(InterdepError):
    """Layout does not contain exactly one spawn glyph per agent."""


class MalformedJointAction(InterdepError):
    """A turn names no cook (agent 1 or 2) or no `PrimitiveAction`."""


# --- interdependence analysis ---

class ReplayMismatch(InterdepError):
    """Trace cannot be replayed deterministically through the simulator."""


# --- metrics ---

class EmptyTrace(InterdepError):
    """Metric denominator is zero."""


class ConfigMismatch(InterdepError):
    """Aggregation over reports produced under different configurations."""


# --- policies ---

class Unreachable(InterdepError):
    """A policy's target station cannot be reached in this layout."""


# --- trace io ---

class VersionUnsupported(InterdepError):
    """File declares a format version this build does not read."""


class SchemaViolation(InterdepError):
    """Trace or report file is structurally invalid."""


class ChecksumMismatch(InterdepError):
    """Integrity footer does not match the step stream."""


class IoFailure(InterdepError):
    """Sink could not be written."""
