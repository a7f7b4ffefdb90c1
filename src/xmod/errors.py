"""Shared exception types."""


class XmodError(Exception):
    """Base class for all errors raised by this package."""


class UnknownIdError(XmodError):
    """A generator, cell, arc, or band id is unknown in its context."""


class FormatError(XmodError):
    """A text input does not match its format.  Carries a line number."""

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
        if field is not None:
            prefix += f"[{field}] "
        super().__init__(prefix + message)


class ReplayError(XmodError):
    """Replaying a movie event failed.  Carries event index and line."""

    def __init__(self, message, event_index=None, line=None):
        self.event_index = event_index
        self.line = line
        where = ""
        if event_index is not None:
            where = f"event {event_index}"
            if line is not None:
                where += f" (line {line})"
            where += ": "
        super().__init__(where + message)


class InvalidPresentationError(XmodError):
    """A presentation failed validation where a valid one is required."""


class EvaluationError(XmodError):
    """A word or crossed word references an unassigned generator or cell."""


class CapExceeded(XmodError):
    """A configured work cap was exceeded."""


class WorkCapExceeded(CapExceeded):
    """A counting engine or the exhaustive axiom listing exceeded its step budget."""


class NaiveCapExceeded(CapExceeded):
    """The naive counter's enumeration space exceeds the configured cap."""
