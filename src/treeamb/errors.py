"""Exception types shared across the package."""


class TreeambError(Exception):
    """Base class for all domain errors raised by this package."""


class AlphabetMismatch(TreeambError):
    pass


class AntichainViolation(TreeambError):
    pass


class UnknownState(TreeambError):
    pass


class MalformedArena(TreeambError):
    pass


class IncompleteStrategy(TreeambError):
    pass


class NotMember(TreeambError):
    pass


class IsMember(TreeambError):
    pass


class StateMismatch(TreeambError):
    pass


class InconsistentRun(TreeambError):
    pass


class PreconditionViolated(TreeambError):
    pass


class AmbiguousRepresentation(TreeambError):
    pass


class ParseError(TreeambError):
    """Raised by the text format parsers; carries file, line and expectation."""

    def __init__(self, filename, lineno, message):
        self.filename = filename
        self.lineno = lineno
        self.message = message
        super().__init__(f"{filename}:{lineno}: {message}")
