"""Exception types shared across the package, and how their messages
quote input."""

# The most characters of one token that an error message repeats.
_SHOWN = 40


def shown(tok: str, quote: str = "'") -> str:
    """A token as an error message shows it: whole, in quotes, when it has
    at most ``_SHOWN`` characters, else its first ``_SHOWN`` and its length.
    So a message stays short however long a line of the input is."""
    if len(tok) <= _SHOWN:
        return f"{quote}{tok}{quote}"
    return f"{quote}{tok[:_SHOWN]}...{quote} ({len(tok)} characters)"


class RaceReplayError(Exception):
    """Base class for all domain errors."""


class ParseError(RaceReplayError):
    """Program or report text is malformed; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MachineError(RaceReplayError):
    """Illegal operation at execution time (e.g. unlocking a mutex not held)."""


class DeadlockError(RaceReplayError):
    """No runnable thread while not all threads have exited.

    ``blocked`` lists (thread id, human reason) pairs. Partial execution
    state is attached so callers can report or convert the condition.
    """

    def __init__(self, blocked, memory, steps):
        self.blocked = blocked
        self.memory = memory
        self.steps = steps
        lines = ", ".join(f"thread {tid}: {why}" for tid, why in blocked)
        super().__init__(f"deadlock ({lines})")


class TraceFormatError(RaceReplayError):
    """Trace byte stream is corrupt or violates format invariants."""


class MismatchError(RaceReplayError):
    """Trace/report does not belong to the given program (digest check)."""


class IdentifyError(RaceReplayError):
    """Identification replay could not reach the reported segments."""
