"""Exception types shared across the package, and the bounded form of a culprit.

The CLI maps these onto process exit codes: ValidationError -> 1,
FormatError -> 2, InfeasibleError -> 3.
"""


class SpikestageError(Exception):
    """Base class for all package errors."""


class ValidationError(SpikestageError):
    """A configuration value or argument is out of contract."""


class FormatError(SpikestageError):
    """A file on disk does not parse as the expected format."""


class InfeasibleError(SpikestageError):
    """A search or sizing request has no feasible answer."""


def shown(culprit) -> str:
    """repr(culprit) for an error line, cut after 40 characters: a field in a file can be huge."""
    text = repr(culprit)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"
