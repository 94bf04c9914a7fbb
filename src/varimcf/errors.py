"""The package's three errors, one per outcome of the command line.

`ConfigError` refuses an input (exit 2), `PreconditionViolated` fails the
one verdict it stopped, and any other `VarimcfError` aborts the run
(exit 1).  The message says what went wrong.
"""


class VarimcfError(Exception):
    """Base class for all package errors."""


class ConfigError(VarimcfError):
    """Malformed or inconsistent configuration input."""


class PreconditionViolated(VarimcfError):
    """A certificate precondition failed; the message names the inequality.

    `check` fails the one verdict it stopped and grades the others.
    """
