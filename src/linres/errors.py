"""Exception types shared across the package.

The split matters for the command line front end: bad input exits with
code 2, while a falsified internal consistency check (something a proved
provably cannot happen) exits with code 3 so it is never mistaken
for a routine failure.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class PreconditionError(InputError):
    """A documented precondition failed; carries a concrete witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class Falsification(RuntimeError):
    """An internal cross-check that theory guarantees must hold has failed.

    This always indicates a bug in this package, never a property of the
    input.  It is raised instead of AssertionError so that it survives
    ``python -O`` and can be mapped to a dedicated exit code.
    """


class BudgetExhausted(RuntimeError):
    """A configurable search or step budget ran out before an answer."""


class ResourceGuard(RuntimeError):
    """A computation was aborted because it exceeded a configured cap."""
