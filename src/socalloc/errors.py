"""Semantic exception hierarchy.

The CLI maps these onto process exit codes: configuration and data
problems exit 2, numerical failures exit 3, argument-parsing problems
exit 1.
"""

from __future__ import annotations


class SocAllocError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SocAllocError, ValueError):
    """A scalar or vector argument is outside its mathematical domain."""


class ConfigError(SocAllocError, ValueError):
    """A configuration object is incomplete or inconsistent."""


class StructuralError(SocAllocError, ValueError):
    """Array shapes or problem dimensions do not fit together."""


class ConvergenceError(SocAllocError, RuntimeError):
    """An iterative solver stopped before converging.

    Carries the best certificate found so far in ``certificate``.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
