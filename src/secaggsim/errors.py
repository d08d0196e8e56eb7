"""Protocol-level exceptions shared across modules."""

from __future__ import annotations


class ProtocolAbort(Exception):
    """A round was aborted; ``blamed`` identifies the misbehaving party."""

    def __init__(self, message: str, blamed: str):
        super().__init__(message)
        self.blamed = blamed


class UnrecoverableRoundError(Exception):
    """Too few shares survived to recover a required secret."""


class ConfigError(ValueError):
    """A scenario or tree configuration violates a cross-field constraint."""


class WireError(ValueError):
    """A received record is truncated or carries the wrong message tag."""
