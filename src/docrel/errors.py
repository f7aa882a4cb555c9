"""Exception hierarchy.

Every error the library raises deliberately is a subclass of
:class:`DocrelError`, so callers (and the CLI exit-code mapping) can
distinguish our failures from genuine bugs.
"""

from __future__ import annotations


class DocrelError(Exception):
    """Base class for all library errors."""


class ConfigError(DocrelError):
    """A configuration value violates its documented constraint."""


class ShapeError(DocrelError):
    """Array shapes are inconsistent with each other or with the config."""


class ContractError(DocrelError):
    """A caller violated an operation's precondition."""


class NumericError(DocrelError):
    """Non-finite values where finite ones are required."""


class DataFormatError(DocrelError):
    """Malformed or inconsistent data on disk or in memory."""


class NonFiniteLossError(NumericError):
    """Training hit a non-finite loss; carries diagnostics."""

    def __init__(self, epoch: int, batch_index: int, parts: dict):
        self.epoch = epoch
        self.batch_index = batch_index
        self.parts = dict(parts)
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch_index}: parts={self.parts}"
        )
