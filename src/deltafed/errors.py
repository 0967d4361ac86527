"""Exception hierarchy. One class per failure category so the CLI can map
them to stable exit messages."""


class DeltaFedError(Exception):
    """Base class for everything this package raises on purpose."""

    category = "internal"


class ArgumentError(DeltaFedError):
    """A caller violated an operation precondition."""

    category = "argument"


class StructureError(DeltaFedError):
    """Two parameter sets disagree on names, shapes, or trainable flags."""

    category = "structural"


class FormatError(DeltaFedError):
    """Bytes on the wire do not parse as the format they claim to be."""

    category = "format"


class ProtocolError(DeltaFedError):
    """A well-formed message arrived at the wrong time or from the wrong
    peer (bad round, duplicate update, early disconnect)."""

    category = "protocol"

    def __init__(self, message: str, ledger=None):
        super().__init__(message)
        self.ledger = ledger


class NumericalError(DeltaFedError):
    """Training produced a non-finite loss or gradient."""

    category = "numerical"


class ConfigError(DeltaFedError):
    """An experiment config file is malformed or references missing paths."""

    category = "config"
