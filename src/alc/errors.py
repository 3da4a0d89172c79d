"""Exception types shared across the package.

Each class marks one failure category so that callers (and the CLI exit-code
mapping) can react without parsing messages.
"""


class AlcError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(AlcError):
    """Operands have incompatible shapes."""


class ParameterError(AlcError):
    """An argument is outside its admissible range."""


class LobuleRangeError(ParameterError):
    """Lobule count outside the admissible range of :func:`alc.model.init_params`."""


class VariantError(AlcError):
    """An ablation variant cannot be built from the given parameters."""


class IngestError(AlcError):
    """A dataset file is missing, malformed, or unparsable."""


class IntegrityError(AlcError):
    """A downloaded file failed checksum verification."""


class PersistenceError(AlcError):
    """A model file could not be read or has an unsupported version."""


class NumericError(AlcError):
    """A numeric procedure produced non-finite values or failed to converge."""


class ConfigError(AlcError):
    """An experiment configuration violates its invariants."""


class AuditError(AlcError):
    """A fit step attempted to read data reserved for validation."""


class InsufficientDataError(AlcError):
    """Too few usable observations for a statistical test."""
