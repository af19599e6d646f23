"""Exception types shared across the matching pipeline, and their exit codes.

Every error the package raises on purpose derives from OntomatchError so
callers can catch one base class. Each class carries the process exit code
the CLI returns for it: 2 configuration error, 3 input parse error,
4 embedding/LLM endpoint failure, 1 anything else.
"""

from __future__ import annotations

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_ENDPOINT = 4


class OntomatchError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = EXIT_FAILURE


class ConfigError(OntomatchError):
    """A config value or input file is missing, unreadable, or out of range."""
    exit_code = EXIT_CONFIG


class InvalidParameter(OntomatchError):
    """A parameter value is outside its documented domain."""
    exit_code = EXIT_CONFIG


class MalformedRecord(OntomatchError):
    """A line in an input file does not follow the documented format."""
    exit_code = EXIT_PARSE

    def __init__(self, path: str, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class DuplicateEntityId(OntomatchError):
    """The same entity id appears more than once in one ontology dump."""
    exit_code = EXIT_PARSE


class EmptyOntology(OntomatchError):
    """An ontology dump contains no entities."""
    exit_code = EXIT_PARSE


class UnknownEntity(OntomatchError):
    """An entity id was queried that the ontology does not contain."""
    exit_code = EXIT_PARSE


class DimensionMismatch(OntomatchError):
    """Vectors of different dimensionality were mixed."""
    exit_code = EXIT_PARSE


class ZeroVector(OntomatchError):
    """Cosine similarity was requested against an all-zero vector."""
    exit_code = EXIT_PARSE


class MissingVector(OntomatchError):
    """A precomputed-vector provider has no vector for a requested label."""
    exit_code = EXIT_PARSE


class ProviderUnavailable(OntomatchError):
    """An embedding provider failed after exhausting its retries."""
    exit_code = EXIT_ENDPOINT


class EndpointUnavailable(OntomatchError):
    """An LLM endpoint failed after exhausting its retries."""
    exit_code = EXIT_ENDPOINT


class MissingPlaceholder(OntomatchError):
    """A prompt template lacks one of the required placeholders."""
    exit_code = EXIT_PARSE


class StaleKB(OntomatchError):
    """Stored artifacts no longer fit the run's inputs or settings."""
    exit_code = EXIT_CONFIG


class PersistFailure(OntomatchError):
    """An artifact could not be written to disk."""


class MismatchedInputs(OntomatchError):
    """Two runs being compared were produced under different settings."""
    exit_code = EXIT_CONFIG


def refuse_assignment(record, name, value):
    """__setattr__ of the immutable records; dataclasses loads only here."""
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")
