"""Exception taxonomy shared by every module.

All failures raised by this package derive from :class:`OversmoothError`, so
callers can catch one base class at a process boundary. Each concrete error
also derives from one of three private categories, which declares the exit
code the CLI returns for it; the base class carries the generic code 1.
"""

from __future__ import annotations


class OversmoothError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 1


class _BadInput(OversmoothError):
    """Unreadable or malformed input: a file, argument, shape or graph."""
    exit_code = 2


class _NumericFailure(OversmoothError):
    """A quantity is numerically undefined or a solver failed."""
    exit_code = 3


class _InsufficientInput(OversmoothError):
    """Too little input: too few runs, too short a series, no edges."""
    exit_code = 4


class ShapeMismatch(_BadInput):
    """Operands have incompatible dimensions."""


class InvalidParameter(_BadInput):
    """A scalar or enum argument is outside its documented domain."""


class IoError(_BadInput):
    """A file could not be read or written."""


class ParseError(_BadInput):
    """A file's contents violate its format.

    Carries the 1-based line number of the offending line when one applies
    (JSON manifests report ``line=None``).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConvergenceFailure(_NumericFailure):
    """An iterative solver hit its iteration or sweep limit."""


class DegenerateSpectrum(_NumericFailure):
    """A spectral quantity is undefined (dominant eigenvalue zero)."""


class DisconnectedGraph(_BadInput):
    """The graph is not connected where connectivity is required."""


class NoEdges(_InsufficientInput):
    """The graph has an empty edge set where edges are required."""


class ZeroMatrix(_NumericFailure):
    """The matrix is identically zero where a nonzero one is required."""


class NonUnitVector(_BadInput):
    """A direction vector does not have unit Euclidean norm."""


class NonpositiveEigenvector(_BadInput):
    """A weighting vector has a zero entry, so rescaling by it is undefined."""


class NonpositiveColumn(_BadInput):
    """A matrix column leaves the strictly positive cone."""


class EigenvectorMismatch(_NumericFailure):
    """The supplied vector is not fixed (up to scale) by the operator."""


class AllEdgesSkipped(_NumericFailure):
    """Every edge was excluded from an edge-averaged statistic."""


class AllSamplesDegenerate(_NumericFailure):
    """Every Monte Carlo sample was discarded as degenerate."""


class SeriesTooShort(_InsufficientInput):
    """A layer series is too short to classify."""


class RatioUnderflow(_NumericFailure):
    """The alignment ratio fell below 1e-12 by layer 1, before a fit window could form."""


class DegenerateInput(_NumericFailure):
    """A statistic is undefined on this input (e.g. a constant sequence)."""


class LengthMismatch(_BadInput):
    """Two sequences that must be paired have different lengths."""


class InsufficientRuns(_InsufficientInput):
    """Too few (or insufficiently distinct) runs for a cross-run statistic."""
