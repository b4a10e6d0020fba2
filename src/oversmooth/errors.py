"""Exception taxonomy shared by every module.

All failures raised by this package derive from :class:`OversmoothError`, so
callers can catch one base class at a process boundary (the CLI does exactly
that to map failures onto exit codes).
"""

from __future__ import annotations


class OversmoothError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(OversmoothError):
    """Operands have incompatible dimensions."""


class InvalidParameter(OversmoothError):
    """A scalar or enum argument is outside its documented domain."""


class IoError(OversmoothError):
    """A file could not be read or written."""


class ParseError(OversmoothError):
    """A file's contents violate its format.

    Carries the 1-based line number of the offending line when one applies
    (JSON manifests report ``line=None``).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConvergenceFailure(OversmoothError):
    """An iterative solver hit its iteration or sweep limit."""


class DegenerateSpectrum(OversmoothError):
    """A spectral quantity is undefined (dominant eigenvalue zero)."""


class DisconnectedGraph(OversmoothError):
    """The graph is not connected where connectivity is required."""


class NoEdges(OversmoothError):
    """The graph has an empty edge set where edges are required."""


class ZeroMatrix(OversmoothError):
    """The matrix is identically zero where a nonzero one is required."""


class NonUnitVector(OversmoothError):
    """A direction vector does not have unit Euclidean norm."""


class NonpositiveEigenvector(OversmoothError):
    """A weighting vector has a zero entry, so rescaling by it is undefined."""


class NonpositiveColumn(OversmoothError):
    """A matrix column leaves the strictly positive cone."""


class EigenvectorMismatch(OversmoothError):
    """The supplied vector is not fixed (up to scale) by the operator."""


class AllEdgesSkipped(OversmoothError):
    """Every edge was excluded from an edge-averaged statistic."""


class AllSamplesDegenerate(OversmoothError):
    """Every Monte Carlo sample was discarded as degenerate."""


class SeriesTooShort(OversmoothError):
    """A layer series is too short to classify."""


class RatioUnderflow(OversmoothError):
    """Alignment ratios underflowed before a fit window could form."""


class DegenerateInput(OversmoothError):
    """A statistic is undefined on this input (e.g. a constant sequence)."""


class LengthMismatch(OversmoothError):
    """Two sequences that must be paired have different lengths."""


class InsufficientRuns(OversmoothError):
    """Too few (or insufficiently distinct) runs for a cross-run statistic."""
