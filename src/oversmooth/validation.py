"""Input normalization helpers used at every public boundary.

Arrays are accepted as anything ``np.asarray`` understands and come back as
float64 ndarrays; every entry must be finite. These helpers raise from the
shared taxonomy in :mod:`oversmooth.errors` so the CLI can map failures to
exit codes without caring where they originated.

The text codec every file format shares lives here too: whole-file read
(as bytes, as text, or bytes decoded as text), line writer,
``<tag> 1 <a> <b>`` header parser and body-line walker.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import InvalidParameter, IoError, ParseError, ShapeMismatch


def as_matrix(obj, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Return ``obj`` as a 2-D float64 array with finite entries; with
    ``stack``, a stack ``(..., rows, cols)`` of such matrices is accepted too."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        shape = "2-D or a stack of 2-D matrices" if stack else "2-D"
        raise ShapeMismatch(f"{name} must be {shape}, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} contains non-finite entries")
    return arr


def as_vector(obj, name: str = "vector", length: int | None = None) -> np.ndarray:
    """Return ``obj`` as a 1-D float64 array with finite entries, of
    ``length`` entries when it is given."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeMismatch(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1:
        raise ShapeMismatch(f"{name} must be nonempty")
    if length is not None and arr.shape[0] != length:
        raise ShapeMismatch(f"{name} has length {arr.shape[0]}, expected {length}")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter(f"{name} contains non-finite entries")
    return arr


def as_square_matrix(obj, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(obj, name)
    if arr.shape[0] != arr.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {arr.shape}")
    return arr


def require_positive_int(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int when it is an integer (not a bool) >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameter(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def read_bytes(path) -> bytes:
    """The whole content of ``path``; IoError when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def decode_text(data: bytes, path, encoding: str) -> str:
    """``data``, read from ``path``, decoded as ``open(path, encoding=encoding)``
    reads it (line ends translated to ``\\n``); IoError when it cannot be decoded."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding=encoding).read()
    except UnicodeDecodeError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_text(path, encoding: str) -> str:
    """The whole text of ``path``; IoError when it cannot be read or decoded."""
    return decode_text(read_bytes(path), path, encoding)


def write_lines(path, lines) -> None:
    """Write the iterable ``lines``, each ended by a newline, as UTF-8."""
    text = "\n".join(lines) + "\n"  # consumed before the file is truncated
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def parse_header(line: str, layout: str, minimums: tuple[int, int]) -> tuple[int, int]:
    """The two counts of a header laid out as ``layout`` (such as
    ``'grf 1 <n> <num_edges>'``), each at least its minimum; ParseError at
    line 1 otherwise."""
    tag = layout.split()[0]
    tokens = line.split()
    if len(tokens) != 4 or tokens[0] != tag:
        raise ParseError(f"header must be {layout!r}", line=1)
    if tokens[1] != "1":
        raise ParseError(f"unsupported {tag} version {tokens[1]!r}", line=1)
    try:
        counts = int(tokens[2]), int(tokens[3])
    except ValueError:
        raise ParseError("header counts must be integers", line=1) from None
    if counts[0] < minimums[0] or counts[1] < minimums[1]:
        raise ParseError("header counts out of range", line=1)
    return counts


def body_tokens(lines: list[str], first: int, sep: str | None = None):
    """Yield ``(line number, line.split(sep))`` for each nonblank line of
    ``lines[first:]``, one at a time; numbers are 1-based over ``lines``."""
    for index in range(first, len(lines)):
        if lines[index].strip():
            yield index + 1, lines[index].split(sep)
