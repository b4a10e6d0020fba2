"""Build, cache and load the package's small C kernels.

Each kernel is a C source string kept next to the Python code that is its
specification. ``load_function`` compiles it with the ``cc`` on ``PATH``
into ``$XDG_CACHE_HOME/oversmooth`` (default ``~/.cache/oversmooth``), under
a name keyed by a CRC-32 of the source, the flags and the machine, and
returns one function of it through ``ctypes``. The caller checks the kernel
against its Python specification and, on ``NoKernel`` or a failed check,
falls back to that specification after one ``warn_fallback``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import sys
import warnings
import zlib
from pathlib import Path

_COMPILE_TIMEOUT_S = 60.0


class NoKernel(Exception):
    """Why this process cannot use a C kernel."""


def load_function(stem: str, source: str, flags: tuple[str, ...], prototype):
    """Function ``stem`` of ``source`` built with ``flags``, as ``prototype``
    (a ``ctypes.CFUNCTYPE``); raises NoKernel naming why it is unusable."""
    # A CRC-32, not hashlib: hashlib loads OpenSSL, +3.6 MB resident.
    key = zlib.crc32("\0".join((source, *flags, platform.machine())).encode())
    try:
        cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "oversmooth"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        if cache.stat().st_mode & 0o022 or not os.access(cache, os.W_OK):
            raise PermissionError(f"{cache} is writable by others, or not by this user")
    except (OSError, RuntimeError) as exc:
        raise NoKernel(f"unwritable cache: {exc}") from exc
    lib = cache / f"{stem}-{key:08x}.so"
    if not lib.exists():
        import subprocess  # only here: loading a cached library needs no compiler
        if (cc := shutil.which("cc")) is None:
            raise NoKernel("no C compiler: cc is not on PATH")
        # Built under a private name, then renamed: no process loads half a file.
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            done = subprocess.run([cc, *flags, "-x", "c", "-", "-o", str(tmp)], input=source,
                                  capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S)
            if done.returncode:
                raise NoKernel(f"compile error: {' '.join(done.stderr.split())[:300]}")
            os.replace(tmp, lib)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise NoKernel(f"compile error: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
    try:
        return prototype((stem, ctypes.CDLL(str(lib))))
    except (OSError, AttributeError) as exc:
        raise NoKernel(f"load error: {exc}") from exc


def warn_fallback(message: str, module_file: str) -> None:
    """A RuntimeWarning attributed to the first frame outside this file and
    ``module_file``, however many of that module's functions the first call
    came through."""
    frame, level = sys._getframe(), 1
    while frame.f_back is not None and frame.f_code.co_filename in (__file__, module_file):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, RuntimeWarning, stacklevel=level)
