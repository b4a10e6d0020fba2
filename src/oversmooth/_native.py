"""Build, cache, load and choose the package's small C kernels.

Each kernel is a C source string kept next to the Python code that is its
specification. ``load_function`` compiles it with the ``cc`` on ``PATH`` and
the one flag set ``_C_FLAGS`` into ``$XDG_CACHE_HOME/oversmooth`` (default
``~/.cache/oversmooth``), under a name keyed by a CRC-32 of the source, the
flags and the machine, and returns one function of it through ``ctypes``.

A module's loader builds its kernel, wraps it, checks it against the
specification and raises ``NoKernel`` naming why it is unusable. ``kernel``
turns that loader into this process's cached choice: the wrapped kernel, or
on ``NoKernel`` the fallback, after one RuntimeWarning naming the kernel and
the cause. Every fallback is a Python function called like the kernel it
replaces, so a caller calls the choice without asking which one it got.
``cache_clear()`` on the choice makes the next call choose afresh.

The kernels are the xoshiro256++ fill (``rng``), the preferential-attachment
loop and the ``CsrOperator`` product (``graph``), and the float formatter and
the ``.dmat`` parser (``pipeline``). Each is built on its first use, never at
import.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import sys
import warnings
import zlib
from pathlib import Path

_COMPILE_TIMEOUT_S = 60.0
# -ffp-contract=off keeps every a + b * c two roundings (no FMA), as in the
# Python specifications; -ffast-math or -march=native could change them.
_C_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class NoKernel(Exception):
    """Why this process cannot use a C kernel."""


def load_function(stem: str, source: str, prototype):
    """Function ``stem`` of ``source``, as ``prototype`` (a ``ctypes.CFUNCTYPE``);
    raises NoKernel naming why it is unusable."""
    # A CRC-32, not hashlib: hashlib loads OpenSSL, +3.6 MB resident.
    key = zlib.crc32("\0".join((source, *_C_FLAGS, platform.machine())).encode())
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
            done = subprocess.run([cc, *_C_FLAGS, "-x", "c", "-", "-o", str(tmp)], input=source,
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


def kernel(name: str, fallback):
    """Decorate a loader into this process's cached kernel choice: what the
    loader returns, or ``fallback`` after one RuntimeWarning when it raises
    NoKernel. The warning is attributed to the first frame outside this file
    and the loader's module, however many of that module's functions the
    first call came through."""
    def choose(loader):
        @functools.cache
        @functools.wraps(loader)
        def choice():
            try:
                return loader()
            except NoKernel as exc:
                skip = (__file__, loader.__code__.co_filename)
                frame, level = sys._getframe(), 1
                while frame.f_back is not None and frame.f_code.co_filename in skip:
                    frame, level = frame.f_back, level + 1
                warnings.warn(f"{name} C kernel unavailable ({exc}); running its Python "
                              "specification", RuntimeWarning, stacklevel=level)
                return fallback
        return choice
    return choose
