"""Shared test plumbing.

The ``acceptance`` fixture hands tests a recorder; every recorded line is
printed in one block at the end of the pytest run, so the terminal output
closes with one PASS/FAIL line per end-to-end check.

The ``needs_cc`` marker skips a test when no C compiler is on ``PATH``.
``fresh_kernels`` gives a test an empty kernel cache and every C kernel
chosen afresh; ``unusable_kernel`` runs each test that takes it once per
cause in ``FALLBACK_CAUSES``, the table of ways a C kernel can be unusable.
"""

import shutil
from types import ModuleType
from typing import NamedTuple

import pytest

from oversmooth import _native, graph, pipeline, rng

_LINES: list[str] = []
_HAS_CC = shutil.which("cc") is not None


def pytest_configure(config):
    config.addinivalue_line("markers", "needs_cc: skip unless a C compiler cc is on PATH")


def pytest_runtest_setup(item):
    if item.get_closest_marker("needs_cc") and not _HAS_CC:
        pytest.skip("no C compiler on PATH")


@pytest.fixture
def acceptance():
    def record(num: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        _LINES.append(f"acceptance {num:02d} {status} - {detail}")

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance checks")
    for line in sorted(_LINES):
        terminalreporter.write_line(line)


class Kernel(NamedTuple):
    """Where a C kernel lives, and two edits to its source: one that stops
    it compiling and one that makes it compute something else."""

    module: ModuleType
    choice: str
    source: str
    no_compile: tuple[str, str]
    wrong: tuple[str, str]

    def choose(self):
        return getattr(self.module, self.choice)()

    def clear(self):
        getattr(self.module, self.choice).cache_clear()

    def edit(self, monkeypatch, old_new):
        old, new = old_new
        text = getattr(self.module, self.source)
        assert old in text
        monkeypatch.setattr(self.module, self.source, text.replace(old, new))


KERNELS = {
    "fill": Kernel(rng, "_fill_loop", "_C_SOURCE", ("#include <stdint.h>", "no C here"),
                   ("ROTL(s[3], 45)", "ROTL(s[3], 44)")),
    "attach": Kernel(graph, "_attach_loop", "_BA_SOURCE", ("void ba_attach(", "no C here ("),
                     ("add_degree(tree, n, t, m);", "add_degree(tree, n, t, m + 1);")),
    "dmat": Kernel(pipeline, "_dmat_kernel", "_DMAT_SOURCE", ("#include <math.h>", "no C here"),
                   ("= value;", "= -value;")),
}


@pytest.fixture
def fresh_kernels(tmp_path, monkeypatch):
    """An empty per-user kernel cache, and every C kernel chosen afresh on first use."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for kernel in KERNELS.values():
        kernel.clear()
    yield tmp_path / "cache" / "oversmooth"
    for kernel in KERNELS.values():
        kernel.clear()


def _garbage_library(monkeypatch, tmp_path, kernel):
    # Built elsewhere first: the dynamic loader would match a path this
    # process has loaded before by name and never read it again.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "elsewhere"))
    kernel.choose()
    kernel.clear()
    (built,) = (tmp_path / "elsewhere" / "oversmooth").glob("*.so")
    cache = tmp_path / "cache" / "oversmooth"
    cache.mkdir(mode=0o700, parents=True)
    (cache / built.name).write_bytes(b"not a shared library")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


# Each cause, as the words its warning must contain, and how to bring it
# about: (monkeypatch, tmp_path, kernel) -> None.
FALLBACK_CAUSES = {
    "no C compiler": lambda mp, tmp, k: mp.setenv("PATH", str(tmp)),
    "unwritable cache": lambda mp, tmp, k: (tmp / "cache").write_text("a file, not a directory"),
    "compile error": lambda mp, tmp, k: k.edit(mp, k.no_compile),
    "timed out": lambda mp, tmp, k: mp.setattr(_native, "_COMPILE_TIMEOUT_S", 1e-6),
    "load error": _garbage_library,
    "self-check mismatch": lambda mp, tmp, k: k.edit(mp, k.wrong),
}


@pytest.fixture(params=sorted(FALLBACK_CAUSES))
def unusable_kernel(request, fresh_kernels, tmp_path, monkeypatch):
    """A function making the named C kernel (a key of ``KERNELS``) unusable
    for this case's cause, in a fresh cache; it returns the cause."""
    def make(name: str) -> str:
        FALLBACK_CAUSES[request.param](monkeypatch, tmp_path, KERNELS[name])
        return request.param

    return make
