"""Compile-on-first-use loader shared by the package's C kernels.

Each native library is one C file next to the Python module that wraps
it (``sim/_fastalloc.c``, ``gf/_gfkern.c``).  There is no build system:
the first process that needs a library compiles it with whatever C
compiler the host has (``$CC``, ``cc``, ``gcc`` or ``clang``), caches
the shared object, loads it through ctypes and accepts it only after
the wrapper's self-check fuzzes it against the numpy implementations
and sees *zero* bit differences.  Any compile failure, load failure or
mismatch makes :meth:`NativeLoader.load` return ``None``, and callers
fall back to numpy (same results, smaller speedup).

Environment:

* ``REPRO_NO_NATIVE=1`` forces the fallback for every library.
* ``REPRO_NATIVE_CFLAGS`` appends flags to every candidate flag set
  (CI's sanitizer build); they are part of the cache digest, so a
  sanitized build never aliases a normal one.
* ``REPRO_NATIVE_CACHE`` overrides the cache directory.

The cached file name carries the source's stem and a digest of its
bytes and flags, so two libraries (or two versions of one) never share
a cache entry.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import Generic, TypeVar

__all__ = ["CFLAG_SETS", "NativeLoader", "compile_source", "compiler"]

#: Tried in order; the host-tuned build roughly halves kernel time (and
#: is the only one the AVX2-only GF kernel compiles under), the plain
#: -O2 set is the portable fallback.  -ffp-contract=off is not
#: negotiable for the float kernels: fused multiply-adds would change
#: results by an ulp (and be rejected by the self-check).
CFLAG_SETS = [
    ["-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off", "-pthread"],
    ["-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pthread"],
]

T = TypeVar("T")


def compiler() -> str | None:
    """The C compiler to use, or ``None`` when the host has none."""
    env = os.environ.get("CC")
    if env and shutil.which(env):
        return env
    for cand in ("cc", "gcc", "clang"):
        if shutil.which(cand):
            return cand
    return None


def cached_name(source: Path, cflags: list[str]) -> str:
    """Cache file name of ``source`` built with ``cflags``."""
    digest = hashlib.sha256(
        source.read_bytes() + " ".join(cflags).encode()
    ).hexdigest()[:16]
    return f"{source.stem.lstrip('_')}-{digest}-{os.uname().machine}.so"


def compile_source(source: Path) -> Path | None:
    """Build ``source`` with the first flag set that compiles; cached."""
    cc = compiler()
    if cc is None:
        return None
    # The default directory keeps the name it had when the allocation
    # kernels were the only library, so existing caches stay valid.
    cache = Path(
        os.environ.get("REPRO_NATIVE_CACHE")
        or Path(tempfile.gettempdir()) / "repro-fastalloc"
    )
    extra = os.environ.get("REPRO_NATIVE_CFLAGS", "").split()
    for base_cflags in CFLAG_SETS:
        cflags = [*base_cflags, *extra]
        sofile = cache / cached_name(source, cflags)
        if sofile.exists():
            return sofile
        try:
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                dir=cache, suffix=".so", delete=False
            ) as tmp:
                tmp_path = Path(tmp.name)
            proc = subprocess.run(
                [cc, *cflags, "-o", str(tmp_path), str(source)],
                capture_output=True,
                timeout=120,
            )
            if proc.returncode != 0:
                tmp_path.unlink(missing_ok=True)
                continue
            os.replace(tmp_path, sofile)  # atomic vs concurrent builders
            return sofile
        except (OSError, subprocess.SubprocessError):
            return None
    return None


class NativeLoader(Generic[T]):
    """Resolve one native library once per process.

    ``wrap`` turns the loaded ``ctypes.CDLL`` into the kernel facade;
    ``check`` fuzzes the facade against numpy and returns ``True`` only
    on zero bit differences.  :meth:`load` memoises the outcome, a
    facade or ``None``.
    """

    def __init__(
        self,
        source: Path,
        wrap: Callable[[ctypes.CDLL], T],
        check: Callable[[T], bool],
    ):
        self.source = source
        self.wrap = wrap
        self.check = check
        self._resolved = False
        self._kernels: T | None = None

    def build(self) -> T | None:
        """Compile and wrap without the self-check (``None`` on failure)."""
        sofile = compile_source(self.source)
        if sofile is None:
            return None
        try:
            return self.wrap(ctypes.CDLL(str(sofile)))
        except OSError:
            return None

    def load(self) -> T | None:
        """Compile/load/verify once; ``None`` means fall back to numpy."""
        if self._resolved:
            return self._kernels
        self._resolved = True
        if os.environ.get("REPRO_NO_NATIVE"):
            return None
        kernels = self.build()
        if kernels is None or not self.check(kernels):
            return None
        self._kernels = kernels
        return kernels
