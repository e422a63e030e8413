"""The shared compile-on-first-use loader (:mod:`repro.native`)."""

import pytest

from repro import native
from repro.gf import kernel
from repro.sim import fastpath

needs_cc = pytest.mark.skipif(native.compiler() is None, reason="no C compiler")


def _gf_loader(check=kernel._self_check):
    return native.NativeLoader(kernel._SOURCE, kernel.GF8Kernel, check)


@needs_cc
def test_self_check_failure_falls_back(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    seen = []
    loader = _gf_loader(check=lambda k: seen.append(k) or False)
    assert loader.load() is None
    assert len(seen) == 1 and isinstance(seen[0], kernel.GF8Kernel)
    assert loader.load() is None and len(seen) == 1  # memoised


@needs_cc
def test_compile_failure_falls_back(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    bad = tmp_path / "_broken.c"
    bad.write_text("int this is not C;\n")
    assert native.compile_source(bad) is None
    loader = native.NativeLoader(bad, kernel.GF8Kernel, pytest.fail)
    assert loader.load() is None


def test_cache_name_is_distinct_per_source_and_flags():
    flags = native.CFLAG_SETS[0]
    gf = native.cached_name(kernel._SOURCE, flags)
    alloc = native.cached_name(fastpath._SOURCE, flags)
    assert gf.startswith("gfkern-") and alloc.startswith("fastalloc-")
    assert gf != alloc
    assert native.cached_name(kernel._SOURCE, native.CFLAG_SETS[1]) != gf
