"""The native GF(2^8) matmul kernel against the numpy engines.

``GF(8).matmul`` sends every shape to ``_gfkern.c`` when the kernel
loaded; the bit-packed engine and the fused-gather loop stay the
reference.  Both must agree with the kernel bit for bit, for every
shape and sparsity.  A build without AVX2 is refused, so such hosts keep
numpy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.gf import GF, kernel
from repro.gf.bitmatmul import bit_matmul

FIELD = GF(8)
KERNEL = kernel.load()
needs_native = pytest.mark.skipif(
    KERNEL is None, reason="no C compiler / native GF kernel unavailable"
)


def _operands(data, r, n, m):
    seed = data.draw(st.integers(0, 2**32 - 1))
    density = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    rng = np.random.default_rng(seed)
    A = FIELD.random((r, n), rng)
    A[rng.random((r, n)) >= density] = 0
    B = FIELD.random((n, m), rng)
    return A, B


@needs_native
class TestNativeMatmul:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_native_equals_numpy(self, data):
        r = data.draw(st.integers(1, 40))
        n = data.draw(st.integers(1, 40))
        m = data.draw(st.one_of(st.integers(1, 300), st.integers(4000, 9000)))
        A, B = _operands(data, r, n, m)
        got = KERNEL.matmul(FIELD._mul_table8, A, B)
        want = FIELD._gather_matmul(A, B)
        assert got.tobytes() == want.tobytes()
        assert bit_matmul(FIELD, A, B).tobytes() == want.tobytes()

    def test_field_matmul_routes_every_shape_to_the_kernel(self, monkeypatch):
        calls = []
        real = KERNEL.matmul

        def spy(table, A, B):
            calls.append((A.shape, B.shape))
            return real(table, A, B)

        monkeypatch.setattr(KERNEL, "matmul", spy)
        rng = np.random.default_rng(3)
        for r, n, m in [(1, 1, 1), (2, 3, 4), (256, 32, 1024)]:
            A, B = FIELD.random((r, n), rng), FIELD.random((n, m), rng)
            assert FIELD.matmul(A, B).tobytes() == FIELD._gather_matmul(A, B).tobytes()
        assert len(calls) == 3

    def test_other_fields_keep_numpy(self):
        for p in (4, 16, 32):
            assert GF(p)._native_kernel() is None

    def test_strided_views(self):
        rng = np.random.default_rng(4)
        M = FIELD.random((9, 200), rng)
        A, B = M[:, 3:12], M[:, 40::2]
        assert not B.flags.c_contiguous
        got = KERNEL.matmul(FIELD._mul_table8, A, B)
        assert got.tobytes() == FIELD._gather_matmul(A, B).tobytes()

    def test_wide_decode_shape(self):
        rng = np.random.default_rng(5)
        A = FIELD.random((32, 32), rng)
        B = FIELD.random((32, 1 << 15), rng)
        got = FIELD.matmul(A, B)
        assert got.tobytes() == bit_matmul(FIELD, A, B).tobytes()


@pytest.mark.skipif(native.compiler() is None, reason="no C compiler")
def test_host_build_passes_the_self_check():
    """A kernel bug must fail here, not just downgrade to numpy."""
    built = kernel._LOADER.build()
    assert built is not None
    assert kernel._self_check(built)


@pytest.mark.skipif(native.compiler() is None, reason="no C compiler")
def test_build_without_avx2_falls_back(monkeypatch, tmp_path):
    """Without AVX2 the kernel does not compile; numpy serves the product."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_NATIVE_CFLAGS", raising=False)
    monkeypatch.delenv("REPRO_NO_NATIVE", raising=False)
    monkeypatch.setattr(native, "CFLAG_SETS", [["-O2", "-mno-avx2", "-fPIC", "-shared"]])
    loader = native.NativeLoader(kernel._SOURCE, kernel.GF8Kernel, pytest.fail)
    assert loader.load() is None
    assert not list(tmp_path.glob("*.so"))


def test_no_native_falls_back_bit_identically(monkeypatch):
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    loader = native.NativeLoader(kernel._SOURCE, kernel.GF8Kernel, kernel._self_check)
    monkeypatch.setattr(kernel, "_LOADER", loader)
    assert FIELD._native_kernel() is None
    rng = np.random.default_rng(6)
    A, B = FIELD.random((16, 16), rng), FIELD.random((16, 4096), rng)
    assert FIELD.matmul(A, B).tobytes() == bit_matmul(FIELD, A, B).tobytes()
