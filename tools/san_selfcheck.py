#!/usr/bin/env python
"""Run the native kernels' bitwise self-check fuzz under the current
build flags.

CI invokes this with ``REPRO_NATIVE_CFLAGS`` set to the ASan/UBSan flag
set (and ``LD_PRELOAD`` pointing at libasan so the sanitizer runtime is
present in the Python process): every C file the shared loader builds
(the allocation kernels in ``sim/_fastalloc.c`` and the GF(2^8) matmul
in ``gf/_gfkern.c``) is recompiled with sanitizers on, then fuzzed
against the numpy reference implementations demanding zero bit
differences — any out-of-bounds access, UB, or divergence fails the
run.

Exit codes: 0 pass, 1 compile/load/self-check failure, 2 no compiler.
"""

from __future__ import annotations

import os
import sys

from repro import native
from repro.gf import kernel
from repro.sim import fastpath


def main() -> int:
    cc = native.compiler()
    if cc is None:
        print("SKIP: no C compiler on this host")
        return 2
    print(f"compiler     : {cc}")
    print(f"extra cflags : {os.environ.get('REPRO_NATIVE_CFLAGS', '') or '(none)'}")
    failed = 0
    for loader in (fastpath._LOADER, kernel._LOADER):
        name = loader.source.name
        kernels = loader.build()
        if kernels is None:
            print(f"FAIL: {name} did not compile or load under these flags")
            failed = 1
            continue
        if not loader.check(kernels):
            print(f"FAIL: {name}: bitwise self-check found a difference vs numpy")
            failed = 1
            continue
        print(f"PASS: {name}: self-check fuzz ran clean (zero bit differences)")
    return failed


if __name__ == "__main__":
    sys.exit(main())
