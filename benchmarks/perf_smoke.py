"""CI perf-smoke: cheap probes vs the committed baselines.

Standalone (numpy only, no pytest): measures the decode median at a
single cheap operating point and the batched simulation engine's
per-slot time at n=128, compares ns/op against the committed
``BENCH_decode.json`` / ``BENCH_sim.json``, and fails when a regression
exceeds the budget (a generous 3x, so CI noise on shared runners does
not flap the job).  Fresh ``BENCH_decode.smoke.json`` and
``BENCH_sim.smoke.json`` files are always written next to the baselines
for upload as CI artifacts.  Three more probes gate same-run ratios
instead of committed numbers: encoder screening against coefficient-row
derivation, a whole publish + download against its coding kernels, and
the cost of turning observability on.

Usage: ``PYTHONPATH=src python benchmarks/perf_smoke.py``
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The measured point: p=8, m=2^15 -> k=32 for the 1 MB payload.
P, M = 8, 1 << 15
REPS = 5
BUDGET = 3.0


def measure() -> float:
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder

    data = os.urandom(1 << 20)
    params = CodingParams(p=P, m=M)
    encoder = FileEncoder(params, secret=b"bench", file_id=1)
    source = encoder.source_matrix(data)
    ids = encoder.independent_ids(1)[0]
    messages = encoder.encode_ids(source, ids)
    decoder = BlockDecoder(params, encoder.coefficients)
    samples = []
    for _ in range(REPS):
        start = time.perf_counter()
        out = decoder.decode(messages)
        samples.append(time.perf_counter() - start)
        assert out == data
    samples.sort()
    return samples[(len(samples) - 1) // 2]


#: Sim probe: per-slot time of the batched engine on the scaling
#: benchmark's n=128 honest network (same methodology, fewer slots).
SIM_N = 128


def measure_sim() -> tuple[str, float]:
    import bench_sim_scaling

    key = f"sim_step_n{SIM_N}_batched"
    return key, bench_sim_scaling.seconds_per_slot(SIM_N, "batched")


#: Sparse probe: per-slot time of the sparse engine on the scaling
#: benchmark's cohort-structured population at n=8192 (CI-sized; the
#: committed n=100k point stays a bench-suite deliverable).
SPARSE_N = 8192


def measure_sim_sparse() -> tuple[str, float, float]:
    import bench_sim_scaling

    key = f"sim_step_n{SPARSE_N}_sparse"
    seconds, state_bytes = bench_sim_scaling.sparse_slot_stats(
        SPARSE_N, slots=48, reps=1
    )
    return key, seconds, state_bytes / SPARSE_N


#: Repair probe: recombination throughput at the committed
#: ``BENCH_repair.json`` operating point (GF(2^16), m=2^12, 16 helpers
#: -> 8 fresh messages), reusing the bench module's own measurement.
def measure_repair() -> tuple[str, int]:
    import bench_repair

    key = (
        f"repair_recombine_p{bench_repair.P}_m{bench_repair.M}"
        f"_h{bench_repair.HELPERS}_c{bench_repair.COUNT}"
    )
    return key, bench_repair.recombine_ns_per_message()


#: Screening probe: the owner's independence screen of 16 bundles at the
#: simulator's coding point may cost at most SCREEN_BUDGET times deriving
#: the same 128 coefficient rows, both timed cold in this process.  The
#: batched screen sits near 1.5x; the per-row scan it replaced was ~7x.
SCREEN_BUNDLES = 16
SCREEN_BUDGET = 3.0
SCREEN_REPS = 9


def measure_screening() -> int:
    """Fail (1) when screening costs >3x the row derivation it needs."""
    from repro.rlnc import FileEncoder
    from repro.sim.network import DEFAULT_SIM_PARAMS as params

    ids = range(SCREEN_BUNDLES * params.k)
    screen, derive = [], []
    for rep in range(SCREEN_REPS + 1):
        # Fresh encoders, so both sides start with an empty row cache.
        encoder = FileEncoder(params, b"bench", file_id=rep)
        start = time.perf_counter()
        encoder.independent_ids(SCREEN_BUNDLES)
        screen.append(time.perf_counter() - start)
        encoder = FileEncoder(params, b"bench", file_id=rep)
        start = time.perf_counter()
        encoder.coefficients.matrix(ids)
        derive.append(time.perf_counter() - start)
    # Rep 0 warms imports and kernel tables.
    base, screened = _median(derive[1:]), _median(screen[1:])
    ratio = screened / base
    print(f"screening: independent_ids({SCREEN_BUNDLES}) {screened * 1e3:.2f} ms, "
          f"rows for {len(ids)} ids {base * 1e3:.2f} ms -> ratio {ratio:.2f}x "
          f"(budget {SCREEN_BUDGET:.1f}x)")
    if ratio > SCREEN_BUDGET:
        print(f"FAIL: screening costs {ratio:.2f}x > {SCREEN_BUDGET:.1f}x the "
              "coefficient-row derivation it screens")
        return 1
    return 0


#: End-to-end ratio probe: a 4 MiB publish + download over 8 peers at
#: the paper's coding point (1 MiB chunks, GF(2^8), k=32) may cost at
#: most E2E_BUDGET times the coding kernels for the same bytes, timed
#: in this process: per chunk, the owner's encode matmul of every
#: peer's bundle and one k-message block decode.  Everything else the
#: system does (screening, digests, sessions, scheduling, storage) must
#: stay within the remaining 2x.
E2E_MIB = 4
E2E_PEERS = 8
E2E_BUDGET = 3.0
E2E_REPS = 3


def measure_e2e_ratio() -> int:
    """Fail (1) when publish + download cost >3x the coding kernels."""
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder
    from repro.sim.network import FileSharingNetwork

    params = CodingParams(p=P, m=M, file_bytes=1 << 20)
    data = os.urandom(E2E_MIB * params.file_bytes)
    chunks = [data[i : i + params.file_bytes]
              for i in range(0, len(data), params.file_bytes)]
    encoder = FileEncoder(params, secret=b"bench", file_id=3)
    sources = [encoder.source_matrix(chunk) for chunk in chunks]
    bundles = encoder.independent_ids(E2E_PEERS)
    beta = encoder.coefficients.matrix(i for ids in bundles for i in ids)
    received = [encoder.encode_ids(source, bundles[0]) for source in sources]
    decoder = BlockDecoder(params, encoder.coefficients)
    e2e, kernels = [], []
    for rep in range(E2E_REPS + 1):
        net = FileSharingNetwork([256.0] * E2E_PEERS, params=params, seed=rep)
        start = time.perf_counter()
        net.publish(0, "probe", data)
        got = net.download(1, "probe")
        e2e.append(time.perf_counter() - start)
        assert got.data == data
        start = time.perf_counter()
        for chunk, source, messages in zip(chunks, sources, received):
            encoder.field.matmul(beta, source)
            assert decoder.decode(messages, len(chunk)) == chunk
        kernels.append(time.perf_counter() - start)
    # Rep 0 warms imports, native kernels and caches.
    whole, base = _median(e2e[1:]), _median(kernels[1:])
    ratio = whole / base
    print(f"e2e: {E2E_MIB} MiB publish+download over {E2E_PEERS} peers "
          f"{whole * 1e3:.0f} ms, coding kernels {base * 1e3:.0f} ms -> ratio "
          f"{ratio:.2f}x (budget {E2E_BUDGET:.1f}x)")
    if ratio > E2E_BUDGET:
        print(f"FAIL: publish + download costs {ratio:.2f}x > {E2E_BUDGET:.1f}x "
              "the coding kernels for the same bytes")
        return 1
    return 0


#: Obs-overhead probe, enforcing the "<3% overhead" instrumentation
#: claim with a 5% CI budget: the decode + sim-slot-loop workload with
#: metrics AND tracing enabled may cost at most OVERHEAD_BUDGET times
#: the same workload with observability off.  On/off passes run in
#: adjacent pairs, so machine drift hits both sides of a pair equally;
#: the gate is the median of the per-pair ratios.
OVERHEAD_BUDGET = 1.05
OVERHEAD_REPS = 21


def _median(samples: list[float]) -> float:
    samples = sorted(samples)
    return samples[(len(samples) - 1) // 2]


def measure_obs_overhead() -> int:
    """Fail (1) when metrics+tracing cost >5% over the obs-off hot path."""
    from repro import obs
    from repro.rlnc import BlockDecoder, CodingParams, FileEncoder
    from repro.sim.scenarios import figure_5a

    # k=512: the decode is dominated by a long dense elimination whose
    # runtime is stable rep-to-rep, so the on/off ratio does not flap on
    # noisy shared runners the way a short decode's would.
    params = CodingParams(p=P, m=1 << 11)
    encoder = FileEncoder(params, secret=b"bench", file_id=2)
    data = os.urandom(params.file_bytes)
    source = encoder.source_matrix(data)
    ids = encoder.independent_ids(1)[0]
    messages = encoder.encode_ids(source, ids)

    def workload() -> None:
        decoder = BlockDecoder(params, encoder.coefficients)
        assert decoder.decode(messages) == data
        figure_5a(slots=40, seed=7)

    def timed(enabled: bool) -> float:
        scope = (obs.observability(tracing=True, reset=True) if enabled
                 else contextlib.nullcontext())
        with scope:
            start = time.perf_counter()
            workload()
            return time.perf_counter() - start

    workload()  # warm caches and lazily-built kernels before timing
    # Time on/off in adjacent pairs so machine drift (frequency scaling,
    # co-tenants) hits both halves of a pair alike, alternating which
    # half runs first so neither side always inherits the other's
    # garbage or cache state.  One pass is short next to the drift of a
    # shared runner, so pairing, not medians taken across the whole
    # run, is what keeps the ratio steady.
    off, on, ratios = [], [], []
    for rep in range(OVERHEAD_REPS):
        if rep % 2:
            enabled = timed(True)
            off.append(timed(False))
        else:
            off.append(timed(False))
            enabled = timed(True)
        on.append(enabled)
        ratios.append(enabled / off[-1])

    base, enabled = _median(off), _median(on)
    ratio = _median(ratios)
    print(f"obs overhead: off {base * 1e3:.1f} ms, metrics+tracing on "
          f"{enabled * 1e3:.1f} ms -> median pair ratio {ratio:.3f}x "
          f"(budget {OVERHEAD_BUDGET:.2f}x)")
    if ratio > OVERHEAD_BUDGET:
        print(f"FAIL: observability costs {ratio:.3f}x > "
              f"{OVERHEAD_BUDGET:.2f}x budget on the decode + sim slot "
              "loop hot path")
        return 1
    return 0


def _compare(baseline_name: str, key: str, ns_per_op: int) -> int:
    """Return 1 when ``key`` regressed past BUDGET vs the baseline file."""
    baseline_path = REPO_ROOT / baseline_name
    if not baseline_path.exists():
        print(f"no committed {baseline_name} baseline; skipping comparison")
        return 0
    baseline = json.loads(baseline_path.read_text())
    point = baseline.get("results", {}).get(key)
    if point is None:
        print(f"baseline has no point {key}; skipping comparison")
        return 0
    ratio = ns_per_op / point["ns_per_op"]
    print(f"baseline {key}: {point['ns_per_op']} ns/op -> ratio {ratio:.2f}x "
          f"(budget {BUDGET:.1f}x)")
    if ratio > BUDGET:
        print(f"FAIL: {key} regressed {ratio:.2f}x > {BUDGET:.1f}x budget")
        return 1
    return 0


def main() -> int:
    from repro.rlnc import CodingParams

    k = CodingParams(p=P, m=M).k
    key = f"decode_p{P}_k{k}"
    seconds = measure()
    ns_per_op = int(seconds * 1e9)
    fresh = {
        "schema": 1,
        "results": {
            key: {"p": P, "k": k, "m": M, "op": "decode_1MB",
                  "ns_per_op": ns_per_op, "samples": REPS}
        },
    }
    out_path = REPO_ROOT / "BENCH_decode.smoke.json"
    out_path.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {key}: {ns_per_op} ns/op ({seconds * 1e3:.1f} ms); "
          f"wrote {out_path.name}")
    failures = _compare("BENCH_decode.json", key, ns_per_op)

    sim_key, sim_seconds = measure_sim()
    sim_ns = int(sim_seconds * 1e9)
    sparse_key, sparse_seconds, sparse_bpp = measure_sim_sparse()
    sparse_ns = int(sparse_seconds * 1e9)
    sim_fresh = {
        "schema": 3,
        "results": {
            sim_key: {"n": SIM_N, "engine": "batched", "op": "sim_step",
                      "ns_per_op": sim_ns, "samples": 1},
            sparse_key: {"n": SPARSE_N, "engine": "sparse", "op": "sim_step",
                         "ns_per_op": sparse_ns,
                         "bytes_per_peer": round(sparse_bpp, 1),
                         "samples": 1},
        },
    }
    sim_path = REPO_ROOT / "BENCH_sim.smoke.json"
    sim_path.write_text(json.dumps(sim_fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {sim_key}: {sim_ns} ns/op ({sim_seconds * 1e6:.0f} us/slot); "
          f"wrote {sim_path.name}")
    failures += _compare("BENCH_sim.json", sim_key, sim_ns)
    print(f"measured {sparse_key}: {sparse_ns} ns/op "
          f"({sparse_seconds * 1e6:.0f} us/slot, "
          f"{sparse_bpp:.0f} B/peer of engine state)")
    failures += _compare("BENCH_sim.json", sparse_key, sparse_ns)

    repair_key, repair_ns = measure_repair()
    repair_fresh = {
        "schema": 1,
        "results": {
            repair_key: {"op": "recombine_per_message",
                         "ns_per_op": repair_ns, "samples": 1}
        },
    }
    repair_path = REPO_ROOT / "BENCH_repair.smoke.json"
    repair_path.write_text(json.dumps(repair_fresh, indent=2, sort_keys=True) + "\n")
    print(f"measured {repair_key}: {repair_ns} ns/op; wrote {repair_path.name}")
    failures += _compare("BENCH_repair.json", repair_key, repair_ns)

    failures += measure_screening()
    failures += measure_e2e_ratio()
    failures += measure_obs_overhead()

    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
