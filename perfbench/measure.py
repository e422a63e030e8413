"""One benchmark measurement, run by ``perfbench/run.py`` in a fresh process.

Untraced (``--trace 0``): after a warm-up episode, the run repeats
*episodes* — build the system three times (each timed as set-up), run
the workload's fixed operation stream on the last build (each operation
timed), check every output, tear down — until ``--seconds`` of
operation time are measured, with at least three episodes.  Every
episode of a run replays the same seed, so their fingerprints of
simulated statistics must be identical.

Traced (``--trace 1``): one untraced episode (set-up included) and then
the same episode again with the layer wrappers of :mod:`.tracer`
installed; the per-layer metrics come from the second, and their wall
time ratio is the tracing overhead.  Spans are written to
``.bench_build/perfbench/`` at the end.

The last line of standard output is the JSON result; the exit status is
1 when any output check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

import numpy as np

from perfbench import systems, tracer, workloads

#: End-to-end metrics (untraced runs), every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "episode_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}

LAYERS = ("rlnc", "gf", "security", "storage", "transfer", "sim", "repair")

#: Per-layer metrics (traced runs): ``.s`` metrics are self seconds of
#: the span of that name; the rest are counts taken at the same wrappers.
PER_LAYER = {
    "rlnc.encode.s": "s",
    "rlnc.screen.s": "s",
    "rlnc.screen.calls": "count",
    "rlnc.update.s": "s",
    "rlnc.decode.s": "s",
    "rlnc.decode.useful_ratio": "ratio",
    "gf.matmul.s": "s",
    "gf.rank_offer.calls": "count",
    "security.keygen.s": "s",
    "security.handshake.s": "s",
    "security.handshake.calls": "count",
    "security.digest_slice.s": "s",
    "security.digest_verify.s": "s",
    "security.digest_verify.calls": "count",
    "storage.add.s": "s",
    "transfer.download.self_s": "s",
    "transfer.concurrent.self_s": "s",
    "transfer.serve.s": "s",
    "transfer.discarded_msgs": "count",
    "transfer.peer_failures": "count",
    "transfer.retries": "count",
    "transfer.slots": "count",
    "sim.build.s": "s",
    "sim.step.s": "s",
    "sim.step.calls": "count",
    "sim.slots": "count",
    "sim.state_mib": "MiB",
    "repair.s": "s",
    "repair.helper_bytes": "B",
    **{f"layer.{layer}.s": "s" for layer in LAYERS},
    "unattributed.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-ups before each episode, the last one used by the episode.  Spread
#: over the whole run, they sample the machine's slow and fast phases
#: alike, and ``setup_s`` is their median.
SETUPS_PER_EPISODE = 3
MIN_EPISODES = 3

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def peak_rss_mib() -> float:
    """Peak RSS of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _rate(outcomes, kinds, attr: str) -> float | None:
    chosen = [o for o in outcomes if o.kind in kinds]
    seconds = sum(o.seconds for o in chosen)
    if not chosen or seconds <= 0:
        return None
    return sum(getattr(o, attr) for o in chosen) / seconds


def _errors(episode) -> list[str]:
    return [e for o in episode.outcomes for e in o.errors]


def _warm_up(workload: str, seed: int) -> list[str]:
    from repro.sim import fastpath

    fastpath.load()  # compiles the native kernels on a fresh checkout
    warm = systems.system_for(workloads.build(workload, seed, warmup=True), seed)
    instance = warm.build()
    try:
        return _errors(warm.run_episode(instance))
    finally:
        warm.teardown(instance)


def _context(system, instance, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        **system.context(instance),
        "REPRO_SIM_THREADS": os.environ.get("REPRO_SIM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def timed_run(system, workload: str, seed: int, seconds: float):
    setups: list[float] = []
    episodes = []
    context: dict = {}
    measured = 0.0
    while len(episodes) < MIN_EPISODES or measured < seconds:
        for i in range(SETUPS_PER_EPISODE):
            t0 = time.perf_counter()
            instance = system.build()
            setups.append(time.perf_counter() - t0)
            if i < SETUPS_PER_EPISODE - 1:
                system.teardown(instance)
        if not context:
            context = _context(system, instance, workload, seed)
        episode = system.run_episode(instance)
        episodes.append(episode)
        measured += episode.seconds
        system.teardown(instance)
        del instance
        gc.collect()

    outcomes = [o for ep in episodes for o in ep.outcomes]
    samples = systems.latency_samples_ms(outcomes)
    errors = [e for ep in episodes for e in _errors(ep)]
    prints = {ep.fingerprint for ep in episodes}
    if len(prints) != 1:
        errors.append(f"fingerprints differ across episodes of one seed: {sorted(prints)}")
    # The machine alternates between faster and slower phases lasting
    # seconds, so episodes fall into two modes.  A median over episodes
    # jumps between the modes as their mix shifts; the mean over
    # episodes moves smoothly, so per-episode values are averaged.
    metrics = {
        "setup_s": float(np.median(setups)),
        "episode_s": float(np.mean([ep.seconds for ep in episodes])),
        "op_p50_ms": float(
            np.mean([_percentile(systems.latency_samples_ms(ep.outcomes), 50)
                     for ep in episodes])
        ),
        "op_p90_ms": _percentile(samples, 90),
        "peak_rss_mib": peak_rss_mib(),
    }
    failed_ops = sum(1 for o in outcomes if o.errors) + (len(prints) != 1)
    detail = {
        "publish_mib_s": (_rate(outcomes, {"publish"}, "mib"), "MiB/s"),
        "update_mib_s": (_rate(outcomes, {"update"}, "mib"), "MiB/s"),
        "repair_msgs_s": (_rate(outcomes, {"repair"}, "messages"), "1/s"),
        "fetch_mib_s": (
            _rate(outcomes, {"fetch", "robust_fetch", "concurrent"}, "mib"), "MiB/s"
        ),
        "slot_ms": (
            1000.0 / r if (r := _rate(outcomes, {"slots"}, "slots")) else None, "ms"
        ),
        "latency_samples": (len(samples), "count"),
        "episodes": (len(episodes), "count"),
        "setups": (len(setups), "count"),
        "measured_s": (measured, "s"),
        "error_rate": (failed_ops / max(len(outcomes), 1), "ratio"),
    }
    context["fingerprint"] = episodes[0].fingerprint
    return metrics, detail, context, errors, len(outcomes), failed_ops


def _timed_episode(system, recorder=None):
    """Build and run one episode; returns it with its timed wall (set-up
    plus operation time — the benchmark's own checks excluded)."""
    t0 = time.perf_counter()
    instance = system.build()
    setup = time.perf_counter() - t0
    episode = system.run_episode(instance, recorder)
    return instance, episode, setup + episode.seconds


def traced_run(system, workload: str, seed: int):
    instance, plain, wall_plain = _timed_episode(system)
    context = _context(system, instance, workload, seed)
    system.teardown(instance)
    del instance
    gc.collect()

    rec = tracer.Recorder()
    with tracer.Patch(rec):
        instance, traced, wall = _timed_episode(system, rec)
    system.teardown(instance)

    errors = _errors(plain) + _errors(traced)
    if plain.fingerprint != traced.fingerprint:
        errors.append(
            f"traced episode fingerprint {traced.fingerprint} != untraced {plain.fingerprint}"
        )
    by_name, by_layer, unattributed = tracer.layer_table(rec.spans, wall)
    counts = rec.counts
    offers = counts["rlnc.decode.offers"]
    values = {
        "rlnc.screen.calls": counts["rlnc.screen.calls"],
        "rlnc.decode.useful_ratio": counts["rlnc.decode.useful"] / offers if offers else 0.0,
        "gf.rank_offer.calls": counts["gf.rank_offer.calls"],
        "security.handshake.calls": counts["security.handshake.calls"],
        "security.digest_verify.calls": counts["security.digest_verify.calls"],
        "transfer.download.self_s": by_name.get("transfer.download", 0.0),
        "transfer.concurrent.self_s": by_name.get("transfer.concurrent", 0.0),
        "transfer.discarded_msgs": counts["transfer.discarded_msgs"],
        "transfer.peer_failures": counts["transfer.peer_failures"],
        "transfer.retries": counts["transfer.retries"],
        "transfer.slots": counts["transfer.slots"],
        "sim.step.calls": counts["sim.step.calls"],
        "sim.slots": counts["sim.step.slots"],
        "sim.state_mib": traced.state_mib,
        "repair.s": by_name.get("repair", 0.0),
        "repair.helper_bytes": counts["repair.helper_bytes"],
        "unattributed.s": unattributed,
        "trace.wall_s": wall,
        "trace.overhead_ratio": wall / wall_plain,
    }
    for layer in LAYERS:
        values[f"layer.{layer}.s"] = by_layer.get(layer, 0.0)
    metrics = {}
    for name in PER_LAYER:
        if name in values:
            metrics[name] = float(values[name])
        else:  # "<span>.s": self seconds of that span name
            metrics[name] = float(by_name.get(name[: -len(".s")], 0.0))

    os.makedirs(BUILD_DIR, exist_ok=True)
    rec.write_jsonl(os.path.join(BUILD_DIR, f"spans-{workload}-seed{seed}.jsonl"))
    print(tracer.format_table(by_layer, unattributed, wall))
    attempted = len(plain.outcomes) + len(traced.outcomes)
    failed = sum(1 for o in plain.outcomes + traced.outcomes if o.errors)
    failed += plain.fingerprint != traced.fingerprint
    context["fingerprint"] = traced.fingerprint
    return metrics, {}, context, errors, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # All inputs exist before the first timer starts.
    spec = workloads.build(args.workload, args.seed)
    system = systems.system_for(spec, args.seed)
    warm_errors = _warm_up(args.workload, args.seed)
    if args.trace:
        metrics, detail, context, run_errors, attempted, failed = traced_run(
            system, args.workload, args.seed
        )
        units = PER_LAYER
    else:
        metrics, detail, context, run_errors, attempted, failed = timed_run(
            system, args.workload, args.seed, args.seconds
        )
        units = END_TO_END
    errors = warm_errors + run_errors
    failed += bool(warm_errors)
    for message in errors:
        print(f"FAILED: {message}", file=sys.stderr)
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in detail.items():
        if value is not None:
            print(f"detail {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
