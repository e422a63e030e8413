"""Episode runners: build a workload's system and run its op stream.

A *system* turns a generated spec into calls on the public ``repro``
API.  ``build`` is the set-up the benchmark times as ``setup_s``;
``run_episode`` runs the spec's fixed operation stream closed-loop (each
operation starts after the previous one returned), timing every
operation on its own and checking its output with :mod:`.oracles`
outside the timed region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import oracles
from perfbench.workloads import NetworkSpec, Op, SimSpec

__all__ = [
    "Outcome",
    "Episode",
    "NetworkSystem",
    "SimSystem",
    "system_for",
    "latency_samples_ms",
]

MIB = float(1 << 20)
#: Seed of every ``FileSharingNetwork``.  It fixes the key material, and
#: with it the seeded prime searches of set-up, so ``setup_s`` does the
#: same work for every run seed; the run seed chooses only the inputs
#: built by :mod:`.workloads`.
NETWORK_SEED = 0


@dataclass
class Outcome:
    """One timed operation."""

    kind: str
    seconds: float
    errors: list[str] = field(default_factory=list)
    #: Plaintext MiB written or read (network).
    mib: float = 0.0
    #: Slots stepped (sim).
    slots: int = 0
    #: Coded messages restored (repair).
    messages: int = 0
    #: Whether this operation is a latency sample (a single read or a
    #: slot batch).
    sample: bool = False


@dataclass
class Episode:
    outcomes: list[Outcome]
    fingerprint: str
    state_mib: float = 0.0

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


def system_for(spec, seed: int):
    if isinstance(spec, NetworkSpec):
        return NetworkSystem(spec)
    return SimSystem(spec, seed)


def _state_mib(sim) -> float:
    return sim.memory_bytes() / MIB if sim is not None else 0.0


# -- full-stack network -------------------------------------------------------


class _ChunkTarget:
    """One chunk of a streaming decoder as a downloader target (the same
    adapter the CLI's robust download uses)."""

    def __init__(self, streaming, index: int):
        self._streaming = streaming
        self._index = index

    @property
    def is_complete(self) -> bool:
        return self._streaming.needed_for_chunk(self._index) == 0

    @property
    def needed(self) -> int:
        return self._streaming.needed_for_chunk(self._index)

    def offer(self, message):
        return self._streaming.offer(message)

    def offer_many(self, messages):
        outcomes = []
        for message in messages:
            if self.is_complete:
                break
            outcomes.append(self._streaming.offer(message))
        return outcomes


class NetworkSystem:
    """``FileSharingNetwork`` workloads (bulk and mixed)."""

    def __init__(self, spec: NetworkSpec):
        from repro.rlnc.params import CodingParams
        from repro.sim.network import DEFAULT_SIM_PARAMS

        self.spec = spec
        if spec.coding == "bulk":
            self.params = CodingParams(p=8, m=32768, file_bytes=1 << 20)
        else:
            self.params = DEFAULT_SIM_PARAMS

    def build(self):
        from repro.sim.network import FileSharingNetwork

        return FileSharingNetwork(
            self.spec.capacities,
            params=self.params,
            seed=NETWORK_SEED,
            background_gamma=self.spec.background_gamma,
        )

    def teardown(self, net) -> None:
        pass

    def context(self, net) -> dict:
        return {}

    def run_episode(self, net, recorder=None) -> Episode:
        fp = oracles.Fingerprint()
        outcomes = []
        for index, op in enumerate(self.spec.ops):
            if recorder is not None:
                recorder.op = index
            try:
                outcome = getattr(self, "_" + op.kind)(net, op, fp)
            except Exception as exc:  # an op that raises counts as failed
                outcome = Outcome(op.kind, 0.0, [f"op {index} {op.kind}: {exc!r}"])
                fp.add("raised", op.kind)
            outcomes.append(outcome)
        sim = recorder.last_simulation() if recorder is not None else None
        return Episode(outcomes, fp.hexdigest(), _state_mib(sim))

    def _publish(self, net, op: Op, fp) -> Outcome:
        t0 = time.perf_counter()
        handle = net.publish(op.user, op.name, op.data)
        dt = time.perf_counter() - t0
        fp.add("publish", handle.wire_bytes, handle.vmanifest.chunk_ids)
        return Outcome("publish", dt, mib=len(op.data) / MIB)

    def _fetch(self, net, op: Op, fp) -> Outcome:
        t0 = time.perf_counter()
        got = net.download(op.user, op.name)
        dt = time.perf_counter() - t0
        fp.add("fetch", got.slots, got.bytes_received)
        errors = oracles.check_bytes(f"fetch {op.name}", got.data, op.expect)
        return Outcome("fetch", dt, errors, mib=len(op.expect) / MIB, sample=True)

    def _robust_fetch(self, net, op: Op, fp) -> Outcome:
        from repro.faults import FaultPlan, FaultyServingSession
        from repro.rlnc.chunking import StreamingDecoder
        from repro.security.integrity import DigestStore
        from repro.transfer import (
            DownloadSession,
            ParallelDownloader,
            RobustPolicy,
            ServingSession,
        )

        plan = FaultPlan.parse(op.faults)
        kbps = self.spec.robust_slot_bytes * 8.0 / 1000.0
        t0 = time.perf_counter()
        handle = net.registry[op.name]
        manifest = handle.manifest
        owner_digests = net.digest_stores[handle.owner]
        digests = DigestStore()
        for chunk_id in manifest.chunk_ids:
            digests.merge(chunk_id, owner_digests.slice_for_file(chunk_id))
        decoder = StreamingDecoder(manifest, handle.bound_encoder())
        policy = RobustPolicy(digest_store=digests)
        keys = net.keypairs[op.user]
        reports = []
        for index, chunk_id in enumerate(manifest.chunk_ids):
            sessions = []
            for j, store in enumerate(net.stores):
                serving = ServingSession(store, keys.public)
                if plan.faults_for(j):
                    serving = FaultyServingSession(
                        serving, plan.faults_for(j), plan.rng_for(j), peer=j
                    )
                DownloadSession(keys).handshake_with_retry(
                    serving,
                    chunk_id,
                    attempts=policy.max_handshake_attempts,
                    backoff_slots=policy.backoff_slots,
                    peer=j,
                )
                sessions.append(serving)
            report = ParallelDownloader(
                sessions, _ChunkTarget(decoder, index), lambda i, t: kbps, policy=policy
            ).run(10_000, file_id=chunk_id)
            reports.append(report)
            if not report.complete:
                break
        data = decoder.result() if decoder.is_complete else b""
        dt = time.perf_counter() - t0
        fp.add(
            "robust",
            [r.slots for r in reports],
            [r.bytes_discarded for r in reports],
        )
        label = f"robust fetch {op.name}"
        errors = oracles.check_bytes(label, data, op.expect)
        errors += oracles.check_robust(label, reports, op.polluter, op.refuser)
        return Outcome("robust_fetch", dt, errors, mib=len(op.expect) / MIB, sample=True)

    def _concurrent(self, net, op: Op, fp) -> Outcome:
        t0 = time.perf_counter()
        results = net.download_concurrently([(u, name) for u, name, _ in op.batch])
        dt = time.perf_counter() - t0
        errors = []
        for (user, name, expect), got in zip(op.batch, results):
            fp.add("concurrent", got.slots, got.bytes_received)
            errors += oracles.check_bytes(f"concurrent fetch {name} by {user}", got.data, expect)
        mib = sum(len(expect) for _, _, expect in op.batch) / MIB
        return Outcome("concurrent", dt, errors, mib=mib)

    def _update(self, net, op: Op, fp) -> Outcome:
        t0 = time.perf_counter()
        result = net.publish_update(op.user, op.name, op.data)
        dt = time.perf_counter() - t0
        fp.add("update", result.upload_bytes, result.changed_chunks)
        errors = []
        if len(result.changed_chunks) != 1:
            errors.append(
                f"update {op.name}: {len(result.changed_chunks)} chunks re-encoded, 1 edited"
            )
        return Outcome("update", dt, errors, mib=len(op.data) / MIB)

    def _repair(self, net, op: Op, fp) -> Outcome:
        k = self.params.k
        handle = net.registry[op.name]
        chunk_ids = handle.manifest.chunk_ids

        def owner_state():
            # What an owner-side re-seed would change: its upload count,
            # its re-seed rounds and the messages it holds.
            held = [net.stores[handle.owner].count(c) for c in chunk_ids]
            return handle.wire_bytes, handle.reseed_rounds, held

        before = owner_state()
        t0 = time.perf_counter()
        net.drop_peer_data(op.user, op.name)
        summary = net.churn_repair(op.name, op.user, count=k)
        dt = time.perf_counter() - t0
        restored = [net.stores[op.user].count(c) for c in chunk_ids]
        fp.add("repair", summary["produced"], summary["helper_bandwidth_bytes"])
        errors = oracles.check_repair(
            f"repair {op.name} at {op.user}", k, restored, before, owner_state()
        )
        return Outcome("repair", dt, errors, messages=summary["produced"])


# -- slot engine ------------------------------------------------------------


class SimSystem:
    """The dense ``Simulation`` workload, stepped one slot at a time."""

    def __init__(self, spec: SimSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed

    def build(self):
        from repro.sim.capacity import ConstantCapacity
        from repro.sim.demand import BernoulliDemand
        from repro.sim.engine import Simulation
        from repro.sim.peer import PeerConfig

        demand = BernoulliDemand(self.spec.gamma)
        configs = [
            PeerConfig(capacity=ConstantCapacity(c), demand=demand)
            for c in self.spec.capacities
        ]
        return Simulation(configs, seed=self.seed, engine="auto")

    def teardown(self, sim) -> None:
        sim.close()

    def context(self, sim) -> dict:
        return {"backend": sim.backend}

    def run_episode(self, sim, recorder=None) -> Episode:
        fp = oracles.Fingerprint()
        outcomes = []
        for t in range(self.spec.slots):
            t0 = time.perf_counter()
            alloc, requesting, caps = sim.step()
            dt = time.perf_counter() - t0
            fp.add(alloc.sum(axis=0), requesting)
            errors = oracles.check_feasible(f"slot {t}", alloc.sum(axis=1), caps)
            outcomes.append(Outcome("slots", dt, errors, slots=1, sample=True))
        state = _state_mib(sim) if recorder is not None else 0.0
        return Episode(outcomes, fp.hexdigest(), state)


def latency_samples_ms(outcomes) -> np.ndarray:
    """Per-read wall time (network) or per-slot time (sim)."""
    return np.array(
        [o.seconds * 1000.0 / max(o.slots, 1) for o in outcomes if o.sample]
    )
