"""Seeded workload generation, kept apart from the measured code.

Everything a run feeds the program — peer capacities, file sizes and
bytes, the order and targets of every operation, fault plans — is a pure
function of ``(workload, seed)`` built here, before any timing starts.
This module imports nothing from ``repro``: the program under test only
ever receives the generated inputs.

The mixes are *stratified*: every seed yields the same multiset of
operation kinds and file sizes, and the seed decides order, targets and
bytes.  Two seeds therefore ask for the same amount of work, so the
spread between runs measures the program and the machine, not the draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "WORKLOADS",
    "Op",
    "NetworkSpec",
    "SimSpec",
    "build",
    "MIXED_CHUNK_BYTES",
]

WORKLOADS = (
    "bulk_1mib_chunks",
    "mixed_8kib_chunks",
    "sim_dense_1k",
)

MIB = 1 << 20
KIB = 1 << 10
#: Chunk size of the mixed workload's coding parameters (``file_bytes`` of
#: the network's default simulation parameters).
MIXED_CHUNK_BYTES = 8 * KIB


@dataclass(frozen=True)
class Op:
    """One closed-loop operation of a network episode.

    ``user`` is the acting peer: the owner for ``publish``/``update``,
    the reader for ``fetch``/``robust_fetch``, the peer that loses its
    data for ``repair``.  ``data`` is the new content of a write;
    ``expect`` the content a read must return.
    """

    kind: str
    user: int = -1
    name: str = ""
    data: bytes = b""
    expect: bytes = b""
    #: ``robust_fetch``: FaultPlan spec, the polluting and the refusing peer.
    faults: str = ""
    polluter: int = -1
    refuser: int = -1
    #: ``concurrent``: ``((user, name, expect), ...)``.
    batch: tuple = ()


@dataclass(frozen=True)
class NetworkSpec:
    """A full-stack episode: network shape plus its op stream."""

    workload: str
    coding: str  # "bulk" (1 MiB chunks, GF(2^8), k=32) or "mixed" (defaults)
    capacities: tuple[float, ...]
    background_gamma: float
    ops: tuple[Op, ...]
    #: Robust fetches grant each peer this many bytes per slot.
    robust_slot_bytes: float = 0.0


@dataclass(frozen=True)
class SimSpec:
    """A slot-engine episode: dense population and slot budget."""

    workload: str
    slots: int
    #: Per-peer capacities (kbps) and request probability.
    capacities: tuple[float, ...]
    gamma: float


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.default_rng((seed, tag))


def _bytes(rng: np.random.Generator, size: int) -> bytes:
    return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()


def build(workload: str, seed: int, warmup: bool = False):
    """The episode spec of ``workload`` for ``seed`` (deterministic).

    ``warmup`` gives a short episode of the same shape that touches
    every code path once, so lazy imports, table builds and native
    kernel loading happen before anything is timed.
    """
    if workload == "bulk_1mib_chunks":
        return _bulk(seed, files=1 if warmup else 2, readers=1 if warmup else 3)
    if workload == "mixed_8kib_chunks":
        if warmup:
            return _mixed(seed, (16, 16, 24, 32),
                          tuple((kind, 1) for kind, _ in _MIXED_STREAM))
        return _mixed(seed, _MIXED_SIZES_KIB, _MIXED_STREAM)
    if workload == "sim_dense_1k":
        rng = _rng(seed, workload)
        caps = rng.permutation(np.repeat([128.0, 256.0, 512.0, 1024.0], 256))
        return SimSpec(
            workload=workload, slots=16 if warmup else 256,
            capacities=tuple(float(c) for c in caps), gamma=0.9,
        )
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _bulk(seed: int, files: int, readers: int) -> NetworkSpec:
    """One owner publishes ``files`` 3 MiB files; ``readers`` other users
    fetch each."""
    rng = _rng(seed, "bulk_1mib_chunks")
    n = 8
    owner = int(rng.integers(n))
    others = [j for j in range(n) if j != owner]
    ops: list[Op] = []
    for f in range(files):
        name = f"bulk-{f}"
        data = _bytes(rng, 3 * MIB)
        ops.append(Op("publish", user=owner, name=name, data=data))
        for user in rng.choice(others, size=readers, replace=False):
            ops.append(Op("fetch", user=int(user), name=name, expect=data))
    return NetworkSpec(
        workload="bulk_1mib_chunks", coding="bulk",
        capacities=(256.0,) * n, background_gamma=0.0, ops=tuple(ops),
    )


#: File sizes of the mixed corpus in KiB: mostly small, a long tail.
_MIXED_SIZES_KIB = (16, 16, 16, 16, 16, 24, 32, 32, 48, 64, 128, 256)
#: Operations after the corpus is published (``concurrent`` counts
#: batches of four reads).
_MIXED_STREAM = (
    ("fetch", 48),
    ("robust_fetch", 8),
    ("concurrent", 2),
    ("update", 4),
    ("repair", 2),
)


def _quota(total: int, weights) -> list[int]:
    """Split ``total`` over ``weights`` exactly (largest remainder)."""
    share = np.asarray(weights, dtype=float) * total / np.sum(weights)
    counts = np.floor(share).astype(int)
    rest = np.argsort(-(share - counts), kind="stable")[: total - counts.sum()]
    counts[rest] += 1
    return [int(c) for c in counts]


def _mixed(seed: int, sizes_kib, stream) -> NetworkSpec:
    """Four owners publish files of ``sizes_kib``, then a shuffled
    ``stream`` of ``(kind, count)`` operations runs writes beside reads.

    Popularity falls with size (weight 1/size), and each kind's targets
    are split over the files by exact quota rather than drawn, so every
    seed reads and writes the same sizes the same number of times.
    """
    rng = _rng(seed, "mixed_8kib_chunks")
    n = 16
    caps = rng.permutation(np.repeat([128.0, 256.0, 512.0, 1024.0], 4))
    owners = [int(o) for o in rng.choice(n, size=4, replace=False)]
    sizes = sorted(s * KIB for s in sizes_kib)
    # A short, seeded tail trim gives most files a partial last chunk.
    trims = rng.integers(0, 512, size=len(sizes))
    names = [f"mix-{i}" for i in range(len(sizes))]
    owner_of = {name: owners[i % 4] for i, name in enumerate(rng.permutation(names))}
    content = {name: _bytes(rng, size - int(t)) for name, size, t in zip(names, sizes, trims)}
    ops = [
        Op("publish", user=owner_of[name], name=name, data=content[name])
        for name in rng.permutation(names)
    ]
    weights = [1.0 / size for size in sizes]
    work = []
    for kind, count in stream:
        reads = count * 4 if kind == "concurrent" else count
        targets = [
            names[i] for i, c in enumerate(_quota(reads, weights)) for _ in range(c)
        ]
        targets = [str(t) for t in rng.permutation(targets)]
        if kind == "concurrent":
            work += [(kind, tuple(targets[b * 4:(b + 1) * 4])) for b in range(count)]
        else:
            work += [(kind, name) for name in targets]

    def reader(name: str) -> int:
        return int(rng.choice([j for j in range(n) if j != owner_of[name]]))

    for i in rng.permutation(len(work)):
        kind, name = work[i]
        if kind == "fetch":
            ops.append(Op("fetch", user=reader(name), name=name, expect=content[name]))
        elif kind == "robust_fetch":
            user = reader(name)
            # The polluter serves among the first four sessions, so its
            # messages reach verification before the chunk can complete.
            polluter = int(rng.choice([j for j in range(4) if j != user]))
            crasher, refuser = (
                int(j)
                for j in rng.choice(
                    [j for j in range(n) if j not in (user, polluter)], size=2, replace=False
                )
            )
            spec = (
                f"seed={int(rng.integers(1 << 16))};{polluter}:pollute;"
                f"{crasher}:crash@512;{refuser}:refuse"
            )
            ops.append(
                Op(
                    "robust_fetch", user=user, name=name, expect=content[name],
                    faults=spec, polluter=polluter, refuser=refuser,
                )
            )
        elif kind == "concurrent":
            users = [int(u) for u in rng.choice(n, size=4, replace=False)]
            batch = tuple((u, nm, content[nm]) for u, nm in zip(users, name))
            ops.append(Op("concurrent", batch=batch))
        elif kind == "update":
            old = content[name]
            chunk = int(rng.integers(-(-len(old) // MIXED_CHUNK_BYTES)))
            lo = chunk * MIXED_CHUNK_BYTES
            hi = min(len(old), lo + MIXED_CHUNK_BYTES)
            at = int(rng.integers(lo, hi - 16))
            new = old[:at] + _bytes(rng, 16) + old[at + 16:]
            content[name] = new
            ops.append(Op("update", user=owner_of[name], name=name, data=new))
        elif kind == "repair":
            ops.append(Op("repair", user=reader(name), name=name))
    return NetworkSpec(
        workload="mixed_8kib_chunks", coding="mixed",
        capacities=tuple(float(c) for c in caps), background_gamma=0.3,
        ops=tuple(ops),
        # One ~1 KiB coded message per peer per slot: every session gets
        # to deliver before a chunk's k = 8 messages complete it.
        robust_slot_bytes=1100.0,
    )
