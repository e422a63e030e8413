"""Span tracing from the benchmark's side of each layer boundary.

The traced run wraps public entry points of every ``repro`` layer (one
:class:`Target` each) with a recorder that keeps spans in memory as
``(name, start, end, parent, op)`` records; nothing inside the program
changes and ``repro.obs``'s own tracer stays off.  Class methods are
wrapped on the class that defines them.  Functions are wrapped in every
loaded ``repro`` module that holds them, because a name imported with
``from ... import f`` is looked up in the importing module.

A span's *self time* is its duration minus the part of its interval its
child spans cover.  Layer rows sum self times by the span name's first
component, so the rows plus ``unattributed`` (wall time outside every
span) add up to the traced wall time exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "Recorder",
    "Span",
    "Target",
    "TARGETS",
    "Patch",
    "self_times",
    "layer_table",
    "format_table",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list, -1 for top level
    op: int  # index of the benchmark operation that caused it


class Recorder:
    """In-memory span and counter sink for one traced region."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: Operation id stamped on new spans; the episode loop sets it.
        self.op = -1
        self._stack: list[int] = []
        self._clock = clock
        self._last_sim = None

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self._clock(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index].end = self._clock()
        self._stack.pop()

    def note_simulation(self, sim) -> None:
        self._last_sim = weakref.ref(sim)

    def last_simulation(self):
        """The most recently constructed ``Simulation`` still alive."""
        return self._last_sim() if self._last_sim is not None else None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "op": s.op}
                ) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def layer_table(spans: list[Span], wall: float) -> tuple[dict, dict, float]:
    """``(self seconds by span name, by layer, unattributed seconds)``."""
    by_name: Counter = Counter()
    for s, own in zip(spans, self_times(spans)):
        by_name[s.name] += own
    by_layer: Counter = Counter()
    for name, own in by_name.items():
        by_layer[name.split(".", 1)[0]] += own
    return dict(by_name), dict(by_layer), wall - sum(by_layer.values())


def format_table(by_layer: dict, unattributed: float, wall: float) -> str:
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}"]
    for layer, own in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14}{own:>10.4f}{own / wall:>8.1%}")
    lines.append(f"{'unattributed':<14}{unattributed:>10.4f}{unattributed / wall:>8.1%}")
    lines.append(f"{'= traced wall':<14}{wall:>10.4f}{1:>8.1%}")
    return "\n".join(lines)


# -- what gets wrapped ------------------------------------------------------


def _count_offer(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["rlnc.decode.offers"] += 1
    if getattr(result, "name", "") in ("ACCEPTED", "COMPLETE"):
        rec.counts["rlnc.decode.useful"] += 1


def _count_run_slots(rec: Recorder, args, kwargs, result) -> None:
    slots = args[1] if len(args) > 1 else kwargs["slots"]
    rec.counts["sim.step.slots"] += int(slots)


def _count_step(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["sim.step.slots"] += 1


def _note_sim(rec: Recorder, args, kwargs, result) -> None:
    rec.note_simulation(args[0])


def _count_report(rec: Recorder, args, kwargs, report) -> None:
    rec.counts["transfer.slots"] += report.slots
    rec.counts["transfer.peer_failures"] += len(report.failures)
    rec.counts["transfer.discarded_msgs"] += sum(
        f.messages_discarded for f in report.failures
    )


def _count_concurrent(rec: Recorder, args, kwargs, results) -> None:
    rec.counts["transfer.slots"] += sum(r.slots for r in results)


def _count_retries(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["transfer.retries"] += result[1] - 1


def _count_repair(rec: Recorder, args, kwargs, summary) -> None:
    rec.counts["repair.helper_bytes"] += summary["helper_bandwidth_bytes"]


@dataclass(frozen=True)
class Target:
    """``module:attr`` (``Class.method`` or a function) -> span name."""

    module: str
    attr: str
    span: str
    hook: Callable | None = None


TARGETS = (
    # rlnc
    Target("repro.rlnc.encoder", "FileEncoder.encode_ids", "rlnc.encode"),
    Target("repro.rlnc.encoder", "FileEncoder.encode_message", "rlnc.encode"),
    Target("repro.rlnc.encoder", "FileEncoder.independent_ids", "rlnc.screen"),
    Target("repro.rlnc.update", "VersionedEncoder.publish", "rlnc.publish"),
    Target("repro.rlnc.update", "VersionedEncoder.update", "rlnc.update"),
    Target("repro.rlnc.chunking", "StreamingDecoder.__init__", "rlnc.decode_setup"),
    Target("repro.rlnc.chunking", "StreamingDecoder.offer", "rlnc.decode", _count_offer),
    Target("repro.rlnc.chunking", "StreamingDecoder.result", "rlnc.decode"),
    # gf
    Target("repro.gf.field", "BinaryField.matmul", "gf.matmul"),
    Target("repro.gf.linalg", "IncrementalRank.offer", "gf.rank_offer"),
    # security
    Target("repro.security.keys", "generate_keypair", "security.keygen"),
    Target("repro.transfer.session", "DownloadSession.handshake", "security.handshake"),
    Target(
        "repro.transfer.session", "DownloadSession.handshake_with_retry",
        "security.handshake_retry", _count_retries,
    ),
    Target("repro.security.integrity", "DigestStore.slice_for_file", "security.digest_slice"),
    Target("repro.security.integrity", "DigestStore.merge", "security.digest_merge"),
    Target("repro.security.integrity", "DigestStore.verify", "security.digest_verify"),
    Target("repro.security.integrity", "DigestStore.record", "security.digest_record"),
    # storage
    Target("repro.storage.store", "MessageStore.add_messages", "storage.add"),
    Target("repro.storage.store", "MessageStore.drop_file", "storage.drop"),
    # transfer
    Target("repro.transfer.scheduler", "ParallelDownloader.run", "transfer.download", _count_report),
    Target("repro.transfer.session", "ServingSession.serve", "transfer.serve"),
    Target("repro.faults.injector", "FaultyServingSession.serve", "transfer.serve"),
    Target(
        "repro.sim.network", "FileSharingNetwork.download_concurrently",
        "transfer.concurrent", _count_concurrent,
    ),
    # sim
    Target("repro.sim.engine", "Simulation.__init__", "sim.build", _note_sim),
    Target("repro.sim.engine", "Simulation.step", "sim.step", _count_step),
    Target("repro.sim.engine", "Simulation.run", "sim.step", _count_run_slots),
    Target("repro.sim.network", "FileSharingNetwork.__init__", "sim.network"),
    Target("repro.sim.network", "FileSharingNetwork.publish", "sim.network"),
    Target("repro.sim.network", "FileSharingNetwork.publish_update", "sim.network"),
    Target("repro.sim.network", "FileSharingNetwork.download", "sim.network"),
    Target("repro.sim.network", "FileSharingNetwork.drop_peer_data", "sim.network"),
    # repair
    Target("repro.sim.network", "FileSharingNetwork.churn_repair", "repair", _count_repair),
)


def _wrap(rec: Recorder, fn: Callable, name: str, hook: Callable | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(index)
        rec.counts[name + ".calls"] += 1
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


class Patch:
    """Installs and removes the wrappers of ``targets`` around ``rec``."""

    def __init__(self, rec: Recorder, targets=TARGETS):
        self.rec = rec
        self.targets = targets
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for t in self.targets:
            module = importlib.import_module(t.module)
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(module, cls_name)
                owner = next(k for k in cls.__mro__ if meth in vars(k))
                original = vars(owner)[meth]
                self._set(owner, meth, _wrap(self.rec, original, t.span, t.hook))
            else:
                original = getattr(module, t.attr)
                wrapped = _wrap(self.rec, original, t.span, t.hook)
                for mod in list(sys.modules.values()):
                    if not getattr(mod, "__name__", "").startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapped)

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def remove(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> Patch:
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False
