"""The discrete-time simulation engine (Section V's simulator).

Each slot the engine: samples every user's request indicator, asks every
peer's allocator for its proposed upload division, enforces physical
feasibility, credits every receiving peer's ledger, and records rates.
"Each peer reallocated their upload bandwidths once per second" — one
slot is one reallocation round; ``slot_seconds`` only scales ledger
accumulation so coarser slots can be used for day-long scenarios without
changing the fixed-point of Equation (2).

Three engines produce those slots:

* ``reference`` — the original per-peer loop: one ``allocate()`` and one
  ``enforce_feasibility()`` call per peer per slot.  Simple, obviously
  correct, O(n) Python round-trips per slot.
* ``batched`` — peers are partitioned at construction into a *fast set*
  (allocator classes implementing the
  :class:`~repro.core.allocation.BatchedAllocator` protocol, grouped by
  class) and a *slow set* (stateful/custom/adversarial strategies, which
  keep the per-peer path unchanged).  Fast groups compute whole blocks
  of the n x n allocation matrix in one shot — through the runtime-
  compiled kernels of :mod:`repro.sim.fastpath` when available, else
  pure-numpy matrix expressions — demand and capacity are pre-sampled in
  time blocks for processes that declare themselves ``blockable``, and
  ledger credit is a single (tiled) ``L += alloc.T * dt`` per flush.
  Still O(n^2) memory (the dense credit matrix) and O(n^2) compute per
  slot.
* ``sparse`` — the large-``n`` engine.  Credit lives in
  :class:`~repro.sim.sparse.SparseLedgers` (per-peer entry rows over a
  decaying background scalar, lazy per-row epoch catch-up), and each
  slot touches only the *active set*: the requesters ``R`` and the
  givers with positive capacity.  Equation (2)/(3) rows, feasibility and
  the feedback-credit scatter all operate on the compact
  ``(active givers, |R|)`` matrix — through multi-threaded native
  kernels (one worker per contiguous row shard) when available, else a
  pure-numpy/:func:`~repro.sim.sparse.sparse_pairwise` fallback.  Cost
  per slot is O(n) bookkeeping plus O(active^2) allocation instead of
  O(n^2).

``engine="auto"`` picks ``batched`` for small populations and ``sparse``
once ``n`` or the dense engines' memory footprint gets out of hand, or
when ledger eviction is requested (see :meth:`Simulation._auto_engine`),
and emits a ``sim.engine_selected`` trace event recording the choice.

The engines are **bit-identical**: every batched/sparse expression was
chosen to perform the same IEEE-754 operations in the same order as the
reference loop (same pairwise reductions over the same element
positions, multiply-by-1.0 no-ops for untouched rows, block RNG draws
that consume the per-peer streams exactly like scalar draws; zeros
outside the active set are exact no-ops in every reduction the engines
perform).  ``tests/sim/test_engine_batched.py`` and
``tests/sim/test_engine_sparse.py`` enforce this equivalence
property-style across honest and adversarial mixes, delayed feedback,
forgetting, and time-varying capacity.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence

import numpy as np

from ..core.allocation import (
    Allocator,
    PeerwiseProportionalAllocator,
    enforce_feasibility,
    enforce_feasibility_rows,
)
from ..core.baselines import GlobalProportionalAllocator
from ..core.fairness import jain_index
from ..core.ledger import DEFAULT_INITIAL_CREDIT
from ..obs import REGISTRY as _OBS
from ..obs import TRACER as _TRACER
from ..obs import spans as _spans
from ..obs.events import SIM_ENGINE_SELECTED, SIM_FEEDBACK, SIM_SLOT
from . import fastpath
from .capacity import ConstantCapacity, StepCapacity
from .demand import (
    AlwaysOn,
    DutyCycleDemand,
    NeverRequests,
    RandomHoursDemand,
    ScheduleDemand,
)
from .metrics import SimulationResult, StreamingMetrics
from .peer import PeerConfig, PeerState
from .sparse import SparseLedgers, SparseLedgerView, sparse_pairwise
from .traces import TraceDemand

__all__ = ["Simulation"]

_SIM_SLOTS = _OBS.counter("repro.sim.slots", "simulation slots stepped")
_SIM_BATCHED_SLOTS = _OBS.counter(
    "repro.sim.slots.batched", "slots stepped through the batched fast path"
)
_SIM_SPARSE_SLOTS = _OBS.counter(
    "repro.sim.slots.sparse", "slots stepped through the sparse fast path"
)
_SIM_ALLOC_NS = _OBS.histogram(
    "repro.sim.alloc_ns", "nanoseconds per slot spent in allocation + feasibility"
)
_SIM_JAIN = _OBS.gauge(
    "repro.sim.jain_fairness",
    "Jain fairness index of requesting users' rates, latest slot",
)
_SIM_FAST_PEERS = _OBS.gauge(
    "repro.sim.fast_peers",
    "peers handled by the batched fast path in the current simulation",
)
_SIM_FEEDBACK_FLUSHES = _OBS.counter(
    "repro.sim.feedback.flushes", "batched ledger-credit (feedback) flushes"
)

#: Slots of demand/capacity pre-sampled per blockable peer at a time.
_TIME_BLOCK = 256

#: Population size at which ``engine="auto"`` switches to ``sparse``.
_SPARSE_N_THRESHOLD = 16384

#: Cap on the sparse engine's demand/capacity prefetch buffers, so the
#: time block shrinks instead of the buffers growing with n.
_BLOCK_BYTES_BUDGET = 64 << 20


def _available_memory_bytes() -> int | None:
    """Best-effort available physical memory (None when undiscoverable)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return None


class _LazyRngs:
    """Per-peer demand RNG streams, created on first use.

    The dense engines pre-build one ``default_rng((seed, i))`` per peer;
    at 10^6 peers that is a gigabyte of generator state for streams the
    sparse engine's deterministic-demand grouping mostly never touches.
    Identical seeding, identical streams — just lazy.
    """

    __slots__ = ("_seed", "_cache")

    def __init__(self, seed: int):
        self._seed = seed
        self._cache: dict[int, np.random.Generator] = {}

    def __getitem__(self, i: int) -> np.random.Generator:
        rng = self._cache.get(i)
        if rng is None:
            rng = np.random.default_rng((self._seed, i))
            self._cache[i] = rng
        return rng


def _demand_group_key(d) -> tuple:
    """Equivalence key for deterministic blockable demand processes.

    Two demands with the same key produce identical ``sample_block``
    output for every window, so one representative call serves the whole
    group.  Exact builtin types are grouped by value; anything else
    (user subclasses) only by instance identity, which is still the
    common case at scale (cohorts sharing one process object).
    """
    cls = type(d)
    if cls is AlwaysOn:
        return ("always",)
    if cls is NeverRequests:
        return ("never",)
    if cls is ScheduleDemand:
        return ("sched", d.intervals)
    if cls is DutyCycleDemand or cls is RandomHoursDemand:
        return ("duty", tuple(sorted(d.active_hours)), d.slot_seconds)
    if cls is TraceDemand:
        return ("inst", id(d))
    return ("inst", id(d))


def _capacity_group_key(c) -> tuple:
    """Equivalence key for blockable capacity profiles (all rng-free)."""
    cls = type(c)
    if cls is ConstantCapacity:
        return ("const", c.kbps)
    if cls is StepCapacity:
        return ("step", tuple(c._starts), tuple(c._values))
    return ("inst", id(c))


class Simulation:
    """Time-slotted peer-to-peer bandwidth-sharing simulation.

    Parameters
    ----------
    configs:
        One :class:`~repro.sim.peer.PeerConfig` per peer.
    seed:
        Base seed; each peer's demand process gets an independent
        deterministic stream derived from it.
    initial_credit:
        The small positive ledger initialisation of Equation (2).
    slot_seconds:
        Wall-clock seconds one slot represents (see module docstring).
    engine:
        ``"auto"`` (default) picks ``"batched"`` or ``"sparse"`` from
        the population size and available memory; ``"reference"``
        forces the original per-peer loop for A/B debugging.  Results
        are bit-identical whichever engine runs.  The batched and
        sparse engines bind each peer's allocator/demand/capacity
        strategy at construction; swap strategies mid-run only under
        ``reference``.
    evict_age:
        Drop sparse ledger entries unwritten for this many feedback
        flushes (see :class:`~repro.sim.sparse.SparseLedgers`).  Only
        the sparse engine evicts: ``"auto"`` then resolves to
        ``"sparse"``, and the dense engines reject it.
    """

    def __init__(
        self,
        configs: Sequence[PeerConfig],
        seed: int = 0,
        initial_credit: float = DEFAULT_INITIAL_CREDIT,
        slot_seconds: float = 1.0,
        feedback_interval: int = 1,
        engine: str = "auto",
        evict_age: int | None = None,
    ):
        if not configs:
            raise ValueError("a simulation needs at least one peer")
        if slot_seconds <= 0:
            raise ValueError(f"slot_seconds must be positive, got {slot_seconds}")
        if feedback_interval < 1:
            raise ValueError(
                f"feedback_interval must be >= 1 slot, got {feedback_interval}"
            )
        if engine not in ("auto", "reference", "batched", "sparse"):
            raise ValueError(
                "engine must be 'auto', 'reference', 'batched' or 'sparse', "
                f"got {engine!r}"
            )
        if evict_age is not None and evict_age < 1:
            raise ValueError(f"evict_age must be >= 1, got {evict_age}")
        self.configs = list(configs)
        self.n = len(self.configs)
        self.slot_seconds = float(slot_seconds)
        #: How often users report received bandwidth to their home peer.
        #: The paper's user "contacts its corresponding peer periodically
        #: with informational updates ... this step can be done off-line";
        #: an interval of 1 is the idealised instant-feedback regime the
        #: paper simulates, larger values model batched off-line updates
        #: (one FeedbackUpdate every ``feedback_interval`` slots).
        self.feedback_interval = int(feedback_interval)
        self.engine = engine
        if engine == "auto":
            mode, reason = self._auto_engine(self.n, evict_age)
        else:
            mode, reason = engine, "requested"
        if evict_age is not None and mode != "sparse":
            raise ValueError(
                f"evict_age needs the sparse-ledger engine, got engine={mode!r}"
            )
        self._mode = mode
        self._evict_age = evict_age
        _TRACER.emit(SIM_ENGINE_SELECTED, engine=mode, n=self.n, reason=reason)
        self._t = 0
        self._kernels = None
        self._sparse_native = False
        self._batched = mode != "reference"
        if mode == "sparse":
            self._credit_matrix = None
            self._pending_feedback = None
            self._demand_rngs = _LazyRngs(seed)
            self._init_sparse(initial_credit)
            return
        # All ledgers live as rows of one shared matrix so Equation (2)
        # for the whole network is a masked matrix product; each peer's
        # ContributionLedger is a view into its row (same semantics).
        self._credit_matrix = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        self.peers = [
            PeerState(i, cfg, self.n, initial_credit, credit_buffer=self._credit_matrix[i])
            for i, cfg in enumerate(self.configs)
        ]
        self._pending_feedback = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        self._demand_rngs = [
            np.random.default_rng((seed, i)) for i in range(self.n)
        ]
        if mode == "batched":
            self._init_batched()

    @staticmethod
    def _auto_engine(n: int, evict_age: int | None = None) -> tuple[str, str]:
        """Pick the engine for ``engine="auto"``: eviction, size, memory.

        Ledger eviction (``evict_age``) exists only in the sparse
        ledger store, so requesting it selects ``sparse`` at any size.
        The dense engines carry three (n, n) float64 arrays (credit
        matrix, pending feedback, per-slot allocation); require 4x that
        to be available before choosing them, otherwise go sparse even
        below the population threshold.
        """
        if evict_age is not None:
            return "sparse", f"evict_age={evict_age} needs sparse ledgers"
        if n >= _SPARSE_N_THRESHOLD:
            return "sparse", f"n={n} >= sparse threshold {_SPARSE_N_THRESHOLD}"
        dense_bytes = 3 * 8 * n * n
        avail = _available_memory_bytes()
        if avail is not None and dense_bytes * 4 > avail:
            return (
                "sparse",
                f"dense engine needs ~{dense_bytes} bytes, {avail} available",
            )
        return "batched", f"n={n} below sparse threshold, dense state fits"

    def _init_batched(self) -> None:
        """Partition peers into fast groups / slow set and bind plans."""
        self._kernels = fastpath.load()
        by_class: dict[type, list[int]] = {}
        slow: list[int] = []
        for i, peer in enumerate(self.peers):
            alloc = peer.config.allocator
            if callable(getattr(type(alloc), "allocate_rows", None)):
                by_class.setdefault(type(alloc), []).append(i)
            else:
                slow.append(i)
        self._slow_rows = slow
        # (representative instance, row indices, dispatch kind); batched
        # classes are class-stateless by protocol contract, so one
        # representative computes the whole group.
        self._groups: list[tuple[object, np.ndarray, str]] = []
        for cls, idxs in by_class.items():
            rows = np.asarray(idxs, dtype=np.int64)
            if self._kernels is not None and cls is PeerwiseProportionalAllocator:
                kind = "eq2"
            elif self._kernels is not None and cls is GlobalProportionalAllocator:
                kind = "eq3"
            else:
                kind = "proto"
            self._groups.append((self.peers[idxs[0]].config.allocator, rows, kind))
        # on_slot_end is a no-op unless overridden; pre-bind the hooks
        # that actually do something.
        self._slot_end_hooks = [
            p.config.allocator.on_slot_end
            for p in self.peers
            if type(p.config.allocator).on_slot_end is not Allocator.on_slot_end
        ]
        self._forgetting = np.array([p.config.forgetting for p in self.peers])
        self._any_forgetting = bool((self._forgetting < 1.0).any())
        overrides = [
            (i, float(p.config.declared_capacity))
            for i, p in enumerate(self.peers)
            if p.config.declared_capacity is not None
        ]
        self._declared_idx = np.array([i for i, _ in overrides], dtype=np.intp)
        self._declared_vals = np.array([v for _, v in overrides])
        self._block_demand = [
            i for i, p in enumerate(self.peers) if p.config.demand.blockable
        ]
        self._slot_demand = [
            i for i, p in enumerate(self.peers) if not p.config.demand.blockable
        ]
        self._block_capacity = [
            i for i, p in enumerate(self.peers) if p.config.capacity.blockable
        ]
        self._slot_capacity = [
            i for i, p in enumerate(self.peers) if not p.config.capacity.blockable
        ]
        self._block_start = -_TIME_BLOCK  # force a build on first step
        self._req_block = np.empty((_TIME_BLOCK, self.n), dtype=bool)
        self._cap_block = np.empty((_TIME_BLOCK, self.n))

    def _init_sparse(self, initial_credit: float) -> None:
        """Bind the sparse ledger store, peer partition and slot plans."""
        self._kernels = fastpath.load()
        self._sparse_native = self._kernels is not None and hasattr(
            self._kernels, "sparse_rows_eq2"
        )
        n = self.n
        self._forgetting = np.array([c.forgetting for c in self.configs])
        self._any_forgetting = bool((self._forgetting < 1.0).any())
        initial = initial_credit if initial_credit > 0 else DEFAULT_INITIAL_CREDIT
        store = SparseLedgers(
            n, initial, self._forgetting, evict_age=self._evict_age
        )
        self._ledgers = store
        # Fast rows: exactly the two closed-form rules the engine can
        # evaluate straight from the store.  Everything else — custom,
        # stateful, adversarial, and even other BatchedAllocator
        # implementers — stays on the per-peer reference path with a
        # real dense ledger row (a "dense island" inside the store).
        eq2: list[int] = []
        eq3: list[int] = []
        slow: list[int] = []
        for i, cfg in enumerate(self.configs):
            cls = type(cfg.allocator)
            if cls is PeerwiseProportionalAllocator:
                eq2.append(i)
            elif cls is GlobalProportionalAllocator:
                eq3.append(i)
            else:
                slow.append(i)
        self._eq2_rows = np.asarray(eq2, dtype=np.int64)
        self._eq3_rows = np.asarray(eq3, dtype=np.int64)
        self._slow_rows = slow
        slow_set = set(slow)
        peers: list[PeerState] = []
        for i, cfg in enumerate(self.configs):
            if i in slow_set:
                peers.append(
                    PeerState(
                        i, cfg, n, initial_credit, credit_buffer=store.dense_row(i)
                    )
                )
            else:
                peers.append(
                    PeerState(
                        i, cfg, n, initial_credit, ledger=SparseLedgerView(store, i)
                    )
                )
        self.peers = peers
        self._slot_end_hooks = [
            p.config.allocator.on_slot_end
            for p in self.peers
            if type(p.config.allocator).on_slot_end is not Allocator.on_slot_end
        ]
        overrides = [
            (i, float(cfg.declared_capacity))
            for i, cfg in enumerate(self.configs)
            if cfg.declared_capacity is not None
        ]
        self._declared_idx = np.array([i for i, _ in overrides], dtype=np.intp)
        self._declared_vals = np.array([v for _, v in overrides])
        self._needs_declared = bool(eq3 or slow)
        # Demand plan: deterministic blockable processes are grouped by
        # equivalence key (one sample_block serves the cohort, rng-free);
        # stochastic blockable ones keep their per-peer streams; the
        # rest sample slot by slot, exactly like the batched engine.
        det_groups: dict[tuple, list[int]] = {}
        rng_demand: list[int] = []
        slot_demand: list[int] = []
        for i, cfg in enumerate(self.configs):
            d = cfg.demand
            if not d.blockable:
                slot_demand.append(i)
            elif d.deterministic:
                det_groups.setdefault(_demand_group_key(d), []).append(i)
            else:
                rng_demand.append(i)
        self._det_demand_groups = [
            (self.configs[rows[0]].demand, np.asarray(rows, dtype=np.intp))
            for rows in det_groups.values()
        ]
        self._rng_demand = rng_demand
        self._slot_demand = slot_demand
        cap_groups: dict[tuple, list[int]] = {}
        slot_capacity: list[int] = []
        for i, cfg in enumerate(self.configs):
            if cfg.capacity.blockable:
                cap_groups.setdefault(_capacity_group_key(cfg.capacity), []).append(i)
            else:
                slot_capacity.append(i)
        self._cap_groups = [
            (self.configs[rows[0]].capacity, np.asarray(rows, dtype=np.intp))
            for rows in cap_groups.values()
        ]
        self._slot_capacity = slot_capacity
        # Prefetch block: one bool + two float64 rows per slot is 9n
        # bytes; shrink the window instead of letting buffers scale.
        per_slot = 9 * n
        if per_slot * _TIME_BLOCK <= _BLOCK_BYTES_BUDGET:
            self._block = _TIME_BLOCK
        else:
            self._block = max(4, _BLOCK_BYTES_BUDGET // per_slot)
        self._block_start = -self._block  # force a build on first step
        self._req_block = np.empty((self._block, n), dtype=bool)
        self._cap_block = np.empty((self._block, n))
        #: Deferred feedback (feedback_interval > 1): receiver index ->
        #: [sorted giver indices, accumulated credit values].
        self._sparse_pending: dict[int, list[np.ndarray]] = {}

    @property
    def backend(self) -> str:
        """Which slot loop runs: ``reference``, ``batched`` / ``sparse``
        (numpy) or ``batched+native`` / ``sparse+native`` (compiled,
        multi-threaded for sparse)."""
        if self._mode == "reference":
            return "reference"
        if self._mode == "sparse":
            return "sparse+native" if self._sparse_native else "sparse"
        return "batched+native" if self._kernels is not None else "batched"

    @property
    def t(self) -> int:
        """Next slot to be simulated (continues across ``run`` calls)."""
        return self._t

    def credit_matrix(self) -> np.ndarray:
        """Dense ``(n, n)`` credit snapshot, whichever engine runs.

        The dense engines return their live matrix; the sparse engine
        materialises one (O(n^2) — inspection and tests, not hot loops).
        """
        if self._mode == "sparse":
            return self._ledgers.materialize()
        return self._credit_matrix

    def memory_bytes(self) -> int:
        """Resident bytes of engine-owned slot-loop state.

        Sparse: ledger store + prefetch buffers (the bytes-per-peer
        benchmark metric).  Dense: credit matrix + pending feedback +
        prefetch buffers.
        """
        if self._mode == "sparse":
            return int(
                self._ledgers.nbytes
                + self._req_block.nbytes
                + self._cap_block.nbytes
            )
        total = self._credit_matrix.nbytes + self._pending_feedback.nbytes
        if self._mode == "batched":
            total += self._req_block.nbytes + self._cap_block.nbytes
        return int(total)

    def step(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance one slot; returns ``(allocation_matrix, requesting, capacities)``.

        ``allocation_matrix[i, j]`` is ``mu_ij(t)`` after feasibility
        enforcement.  Under the sparse engine the dense matrix is
        materialised from the compact active-set rows — use
        :meth:`run` with ``history="rates"`` / ``"none"`` to keep large
        populations allocation-free.
        """
        if _TRACER.enabled:
            # Per-slot causal span (children: this slot's trace events);
            # tracing-off stays the bare dispatch below.
            with _spans.span_scope("sim.step", t=self._t):
                return self._step_dense()
        return self._step_dense()

    def _step_dense(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._mode == "sparse":
            act, R, M, requesting, capacities = self._step_sparse()
            alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
            if act.size and R.size:
                alloc[np.ix_(act, R)] = M
            return alloc, requesting, capacities
        if self._mode == "batched":
            return self._step_batched()
        return self._step_reference()

    def _step_reference(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self._t
        requesting = np.fromiter(
            (
                peer.config.demand.sample(t, rng)
                for peer, rng in zip(self.peers, self._demand_rngs)
            ),
            dtype=bool,
            count=self.n,
        )
        capacities = np.fromiter(
            (peer.capacity_at(t) for peer in self.peers), dtype=float, count=self.n
        )
        declared = np.fromiter(
            (peer.declared_at(t) for peer in self.peers), dtype=float, count=self.n
        )
        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        for i, peer in enumerate(self.peers):
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            alloc[i] = enforce_feasibility(proposal, capacities[i], requesting)
        if alloc_start is not None:
            _SIM_ALLOC_NS.observe(time.perf_counter_ns() - alloc_start)
        # Credit every receiving peer's local ledger.  Credits accumulate
        # bandwidth x time, so coarser slots weigh proportionally more.
        # With delayed feedback, each user's measurements buffer locally
        # and reach its home peer as a batch every feedback_interval
        # slots (the paper's periodic informational update).
        weight = self.slot_seconds
        self._pending_feedback += alloc.T * weight  # row j = user j's view
        if (t + 1) % self.feedback_interval == 0:
            credited = float(self._pending_feedback.sum())
            for j, peer in enumerate(self.peers):
                peer.ledger.record_received(self._pending_feedback[j])
            self._pending_feedback[:] = 0.0
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
            _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
        for peer in self.peers:
            peer.config.allocator.on_slot_end(t)
        self._emit_slot(alloc, requesting)
        self._t += 1
        return alloc, requesting, capacities

    def _refresh_blocks(self, t: int) -> None:
        """Pre-sample the next time block for blockable demand/capacity."""
        self._block_start = t
        peers, rngs = self.peers, self._demand_rngs
        for i in self._block_demand:
            self._req_block[:, i] = peers[i].config.demand.sample_block(
                t, _TIME_BLOCK, rngs[i]
            )
        for i in self._block_capacity:
            self._cap_block[:, i] = peers[i].config.capacity.values(t, _TIME_BLOCK)

    def _step_batched(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = self._t
        n = self.n
        if not self._block_start <= t < self._block_start + _TIME_BLOCK:
            self._refresh_blocks(t)
        off = t - self._block_start
        req_row = self._req_block[off]
        cap_row = self._cap_block[off]
        for i in self._slot_demand:
            req_row[i] = self.peers[i].config.demand.sample(t, self._demand_rngs[i])
        for i in self._slot_capacity:
            cap_row[i] = self.peers[i].capacity_at(t)
        requesting = req_row.copy()
        capacities = cap_row.copy()
        declared = capacities.copy()
        if self._declared_idx.size:
            declared[self._declared_idx] = self._declared_vals
        req_u8 = requesting.view(np.uint8)

        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        alloc = np.empty((n, n))  # repro: allow[sim-dense-alloc]
        ledgers = self._credit_matrix
        for rep, rows, kind in self._groups:
            caps_group = capacities[rows]
            if kind == "eq2":
                self._kernels.alloc_rows_eq2(
                    ledgers, req_u8, caps_group, rows, alloc
                )
            elif kind == "eq3":
                weights = np.where(requesting, declared, 0.0)
                self._kernels.alloc_rows_shared(
                    weights, weights.sum(), req_u8, caps_group, rows, alloc
                )
            else:
                rows_ledger = ledgers if rows.size == n else ledgers[rows]
                proposals = rep.allocate_rows(
                    rows, caps_group, requesting, rows_ledger, declared, t
                )
                alloc[rows] = enforce_feasibility_rows(
                    proposals, caps_group, requesting
                )
        for i in self._slow_rows:
            peer = self.peers[i]
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            alloc[i] = enforce_feasibility(proposal, capacities[i], requesting)
        if alloc_start is not None:
            _SIM_ALLOC_NS.observe(time.perf_counter_ns() - alloc_start)

        weight = self.slot_seconds
        if self.feedback_interval == 1:
            # Instant feedback: skip materialising the pending buffer
            # and fold alloc.T * dt straight into the credit matrix
            # (same multiply-then-add rounding as the reference).
            if _TRACER.enabled:
                pending = alloc.T * weight
                credited = float(pending.sum())
                self._apply_forgetting()
                self._credit_matrix += pending
                _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
            else:
                self._apply_forgetting()
                self._tadd(self._credit_matrix, alloc, weight)
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
        else:
            self._tadd(self._pending_feedback, alloc, weight)
            if (t + 1) % self.feedback_interval == 0:
                if _TRACER.enabled:
                    _TRACER.emit(
                        SIM_FEEDBACK,
                        t=t,
                        credited=float(self._pending_feedback.sum()),
                    )
                self._apply_forgetting()
                self._credit_matrix += self._pending_feedback
                self._pending_feedback[:] = 0.0
                if _OBS.enabled:
                    _SIM_FEEDBACK_FLUSHES.inc()
        for hook in self._slot_end_hooks:
            hook(t)
        if _OBS.enabled:
            _SIM_BATCHED_SLOTS.inc()
            _SIM_FAST_PEERS.set(n - len(self._slow_rows))
        self._emit_slot(alloc, requesting)
        self._t += 1
        return alloc, requesting, capacities

    # -- sparse engine -------------------------------------------------

    def _refresh_blocks_sparse(self, t: int) -> None:
        """Pre-sample the next time block, one call per cohort."""
        self._block_start = t
        block = self._block
        req, cap = self._req_block, self._cap_block
        for d, rows in self._det_demand_groups:
            vals = np.asarray(d.sample_block(t, block, None), dtype=bool)
            if rows.size == 1:
                req[:, rows[0]] = vals
            else:
                req[:, rows] = vals[:, None]
        for i in self._rng_demand:
            req[:, i] = self.configs[i].demand.sample_block(
                t, block, self._demand_rngs[i]
            )
        for c, rows in self._cap_groups:
            vals = c.values(t, block)
            if rows.size == 1:
                cap[:, rows[0]] = vals
            else:
                cap[:, rows] = vals[:, None]

    def _step_sparse(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One slot over the active set.

        Returns ``(act, R, M, requesting, capacities)`` where ``act``
        (sorted) are the givers with nonzero rows this slot, ``R``
        (sorted) the requesters, and ``M[r, a]`` the allocation from
        ``act[r]`` to ``R[a]`` — the nonzero block of the dense
        allocation matrix.
        """
        t = self._t
        if not self._block_start <= t < self._block_start + self._block:
            self._refresh_blocks_sparse(t)
        off = t - self._block_start
        req_row = self._req_block[off]
        cap_row = self._cap_block[off]
        for i in self._slot_demand:
            req_row[i] = self.configs[i].demand.sample(t, self._demand_rngs[i])
        for i in self._slot_capacity:
            cap_row[i] = self.peers[i].capacity_at(t)
        requesting = req_row.copy()
        capacities = cap_row.copy()
        declared = None
        if self._needs_declared:
            declared = capacities.copy()
            if self._declared_idx.size:
                declared[self._declared_idx] = self._declared_vals
        R = np.flatnonzero(requesting).astype(np.int64)
        A = R.size

        alloc_start = time.perf_counter_ns() if _OBS.enabled else None
        if A and self._eq2_rows.size:
            act2 = self._eq2_rows[capacities[self._eq2_rows] > 0.0]
        else:
            act2 = np.empty(0, dtype=np.int64)
        if A and self._eq3_rows.size:
            act3 = self._eq3_rows[capacities[self._eq3_rows] > 0.0]
        else:
            act3 = np.empty(0, dtype=np.int64)
        # Slow rows run the untouched per-peer path every slot (their
        # allocators may be stateful), compacted onto the active set.
        slow_pairs: list[tuple[int, np.ndarray]] = []
        for i in self._slow_rows:
            peer = self.peers[i]
            proposal = peer.config.allocator.allocate(
                i, capacities[i], requesting, peer.ledger, declared, t
            )
            if A:
                row = enforce_feasibility(proposal, capacities[i], requesting)
                if row.any():
                    slow_pairs.append((i, row[R]))
        slow_act = np.asarray([i for i, _ in slow_pairs], dtype=np.int64)
        nact = act2.size + act3.size + slow_act.size
        if A and nact:
            cat = np.concatenate([act2, act3, slow_act])
            order = np.argsort(cat, kind="stable")
            act = np.ascontiguousarray(cat[order])
            # Output row position of each source row: rates sum columns
            # over rows in ascending global order, so M is kept sorted.
            rowpos = np.empty(nact, dtype=np.int64)
            rowpos[order] = np.arange(nact, dtype=np.int64)
            M = np.empty((nact, A))
            self._sparse_eq2_rows(act2, rowpos[: act2.size], R, capacities, M)
            if act3.size:
                self._sparse_eq3_rows(
                    act3,
                    rowpos[act2.size : act2.size + act3.size],
                    R,
                    declared,
                    capacities,
                    M,
                )
            for (_, row), p in zip(slow_pairs, rowpos[act2.size + act3.size :]):
                M[p] = row
        else:
            act = np.empty(0, dtype=np.int64)
            M = np.empty((0, A))
        if alloc_start is not None:
            _SIM_ALLOC_NS.observe(time.perf_counter_ns() - alloc_start)

        weight = self.slot_seconds
        store = self._ledgers
        if self.feedback_interval == 1:
            if _TRACER.enabled:
                credited = self._sparse_flat_total(R, act, M, weight, transpose=True)
                store.advance_epoch()
                self._sparse_scatter(act, R, M, weight)
                _TRACER.emit(SIM_FEEDBACK, t=t, credited=credited)
            else:
                store.advance_epoch()
                self._sparse_scatter(act, R, M, weight)
            if _OBS.enabled:
                _SIM_FEEDBACK_FLUSHES.inc()
        else:
            if act.size:
                self._sparse_accumulate_pending(act, R, M, weight)
            if (t + 1) % self.feedback_interval == 0:
                if _TRACER.enabled:
                    _TRACER.emit(
                        SIM_FEEDBACK, t=t, credited=self._sparse_pending_total()
                    )
                store.advance_epoch()
                for j in sorted(self._sparse_pending):
                    idx, val = self._sparse_pending[j]
                    store.add_compact(j, idx, val)
                self._sparse_pending.clear()
                if _OBS.enabled:
                    _SIM_FEEDBACK_FLUSHES.inc()
        for hook in self._slot_end_hooks:
            hook(t)
        if _OBS.enabled:
            _SIM_SPARSE_SLOTS.inc()
            _SIM_FAST_PEERS.set(self.n - len(self._slow_rows))
        self._emit_slot_sparse(act, R, M, A)
        self._t += 1
        return act, R, M, requesting, capacities

    def _sparse_eq2_rows(
        self,
        act: np.ndarray,
        rowpos: np.ndarray,
        R: np.ndarray,
        capacities: np.ndarray,
        M: np.ndarray,
    ) -> None:
        """Equation (2) + feasibility for the active eq2 givers.

        Writes ``M[rowpos[r]]`` for each ``act[r]``; bit-identical to
        ``enforce_feasibility(allocate(...))`` on the dense vectors
        (zeros off the request set are exact no-ops in every reduction,
        and :func:`sparse_pairwise` replays numpy's dense sum over the
        surviving positions).
        """
        if not act.size:
            return
        store = self._ledgers
        if self._sparse_native:
            self._kernels.sparse_rows_eq2(
                store, act, rowpos, R, np.ascontiguousarray(capacities[act]), M
            )
            return
        n = self.n
        for i, p in zip(act.tolist(), rowpos.tolist()):
            cap = float(capacities[i])
            w = store.row_at(i, R)
            total = sparse_pairwise(R, w, n)
            if total <= 0.0:
                M[p] = 0.0
                continue
            row = cap * w
            row /= total
            M[p] = self._sparse_feasibility(row, cap, R, n)

    def _sparse_eq3_rows(
        self,
        act: np.ndarray,
        rowpos: np.ndarray,
        R: np.ndarray,
        declared: np.ndarray,
        capacities: np.ndarray,
        M: np.ndarray,
    ) -> None:
        """Equation (3) + feasibility for the active eq3 givers (one
        shared weight vector and total for the whole group)."""
        if not act.size:
            return
        n = self.n
        wR = np.ascontiguousarray(declared[R], dtype=np.float64)
        total = sparse_pairwise(R, wR, n)
        if total <= 0.0:
            for p in rowpos.tolist():
                M[p] = 0.0
            return
        if self._sparse_native:
            self._kernels.sparse_rows_shared(
                act, rowpos, R, wR, total, np.ascontiguousarray(capacities[act]), M, n
            )
            return
        for i, p in zip(act.tolist(), rowpos.tolist()):
            cap = float(capacities[i])
            row = cap * wR
            row /= total
            # Declared capacities may be negative (lies go both ways);
            # enforce_feasibility clips before summing.
            row[row < 0] = 0.0
            M[p] = self._sparse_feasibility(row, cap, R, n)

    @staticmethod
    def _sparse_feasibility(
        row: np.ndarray, cap: float, R: np.ndarray, n: int
    ) -> np.ndarray:
        """:func:`enforce_feasibility` over the compact request set."""
        total = sparse_pairwise(R, row, n)
        if total > cap:  # cap > 0 guaranteed by the active-giver filter
            row *= cap / total
            if sparse_pairwise(R, row, n) > cap:
                # Rare rounding overshoot: clamp the running sum (the
                # dense cumsum never crosses cap at a zero cell, so the
                # compact clamp produces the identical entries).
                row = np.diff(np.minimum(np.cumsum(row), cap), prepend=0.0)
        return row

    def _sparse_scatter(
        self, act: np.ndarray, R: np.ndarray, M: np.ndarray, weight: float
    ) -> None:
        """Fused feedback credit: ledger row ``R[a]`` += ``M[:, a] * weight``.

        The native kernel handles receivers whose entry rows already
        contain every active giver (the steady state); cold receivers
        with *no* entries yet (fresh cohorts meeting the givers — the
        dominant case in rotating-cohort scale scenarios) go through the
        store's vectorised ``bulk_insert``; the remaining first-contact
        merges and dense-island rows fall back to the per-row python
        path.  Eviction-enabled stores skip the kernel entirely so every
        write refreshes the per-entry age stamps.
        """
        if not act.size or not R.size:
            return
        store = self._ledgers
        if self._sparse_native and store.evict_age is None:
            ok = np.zeros(R.size, dtype=np.uint8)
            self._kernels.sparse_scatter(store, act, R, M, weight, ok)
            miss = np.flatnonzero(ok == 0)
        else:
            miss = np.arange(R.size)
        if not miss.size:
            return
        P = M[:, miss].T * weight
        rows = R[miss]
        cold = store.nnz[rows] == 0
        if int(cold.sum()) > 1:
            store.bulk_insert(rows[cold], act, P[cold])
            warm = np.flatnonzero(~cold)
        else:
            warm = np.arange(miss.size)
        for m in warm.tolist():
            store.add_compact(int(rows[m]), act, P[m])

    def _sparse_accumulate_pending(
        self, act: np.ndarray, R: np.ndarray, M: np.ndarray, weight: float
    ) -> None:
        """Defer ``alloc.T * weight`` into per-receiver sparse rows."""
        P = M.T * weight
        pending = self._sparse_pending
        for a in range(R.size):
            j = int(R[a])
            ent = pending.get(j)
            if ent is None:
                pending[j] = [act.copy(), P[a].copy()]
                continue
            idx, val = ent
            pos = np.searchsorted(idx, act)
            inb = pos < idx.size
            hit = np.zeros(act.size, dtype=bool)
            hit[inb] = idx[pos[inb]] == act[inb]
            if hit.all():
                val[pos] += P[a]
                continue
            miss = ~hit
            val[pos[hit]] += P[a][hit]
            new_idx = np.concatenate([idx, act[miss]])
            new_val = np.concatenate([val, P[a][miss]])
            order = np.argsort(new_idx, kind="stable")
            ent[0] = np.ascontiguousarray(new_idx[order])
            ent[1] = np.ascontiguousarray(new_val[order])

    def _sparse_pending_total(self) -> float:
        """``float(pending.sum())`` of the equivalent dense buffer."""
        pending = self._sparse_pending
        if not pending:
            return 0.0
        n = self.n
        rows = sorted(pending)
        pos = np.concatenate([pending[j][0] + j * n for j in rows])
        val = np.concatenate([pending[j][1] for j in rows])
        return float(sparse_pairwise(pos, val, n * n))

    def _sparse_flat_total(
        self, R: np.ndarray, act: np.ndarray, M: np.ndarray, weight: float,
        transpose: bool,
    ) -> float:
        """Dense ``float(X.sum())`` where ``X`` is ``alloc`` (or
        ``alloc.T * weight``) — the flat n*n pairwise reduction replayed
        over the nonzero block only."""
        n = self.n
        if not act.size or not R.size:
            return 0.0
        if transpose:
            pos = (R[:, None] * n + act[None, :]).ravel()
            val = np.ascontiguousarray(M.T * weight).ravel()
        else:
            pos = (act[:, None] * n + R[None, :]).ravel()
            val = np.ascontiguousarray(M).ravel()
        return float(sparse_pairwise(pos, val, n * n))

    def _emit_slot_sparse(
        self, act: np.ndarray, R: np.ndarray, M: np.ndarray, n_requesting: int
    ) -> None:
        if _OBS.enabled or _TRACER.enabled:
            rates = M.sum(axis=0) if M.size else np.zeros(R.size)
            jain = jain_index(rates) if R.size else 1.0
            if _OBS.enabled:
                _SIM_SLOTS.inc()
                _SIM_JAIN.set(jain)
            if _TRACER.enabled:
                _TRACER.emit(
                    SIM_SLOT,
                    t=self._t,
                    requesting=int(n_requesting),
                    allocated_kbps=self._sparse_flat_total(
                        R, act, M, 1.0, transpose=False
                    ),
                    jain=jain,
                )

    def _apply_forgetting(self) -> None:
        if self._any_forgetting:
            # Rows with forgetting == 1.0 multiply by exactly 1.0 — a
            # bitwise no-op, matching the reference's skipped decay.
            self._credit_matrix *= self._forgetting[:, None]

    def _tadd(self, target: np.ndarray, alloc: np.ndarray, weight: float) -> None:
        """``target += alloc.T * weight`` (the ledger-credit transpose)."""
        if self._kernels is not None:
            self._kernels.ledger_tadd(target, alloc, weight)
        else:
            # Strip-tiled so the transposed read stays cache-resident;
            # element-wise it is the identical multiply-then-add.
            for s in range(0, self.n, 128):
                e = min(s + 128, self.n)
                target[:, s:e] += alloc[s:e].T * weight

    def _emit_slot(self, alloc: np.ndarray, requesting: np.ndarray) -> None:
        if _OBS.enabled or _TRACER.enabled:
            rates = alloc.sum(axis=0)
            jain = (
                jain_index(rates[requesting]) if bool(requesting.any()) else 1.0
            )
            if _OBS.enabled:
                _SIM_SLOTS.inc()
                _SIM_JAIN.set(jain)
            _TRACER.emit(
                SIM_SLOT,
                t=self._t,
                requesting=int(requesting.sum()),
                allocated_kbps=float(alloc.sum()),
                jain=jain,
            )

    def close(self) -> None:
        """Release engine resources.  Every engine runs in-process and
        holds nothing beyond ordinary garbage-collected state, so this
        is a no-op kept for callers that close simulations they are done
        with."""

    def _step_sparse_traced(self):
        if _TRACER.enabled:
            with _spans.span_scope("sim.step", t=self._t):
                return self._step_sparse()
        return self._step_sparse()

    def run(
        self,
        slots: int,
        record_allocations: bool = False,
        history_dtype=np.float64,
        history: str | None = "full",
    ) -> SimulationResult:
        """Simulate ``slots`` further slots and return the recorded result.

        ``history`` selects how much per-slot state is kept:

        * ``"full"`` (default) — per-slot rates, request indicators and
          capacities as ``(slots, n)`` arrays plus the ``(n, n)`` mean
          allocation matrix: the complete :class:`SimulationResult`.
        * ``"rates"`` — the ``(slots, n)`` arrays but no allocation
          matrices (``mean_alloc`` is ``None``); the sparse engine then
          never materialises a dense slot.
        * ``"none"`` (or ``None``) — O(n) running aggregates only
          (per-peer rate/capacity/isolation sums and request counts);
          the result's summary accessors (mean capacity, isolation
          baseline, mean rate while requesting) keep working, and
          everything needing the per-slot record raises ``ValueError``.

        With ``record_allocations`` (requires ``history="full"``) the
        full allocation history is preallocated up front as one
        ``(slots, n, n)`` array of ``history_dtype`` — by default
        float64, i.e. ``slots * n**2 * 8`` bytes (a 10 000-slot run of
        100 peers holds ~800 MB, and 1 000 peers would need ~80 GB).
        Pass ``history_dtype=np.float32`` to halve that when ulp-exact
        history is not required; rates, the running mean and the ledgers
        always stay float64.
        """
        if slots < 1:
            raise ValueError(f"slots must be positive, got {slots}")
        if history is None:
            history = "none"
        if history not in ("full", "rates", "none"):
            raise ValueError(
                f"history must be 'full', 'rates' or 'none', got {history!r}"
            )
        if record_allocations and history != "full":
            raise ValueError("record_allocations requires history='full'")
        if history == "full":
            return self._run_full(slots, record_allocations, history_dtype)
        compact = self._mode == "sparse"
        if history == "rates":
            rates = np.zeros((slots, self.n))
            requesting = np.zeros((slots, self.n), dtype=bool)
            capacities = np.zeros((slots, self.n))
            with _spans.span_scope("sim.run", slots=slots, n=self.n):
                for s in range(slots):
                    if compact:
                        _, R, M, req, caps = self._step_sparse_traced()
                        if R.size and M.size:
                            rates[s, R] = M.sum(axis=0)
                    else:
                        alloc, req, caps = self.step()
                        rates[s] = alloc.sum(axis=0)
                    requesting[s] = req
                    capacities[s] = caps
            return SimulationResult(
                rates=rates,
                requesting=requesting,
                capacities=capacities,
                mean_alloc=None,
                slot_seconds=self.slot_seconds,
                labels=tuple(p.label for p in self.peers),
            )
        # history == "none": O(n) streaming aggregates only.
        metrics = StreamingMetrics(self.n, slots)
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                if compact:
                    _, R, M, req, caps = self._step_sparse_traced()
                    metrics.update_compact(s, R, M.sum(axis=0), req, caps)
                else:
                    alloc, req, caps = self.step()
                    metrics.update_dense(s, alloc.sum(axis=0), req, caps)
        return SimulationResult(
            rates=None,
            requesting=None,
            capacities=None,
            mean_alloc=None,
            slot_seconds=self.slot_seconds,
            labels=tuple(p.label for p in self.peers),
            summary=metrics.summary(),
        )

    def _run_full(
        self, slots: int, record_allocations: bool, history_dtype
    ) -> SimulationResult:
        rates = np.zeros((slots, self.n))
        requesting = np.zeros((slots, self.n), dtype=bool)
        capacities = np.zeros((slots, self.n))
        mean_alloc = np.zeros((self.n, self.n))  # repro: allow[sim-dense-alloc]
        history = (
            np.zeros((slots, self.n, self.n), dtype=history_dtype)  # repro: allow[sim-dense-alloc]
            if record_allocations
            else None
        )
        with _spans.span_scope("sim.run", slots=slots, n=self.n):
            for s in range(slots):
                alloc, req, caps = self.step()
                rates[s] = alloc.sum(axis=0)
                requesting[s] = req
                capacities[s] = caps
                mean_alloc += alloc
                if history is not None:
                    history[s] = alloc
        mean_alloc /= slots
        return SimulationResult(
            rates=rates,
            requesting=requesting,
            capacities=capacities,
            mean_alloc=mean_alloc,
            slot_seconds=self.slot_seconds,
            alloc_history=history,
            labels=tuple(p.label for p in self.peers),
        )
