"""Shared per-node estimator state and node rules for the detectors.

Every node that approximates a distribution -- D3 leaves and parents,
MGDD leaves (their local sample) and leaders -- carries the same trio of
Section 5 components: a chain sample of its arrival stream, per-dimension
variance sketches, and a cached kernel model rebuilt at a bounded rate.
This module factors that trio out of the algorithm classes, together
with the rules of Figure 4's node loop that more than one node kind
applies: the batched model-check schedule (:func:`model_check_chunks`),
a leaf's sample-forwarding gate (:class:`ForwardGate`) and a leader's
count window (:class:`LeaderWindow`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro import obs
from repro._exceptions import ParameterError
from repro.core.bandwidth import MIN_BANDWIDTH, scott_factor
from repro.core.estimator import KernelDensityEstimator
from repro.core.kernels import EPANECHNIKOV, Kernel, kernel_by_name
from repro.network.messages import ValueForward
from repro.network.node import Outgoing
from repro.streams.sampling import ChainSample
from repro.streams.variance import MultiDimVarianceSketch

__all__ = [
    "StreamModelState",
    "StreamModelLayout",
    "ChildStalenessTracker",
    "ForwardGate",
    "LeaderWindow",
    "check_model_args",
    "default_min_arrivals",
    "model_bandwidths",
    "model_check_chunks",
    "needs_rebuild",
    "next_check_in",
]

#: Check whether the cached kernel model is stale at most once per this
#: many arrivals (callers may override).  A due check rebuilds only when
#: the chain sample's active elements actually changed, the sketched
#: deviation drifted beyond ``bandwidth_tol``, or the count window was
#: resized; otherwise the previous estimator is reused as-is.
DEFAULT_MODEL_REFRESH = 16

#: Relative deviation drift that forces a rebuild at a due check even
#: when no sample slot changed (Scott bandwidths scale linearly with the
#: deviation, so this bounds the bandwidth staleness of a reused model).
DEFAULT_BANDWIDTH_TOL = 0.05


# The model policy below is shared by StreamModelState and the lockstep
# DetectorEngine, which applies it to all of its lanes at once.

def check_model_args(model_refresh: int, bandwidth_tol: float,
                     bandwidth_cap: "float | None",
                     bandwidth_basis: str) -> None:
    """Validate the model-refresh and bandwidth settings of a stream."""
    if model_refresh < 1:
        raise ParameterError(f"model_refresh must be >= 1, got {model_refresh}")
    if bandwidth_tol < 0:
        raise ParameterError(
            f"bandwidth_tol must be >= 0, got {bandwidth_tol!r}")
    if bandwidth_cap is not None and bandwidth_cap <= 0:
        raise ParameterError(
            f"bandwidth_cap must be positive, got {bandwidth_cap!r}")
    if bandwidth_basis not in ("window", "sample"):
        raise ParameterError(
            f"bandwidth_basis must be 'window' or 'sample', "
            f"got {bandwidth_basis!r}")


def default_min_arrivals(sample_size: int) -> int:
    """Arrivals before a stream's first model when the caller sets none."""
    return max(2, sample_size // 8)


def next_check_in(has_model: bool, arrivals: int, last_check: int,
                  min_arrivals: int, model_refresh: int) -> int:
    """Arrivals until a model check may rebuild (>= 1).

    See :meth:`StreamModelState.arrivals_until_check`.
    """
    if not has_model:
        return max(1, min_arrivals - arrivals)
    return max(1, model_refresh - (arrivals - last_check))


def model_check_chunks(m: int, warmup_left: int,
                       check_args: "Callable[[], tuple[bool, int, int, int, int]]"
                       ) -> "Iterator[tuple[int, int, bool | None]]":
    """Split ``m`` arrivals into the chunks of the model-check schedule.

    Yields ``(start, stop, due)`` for consecutive row ranges.  The first
    ``warmup_left`` rows come as one chunk with ``due`` None: they are
    observed but not scored.  Every later chunk ends at the next
    arrival on which a model check may rebuild (``due`` True) or at the
    end of the block (``due`` False), so every row before a chunk's last
    sees the model cached at the chunk's start -- reproducing the
    one-at-a-time schedule exactly.  ``check_args()`` returns the
    arguments of :func:`next_check_in`; it is read after the caller has
    handled the previous chunk.
    """
    i = min(max(0, warmup_left), m)
    if i:
        yield 0, i, None
    while i < m:
        until = next_check_in(*check_args())
        k = min(m - i, until)
        yield i, i + k, k == until
        i += k


def needs_rebuild(std: np.ndarray, built_std: np.ndarray,
                  mutations: "int | np.ndarray",
                  built_mutations: "int | np.ndarray",
                  window_size: "int | np.ndarray",
                  built_window_size: "int | np.ndarray",
                  bandwidth_tol: float) -> "bool | np.ndarray":
    """The due-check staleness test of a cached model.

    Used by :meth:`StreamModelState.model` and the lockstep engine.
    Stale when the chain sample mutated, the count window changed, or
    the sketched deviation left ``np.allclose(std, built_std,
    rtol=bandwidth_tol, atol=1e-12)``.  Takes one model's ``(d,)``
    deviations and scalar fingerprints, or ``(L, d)`` and ``(L,)``
    arrays for ``L`` lanes.
    """
    drifted = ~(np.abs(std - built_std)
                <= 1e-12 + bandwidth_tol * np.abs(built_std)).all(axis=-1)
    return ((mutations != built_mutations)
            | (window_size != built_window_size) | drifted)


def model_bandwidths(std: np.ndarray, n_centres: int, window_size: int,
                     bandwidth_basis: str,
                     bandwidth_cap: "float | None") -> np.ndarray:
    """Scott bandwidths of a model over ``n_centres`` kernel centres.

    ``bandwidth_basis`` picks the ``n`` in Scott's rule (``"window"``:
    the larger of ``n_centres`` and the count window; ``"sample"``:
    ``n_centres``); ``bandwidth_cap`` bounds the result.  ``std`` is one
    deviation vector ``(d,)`` or one per lane ``(L, d)``; either way the
    values equal :func:`~repro.core.bandwidth.scott_bandwidths` of each.
    """
    if not np.isfinite(std).all() or (std < 0).any():
        raise ParameterError("stddev entries must be finite and non-negative")
    n_basis = max(n_centres, window_size) if bandwidth_basis == "window" \
        else n_centres
    bandwidths = np.maximum(std * scott_factor(n_basis, std.shape[-1]),
                            MIN_BANDWIDTH)
    if bandwidth_cap is not None:
        bandwidths = np.minimum(bandwidths, bandwidth_cap)
    return bandwidths


@dataclass(frozen=True)
class StreamModelLayout:
    """The checkpoint layout of one :class:`StreamModelState`, as plain fields.

    Both :meth:`StreamModelState.snapshot_state` and the lockstep
    engine's per-lane snapshot write it; both restores read it, so the
    two share one format (``sample``, ``sketch`` and ``cached`` stay the
    nested snapshot dicts of their components).
    """

    bandwidth_basis: str
    sample: "dict[str, Any]"
    sketch: "dict[str, Any]"
    kernel: str
    bandwidth_cap: "float | None"
    model_refresh: int
    bandwidth_tol: float
    min_arrivals: int
    arrivals: int
    last_check: int
    cached: "dict[str, Any] | None"
    built_std: "np.ndarray | None"
    built_window_size: int
    built_mutations: int
    model_seq: int
    count_window_size: int

    def to_state(self) -> "dict[str, Any]":
        """The snapshot dict: one key per field, in field order."""
        return dict(vars(self))

    @classmethod
    def from_state(cls, state: "dict[str, Any]") -> "StreamModelLayout":
        """Read (and type) the fields of a snapshot dict."""
        cap = state["bandwidth_cap"]
        built_std = state["built_std"]
        return cls(
            bandwidth_basis=str(state["bandwidth_basis"]),
            sample=state["sample"],
            sketch=state["sketch"],
            kernel=str(state["kernel"]),
            bandwidth_cap=None if cap is None else float(cap),
            model_refresh=int(state["model_refresh"]),
            bandwidth_tol=float(state["bandwidth_tol"]),
            min_arrivals=int(state["min_arrivals"]),
            arrivals=int(state["arrivals"]),
            last_check=int(state["last_check"]),
            cached=state["cached"],
            built_std=None if built_std is None
            else np.asarray(built_std, dtype=float).copy(),
            built_window_size=int(state["built_window_size"]),
            built_mutations=int(state["built_mutations"]),
            # Pre-lineage snapshots lack the rebuild counter; restart at 0.
            model_seq=int(state.get("model_seq", 0)),
            count_window_size=int(state["count_window_size"]))


# repro-lint: shard-state
class StreamModelState:
    """Chain sample + variance sketches + cached kernel model for one node.

    Parameters
    ----------
    arrival_window:
        The node's window length measured in *its own arrivals* -- the
        stream length over which the chain sample stays uniform.  For a
        leaf this is ``|W|``; for a parent it is the expected number of
        forwarded values per window period (see the D3/MGDD builders).
    sample_size:
        Kernel sample slots ``|R|``.
    n_dims:
        Reading dimensionality.
    epsilon:
        Variance-sketch accuracy.
    min_arrivals:
        Arrivals required before :meth:`model` returns anything; guards
        against degenerate single-value models.
    model_refresh:
        Run the staleness check at most once per this many arrivals; the
        cached model is rebuilt only when the check finds an actual
        change (see :meth:`model`).
    bandwidth_tol:
        Relative drift of the sketched deviation that forces a rebuild
        at a due check even when no sample slot changed.
    bandwidth_cap:
        Optional upper bound on the kernel bandwidths (the MDEF test
        needs resolution at its counting-radius scale; see
        :class:`~repro.detectors.mgdd.MGDDConfig.bandwidth_cap`).
    bandwidth_basis:
        The ``n`` in Scott's rule: ``"window"`` (default -- the
        observation count the estimate represents, which reproduces the
        paper's reported accuracy) or ``"sample"`` (the formula as
        printed, ``|R|``).  See EXPERIMENTS.md.
    """

    def __init__(self, arrival_window: int, sample_size: int, n_dims: int, *,
                 epsilon: float = 0.2,
                 min_arrivals: int | None = None,
                 model_refresh: int = DEFAULT_MODEL_REFRESH,
                 bandwidth_tol: float = DEFAULT_BANDWIDTH_TOL,
                 kernel: Kernel = EPANECHNIKOV,
                 bandwidth_cap: "float | None" = None,
                 bandwidth_basis: str = "window",
                 rng: np.random.Generator | None = None) -> None:
        check_model_args(model_refresh, bandwidth_tol, bandwidth_cap,
                         bandwidth_basis)
        self._bandwidth_basis = bandwidth_basis
        self._sample = ChainSample(arrival_window, sample_size, n_dims, rng=rng)
        self._sketch = MultiDimVarianceSketch(arrival_window, n_dims, epsilon)
        self._kernel = kernel
        self._bandwidth_cap = bandwidth_cap
        self._model_refresh = model_refresh
        self._bandwidth_tol = bandwidth_tol
        if min_arrivals is None:
            min_arrivals = default_min_arrivals(sample_size)
        self._min_arrivals = min_arrivals
        self._arrivals = 0
        self._last_check = -1
        self._cached: KernelDensityEstimator | None = None
        self._built_std: "np.ndarray | None" = None
        self._built_window_size = -1
        self._built_mutations = -1
        self._model_seq = 0
        #: |W| used to scale neighbourhood counts; set by the owner
        #: (leaf window, or the union-window size for leaders).
        self.count_window_size = arrival_window

    # ------------------------------------------------------------------

    @property
    def arrivals(self) -> int:
        """Number of values observed so far."""
        return self._arrivals

    @property
    def sample(self) -> ChainSample:
        """The chain sample (exposed for memory accounting)."""
        return self._sample

    @property
    def sketch(self) -> MultiDimVarianceSketch:
        """The variance sketches (exposed for memory accounting)."""
        return self._sketch

    def observe(self, value: np.ndarray) -> "tuple[int, ...]":
        """Feed one arrival; return the sample slots it replaced."""
        changed = self._sample.offer_detailed(value)
        self._sketch.insert(value)
        self._arrivals += 1
        return changed

    def observe_many(self, values: np.ndarray) -> "list[tuple[int, ...]]":
        """Feed a block of arrivals; return the replaced slots per arrival.

        Bit-identical to the equivalent sequence of :meth:`observe` calls
        (see :meth:`repro.streams.sampling.ChainSample.offer_many`), at a
        fraction of the per-arrival cost.
        """
        changed = self._sample.offer_many(values)
        self._sketch.insert_many(values)
        self._arrivals += len(changed)
        return changed

    @property
    def model_seq(self) -> int:
        """Monotone rebuild counter: the version of :attr:`cached_model`.

        Bumps exactly when a :meth:`model` call constructs a new
        estimator, so a detection can cite the model version it
        consulted.  Never read by the decision path -- lineage is
        observational, so traced and untraced runs stay bit-identical.
        """
        return self._model_seq

    @property
    def cached_model(self) -> "KernelDensityEstimator | None":
        """The cached estimator as-is -- no staleness check, no rebuild.

        Batched callers evaluate whole chunks of readings against this
        between due checks (see :meth:`chunk_models`).
        """
        return self._cached

    def arrivals_until_check(self) -> int:
        """Arrivals after which a :meth:`model` call may rebuild (>= 1).

        Until that many further arrivals have been observed, every
        :meth:`model` call is a pure read of :attr:`cached_model` (or of
        ``None`` before ``min_arrivals``), so a batched caller can
        observe a chunk of that size and score all but its last reading
        against the current cache -- reproducing the one-at-a-time
        schedule exactly.
        """
        return next_check_in(*self._check_args())

    def _check_args(self) -> "tuple[bool, int, int, int, int]":
        return (self._cached is not None, self._arrivals, self._last_check,
                self._min_arrivals, self._model_refresh)

    def check_chunks(self, m: int, warmup_left: int
                     ) -> "Iterator[tuple[int, int, bool | None]]":
        """:func:`model_check_chunks` over this state's own schedule.

        The caller observes each chunk before asking for the next.
        """
        return model_check_chunks(m, warmup_left, self._check_args)

    def chunk_models(self, start: int, stop: int, due: bool,
                     check: "Callable[[], KernelDensityEstimator | None]"
                     ) -> "list[tuple[KernelDensityEstimator, int, int, int]]":
        """The models that score rows ``start:stop`` of an observed chunk.

        Returns ``(model, model_seq, start, stop)`` segments.  Rows before
        a due arrival use the cached model; the due arrival uses
        ``check()`` (the owner's :meth:`model` call); on a clean check,
        which keeps the cached model, the whole chunk uses it.  Rows
        without a model are left out.
        """
        cached, seq = self._cached, self._model_seq
        if not due:
            return [] if cached is None else [(cached, seq, start, stop)]
        model = check()
        if model is cached:
            return [] if model is None else [(model, seq, start, stop)]
        segments = []
        if stop - start > 1 and cached is not None:
            segments.append((cached, seq, start, stop - 1))
        if model is not None:
            segments.append((model, self._model_seq, stop - 1, stop))
        return segments

    def model(self) -> "KernelDensityEstimator | None":
        """The current kernel model, or None before ``min_arrivals``.

        Change-driven refresh: at most once per ``model_refresh``
        arrivals the cache is *checked*, and rebuilt only when the chain
        sample actually changed since the last build (any active element
        replaced, promoted or expired -- see
        :attr:`~repro.streams.sampling.ChainSample.mutation_count`), the
        sketched deviation drifted beyond ``bandwidth_tol``, or the owner
        resized ``count_window_size``.  A clean check reuses the previous
        estimator object and defers the next check by a full interval.
        """
        if self._arrivals < self._min_arrivals:
            return None
        if (self._cached is not None
                and self._arrivals - self._last_check < self._model_refresh):
            return self._cached
        if not self._sample.has_active():
            return None
        self._last_check = self._arrivals
        std = self._sketch.std()
        window_size = max(1, int(self.count_window_size))
        if (self._cached is not None
                and not needs_rebuild(std, self._built_std,
                                      self._sample.mutation_count,
                                      self._built_mutations, window_size,
                                      self._built_window_size,
                                      self._bandwidth_tol)):
            return self._cached
        sample = self._sample.values()
        bandwidths = model_bandwidths(std, sample.shape[0], window_size,
                                      self._bandwidth_basis,
                                      self._bandwidth_cap)
        if obs.ACTIVE:
            # finally: a constructor that raises must still charge the
            # rebuild phase, or the profile shows 0 ns for failed builds.
            t0 = time.perf_counter()
            try:
                self._cached = KernelDensityEstimator(
                    sample, stddev=std, bandwidths=bandwidths,
                    kernel=self._kernel, window_size=window_size)
            finally:
                elapsed = time.perf_counter() - t0
                obs.profiler().record("estimator.rebuild", elapsed)
                obs.emit("estimator.rebuild",
                         sample_size=int(sample.shape[0]), dur_s=elapsed)
        else:
            self._cached = KernelDensityEstimator(
                sample, stddev=std, bandwidths=bandwidths,
                kernel=self._kernel, window_size=window_size)
        self._built_std = std
        self._built_window_size = window_size
        self._built_mutations = self._sample.mutation_count
        self._model_seq += 1
        return self._cached

    def memory_words(self) -> int:
        """Logical footprint of the sample and sketches, in words."""
        return self._sample.memory_words() + self._sketch.memory_words()

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.engine.snapshot)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec.

        The cached estimator and the ``_built_*`` staleness fingerprints
        travel too: a restore must neither force a rebuild the original
        would not have run nor skip one it would, or the estimator cache
        schedule (and hence the detections) could diverge.
        """
        return StreamModelLayout(
            bandwidth_basis=self._bandwidth_basis,
            sample=self._sample.snapshot_state(),
            sketch=self._sketch.snapshot_state(),
            kernel=self._kernel.name,
            bandwidth_cap=self._bandwidth_cap,
            model_refresh=self._model_refresh,
            bandwidth_tol=self._bandwidth_tol,
            min_arrivals=self._min_arrivals,
            arrivals=self._arrivals,
            last_check=self._last_check,
            cached=None if self._cached is None
            else self._cached.snapshot_state(),
            built_std=None if self._built_std is None
            else self._built_std.copy(),
            built_window_size=self._built_window_size,
            built_mutations=self._built_mutations,
            model_seq=self._model_seq,
            count_window_size=self.count_window_size).to_state()

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "StreamModelState":
        """Rebuild the state trio from a :meth:`snapshot_state` dict."""
        layout = StreamModelLayout.from_state(state)
        model_state = cls.__new__(cls)
        model_state._bandwidth_basis = layout.bandwidth_basis
        model_state._sample = ChainSample.restore_state(layout.sample)
        model_state._sketch = \
            MultiDimVarianceSketch.restore_state(layout.sketch)
        model_state._kernel = kernel_by_name(layout.kernel)
        model_state._bandwidth_cap = layout.bandwidth_cap
        model_state._model_refresh = layout.model_refresh
        model_state._bandwidth_tol = layout.bandwidth_tol
        model_state._min_arrivals = layout.min_arrivals
        model_state._arrivals = layout.arrivals
        model_state._last_check = layout.last_check
        model_state._cached = None if layout.cached is None \
            else KernelDensityEstimator.restore_state(layout.cached)
        model_state._built_std = layout.built_std
        model_state._built_window_size = layout.built_window_size
        model_state._built_mutations = layout.built_mutations
        model_state._model_seq = layout.model_seq
        model_state.count_window_size = layout.count_window_size
        return model_state


# repro-lint: shard-state
class ChildStalenessTracker:
    """Last-heard bookkeeping for a parent's direct children.

    Under faults (docs/FAULT_MODEL.md) a parent keeps its last-known
    estimator state built from child contributions, but must know how
    *stale* each child's contribution is: a child silent beyond the
    configured horizon is excluded from window-size scaling so the
    survivors' density estimate is normalised over the leaves actually
    reporting, instead of diluting counts by dead subtrees.

    Staleness of a child at ``tick`` is ``tick - last_heard``; a child
    never heard from counts as ``tick + 1`` (stale since before the
    run), so fresh deployments exclude a silent child once the horizon
    passes, exactly like a mid-run crash.
    """

    def __init__(self,
                 leaf_counts: "Mapping[int, int] | None" = None) -> None:
        #: child id -> number of leaf sensors in its subtree (1 for a
        #: leaf child); drives :meth:`active_leaf_count`.
        self._leaf_counts: "dict[int, int]" = \
            dict(leaf_counts) if leaf_counts else {}
        self._last_heard: "dict[int, int]" = {}

    def mark(self, child: int, tick: int) -> None:
        """Record that ``child`` was heard from at ``tick``."""
        self._last_heard[child] = tick

    def staleness(self, tick: int) -> "dict[int, int]":
        """Ticks since each child was last heard (never = ``tick + 1``)."""
        children = sorted(set(self._leaf_counts) | set(self._last_heard))
        return {child: tick - self._last_heard[child]
                if child in self._last_heard else tick + 1
                for child in children}

    def active_leaf_count(self, tick: int, horizon: int) -> int:
        """Leaf sensors under children whose staleness is <= ``horizon``."""
        total = 0
        for child, leaves in self._leaf_counts.items():
            last = self._last_heard.get(child)
            stale = tick - last if last is not None else tick + 1
            if stale <= horizon:
                total += leaves
        return total

    def snapshot_state(self) -> "dict[str, Any]":
        """Plain-data snapshot for the :mod:`repro.engine.snapshot` codec."""
        return {
            "leaf_counts": dict(self._leaf_counts),
            "last_heard": dict(self._last_heard),
        }

    @classmethod
    def restore_state(cls, state: "dict[str, Any]") -> "ChildStalenessTracker":
        """Rebuild a tracker from a :meth:`snapshot_state` dict."""
        tracker = cls(leaf_counts=state["leaf_counts"])
        tracker._last_heard = {int(child): int(tick)
                               for child, tick in state["last_heard"].items()}
        return tracker


class ForwardGate:
    """A leaf's sample-forwarding gate (Figure 4, D3 line 14 / MGDD line 12).

    An arrival that replaced a slot of the leaf's sample travels to the
    parent with probability ``f``.  The draws come from a dedicated
    substream so the batched and per-tick ingestion paths consume it in
    the same order; it is spawned, so the leaf's own generator is not
    advanced.  Build the gate before the leaf's :class:`StreamModelState`:
    both spawn from the same generator, and the order fixes which
    substream each gets.
    """

    def __init__(self, parent: "int | None", fraction: float,
                 rng: np.random.Generator) -> None:
        self._parent = parent
        self._fraction = fraction
        try:
            self._rng = rng.spawn(1)[0]
        except (AttributeError, TypeError):
            self._rng = np.random.default_rng(int(rng.integers(2**63)))

    def forward(self, slots: "tuple[int, ...]",
                value: np.ndarray) -> "list[Outgoing]":
        """The forward of one arrival that replaced ``slots``, if drawn."""
        if slots and self._parent is not None \
                and self._rng.random() < self._fraction:
            return [(self._parent,
                     ValueForward(value=np.array(value, dtype=float)))]
        return []

    def forward_many(self, changed: "list[tuple[int, ...]]",
                     values: np.ndarray) -> "list[list[Outgoing]]":
        """:meth:`forward` for each arrival of a block, in order.

        One draw per slot-replacing arrival, taken as one block: the
        same doubles, in the same order, as the per-arrival draws.
        """
        per_tick: "list[list[Outgoing]]" = [[] for _ in changed]
        if self._parent is None:
            return per_tick
        rows = [row for row, slots in enumerate(changed) if slots]
        for row, draw in zip(rows, self._rng.random(len(rows)).tolist()):
            if draw < self._fraction:
                per_tick[row].append((self._parent, ValueForward(
                    value=np.array(values[row], dtype=float))))
        return per_tick


class LeaderWindow:
    """The count window of a leader (D3 parent, MGDD leader).

    A leader scales neighbourhood counts by the values its conceptual
    window holds: under ``"fixed"`` windows the most recent ``|W|``
    values of the combined children stream, under ``"union"`` the union
    of the full leaf windows below (Theorem 3's ``W_p``).  With a
    staleness horizon, leaves under children silent beyond it drop out
    of that count (docs/FAULT_MODEL.md).  ``config`` is the deployment's
    ``D3Config`` or ``MGDDConfig``.
    """

    def __init__(self, config: Any, n_leaves: int,
                 children_leaf_counts: "Mapping[int, int] | None") -> None:
        self._config = config
        self._n_leaves = n_leaves
        self._staleness = ChildStalenessTracker(children_leaf_counts)

    def child_staleness(self, tick: int) -> "dict[int, int]":
        """Ticks since each direct child was last heard from."""
        return self._staleness.staleness(tick)

    def _active_leaves(self, tick: int) -> int:
        """Leaves feeding this node's window, per the staleness horizon."""
        horizon = self._config.staleness_horizon
        if horizon is None:
            return self._n_leaves
        return max(1, self._staleness.active_leaf_count(tick, horizon))

    def _count_window(self, tick: int) -> int:
        """The count window size ``|W|`` scales by at ``tick``."""
        leaves = self._active_leaves(tick)
        window = self._config.window_size
        if self._config.parent_window == "fixed":
            return min((tick + 1) * leaves, window)
        return min(tick + 1, window) * leaves
