"""Partial-score convolutional SVM scoring (paper Section 4.3 in software).

The dense sliding-window classifier is redundant when expressed as one
window-by-window GEMM: adjacent stride-1 windows share all but one
column of their 105 blocks, so materializing a
``(n_windows, 3780)`` descriptor matrix copies every block of the grid
up to 105 times (~0.5 GB per 480x640 scale) before multiplying each
copy against the weight vector again.  The paper's MACBAR array avoids
exactly this: each N-HOGMem block column streams past the classifiers
*once*, and every window accumulates the partial products that fall
inside it.

This module is that dataflow, vectorized:

1. **Plan** (:class:`ScorerPlan`, built once per ``(model, by, bx)``
   and cached on the model): reshape the trained weight vector into a
   ``(by*bx, block_dim)`` tensor — one 36-dim weight row per block
   position inside the window — plus the per-position weight norms the
   cascade's rejection bound is built from.
2. **Partial scores**: one compact
   ``(by*bx, block_dim) @ (block_dim, block_rows*block_cols)`` matmul
   gives, for every block of the grid, its dot product against *every*
   window position it could occupy — a position-major
   ``(by*bx, rows, cols)`` tensor of contiguous per-position planes.
   No descriptor is ever materialized.
3. **Aggregation**: the window score at anchor ``(r, c)`` is the sum of
   the 105 shifted partial maps,
   ``sum_{i,j} partial[r+i, c+j, i*bx+j] + bias`` — ``by*bx``
   vectorized slice additions over the whole anchor grid at once.

One scorer, two aggregations over the same partial maps; which one runs
depends only on whether the caller has a detection threshold:

* :func:`score_blocks_conv` — the dense aggregation above, every score
  exact.  For callers that need the whole score grid.
* :func:`score_blocks_cascade` — the staged early-reject cascade, for
  callers that threshold the grid (every detector): bound every
  anchor's best possible score from the trained per-position weight
  norms and the L2-hys block norms its window actually covers,
  rejecting anchors — before the partial matmul even runs, when the
  whole grid is rejectable — whose upper bound already falls below the
  detection threshold; survivors accumulate the most discriminative
  positions first with further staged checks, restricted to the
  bounding box of anchors still alive.  **Exact, not approximate**:
  surviving anchors run the identical partial matmul and the same fixed
  discriminativity-order accumulation as the dense path, so their
  scores are bitwise identical; rejected anchors report an upper bound
  that is itself at or below the threshold, so the detection set is
  identical too.  The software transcription of the partial-score
  classification pruning that gives the paper's class of detectors
  (Suleiman et al., PAPERS.md) its energy budget.

The dense scores equal scoring the ``(n_windows, D)`` descriptor matrix
of :func:`repro.hog.extractor.window_descriptor_matrix` with one GEMM to
float round-off (regrouped additions), with none of the descriptor-copy
traffic; ``tests/test_detect_scoring.py`` asserts the equivalence.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.arena import scratch
from repro.errors import ParameterError, ShapeError
from repro.svm.model import LinearSvmModel
from repro.telemetry import MetricsRegistry, NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arena import BufferArena

#: Number of most-discriminative block positions the cascade
#: accumulates before its first rejection check.
DEFAULT_CASCADE_K = 16

#: A cascade run that rejected less than this fraction of its anchors
#: by the end did pure dense-order work plus bookkeeping; such runs are
#: reported as bailouts (``detect.cascade.bailouts``) so profiles show
#: when the operating threshold gives the cascade nothing to prune.
_CASCADE_BAILOUT_MIN_REJECTED = 0.5

#: How many positions the cascade accumulates between rejection checks
#: (the first check happens after ``cascade_k`` positions; stage 0 runs
#: before any accumulation at all).
_CASCADE_CHECK_EVERY = 16

#: Attribute under which per-model plans are cached (living on the
#: model instance ties the cache lifetime to the weights it derives
#: from — no global registry to leak or invalidate).
_PLAN_CACHE_ATTR = "_scorer_plan_cache"

#: Serializes :func:`plan_for`'s check-then-set on the per-model cache:
#: without it two thread-backend workers racing on a cold model would
#: both build the plan and double-count the hit/miss telemetry.
_PLAN_CACHE_LOCK = threading.Lock()


@dataclasses.dataclass(frozen=True)
class ScorerPlan:
    """Precomputed weight layout for one (model, window geometry) pair.

    Attributes
    ----------
    weights_rows:
        ``(blocks_y * blocks_x, block_dim)`` C-contiguous block-major
        weight tensor: row ``i*blocks_x + j`` is the 36-dim weight
        sub-vector a block contributes when it sits at window-relative
        position ``(i, j)``.  Row layout so the partial matmul produces
        the position-major ``(n_positions, rows, cols)`` tensor whose
        per-position planes are contiguous — the layout both the slice
        aggregation and the cascade's per-position maxima want.
    bias:
        The model bias, added once per window during aggregation.
    blocks_y, blocks_x:
        Window extent in blocks (paper layout: 15 x 7).
    block_dim:
        Features per block (paper: 36).
    col_norms:
        Per-position L2 norms of the weight rows.  By Cauchy-Schwarz a
        block feature vector ``x`` with ``||x||_2 <= B`` can contribute
        at most ``B * col_norms[p]`` at position ``p`` — the cascade's
        rejection bound, with ``B`` taken from the L2-hys block norms
        each anchor's window actually covers.
    position_order:
        Block positions sorted by descending training-time
        discriminativity (``col_norms``): the order in which the
        cascade accumulates partial maps so the remaining-contribution
        bound shrinks as fast as the trained weights allow.
    tail_norms:
        ``(n_positions + 1,)`` suffix sums of ``col_norms`` along
        ``position_order``: ``tail_norms[t]`` bounds (per unit block
        norm) the total contribution of every position not yet
        accumulated after ``t`` steps; ``tail_norms[0]`` is the whole
        window's bound, which stage 0 uses before any accumulation.

    The plan is stride-independent: stride only selects which anchors
    the aggregation step reads, so one plan serves every stride.
    """

    weights_rows: np.ndarray
    bias: float
    blocks_y: int
    blocks_x: int
    block_dim: int
    col_norms: np.ndarray
    position_order: np.ndarray
    tail_norms: np.ndarray

    @property
    def n_positions(self) -> int:
        """Block positions per window (``blocks_y * blocks_x``)."""
        return self.blocks_y * self.blocks_x

    @classmethod
    def build(
        cls, model: LinearSvmModel, blocks_y: int, blocks_x: int
    ) -> "ScorerPlan":
        """Reshape ``model``'s weights for a ``blocks_y x blocks_x`` window."""
        if blocks_y < 1 or blocks_x < 1:
            raise ParameterError(
                f"window extent must be >= 1 block, got "
                f"{blocks_y}x{blocks_x}"
            )
        n_positions = blocks_y * blocks_x
        if model.n_features % n_positions:
            raise ParameterError(
                f"model has {model.n_features} weights, not divisible by "
                f"the {blocks_y}x{blocks_x} = {n_positions} block "
                f"positions of the window"
            )
        block_dim = model.n_features // n_positions
        weights_rows = np.ascontiguousarray(
            model.weights.reshape(n_positions, block_dim)
        )
        col_norms = np.linalg.norm(weights_rows, axis=1)
        # Stable sort: ties keep row-major order, so the plan is
        # deterministic across builds of the same model.
        position_order = np.argsort(-col_norms, kind="stable")
        tail_norms = np.zeros(n_positions + 1)
        tail_norms[:n_positions] = \
            np.cumsum(col_norms[position_order][::-1])[::-1]
        return cls(
            weights_rows=weights_rows,
            bias=float(model.bias),
            blocks_y=int(blocks_y),
            blocks_x=int(blocks_x),
            block_dim=block_dim,
            col_norms=col_norms,
            position_order=position_order,
            tail_norms=tail_norms,
        )


def plan_for(
    model: LinearSvmModel,
    blocks_y: int,
    blocks_x: int,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
) -> ScorerPlan:
    """The cached :class:`ScorerPlan` of ``model`` for one window extent.

    Plans are cached on the model instance keyed by
    ``(blocks_y, blocks_x)`` — the model object *is* the cache's
    identity key, so rescaled-model pyramids (one
    :class:`~repro.svm.model_scaling.ScaledModel` per scale, each
    holding its own model) each warm their own plan exactly once and
    every later frame hits.  Cache traffic is observable as the
    ``detect.scorer.plan_cache_hits`` / ``_misses`` counters.

    Thread-safe: the check-then-set runs under a module lock, so
    thread-backend workers sharing one model build each plan exactly
    once and the counters sum to the number of calls.
    """
    key = (int(blocks_y), int(blocks_x))
    with _PLAN_CACHE_LOCK:
        cache = model.__dict__.setdefault(_PLAN_CACHE_ATTR, {})
        plan = cache.get(key)
        if plan is None:
            plan = ScorerPlan.build(model, blocks_y, blocks_x)
            cache[key] = plan
            telemetry.inc("detect.scorer.plan_cache_misses")
        else:
            telemetry.inc("detect.scorer.plan_cache_hits")
    return plan


def _validate_grid(blocks: np.ndarray, plan: ScorerPlan, stride: int) -> None:
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    if blocks.ndim != 3 or blocks.shape[2] != plan.block_dim:
        raise ShapeError(
            f"block grid {blocks.shape} does not match the plan's "
            f"block_dim {plan.block_dim}"
        )


def _empty_scores(blocks: np.ndarray, plan: ScorerPlan) -> np.ndarray:
    """A 0x0 score grid in the dtype the scorer would have produced.

    Empty returns used to be float64 unconditionally; with float32
    feature grids that silently changed the score dtype on frames too
    small for one window.
    """
    return np.empty(
        (0, 0), dtype=np.result_type(blocks.dtype, plan.weights_rows.dtype)
    )


def _partial_maps(
    blocks: np.ndarray,
    plan: ScorerPlan,
    telemetry: MetricsRegistry,
    span: str | None,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """The ``(n_positions, grid_rows, grid_cols)`` partial-score tensor.

    Position-major: plane ``p`` is the whole grid's dot products
    against weight row ``p``, C-contiguous — so the aggregation's
    shifted slice reads and the cascade's per-position maxima both
    stream sequential memory.

    With ``arena`` the tensor lives in the ``detect.partial`` slab —
    the single largest per-frame allocation of the detector (the
    ``matmul`` hits the identical BLAS GEMM whether or not ``out=`` is
    supplied, so results are bitwise equal).
    """
    grid_rows, grid_cols, _ = blocks.shape
    with telemetry.span(span or "detect.partial_matmul"):
        # One compact GEMM: every window-relative weight row against
        # every block of the grid.  The transposed block view costs
        # nothing (BLAS takes it as a stride flag) and the product
        # comes out C-contiguous in the position-major layout.
        blocks2d = blocks.reshape(grid_rows * grid_cols, plan.block_dim)
        if arena is None:
            partial = plan.weights_rows @ blocks2d.T
            return partial.reshape(plan.n_positions, grid_rows, grid_cols)
        dt = np.result_type(plan.weights_rows.dtype, blocks.dtype)
        partial = arena.get(
            "detect.partial", (plan.n_positions, grid_rows, grid_cols), dt
        )
        np.matmul(
            plan.weights_rows,
            blocks2d.T,
            out=partial.reshape(plan.n_positions, grid_rows * grid_cols),
        )
        return partial


def _scores_dest(
    arena: BufferArena | None,
    rows: int,
    cols: int,
    stride: int,
) -> np.ndarray | None:
    """The arena's ``detect.scores`` slab for the score grid, or ``None``.

    ``None`` (no arena) means the allocating path.
    """
    if arena is None:
        return None
    out_rows = len(range(0, rows, stride))
    out_cols = len(range(0, cols, stride))
    return arena.get("detect.scores", (out_rows, out_cols), np.float64)


def _aggregate_dense(
    partial: np.ndarray,
    plan: ScorerPlan,
    rows: int,
    cols: int,
    stride: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Summed shifts in the plan's order: the reference accumulation.

    Positions are added in ``plan.position_order`` (descending
    training-time discriminativity) rather than row-major.  The order
    is an internal detail of the scorer — any fixed permutation stays
    within float regrouping error of the descriptor-matrix GEMM — but
    making the *dense* path use the cascade's order is what lets the
    cascade freeze rejected anchors mid-sequence and have every
    survivor finish **bitwise identical** to this function without
    ever restarting its accumulation.
    """
    out_rows = len(range(0, rows, stride))
    out_cols = len(range(0, cols, stride))
    if out is None:
        scores = np.full((out_rows, out_cols), plan.bias)
    else:
        scores = out
        scores.fill(plan.bias)
    bx = plan.blocks_x
    # Summed shifts: position (i, j) of the window reads the partial
    # map shifted by (i, j).  The accumulation order is fixed by the
    # plan, so strided anchors reproduce the dense run's scores
    # bitwise at the shared anchors.
    for p in plan.position_order:
        p = int(p)
        i, j = divmod(p, bx)
        scores += partial[p, i:i + rows:stride, j:j + cols:stride]
    return scores


def score_blocks_conv(
    blocks: np.ndarray,
    plan: ScorerPlan,
    stride: int = 1,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
    span: str | None = None,
) -> np.ndarray:
    """Score every window anchor of a block grid via partial scores.

    Parameters
    ----------
    blocks:
        ``(block_rows, block_cols, block_dim)`` normalized block grid
        (:attr:`~repro.hog.extractor.HogFeatureGrid.blocks`).
    plan:
        Weight layout from :func:`plan_for` / :meth:`ScorerPlan.build`.
    stride:
        Anchor stride in cells; anchors are ``range(0, rows, stride)``
        exactly as in the descriptor-matrix layout.
    telemetry, span:
        When telemetry is enabled the partial-score matmul is timed
        under ``span`` (default ``"detect.partial_matmul"``; the
        detector passes ``detect.scale[<s>].partial_matmul`` so the
        per-scale split is visible in ``repro-das profile``).

    Returns the ``(out_rows, out_cols)`` score grid, empty when the
    window does not fit.
    """
    _validate_grid(blocks, plan, stride)
    grid_rows, grid_cols, _ = blocks.shape
    rows = grid_rows - plan.blocks_y + 1
    cols = grid_cols - plan.blocks_x + 1
    if rows <= 0 or cols <= 0:
        return _empty_scores(blocks, plan)
    partial = _partial_maps(blocks, plan, telemetry, span)
    return _aggregate_dense(partial, plan, rows, cols, stride)


def score_blocks_cascade(
    blocks: np.ndarray,
    plan: ScorerPlan,
    threshold: float,
    stride: int = 1,
    cascade_k: int = DEFAULT_CASCADE_K,
    telemetry: MetricsRegistry = NULL_TELEMETRY,
    span: str | None = None,
    agg_span: str | None = None,
    stats_out: dict | None = None,
    *,
    arena: BufferArena | None = None,
) -> np.ndarray:
    """Early-reject staged aggregation of the partial-score maps.

    **Stage 0 — before any accumulation.**  Every anchor's score is
    bounded by ``bias + min(B_row, B_col) * tail_norms[0]``, where
    ``B_row`` / ``B_col`` are the largest L2-hys block norms in the
    rows / columns the anchor's window covers (one ``O(grid)`` norm
    pass plus two sliding maxima).  Anchors whose bound falls at or
    below ``threshold`` minus a conservative float-rounding slack are
    rejected outright; if *no* anchor survives — textureless frames:
    flat road, unlit scenes, obstructed sensors, where L2-hys norms
    collapse to zero — the partial matmul itself is skipped and the
    scorer's cost is the norm pass alone.

    **Staged checks.**  Survivors run the **identical** partial matmul
    as the dense path, then walk ``plan.position_order`` — descending
    training-time discriminativity, the dense path's own accumulation
    sequence — restricted to the bounding box of anchors still alive.
    After the first ``cascade_k`` positions, and every
    :data:`_CASCADE_CHECK_EVERY` thereafter, anchors whose
    ``acc + min(B_row, B_col) * tail_norms[done]`` bound has fallen
    through the threshold are frozen at that bound (a scalar guard
    skips the per-anchor test at checkpoints where no anchor could
    freeze, so textured frames pay almost nothing).  Survivors keep
    accumulating the shared sequence, so every survivor's score is
    **bitwise equal** to :func:`score_blocks_conv`.

    A run that never rejects enough to matter costs the dense
    aggregation plus bound bookkeeping; such runs are counted in
    ``detect.cascade.bailouts``.

    Score-grid semantics: entries above ``threshold`` are exact (and
    identical to the dense run); rejected entries hold the
    anchor's partial-score **upper bound**, which is at or below
    ``threshold`` by construction — so thresholding the grid (as
    :func:`~repro.detect.sliding.anchors_to_boxes` does, with the same
    ``threshold``) yields the identical detection set.  ``threshold``
    must therefore be the downstream detection threshold; the detector
    wires its own.

    Every caller on the detection path runs the default ``cascade_k``
    (:data:`DEFAULT_CASCADE_K`); the keyword exists so the exactness
    property tests can sweep it.

    ``stats_out``, when given, receives the aggregation statistics
    (``anchors_in``, ``anchors_survived``, ``rejected_per_stage``,
    ``positions_accumulated``, ``bailed_out``, and the boolean
    ``rejected`` anchor mask) — the instrumentation hook the tests
    use.

    ``arena``, when given, is a :class:`~repro.arena.BufferArena`
    backing the partial-score tensor (``detect.partial``), the score
    grid (``detect.scores``, where stage 0 builds its bounds) and the
    stage-0 scratch (``detect.sq_norms``, ``detect.norms``,
    ``detect.brc``, ``detect.brc_rows``, ``detect.bound_slack``,
    ``detect.alive``), bitwise identical to the allocating path; the
    returned grid is then valid only until the arena's next
    ``detect.scores`` request.
    """
    _validate_grid(blocks, plan, stride)
    if cascade_k < 1:
        raise ParameterError(f"cascade_k must be >= 1, got {cascade_k}")
    threshold = float(threshold)
    grid_rows, grid_cols, _ = blocks.shape
    rows = grid_rows - plan.blocks_y + 1
    cols = grid_cols - plan.blocks_x + 1
    if rows <= 0 or cols <= 0:
        if stats_out is not None:
            stats_out.update(_cascade_stats(0, 0, [], 0, False,
                                            np.zeros((0, 0), dtype=bool)))
        return _empty_scores(blocks, plan)
    dest = _scores_dest(arena, rows, cols, stride)
    with telemetry.span(agg_span or "detect.cascade_aggregate"):
        bound0, brc, slack = _cascade_bounds(
            blocks, plan, threshold, stride, rows, cols, arena, dest
        )
        # Stage 0: reject on the bound alone.  ``not (... <= ...)``
        # keeps NaN-poisoned anchors alive so corrupt data falls
        # through to the dense accumulation and propagates exactly.
        alive = None
        if bound0 is not None:
            alive = scratch(arena, "detect.alive", bound0.shape,
                                   bool)
            np.less_equal(
                np.add(bound0, slack, out=scratch(
                    arena, "detect.bound_slack", bound0.shape)),
                threshold, out=alive,
            )
            np.logical_not(alive, out=alive)
        if alive is None or alive.all():
            # Stage 0 rejected nothing — a fully textured frame, where
            # unit block norms keep the tail bound fat for the entire
            # walk and checkpoints cannot freeze anything either.  Run
            # the dense aggregation directly (bitwise identical to a
            # freeze-free cascade walk) and skip the bound bookkeeping.
            partial = _partial_maps(blocks, plan, telemetry, span,
                                    arena=arena)
            scores = _aggregate_dense(partial, plan, rows, cols, stride,
                                      out=dest)
            n_anchors = scores.size
            stats = _cascade_stats(
                n_anchors, n_anchors, [0],
                n_anchors * plan.n_positions, True,
                np.zeros(scores.shape, dtype=bool),
            )
        elif not alive.any():
            # Nothing can reach the threshold anywhere: the partial
            # matmul itself is skipped — the textureless-frame short
            # circuit that makes the cascade's best case so cheap.
            n_anchors = bound0.size
            scores = bound0
            stats = _cascade_stats(
                n_anchors, 0, [n_anchors], 0, False, ~alive
            )
        else:
            partial = _partial_maps(blocks, plan, telemetry, span,
                                    arena=arena)
            scores, stats = _aggregate_cascade(
                partial, plan, threshold, stride, cascade_k, rows, cols,
                bound0, brc, slack, alive,
            )
    if telemetry.enabled:
        telemetry.inc("detect.cascade.anchors_in", stats["anchors_in"])
        telemetry.inc("detect.cascade.anchors_survived",
                      stats["anchors_survived"])
        telemetry.inc("detect.cascade.positions_accumulated",
                      stats["positions_accumulated"])
        if stats["bailed_out"]:
            telemetry.inc("detect.cascade.bailouts")
        for stage, n in enumerate(stats["rejected_per_stage"]):
            if n:
                telemetry.inc(
                    f"detect.cascade.stage[{stage}].anchors_rejected", n
                )
    if stats_out is not None:
        stats_out.update(stats)
    return scores


def _cascade_stats(anchors_in, survived, per_stage, positions, bailed,
                   rejected_mask) -> dict:
    return {
        "anchors_in": int(anchors_in),
        "anchors_survived": int(survived),
        "rejected_per_stage": [int(n) for n in per_stage],
        "positions_accumulated": int(positions),
        "bailed_out": bool(bailed),
        "rejected": rejected_mask,
    }


def _window_norm_bounds(
    block_norms: np.ndarray,
    extent: int,
    stride: int,
    axis: int,
) -> np.ndarray:
    """Largest block norm in each window-sized span along ``axis``.

    ``block_norms`` is the (rows, cols) grid of per-block L2 norms;
    the result has one entry per anchor along ``axis``: the max norm
    over the ``extent`` consecutive block lines its window covers.
    """
    line_max = block_norms.max(axis=1 - axis)
    windows = np.lib.stride_tricks.sliding_window_view(line_max, extent)
    return windows.max(axis=1)[::stride]


def _cascade_bounds(
    blocks: np.ndarray,
    plan: ScorerPlan,
    threshold: float,
    stride: int,
    rows: int,
    cols: int,
    arena: BufferArena | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Stage-0 score bounds: ``(bound0, brc, slack)``.

    By Cauchy-Schwarz, position ``p`` of an anchor's window contributes
    at most ``||block|| * col_norms[p]``, and every block the window
    covers has norm at most ``min(B_row, B_col)`` — the largest norm in
    the window's block rows / columns (``brc``, one entry per anchor).
    ``bound0 = bias + brc * tail_norms[0]`` therefore bounds the whole
    window score before any accumulation.  L2-hys normalization makes
    this bound collapse exactly where it should: textureless regions
    have zero-norm blocks, so their anchors are rejectable outright.

    ``slack`` is a conservative multiple of the worst-case float
    rounding in the bound arithmetic, so rejection can never claim an
    anchor whose exact score exceeds the threshold.  A NaN anywhere
    poisons the bounds into NaN, whose ``<=`` comparisons are all
    False — corrupt data is never rejected and falls through to the
    dense accumulation, reproducing its NaN scores exactly.

    Fully textured frames are detected without building the per-anchor
    bounds at all: every anchor's ``brc`` is at least the smallest
    per-line norm maximum (each window max covers its own leading
    line), so when even that floor keeps ``bound0`` above threshold,
    no anchor can reject and ``(None, None, slack)`` is returned —
    the quick guard that prices the cascade at one ``O(grid)`` norm
    pass plus two line reductions on busy scenes.

    With ``arena`` the grid-sized temporaries live in its
    ``detect.sq_norms``, ``detect.norms``, ``detect.brc`` and
    ``detect.brc_rows`` slabs, and ``bound0`` is built in ``out`` (the
    score grid's slab), so a warm call allocates nothing grid-sized.
    """
    sq_norms = np.einsum("ijk,ijk->ij", blocks, blocks,
                         out=scratch(arena, "detect.sq_norms",
                                            blocks.shape[:2]))
    sq_norms = sq_norms[:rows + plan.blocks_y - 1,
                        :cols + plan.blocks_x - 1]
    tail0 = float(plan.tail_norms[0])
    gross = abs(plan.bias) + abs(threshold) \
        + float(np.sqrt(np.max(sq_norms))) * tail0
    slack = 64.0 * (plan.n_positions + 2) * np.finfo(np.float64).eps \
        * (gross + 1.0)
    floor_sq = min(float(np.min(np.max(sq_norms, axis=1))),
                   float(np.min(np.max(sq_norms, axis=0))))
    floor_bound = plan.bias + np.sqrt(floor_sq) * tail0
    if not floor_bound + slack <= threshold:
        return None, None, slack
    norms = np.sqrt(sq_norms, out=scratch(arena, "detect.norms",
                                                 sq_norms.shape))
    b_row = _window_norm_bounds(norms, plan.blocks_y, stride, axis=0)
    b_col = _window_norm_bounds(norms, plan.blocks_x, stride, axis=1)
    # min(b_row[i], b_col[j]) over two broadcast copies: a ufunc over
    # a broadcast operand would allocate iteration buffers.
    shape = (len(b_row), len(b_col))
    brc = scratch(arena, "detect.brc", shape)
    np.copyto(brc, b_col)
    rows_b = scratch(arena, "detect.brc_rows", shape)
    np.copyto(rows_b, b_row[:, None])
    np.minimum(rows_b, brc, out=brc)
    # bias + brc * tail0, built in place (addition commutes exactly).
    bound0 = np.multiply(brc, tail0, out=out)
    bound0 += plan.bias
    return bound0, brc, slack


def _aggregate_cascade(
    partial: np.ndarray,
    plan: ScorerPlan,
    threshold: float,
    stride: int,
    cascade_k: int,
    rows: int,
    cols: int,
    bound0: np.ndarray,
    brc: np.ndarray,
    slack: float,
    alive: np.ndarray,
) -> tuple[np.ndarray, dict]:
    out_rows, out_cols = bound0.shape
    n_anchors = out_rows * out_cols
    n_pos = plan.n_positions
    bx = plan.blocks_x
    k = min(int(cascade_k), n_pos)
    order = plan.position_order
    tail = plan.tail_norms

    # Anchors stage 0 already rejected hold their (at-or-below
    # threshold) bound; survivors get overwritten below.
    scores = bound0
    rejected_per_stage = [n_anchors - int(np.count_nonzero(alive))]
    positions_accumulated = 0

    # The accumulator walks the plan's position order — the exact
    # float-add sequence of _aggregate_dense — restricted to the
    # bounding box of anchors still alive.  Frozen anchors inside the
    # box keep receiving (harmless) slice adds; their reported value
    # was fixed in ``scores`` at freeze time.  Checkpoints shrink the
    # box as rejection sweeps regions clear, and the walk stops
    # entirely once nothing is alive.
    alive_rows = np.nonzero(alive.any(axis=1))[0]
    alive_cols = np.nonzero(alive.any(axis=0))[0]
    r0, r1 = int(alive_rows[0]), int(alive_rows[-1]) + 1
    c0, c1 = int(alive_cols[0]), int(alive_cols[-1]) + 1
    acc = np.full((r1 - r0, c1 - c0), plan.bias)
    finished = False
    for t in range(n_pos):
        p = int(order[t])
        i, j = divmod(p, bx)
        acc += partial[p,
                       r0 * stride + i:(r1 - 1) * stride + i + 1:stride,
                       c0 * stride + j:(c1 - 1) * stride + j + 1:stride]
        positions_accumulated += acc.size
        done = t + 1
        if done >= k and (done - k) % _CASCADE_CHECK_EVERY == 0 \
                and done < n_pos:
            tail_t = float(tail[done])
            brc_v = brc[r0:r1, c0:c1]
            # Scalar guard: when even the most rejectable anchor of
            # the box cannot fall through the threshold, skip the
            # per-anchor test (the common case on textured frames,
            # where unit block norms keep the tail bound fat).
            if float(np.min(acc)) + float(np.min(brc_v)) * tail_t \
                    + slack > threshold:
                rejected_per_stage.append(0)
                continue
            alive_v = alive[r0:r1, c0:c1]
            bound = acc + brc_v * tail_t
            freeze = alive_v & (bound + slack <= threshold)
            n_freeze = int(np.count_nonzero(freeze))
            rejected_per_stage.append(n_freeze)
            if not n_freeze:
                continue
            scores[r0:r1, c0:c1][freeze] = bound[freeze]
            # Frozen anchors keep receiving harmless slice adds, but
            # their low running sums would defeat the scalar guard at
            # every later checkpoint.  Poison them to +inf: survivors'
            # float sequences are untouched (the adds are elementwise)
            # and ``np.min(acc)`` goes back to measuring live anchors.
            acc[freeze] = np.inf
            alive_v &= ~freeze
            if not alive_v.any():
                finished = True
                break
            # Shrink the bounding box to what is still alive; ``acc``
            # stays a view into the same backing array, so survivors'
            # accumulation sequences are untouched.
            sub_rows = np.nonzero(alive_v.any(axis=1))[0]
            sub_cols = np.nonzero(alive_v.any(axis=0))[0]
            nr0 = r0 + int(sub_rows[0])
            nr1 = r0 + int(sub_rows[-1]) + 1
            nc0 = c0 + int(sub_cols[0])
            nc1 = c0 + int(sub_cols[-1]) + 1
            acc = acc[nr0 - r0:nr1 - r0, nc0 - c0:nc1 - c0]
            r0, r1, c0, c1 = nr0, nr1, nc0, nc1
    if not finished:
        alive_v = alive[r0:r1, c0:c1]
        scores[r0:r1, c0:c1][alive_v] = acc[alive_v]

    n_alive = int(np.count_nonzero(alive))
    n_rejected = n_anchors - n_alive
    stats = _cascade_stats(
        n_anchors, n_alive, rejected_per_stage, positions_accumulated,
        n_rejected < _CASCADE_BAILOUT_MIN_REJECTED * n_anchors,
        ~alive,
    )
    return scores, stats
