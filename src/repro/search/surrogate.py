"""Online surrogate ranking for adaptive best-bound-first search.

The tiled engine path (:func:`repro.engine.batch.batch_adaptive`) visits
memory buckets best-analytic-bound-first, so its pruning threshold tightens
as early as the *bound* allows.  This module adds a second, learned signal:
an incremental least-squares regressor over fast-path artifact features —
flops, bytes and comm volumes that the profile/memory stages already
materialized as columns — predicting each bucket's achievable rate.  A
trained surrogate picks the tile-0 seed sample (the buckets evaluated
first), which pre-tightens the threshold before bound order takes over.

Soundness: the surrogate is a **speed-only** hint.  It influences nothing
but the order in which buckets are visited; the engine's strict threshold
(:func:`repro.engine.bounds.strict_prune_threshold_for_rate`) alone decides
what is skipped, so a badly trained — or adversarially wrong — surrogate
can only cost wall-clock, never change the top-k.

State is a pair of accumulated normal equations (``X'X``, ``X'y``), trained
incrementally from each completed tile and persisted through the service
result cache keyed by :func:`repro.cachekey.run_key` with
``kind="surrogate"`` — the same problem searched twice seeds its second run
from the first run's observations.  A process-local registry fronts the
cache so serial re-searches benefit even without a disk-backed store.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..cachekey import run_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.batch import EvalBatch
    from ..service.cache import ResultCache

__all__ = [
    "MIN_OBSERVATIONS",
    "N_FEATURES",
    "RateSurrogate",
    "configure_surrogate_store",
    "load_surrogate",
    "store_surrogate",
    "surrogate_key",
]

# Feature vector layout (per memory bucket); see bucket_features().
N_FEATURES = 10

# Ridge term keeping the normal equations solvable while the observation
# matrix is still rank-deficient (early tiles explore few buckets).
_RIDGE = 1e-6

# Below this many observed survivors the ranking is noise — callers fall
# back to pure bound order.
MIN_OBSERVATIONS = 64


class RateSurrogate:
    """Incremental ridge regression from bucket features to log rate.

    Keeps only the accumulated normal equations, so ``observe`` is O(F²)
    per row regardless of history length and the whole state serializes to
    a few hundred floats.
    """

    __slots__ = ("xtx", "xty", "count")

    def __init__(
        self,
        xtx: np.ndarray | None = None,
        xty: np.ndarray | None = None,
        count: int = 0,
    ):
        self.xtx = (
            np.zeros((N_FEATURES, N_FEATURES), dtype=np.float64)
            if xtx is None
            else np.asarray(xtx, dtype=np.float64)
        )
        self.xty = (
            np.zeros(N_FEATURES, dtype=np.float64)
            if xty is None
            else np.asarray(xty, dtype=np.float64)
        )
        self.count = int(count)

    # -- features ------------------------------------------------------------

    @staticmethod
    def bucket_features(eb: "EvalBatch") -> np.ndarray:
        """``(n_buckets, N_FEATURES)`` float features from fast-path columns.

        Everything here was already materialized by the profile/memory
        stages; no comm kernel or assembly work runs.  Log transforms keep
        the linear model sane across the many-orders-of-magnitude spread
        of flops/bytes.
        """
        b = eb.b

        def gp(field: str) -> np.ndarray:
            return eb.gprof[field][b["group"]]

        Mb = (b["M"] * b["bp"]).astype(np.float64)
        tr = (b["training"] != 0).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            feats = np.stack(
                [
                    np.ones(eb.n_buckets, dtype=np.float64),
                    np.log1p(Mb * gp("flops_fw")),
                    np.log1p(tr * Mb * gp("flops_bw")),
                    np.log1p(gp("weight_bytes")),
                    np.log1p(gp("tp_fw_comm") + gp("tp_bw_comm")),
                    np.log1p(tr * b["opt_bytes"].astype(np.float64)),
                    np.log1p(b["t"].astype(np.float64)),
                    np.log1p(b["p"].astype(np.float64)),
                    np.log1p(b["d"].astype(np.float64)),
                    np.log1p(b["M"].astype(np.float64)),
                ],
                axis=1,
            )
        return np.nan_to_num(feats, nan=0.0, posinf=0.0, neginf=0.0)

    @staticmethod
    def _features_cached(eb: "EvalBatch") -> np.ndarray:
        """Per-batch feature matrix, computed once and stashed on ``eb``.

        ``observe_tile`` fires once per tile; recomputing the (n_buckets,
        F) matrix each time would dominate the surrogate's cost.  The
        matrix depends only on post-memory-stage state, which never
        changes across tiles.
        """
        feats = getattr(eb, "surrogate_feats", None)
        if feats is None:
            feats = RateSurrogate.bucket_features(eb)
            eb.surrogate_feats = feats
        return feats

    # -- training ------------------------------------------------------------

    def observe(self, feats: np.ndarray, rates: np.ndarray) -> None:
        """Fold observed ``(features, rate)`` rows into the normal equations.

        ``feats`` is ``(n, N_FEATURES)``; ``rates`` are the survivors'
        sample rates (non-positive rates are dropped — they carry no
        ranking signal).
        """
        rates = np.asarray(rates, dtype=np.float64)
        keep = np.isfinite(rates) & (rates > 0.0)
        if not np.any(keep):
            return
        X = np.asarray(feats, dtype=np.float64)[keep]
        y = np.log1p(rates[keep])
        self.xtx += X.T @ X
        self.xty += X.T @ y
        self.count += int(X.shape[0])

    def observe_tile(
        self, eb: "EvalBatch", bid_s: np.ndarray, rate_s: np.ndarray
    ) -> None:
        """Train from one completed tile's survivor columns."""
        if bid_s.shape[0] == 0:
            return
        self.observe(self._features_cached(eb)[bid_s], rate_s)

    # -- ranking -------------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self.count >= MIN_OBSERVATIONS

    def weights(self) -> np.ndarray | None:
        """Solve the ridge system; ``None`` when unusable."""
        try:
            w = np.linalg.solve(
                self.xtx + _RIDGE * np.eye(N_FEATURES), self.xty
            )
        except np.linalg.LinAlgError:  # pragma: no cover - degenerate state
            return None
        if not np.all(np.isfinite(w)):  # pragma: no cover - degenerate state
            return None
        return w

    def seed_buckets(self, eb: "EvalBatch", limit: int) -> np.ndarray | None:
        """Predicted-best feasible buckets, best first; ``None`` if untrained.

        The caller puts these in tile 0.  Mis-ranking costs speed only:
        the strict threshold still decides every skip.
        """
        if limit <= 0 or not self.trained:
            return None
        w = self.weights()
        if w is None:
            return None
        fb = np.flatnonzero(eb.b["ok"])
        if fb.size == 0:
            return None
        scores = self._features_cached(eb) @ w
        order = fb[np.argsort(-scores[fb], kind="stable")]
        return order[:limit]

    # -- serialization -------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        return {
            "version": 1,
            "xtx": self.xtx.tolist(),
            "xty": self.xty.tolist(),
            "count": self.count,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "RateSurrogate | None":
        if not isinstance(payload, dict) or payload.get("version") != 1:
            return None
        try:
            xtx = np.asarray(payload["xtx"], dtype=np.float64)
            xty = np.asarray(payload["xty"], dtype=np.float64)
            count = int(payload["count"])
        except (KeyError, TypeError, ValueError):
            return None
        if xtx.shape != (N_FEATURES, N_FEATURES) or xty.shape != (N_FEATURES,):
            return None
        return cls(xtx=xtx, xty=xty, count=count)


# -- persistence --------------------------------------------------------------
#
# A process-local LRU fronts an optional ResultCache: load checks memory
# first, then the configured store; store writes through to both.  The
# registry is deliberately tiny — surrogate state is a speed hint, not a
# result.

_LOCK = threading.Lock()
_MEMORY: dict[str, Any] = {}
_MEMORY_MAX = 64
_STORE: "ResultCache | None" = None


def configure_surrogate_store(cache: "ResultCache | None") -> None:
    """Attach (or detach, with ``None``) a result cache for persistence."""
    global _STORE
    with _LOCK:
        _STORE = cache


def surrogate_key(llm, system, batch: int, options) -> str:
    """Content key identifying one search problem's surrogate state."""
    return run_key(llm, system, batch, options, kind="surrogate")


def load_surrogate(key: str) -> RateSurrogate:
    """The persisted surrogate for ``key``, or a fresh empty one."""
    with _LOCK:
        payload = _MEMORY.get(key)
        store = _STORE
    if payload is None and store is not None:
        payload = store.get(key)
    sur = RateSurrogate.from_payload(payload)
    return sur if sur is not None else RateSurrogate()


def store_surrogate(key: str, sur: RateSurrogate) -> None:
    """Write-through persist; silently skips an unwritable disk store."""
    payload = sur.to_payload()
    with _LOCK:
        _MEMORY[key] = payload
        while len(_MEMORY) > _MEMORY_MAX:
            _MEMORY.pop(next(iter(_MEMORY)))
        store = _STORE
    if store is not None:
        try:
            store.put(key, payload)
        except OSError:  # pragma: no cover - disk store unavailable
            pass


def seed_sample_size(prune_seed: int, top_k: int) -> int:
    """Tile-0 seed size from the ``--prune-seed`` knob.

    ``prune_seed`` sizes the surrogate-picked seed sample of the
    single-range adaptive columnar path.  ``0`` keeps the default (enough
    buckets to fill a tile); negative disables seeding.
    """
    if prune_seed < 0:
        return 0
    if prune_seed == 0:
        return max(64, top_k)
    return max(int(prune_seed), top_k)


def _reset_for_tests() -> None:
    """Clear process-local state (test isolation hook)."""
    global _STORE
    with _LOCK:
        _MEMORY.clear()
        _STORE = None
