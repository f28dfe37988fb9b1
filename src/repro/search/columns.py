"""Pure-columnar candidate enumeration for the execution search.

:func:`candidate_columns` produces the exact candidate sequence of
:func:`repro.search.execution_search.candidate_strategies` — same filters,
same order — directly as int64 NumPy columns, without ever constructing the
(hundreds of thousands of) :class:`~repro.execution.strategy.ExecutionStrategy`
objects.  The columns feed
:meth:`repro.engine.batch.EvalBatch.from_columns`; the handful of candidates
a search actually reports (the top-k winners) are
materialized on demand via :meth:`~repro.engine.batch.EvalBatch.strategy_at`.

The inner option product — recompute x seq-par modes x TP overlap x DP
overlap x optimizer sharding x fused activations x 1F1B x offload modes —
is identical for every (t, p, d, m, v) prefix except for the sequence-parallel
filter (``sp`` requires ``t > 1`` and ``t | seq``), which depends only on
``t``.  So the product is built **once** as a small combo table (plus an
sp-free variant), and each prefix contributes ``tile(combos)`` against
``repeat(m, v)`` — enumeration cost scales with the number of *distinct*
prefixes, not with the candidate count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..engine.batch import (
    COLUMN_NAMES,
    RECOMPUTE_NAMES,
    TP_MODE_NAMES,
    TP_OVERLAP_NAMES,
)
from ..execution.strategy import divisors, factorizations
from ..hardware.system import System
from ..llm.config import LLMConfig

# Combo-table column layout (the non-prefix strategy dimensions, in the
# order ExecutionStrategy consumes them).
_COMBO_NAMES = (
    "rc", "sp", "redo", "rs_ag", "tpo", "dpo", "osh", "fus", "f1b",
    "w_off", "a_off", "o_off",
)

_TPM_1D = TP_MODE_NAMES.index("1d")


def _name_codes(names, table: tuple[str, ...]) -> list[int] | None:
    """Map mode names to their columnar codes; None if any name is unknown."""
    codes = []
    for name in names:
        try:
            codes.append(table.index(name))
        except ValueError:
            return None
    return codes


def _combo_table(opts) -> np.ndarray | None:
    """The inner option product as an (n_combos, 12) int64 table.

    Rows appear in the exact ``itertools.product`` order of the scalar
    enumerator's inner loop; the dependent flags (``tp_redo_sp``,
    ``pp_rs_ag``) are already and-ed with ``seq_par``, mirroring the
    strategy constructor.  Returns None when an option uses a mode name the
    columnar codes don't cover (the caller then falls back to scalar
    enumeration, whose validate stage reports the bad name).
    """
    rc_codes = _name_codes(opts.recompute, RECOMPUTE_NAMES)
    tpo_codes = _name_codes(opts.tp_overlap, TP_OVERLAP_NAMES)
    if rc_codes is None or tpo_codes is None:
        return None
    rows = [
        (
            rc,
            int(bool(sp)),
            int(bool(redo and sp)),
            int(bool(ppsg and sp)),
            tpo,
            int(bool(dpo)),
            int(bool(osh)),
            int(bool(fus)),
            int(bool(f1b)),
            int(bool(off[0])),
            int(bool(off[1])),
            int(bool(off[2])),
        )
        for rc, (sp, redo, ppsg), tpo, dpo, osh, fus, f1b, off in itertools.product(
            rc_codes,
            opts.seq_par_modes,
            tpo_codes,
            opts.dp_overlap,
            opts.optimizer_sharding,
            opts.fused_activations,
            opts.pp_1f1b,
            opts.offload_modes,
        )
    ]
    return np.asarray(rows, dtype=np.int64).reshape(len(rows), len(_COMBO_NAMES))


def candidate_columns(
    llm: LLMConfig,
    system: System,
    batch: int,
    opts,
) -> dict[str, np.ndarray] | None:
    """Every candidate of the option space, as int64 columns.

    Row ``i`` of the returned columns is candidate ``i`` of
    ``candidate_strategies(llm, system, batch, opts)`` — the structural
    filters (head/shape divisibility, block and batch bounds, the
    microbatch/interleaving ranges, the seq-par degeneracy rules) are
    replicated exactly, so a batch built from these columns evaluates the
    identical candidate stream.  Returns None when the option space cannot
    be encoded (unknown mode names); ``opts`` must be a resolved
    :class:`~repro.search.execution_search.SearchOptions`.
    """
    combo_full = _combo_table(opts)
    if combo_full is None:
        return None
    combo_nosp = combo_full[combo_full[:, _COMBO_NAMES.index("sp")] == 0]

    t_l: list[np.ndarray] = []
    p_l: list[np.ndarray] = []
    d_l: list[np.ndarray] = []
    m_l: list[np.ndarray] = []
    v_l: list[np.ndarray] = []
    combo_l: list[np.ndarray] = []
    n = system.num_procs
    for t, p, d in factorizations(n):
        if t > min(opts.max_tensor_par, llm.attn_heads) or llm.attn_heads % t:
            continue
        if llm.hidden % t or llm.feedforward % t:
            continue
        if p > llm.num_blocks:
            continue
        if d > batch or batch % d:
            continue
        local_batch = batch // d
        microbatches = [
            m
            for m in divisors(local_batch)
            if m <= opts.max_microbatch
            and (not opts.microbatch_powers_of_two or (m & (m - 1)) == 0)
        ]
        if opts.interleaving_values is not None:
            interleavings = [
                v
                for v in opts.interleaving_values
                if v == 1 or (p > 1 and v <= math.ceil(llm.num_blocks / p))
            ]
        else:
            bpstage = math.ceil(llm.num_blocks / p)
            interleavings = [v for v in divisors(bpstage) if v == 1 or p > 1]
        sp_ok = t != 1 and llm.seq_size % t == 0
        combo = combo_full if sp_ok else combo_nosp
        k = combo.shape[0]
        n_mv = len(microbatches) * len(interleavings)
        if k == 0 or n_mv == 0:
            continue
        mv_m = np.repeat(
            np.asarray(microbatches, dtype=np.int64), len(interleavings)
        )
        mv_v = np.tile(
            np.asarray(interleavings, dtype=np.int64), len(microbatches)
        )
        rows = n_mv * k
        t_l.append(np.full(rows, t, dtype=np.int64))
        p_l.append(np.full(rows, p, dtype=np.int64))
        d_l.append(np.full(rows, d, dtype=np.int64))
        m_l.append(np.repeat(mv_m, k))
        v_l.append(np.repeat(mv_v, k))
        combo_l.append(np.tile(combo, (n_mv, 1)))

    if not t_l:
        zero = np.zeros(0, dtype=np.int64)
        return {name: zero.copy() for name in COLUMN_NAMES}
    combos = np.concatenate(combo_l, axis=0)
    total = combos.shape[0]
    cols: dict[str, np.ndarray] = {
        "t": np.concatenate(t_l),
        "p": np.concatenate(p_l),
        "d": np.concatenate(d_l),
        "batch": np.full(total, int(batch), dtype=np.int64),
        "m": np.concatenate(m_l),
        "v": np.concatenate(v_l),
        "tpm": np.full(total, _TPM_1D, dtype=np.int64),
        "training": np.full(total, int(bool(opts.training)), dtype=np.int64),
    }
    for j, name in enumerate(_COMBO_NAMES):
        cols[name] = np.ascontiguousarray(combos[:, j])
    return cols


__all__ = ["candidate_columns"]
