"""Merge combinators for the extended two-stage model (Fig 6).

"The Merge function needs to be programmed by the user to support
different applications" (Section IV-C).  These are the merge functions of
the paper's three benchmarks, reusable by new applications.
"""

from __future__ import annotations

from repro.phoenix.sort import sort_by_value_desc

__all__ = ["sum_merge", "concat_merge", "identity_merge"]


def sum_merge(outputs: list, params: dict) -> list[tuple[object, object]]:
    """Merge per-fragment (key, count) lists by summing counts per key.

    Word Count's merge: fragment outputs are partial counts; the final
    result is the global count, sorted by frequency (decreasing), exactly
    like the paper's WC output.
    """
    totals: dict[object, float] = {}
    for part in outputs:
        for key, value in part:
            totals[key] = totals.get(key, 0) + value
    return sort_by_value_desc(list(totals.items()))


def concat_merge(outputs: list, params: dict) -> list:
    """Concatenate per-fragment outputs (String Match: match lists)."""
    out: list = []
    for part in outputs:
        out.extend(part)
    return out


def identity_merge(outputs: list, params: dict) -> object:
    """Single-fragment passthrough (non-partitionable applications)."""
    if len(outputs) == 1:
        return outputs[0]
    return outputs
