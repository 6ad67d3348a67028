"""String Match (SM).

"Each Map searches one line in the 'encrypt' file to check whether the
target string from a 'keys' file is in the line.  Neither sort or the
reduce stage is required." (Section V-A)

Memory: "the memory footprint of String-Match is around two times of the
input data size" (Section V-C).

Calibration: ~55 ops per declared byte (=> ~36 MB/s per 2 GHz core):
every line is tested against each key, so SM is compute-bound too, though
with a lighter per-byte cost and footprint than WC — which is why its
partition speedups are the smaller ones in Fig 8.

The map emits ``(key, line_number)`` for every matching line; with the
default combiner the per-key value becomes a match count, and fragment
outputs concatenate (offsets are fragment-relative, disambiguated by the
fragment offset carried in the pair).
"""

from __future__ import annotations

import operator

from repro.phoenix.api import CostProfile, Emit, MapReduceSpec
from repro.partition.merge import concat_merge

__all__ = ["SM_PROFILE", "sm_map", "make_stringmatch_spec"]

#: String Match cost/memory profile (see module docstring).
SM_PROFILE = CostProfile(
    name="stringmatch",
    map_ops_per_byte=55.0,
    sort_ops_per_byte=0.0,
    reduce_ops_per_byte=0.0,
    merge_ops_per_byte=0.1,
    footprint_factor=2.0,
    seq_footprint_factor=1.02,
    intermediate_ratio=0.01,
    output_ratio=0.005,
)


def sm_map(data: object, emit: Emit, params: dict) -> None:
    """Check each line of the split against every key; emit matches.

    ``params['keys']`` is the list of target strings (bytes).  Emits
    ``(key, 1)`` per matching line so the combined value is a match count.
    """
    keys = params.get("keys", [])
    if not keys:
        return
    if isinstance(data, str):
        data = data.encode()
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"string match expects text, got {type(data).__name__}")
    bkeys = [k.encode() if isinstance(k, str) else bytes(k) for k in keys]
    for line in bytes(data).splitlines():
        for key in bkeys:
            if key in line:
                emit(key, 1)


def make_stringmatch_spec(profile: CostProfile | None = None) -> MapReduceSpec:
    """The String Match program: map-only, no sort, no reduce."""
    return MapReduceSpec(
        name="stringmatch",
        map_fn=sm_map,
        reduce_fn=None,
        combine_fn=operator.add,
        merge_fn=concat_merge,
        profile=profile or SM_PROFILE,
        needs_sort=False,
        sort_output=False,
        delimiters=b"\n",
    )
