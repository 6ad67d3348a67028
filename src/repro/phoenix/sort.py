"""Real intermediate-data machinery: combine, partition, group, sort.

This is the functional half of the runtime — it operates on the actual
key/value pairs the user's map emitted (over the materialized payload), so
tests can assert that word counts really count and matches really match.

Every engine runs the same Phoenix procedure (Fig 1) through the same
pieces, one per concept:

* **Emit/fold.**  :func:`make_emit` is the map-side kernel: the worker
  batches of the real engine and the simulator's :class:`Combiner` both
  fold emissions with it.  :func:`fold_map_into` folds a whole map (or a
  stream of pairs) into an accumulator: the streaming parent, the
  out-of-core merge and :func:`local_merge_maps` use it.
* **Finalize.**  :func:`finalize_folded_map` reduces a folded map and
  orders its output; the in-memory and out-of-core real engines share it.
* **Value order.**  :func:`sort_by_value_desc` is the one
  frequency-descending output order.

The simulator's shuffle is a **sort-once, merge-after** pipeline (the
"Sort" box of Fig 1).  Per-worker combiner maps are dict-merged (no
per-worker sort, no flatten/regroup), leaving one map of *distinct* keys;
a single decorate-sort pass then computes each key's sort key —
``repr(key)`` — exactly once per distinct key per job and carries it, as
the first element of a ``(sort_key, key, value)`` *decorated entry*,
through partitioning, reduction, and the final merge, none of which ever
re-sort or re-``repr``.  Partition hashes are ``zlib.crc32`` over the
decorated sort-key bytes: C-speed and salt-free, hence deterministic
across processes (Python's ``hash`` is salted per process).  Reduce
buckets inherit the sorted order, so per-bucket outputs are sorted runs;
the final merge exploits that via Timsort's natural-run galloping
(:func:`merge_entry_runs`) or, for streaming consumers, a lazy heap merge
(:func:`merge_decorated_runs`).
"""

from __future__ import annotations

import collections
import heapq
import operator
import typing as _t
import zlib

__all__ = [
    "Combiner",
    "KeyCache",
    "make_emit",
    "merge_combiner_maps",
    "fold_map_into",
    "finalize_folded_map",
    "decorate_sorted",
    "partition_decorated",
    "merge_entry_runs",
    "merge_decorated_runs",
    "undecorate",
    "shuffle_parallel",
    "local_merge_maps",
    "sort_by_value_desc",
]

#: A decorated entry: (cached sort key, key, value).
Entry = _t.Tuple[str, object, object]

_SORT_KEY = operator.itemgetter(0)
_VALUE_KEY = operator.itemgetter(2)
_PAIR_VALUE = operator.itemgetter(1)

# C helper behind collections.Counter: folds an iterable of hashables into
# a dict at C speed (``d[k] = d.get(k, 0) + 1`` per element, no Python
# frame per key).  ``collections`` re-exports the C version when built.
_count_elements = collections._count_elements


def _REPR_KEY(kv: tuple) -> str:
    return repr(kv[0])


def make_emit(
    acc: dict, combine_fn: _t.Callable[[object, object], object] | None
) -> _t.Callable[[object, object], None]:
    """The emit/fold kernel: an ``emit(key, value)`` folding into ``acc``.

    Without a ``combine_fn`` ``acc`` holds each key's value list in
    emission order; with one it holds one folded value per key.  The fold
    is specialized per combiner shape: the hot (existing-key) path is a
    bare ``try``/``except`` dict probe — zero-cost when the key is present
    under CPython 3.11 — and ``operator.add`` combiners fold with the
    inline ``+`` operator instead of a call per emission.

    The callable also carries a vectorized form, ``emit.many(keys,
    value)``, equivalent to ``for k in keys: emit(k, value)``.  Map
    functions that already hold a sequence of keys (tokenizers, parsers)
    can hand it over whole and skip one Python call per emission; for
    ``operator.add`` combiners with ``value == 1`` — the counting shape —
    the fold runs entirely in C via ``Counter``'s ``_count_elements``
    helper.  Emission order, and therefore first-seen key order in
    ``acc``, is identical on both forms.
    """
    if combine_fn is None:
        def emit(key: object, value: object) -> None:
            acc.setdefault(key, []).append(value)

        def many(keys: _t.Iterable, value: object) -> None:
            grow = acc.setdefault
            for key in keys:
                grow(key, []).append(value)
    elif combine_fn is operator.add:
        def emit(key: object, value: object) -> None:
            try:
                old = acc[key]
            except KeyError:
                acc[key] = value
            else:
                acc[key] = old + value

        def many(keys: _t.Iterable, value: object) -> None:
            if type(value) is int and value == 1:
                _count_elements(acc, keys)
            else:
                for key in keys:
                    emit(key, value)
    else:
        def emit(key: object, value: object) -> None:
            try:
                old = acc[key]
            except KeyError:
                acc[key] = value
            else:
                acc[key] = combine_fn(old, value)

        def many(keys: _t.Iterable, value: object) -> None:
            for key in keys:
                emit(key, value)
    emit.many = many  # type: ignore[attr-defined]
    return emit


class Combiner:
    """One simulated map task's emissions, folded by :func:`make_emit`.

    With a ``combine_fn(old, new)`` the structure holds one value per key
    (e.g. running counts); without, it holds the full value list.
    ``emit`` (and its ``emit.many``) also counts raw emissions, which
    drive the simulator's intermediate-size accounting.
    """

    __slots__ = ("combine_fn", "data", "emit", "_emitted")

    def __init__(self, combine_fn: _t.Callable[[object, object], object] | None):
        self.combine_fn = combine_fn
        self.data: dict[object, object] = {}
        emitted = self._emitted = [0]
        fold = make_emit(self.data, combine_fn)
        fold_many = fold.many  # type: ignore[attr-defined]

        def emit(key: object, value: object) -> None:
            """The callback handed to user map functions."""
            emitted[0] += 1
            fold(key, value)

        def many(keys: _t.Sized, value: object) -> None:
            emitted[0] += len(keys)
            fold_many(keys, value)

        emit.many = many  # type: ignore[attr-defined]
        self.emit = emit

    @property
    def emitted(self) -> int:
        """Raw emissions seen."""
        return self._emitted[0]

    def pairs(self) -> list[tuple[object, object]]:
        """(key, value-or-valuelist) pairs in deterministic key order."""
        return sorted(self.data.items(), key=_REPR_KEY)


class KeyCache:
    """Cross-run ``repr`` memo for paths that decorate the *same* key twice.

    The merged pipeline decorates distinct keys, so it needs no cache; this
    exists for the unsorted flatten path (no sort, no reduce), where one
    key may recur across per-worker runs and must still be repr'd once.
    """

    __slots__ = ("sort_keys",)

    def __init__(self) -> None:
        self.sort_keys: dict[object, str] = {}

    def sort_key(self, key: object) -> str:
        """``repr(key)``, computed once per distinct key."""
        r = self.sort_keys.get(key)
        if r is None:
            r = self.sort_keys[key] = repr(key)
        return r


def merge_combiner_maps(
    maps: _t.Iterable[dict], combine_fn: _t.Callable[[object, object], object] | None
) -> dict[object, list]:
    """Dict-merge per-worker combiner maps into one ``key -> values`` map.

    Replaces the seed's flatten-then-regroup dance: without ``combine_fn``
    workers hold value lists, which are extended (:func:`fold_map_into`);
    with it, each worker's folded partial is appended — so reducers see
    exactly the per-worker value lists the seed pipeline produced, with
    zero sorting.
    """
    merged: dict[object, list] = {}
    if combine_fn is None:
        for m in maps:
            fold_map_into(merged, m, None)
        return merged
    merged_get = merged.get
    for m in maps:
        for key, value in m.items():
            bucket = merged_get(key)
            if bucket is None:
                merged[key] = [value]
            else:
                bucket.append(value)
    return merged


def fold_map_into(
    merged: dict[object, object],
    m: dict | _t.Iterable[tuple[object, object]],
    combine_fn: _t.Callable[[object, object], object] | None,
) -> None:
    """Fold one combiner map (or a stream of its pairs) into ``merged``.

    Without a ``combine_fn`` values are lists: a known key's list is
    extended, a new key gets a copy (``m`` may still belong to the
    caller).  With one, each partial folds into the accumulator at once —
    ``key -> folded value``, no per-key list, nothing allocated per key.
    Licensed by the combiner contract (the engine may pre-combine across
    any grouping of chunks).  A left fold in ``m`` order, so folding maps
    one by one equals a left reduce over each key's partials.  The
    hot (existing-key) path is a bare ``try``/``except`` dict probe, and
    ``operator.add`` combiners fold with the inline ``+`` operator
    instead of a call per key.
    """
    items = m.items() if isinstance(m, dict) else m
    if combine_fn is None:
        for key, values in items:
            try:
                bucket = merged[key]
            except KeyError:
                merged[key] = list(values)  # type: ignore[call-overload]
            else:
                bucket.extend(values)  # type: ignore[attr-defined]
    elif combine_fn is operator.add:
        for key, value in items:
            try:
                old = merged[key]
            except KeyError:
                merged[key] = value
            else:
                merged[key] = old + value
    else:
        for key, value in items:
            try:
                old = merged[key]
            except KeyError:
                merged[key] = value
            else:
                merged[key] = combine_fn(old, value)


def decorate_sorted(
    items: dict | _t.Iterable[tuple[object, object]],
    cache: KeyCache | None = None,
) -> list[Entry]:
    """The single sort: decorated ``(sort_key, key, value)`` entries.

    This is the only place the shuffle calls ``repr``; on the merged map
    every key is distinct, so each is repr'd exactly once.  The sort
    compares only the precomputed strings, and downstream stages reuse
    them — nothing after this point sorts or reprs again.
    """
    pairs = items.items() if isinstance(items, dict) else items
    if cache is None:
        entries = [(repr(k), k, v) for k, v in pairs]
    else:
        sort_key = cache.sort_key
        entries = [(sort_key(k), k, v) for k, v in pairs]
    entries.sort(key=_SORT_KEY)
    return entries


def partition_decorated(
    entries: _t.Iterable[Entry], n_buckets: int
) -> list[list[Entry]]:
    """Spread decorated entries over reduce buckets.

    The bucket hash is ``zlib.crc32`` of the already-computed sort-key
    bytes — O(1)-ish per key, no second ``repr``.  Each bucket preserves
    the input's sorted order, so per-bucket reduce outputs are sorted runs
    ready for :func:`merge_entry_runs`.
    """
    buckets: list[list[Entry]] = [[] for _ in range(max(1, n_buckets))]
    n = len(buckets)
    crc32 = zlib.crc32
    for entry in entries:
        h = crc32(entry[0].encode("utf-8", "backslashreplace"))
        buckets[h % n].append(entry)
    return buckets


def merge_entry_runs(runs: _t.Iterable[list[Entry]]) -> list[Entry]:
    """Eager k-way merge of sorted entry runs — no global re-sort cost.

    Timsort detects the concatenated natural runs and gallops through
    them, so this is a C-speed merge; comparisons touch only the
    precomputed sort keys.
    """
    out = [e for run in runs for e in run]
    out.sort(key=_SORT_KEY)
    return out


def merge_decorated_runs(runs: _t.Iterable[_t.Iterable[Entry]]) -> _t.Iterator[Entry]:
    """Lazy k-way heap merge of sorted entry runs.

    Constant memory in the number of runs: the streaming counterpart of
    :func:`merge_entry_runs` for consumers that cannot materialize all
    runs at once (the out-of-core engine streams spilled fragment runs
    through this).  Hand-rolled rather than ``heapq.merge(key=...)``: the
    stdlib version layers a generator and a key-wrapper per element,
    which measures ~2x slower on the spill-merge path.  Heap items carry
    the run index, so equal sort keys pop in run order (stability the
    cross-run value-list fold relies on) and comparisons never reach the
    (possibly uncomparable) raw entries.
    """
    heap: list[tuple] = []
    for i, run in enumerate(runs):
        it = iter(run)
        for entry in it:
            heap.append((entry[0], i, entry, it))
            break
    heapq.heapify(heap)
    heapreplace, heappop = heapq.heapreplace, heapq.heappop
    while heap:
        _skey, i, entry, it = heap[0]
        yield entry
        for nxt in it:
            heapreplace(heap, (nxt[0], i, nxt, it))
            break
        else:
            heappop(heap)


def sort_by_value_desc(items: list, decorated: bool = False) -> list:
    """Frequency-descending output order, tie-broken on the sort key.

    Sorts ``items`` in place and returns it: ``(key, value)`` pairs, or
    with ``decorated`` ``(sort_key, key, value)`` entries, whose cached
    sort key spares the ``repr``.  The order is the seed's composite key
    ``(-_as_num(value), repr(key))`` applied to the items in sort-key
    order.  A stable sort-key pass comes first.  When every value is a
    plain number, one stable value-descending pass with a C-speed
    itemgetter key (``reverse=True`` preserves the order of equal
    elements) then equals the composite key without a Python-level key
    lambda allocating a tuple per item.  Any other value type sorts on
    the composite key itself: :func:`_as_num` treats non-numbers as equal
    (and parses numeric strings!), which direct comparison would not
    reproduce.
    """
    if decorated:
        sort_key, value = _SORT_KEY, _VALUE_KEY
    else:
        sort_key, value = _REPR_KEY, _PAIR_VALUE
    items.sort(key=sort_key)
    if all(type(v) is int or type(v) is float for v in map(value, items)):
        items.sort(key=value, reverse=True)
    else:
        items.sort(key=lambda item: (-_as_num(value(item)), sort_key(item)))
    return items


def undecorate(entries: _t.Iterable[Entry]) -> list[tuple[object, object]]:
    """Strip the cached sort keys back off: plain (key, value) pairs."""
    return [(key, value) for _, key, value in entries]


def shuffle_parallel(
    combiner_maps: _t.Sequence[dict],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    needs_sort: bool,
    sort_output: bool,
    n_buckets: int,
    params: dict,
) -> list[tuple[object, object]]:
    """The whole Phoenix-shaped shuffle as one pure function.

    :class:`~repro.phoenix.runtime.PhoenixRuntime` runs these exact stages
    interleaved with simulated cost charging; this composition exists so
    benchmarks and equivalence tests exercise the identical dataflow
    without a simulator.
    """
    entries: list[Entry] | None = None
    if needs_sort or reduce_fn is not None:
        entries = decorate_sorted(merge_combiner_maps(combiner_maps, combine_fn))
    if reduce_fn is not None:
        assert entries is not None
        buckets = partition_decorated(entries, n_buckets)
        parts = [
            [(skey, key, reduce_fn(key, values, params)) for skey, key, values in b]
            for b in buckets
        ]
        if sort_output:
            # the value sort orders by sort key first, so the key-order
            # merge would be wasted work
            return undecorate(
                sort_by_value_desc([e for part in parts for e in part], decorated=True)
            )
        return undecorate(merge_entry_runs(parts))
    if entries is None:
        # no sort, no reduce: the per-worker sorted runs, flattened in
        # worker order (what the seed pipeline emitted for this case);
        # the cache keeps keys recurring across workers at one repr each
        cache = KeyCache()
        entries = [e for m in combiner_maps for e in decorate_sorted(m, cache)]
    if sort_output:
        entries = sort_by_value_desc(entries, decorated=True)
    return undecorate(entries)


def local_merge_maps(
    maps: _t.Sequence[dict],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Parent-side shuffle of a list of worker maps (the frozen seed engine's).

    Workers ship their raw combiner maps (smaller IPC than decorated
    runs).  With a reducer, it sees each key's per-map partial list, as
    the seed's did; without one the maps left-fold in map order, which
    for a combiner is exactly the seed's left reduce over those partials.
    Either way the shared finalize pays one ``repr`` per distinct key —
    repr'ing in the workers would cost one per key per *chunk*, which
    measures slower even before pickling the extra strings.
    """
    if reduce_fn is not None:
        return finalize_folded_map(
            merge_combiner_maps(maps, combine_fn), None, reduce_fn,
            sort_output, params,
        )
    merged: dict = {}
    for m in maps:
        fold_map_into(merged, m, combine_fn)
    return finalize_folded_map(merged, combine_fn, None, sort_output, params)


def finalize_folded_map(
    merged: dict | _t.Iterable[tuple[object, object]],
    combine_fn: _t.Callable[[object, object], object] | None,
    reduce_fn: _t.Callable[[object, list, dict], object] | None,
    sort_output: bool,
    params: dict,
) -> list[tuple[object, object]]:
    """Reduce and order a folded ``key -> value`` map: the job's output.

    ``merged`` is the folded map, or a stream of its distinct pairs (the
    out-of-core merge reduces each key as its stream drains).  With a
    ``combine_fn`` each key's combine is complete, so ``reduce_fn``
    (whose contract must tolerate any pre-combining once a combiner is
    declared) receives the single folded value ``[v]``; without one it
    receives the key's value list.  Without a reducer the folded values
    are the output.

    Reduce first, then order in place: nothing downstream reuses a sort
    key, so plain ``(key, value)`` pairs are sorted — one stable
    ``repr``-order pass (the key order every decorated path produces), or
    for ``sort_output`` the value-descending order of
    :func:`sort_by_value_desc`.
    """
    items = merged.items() if isinstance(merged, dict) else merged
    if reduce_fn is None:
        out = list(items)
    elif combine_fn is None:
        out = [(k, reduce_fn(k, vs, params)) for k, vs in items]  # type: ignore[arg-type]
    else:
        out = [(k, reduce_fn(k, [v], params)) for k, v in items]
    if sort_output:
        return sort_by_value_desc(out)
    out.sort(key=_REPR_KEY)
    return out


def _as_num(v: object) -> float:
    try:
        return float(v)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return 0.0
