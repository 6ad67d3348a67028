"""The three real-engine workloads: ``LocalMapReduce`` word count over a
generated file, one client, one job at a time (a closed loop).

Each run generates its input from the seed in a separate process, which
also computes the ``collections.Counter`` reference and hands back only
its digest: the driving process never holds the input or the reference,
so its peak RSS is the engine's own.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import gc
import json
import multiprocessing as mp
import operator
import os
import pickle
import statistics
import time
import typing as _t

import numpy as np

import measure
from repro.apps.wordcount import wc_map, wc_reduce
from repro.exec import LocalMapReduce, localmr, outofcore
from repro.exec.outofcore import live_spill_dirs
from repro.obs import Observability
from repro.obs.export import load_spans, phase_breakdown, write_chrome
from repro.workloads import zipf_corpus

#: cold starts per untraced run; ``setup_s`` is their median
COLD_STARTS = 6

#: parent-side layers must cover this share of a traced job's wall time
MIN_PARENT_COVERAGE = 0.90

#: bytes of input the single-process Counter floor counts
COUNTER_FLOOR_BYTES = 8_000_000

#: repeats of each same-run floor (the median is reported)
FLOOR_REPEATS = 3

MB = 1e6


def _fixed_width_words(ids: np.ndarray, width: int = 7) -> bytes:
    """Word id ``i`` as ``width`` base-26 lowercase letters, space
    separated, twelve words to a line; vectorized, because building a
    vocabulary word by word costs ~30 µs a word."""
    cells = np.empty((len(ids), width + 1), dtype=np.uint8)
    rest = ids.astype(np.int64)
    for col in range(width - 1, -1, -1):
        cells[:, col] = rest % 26 + ord("a")
        rest //= 26
    cells[:, width] = ord(" ")
    cells[11::12, width] = ord("\n")
    return cells.tobytes()


#: the ``zipf_corpus`` seed of the ``wc-lowcard`` text; the run seed
#: orders its lines (see :func:`lowcard_corpus`)
LOWCARD_TEXT_SEED = 0


def lowcard_corpus(seed: int, size: int = 48_000_000) -> bytes:
    """``size`` bytes of ``zipf_corpus`` text, its lines shuffled by
    ``seed``.  The text comes from one fixed seed, because the words a
    seed puts at the top ranks set how many words fill ``size`` bytes:
    from seed to seed that moved the op time by ~20%.  The corpus runs
    short of ``size`` (37-48 MB by seed), so it is repeated up to
    ``size`` and cut at a word.  Every seed thus gives the same bytes,
    words and keys in another order."""
    text = zipf_corpus(size, vocabulary=12_000, seed=LOWCARD_TEXT_SEED)
    tiled = text * -(-size // len(text))
    lines = tiled[:size].rsplit(None, 1)[0].split(b"\n")
    order = np.random.default_rng(seed).permutation(len(lines))
    return b"\n".join([lines[i] for i in order]) + b"\n"


def highcard_corpus(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    return _fixed_width_words(rng.integers(0, 3_000_000, size=1_500_000))


def spill_corpus(seed: int) -> bytes:
    rng = np.random.default_rng(seed)
    ranks = np.minimum(rng.zipf(1.1, size=2_000_000), 1_000_000) - 1
    return _fixed_width_words(ranks)


@dataclasses.dataclass(frozen=True)
class Regime:
    """One real-engine workload: its corpus and the mode it must run in."""

    corpus: _t.Callable[[int], bytes]
    memory_budget: int | None = None
    mode: str = "memory"
    min_fragments: int = 1


REGIMES = {
    # worker-bound: read + map fill most of worker time
    "wc-lowcard": Regime(lowcard_corpus),
    # parent-bound: fold + finalize of ~1.18M keys dominate the job
    "wc-highcard": Regime(highcard_corpus),
    # out of core: 8 fragments spilled and merged back
    "wc-spill": Regime(
        spill_corpus, memory_budget=2_000_000, mode="outofcore", min_fragments=8,
    ),
}


def reference_order(pair: tuple[bytes, int]) -> tuple[int, str]:
    """The engine's ``sort_output`` order: count descending, then key repr."""
    return -pair[1], repr(pair[0])


def make_input(workload: str, seed: int, path: str, ref_path: str) -> None:
    """Write the seeded corpus to ``path`` and its reference to ``ref_path``.

    Runs in a child process (see the module docstring).
    """
    data = REGIMES[workload].corpus(seed)
    with open(path, "wb") as f:
        f.write(data)
    counts = collections.Counter(data.split())
    expected = sorted(counts.items(), key=reference_order)
    with open(ref_path, "w") as f:
        json.dump(
            {
                "input_bytes": len(data),
                "distinct_keys": len(counts),
                "digest": measure.output_digest(expected),
            },
            f,
        )


def generate(workload: str, seed: int, path: str) -> dict:
    """Run :func:`make_input` in a spawned child; return the reference."""
    ref_path = path + ".ref.json"
    child = mp.get_context("spawn").Process(
        target=make_input, args=(workload, seed, path, ref_path),
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"input generation exited with {child.exitcode}")
    with open(ref_path) as f:
        ref = json.load(f)
    os.unlink(ref_path)
    return ref


def problems(regime: Regime, ref: dict, res) -> list[str]:
    """What is wrong with one finished job's result (empty if nothing)."""
    found = []
    if measure.output_digest(res.output) != ref["digest"]:
        found.append("output differs from the Counter reference")
    if res.mode != regime.mode:
        found.append(f"ran in mode {res.mode!r}, expected {regime.mode!r}")
    if res.n_fragments < regime.min_fragments:
        found.append(f"{res.n_fragments} fragments < {regime.min_fragments}")
    if regime.mode == "outofcore" and live_spill_dirs():
        found.append(f"spill dirs left behind: {live_spill_dirs()}")
    return found


def new_engine(regime: Regime, spill_dir: str, obs: Observability | None = None):
    return LocalMapReduce(
        map_fn=wc_map,
        reduce_fn=wc_reduce,
        combine_fn=operator.add,
        sort_output=True,
        n_workers=len(os.sched_getaffinity(0)),
        transport="auto",
        memory_budget=regime.memory_budget,
        spill_dir=spill_dir,
        obs=obs,
    )


class Job:
    """Runs checked jobs of one workload on an engine and tallies them."""

    def __init__(self, regime: Regime, ref: dict, path: str):
        self.regime = regime
        self.ref = ref
        self.path = path
        self.tally = measure.Tally()

    def __call__(self, engine) -> tuple[float, float, object] | None:
        """One checked job: ``(wall seconds, peak RSS MiB, result)``, or
        None if it raised."""
        # each op starts from a collected heap, not from cycles earlier
        # ops left behind; the collection itself stays off the clock
        gc.collect()
        measure.reset_peak_rss()
        t0 = time.perf_counter()
        try:
            res = engine.run(self.path)
        except Exception as exc:  # a failed op is counted, and the run goes on
            self.tally.op([f"{type(exc).__name__}: {exc}"])
            return None
        wall = time.perf_counter() - t0
        peak = measure.peak_rss_mib()
        self.tally.op(problems(self.regime, self.ref, res))
        return wall, peak, res


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    regime = REGIMES[workload]
    path = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}.txt")
    spill_dir = os.path.join(out_dir, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    try:
        job = Job(regime, generate(workload, seed, path), path)
        if trace:
            trace_path = os.path.join(out_dir, f"{workload}-seed{seed}.trace.json")
            metrics, env = _traced(job, seconds, spill_dir, trace_path)
        else:
            metrics, env = _untraced(job, seconds, spill_dir)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    env.update(input_bytes=job.ref["input_bytes"], distinct_keys=job.ref["distinct_keys"])
    return {"tally": job.tally, "metrics": metrics, "env": env}


def _engine_env(engine) -> dict:
    return {
        "n_workers": engine.n_workers,
        "start_method": engine.start_method,
        "transport": engine.pool.transport_name,
    }


def _untraced(job: Job, seconds: float, spill_dir: str) -> tuple[dict, dict]:
    setup: list[float] = []
    engine = None
    for _ in range(COLD_STARTS):
        if engine is not None:
            engine.close()
        t0 = time.perf_counter()
        engine = new_engine(job.regime, spill_dir)
        done = job(engine)
        setup.append(time.perf_counter() - t0)
        del done
    assert engine is not None
    times: list[float] = []
    peaks: list[float] = []
    try:
        env = _engine_env(engine)
        deadline = time.perf_counter() + seconds
        while True:
            done = job(engine)
            if done is not None:
                times.append(done[0])
                peaks.append(done[1])
            # drop the result before the next job builds its own
            del done
            if time.perf_counter() >= deadline:
                break
    finally:
        engine.close()
    op_s = statistics.median(times) if times else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "input_mb_s": job.ref["input_bytes"] / op_s / MB if times else 0.0,
        "op_s_p50": op_s,
        "peak_rss_mib": statistics.median(peaks) if peaks else 0.0,
    }
    env["op_s"] = times
    return metrics, env


#: parent-side calls the traced run spans from outside the engine, which
#: resolves each name from its module's globals per call
SPANNED_CALLS = (
    (localmr, "fold_map_into"),
    (localmr, "finalize_folded_map"),
    (outofcore, "decorate_sorted"),  # sorts each fragment's run before it spills
)


@contextlib.contextmanager
def spanned_calls(obs: Observability) -> _t.Iterator[None]:
    """Record a ``phoenix.sort.<name>`` span around each of
    :data:`SPANNED_CALLS` while ``obs`` is enabled."""
    originals = [(module, name, getattr(module, name)) for module, name in SPANNED_CALLS]

    def spanned(name: str, fn: _t.Callable) -> _t.Callable:
        span_name = f"phoenix.sort.{name}"

        def call(*args: object, **kwargs: object) -> object:
            with obs.span(span_name, cat="bench", track="localmr"):
                return fn(*args, **kwargs)

        return call

    for module, name, fn in originals:
        setattr(module, name, spanned(name, fn))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def _job_layers(spans: list, res, counters: dict, n_workers: int) -> dict:
    """Per-layer seconds, bytes and counts of one traced job."""
    total: dict[str, float] = collections.defaultdict(float)
    for s in spans:
        total[s.name] += s.wall_dur
    job_s = total["localmr.job"]
    outofcore = res.mode == "outofcore"
    fold = total["phoenix.sort.fold_map_into"]
    finalize = total["phoenix.sort.finalize_folded_map"]
    plan = total["localmr.chunk_plan"]
    wait = total["localmr.map_pool"] - fold
    spill = total["localmr.spill"]
    run_sort = total["phoenix.sort.decorate_sorted"]
    # in memory mode the localmr.merge span is the finalize pass
    merge = total["localmr.merge"] if outofcore else 0.0
    read, mapped = total["localmr.read_chunk"], total["localmr.map_chunk"]
    return {
        "exec.chunks.plan_s": plan,
        "exec.chunks.read_s": read,
        "apps.wordcount.map_s": mapped,
        "exec.pool.worker_busy_frac": (read + mapped) / (n_workers * job_s),
        "phoenix.sort.fold_s": fold,
        "phoenix.sort.finalize_s": finalize,
        "exec.pool.parent_wait_s": wait,
        "exec.pool.transport_bytes": counters.get("transport.bytes", 0),
        "exec.pool.transport_fallbacks": counters.get("transport.fallback", 0),
        "exec.outofcore.fragments": res.n_fragments if outofcore else 0,
        "exec.outofcore.sort_s": run_sort,
        "exec.outofcore.spill_s": spill,
        "exec.outofcore.spill_bytes": res.spilled_bytes,
        "exec.outofcore.merge_s": merge,
        "obs.parent_coverage_frac": (
            plan + wait + fold + finalize + run_sort + spill + merge
        ) / job_s,
    }


def _floors(path: str, output: list) -> dict:
    """Same-run floors: raw pread bandwidth, a single-process Counter,
    and a pickle round trip of the job's result map (all MB/s)."""
    pread, counter, pickled = [], [], []
    size = os.path.getsize(path)
    fd = os.open(path, os.O_RDONLY)
    try:
        block = 1 << 20
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            for off in range(0, size, block):
                os.pread(fd, block, off)
            pread.append(size / (time.perf_counter() - t0) / MB)
        head = os.pread(fd, COUNTER_FLOOR_BYTES, 0)
    finally:
        os.close(fd)
    if len(head) < size:
        head = head[: head.rfind(b" ")]
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        collections.Counter(head.split())
        counter.append(len(head) / (time.perf_counter() - t0) / MB)
    result_map = dict(output)
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        blob = pickle.dumps(result_map, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(blob)
        pickled.append(len(blob) / (time.perf_counter() - t0) / MB)
    return {
        "floor.pread_mb_s": statistics.median(pread),
        "floor.counter_mb_s": statistics.median(counter),
        "floor.pickle_mb_s": statistics.median(pickled),
    }


def _traced(job: Job, seconds: float, spill_dir: str, trace_path: str) -> tuple[dict, dict]:
    """Alternate untraced and traced jobs on one warm engine; per-layer
    values are medians over the traced jobs, and the untraced ones give
    the tracing overhead and the efficiency ratio's numerator."""
    obs = Observability(enabled=False)
    engine = new_engine(job.regime, spill_dir, obs=obs)
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    last_output: list = []
    try:
        with spanned_calls(obs):
            done = job(engine)
            del done
            env = _engine_env(engine)
            deadline = time.perf_counter() + seconds
            while True:
                obs.enabled = False
                done = job(engine)
                if done is not None:
                    untraced.append(done[0])
                del done
                obs.enabled = True
                mark = len(obs.spans)
                before = collections.Counter(obs.metrics.counters)
                done = job(engine)
                obs.enabled = False
                if done is not None:
                    wall, _peak, res = done
                    traced.append(wall)
                    counters = collections.Counter(obs.metrics.counters)
                    counters.subtract(before)
                    layers.append(
                        _job_layers(obs.spans.spans[mark:], res, counters, engine.n_workers)
                    )
                    last_output = res.output
                del done
                if time.perf_counter() >= deadline:
                    break
    finally:
        engine.close()

    metrics = {}
    if layers:
        metrics = {name: statistics.median([one[name] for one in layers]) for name in layers[0]}
    rss = [ts.maximum() for name, ts in obs.series.items() if name.endswith(".rss_kib")]
    metrics["exec.pool.worker_rss_mib"] = max(rss) / 1024 if rss else 0.0
    metrics.update(_floors(job.path, last_output))
    if untraced and traced:
        untraced_s = statistics.median(untraced)
        metrics["obs.trace_overhead_frac"] = statistics.median(traced) / untraced_s - 1
        metrics["eff.counter"] = job.ref["input_bytes"] / untraced_s / MB / (
            metrics["floor.counter_mb_s"] * min(engine.n_workers, os.cpu_count() or 1)
        )

    write_chrome(obs, trace_path, extra={"benchmark": env})
    loaded = load_spans(trace_path, run_id=obs.run_id)
    jobs_loaded = sum(1 for s in loaded if s["name"] == "localmr.job")
    breakdown = phase_breakdown(loaded, root_name="localmr.job")
    env.update(
        trace_file=trace_path,
        trace_jobs=jobs_loaded,
        trace_phases={row["name"]: round(row["pct"], 1) for row in breakdown["phases"]},
    )
    if jobs_loaded != len(traced):
        job.tally.problems.append(f"trace export holds {jobs_loaded} jobs, ran {len(traced)}")
    coverage = metrics.get("obs.parent_coverage_frac", 0.0)
    if coverage < MIN_PARENT_COVERAGE:
        job.tally.problems.append(f"parent-side layers cover {coverage:.1%} of the traced job")
    return metrics, env
