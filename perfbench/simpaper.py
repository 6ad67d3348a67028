"""The simulator workload: the paper's Fig 8-10 cells on the simulated
McSD testbed.

One op runs 16 cells at 1000 MB: for WC and SM, Fig 8's sequential,
original and partition-enabled Phoenix on the duo and quad SD platforms,
plus Fig 9/10's ``host-only`` and ``mcsd`` pairs.  All cells of an op
share one seed, so they generate the same input per app; every op takes a
fresh seed derived from the workload seed, so memoizing inside an op is a
real gain while caching across ops cannot fake one.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import os
import statistics
import time
import typing as _t

import measure
from repro.cluster import scenario
from repro.obs import Observability
from repro.obs.export import load_spans, write_chrome
from repro.units import MB

SIZE = MB(1000)
APPS = ("wordcount", "stringmatch")
PLATFORMS = ("duo", "quad")
APPROACHES = ("sequential", "parallel", "partitioned")
PAIRS = ("host-only", "mcsd")
N_CELLS = len(APPS) * (len(PLATFORMS) * len(APPROACHES) + len(PAIRS))

#: the Fig 8 cell whose real output is checked against a Counter
CHECKED_CELL = ("wordcount", "duo", "parallel")


def op_seed(seed: int, index: int) -> int:
    """A fresh simulator seed for op ``index`` of a run."""
    return (seed * 1_000_003 + index) % (2**31)


@contextlib.contextmanager
def phoenix_runs() -> _t.Iterator[list]:
    """Record ``(input, process)`` for each ``PhoenixRuntime.run`` that
    ``scenario`` starts while active, so that a cell's real output can be
    read once ``run_single_app`` has returned."""
    runs: list = []
    base = scenario.PhoenixRuntime

    class RecordedRuntime(base):  # type: ignore[misc, valid-type]
        def run(self, spec: object, input_spec: object, *args: object, **kwargs: object):
            proc = super().run(spec, input_spec, *args, **kwargs)
            runs.append((input_spec, proc))
            return proc

    scenario.PhoenixRuntime = RecordedRuntime
    try:
        yield runs
    finally:
        scenario.PhoenixRuntime = base


def _checked_wc_cell(seed: int) -> tuple[float | None, list[str]]:
    """:data:`CHECKED_CELL` through ``run_single_app``, returning its
    simulated seconds (None if unsupported) and any mismatch between the
    output of its ``PhoenixRuntime.run`` and ``Counter`` over its payload."""
    app, platform, approach = CHECKED_CELL
    with phoenix_runs() as runs:
        elapsed = scenario.run_single_app(app, SIZE, platform, approach, seed=seed).elapsed
    if elapsed is None:  # the paper-pattern check reports the unsupported cell
        return None, []
    if len(runs) != 1:
        return elapsed, [f"checked WC cell made {len(runs)} PhoenixRuntime.run calls, expected 1"]
    inp, proc = runs[0]
    if dict(proc.value.output) != collections.Counter(bytes(inp.payload).split()):
        return elapsed, ["checked WC cell output differs from Counter over its payload"]
    return elapsed, []


def run_op(seed: int) -> tuple[float, list[str]]:
    """One op: ``(simulated seconds summed over its cells, problems)``."""
    cells: dict[tuple, float | None] = {}
    problems: list[str] = []
    for app in APPS:
        for platform in PLATFORMS:
            for approach in APPROACHES:
                if (app, platform, approach) == CHECKED_CELL:
                    elapsed, wrong = _checked_wc_cell(seed)
                    problems += wrong
                else:
                    elapsed = scenario.run_single_app(
                        app, SIZE, platform, approach, seed=seed
                    ).elapsed
                cells[(app, platform, approach)] = elapsed
        for pair in PAIRS:
            cells[(app, pair)] = scenario.run_pair_scenario(
                pair, app, SIZE, seed=seed
            ).makespan
    problems += _paper_pattern(cells)
    return sum(v for v in cells.values() if v is not None), problems


def _paper_pattern(cells: dict[tuple, float | None]) -> list[str]:
    """The paper's supported/unsupported pattern and orderings at 1000 MB:
    every cell fits in memory, partition-enabled Phoenix beats sequential
    on both platforms, beats original Phoenix for WC (Fig 8), and the
    McSD pair beats host-only for both apps (Figs 9/10)."""
    unsupported = [key for key, v in cells.items() if v is None]
    if unsupported:
        return [f"cells unsupported at 1000 MB: {unsupported}"]
    problems = []
    for app in APPS:
        for platform in PLATFORMS:
            part = cells[(app, platform, "partitioned")]
            if not part < cells[(app, platform, "sequential")]:
                problems.append(f"{app}/{platform}: partitioned not faster than sequential")
            if app == "wordcount" and not part < cells[(app, platform, "parallel")]:
                problems.append(f"{app}/{platform}: partitioned not faster than original")
        if not cells[(app, "mcsd")] < cells[(app, "host-only")]:
            problems.append(f"{app}: mcsd pair not faster than host-only")
    return problems


def timed_op(tally: measure.Tally, seed: int) -> tuple[float, float, float | None]:
    """Run and check one op: ``(wall seconds, peak RSS MiB, simulated
    seconds)``, the last None if the op failed."""
    # each op starts from a collected heap, not from cycles earlier ops
    # left behind; the collection itself stays off the clock
    gc.collect()
    measure.reset_peak_rss()
    t0 = time.perf_counter()
    try:
        sim_s, problems = run_op(seed)
    except Exception as exc:  # a failed op is counted, and the run goes on
        sim_s, problems = None, [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - t0
    peak = measure.peak_rss_mib()
    return wall, peak, sim_s if tally.op(problems) else None


def warm_up(seed: int, index: int) -> None:
    """The op each cold set-up sample ends with; set-up ops are unchecked."""
    run_op(op_seed(seed, 10_000 + index))


@contextlib.contextmanager
def instrumented(obs: Observability) -> _t.Iterator[list]:
    """Span, from outside them, the layers an op passes through: payload
    generation, testbed construction and the event loop.  Spans are
    recorded only while ``obs`` is enabled.  Yields the list of testbeds
    built while it is active, for their event counts."""
    beds: list = []
    base = scenario.Testbed

    class SpannedTestbed(base):  # type: ignore[misc, valid-type]
        __test__ = False

        def __init__(self, *args: object, **kwargs: object) -> None:
            with obs.span("cluster.testbed", cat="bench", track="sim"):
                super().__init__(*args, **kwargs)
            beds.append(self)

        def run(self, *args: object, **kwargs: object) -> object:
            with obs.span("sim.run", cat="bench", track="sim"):
                return super().run(*args, **kwargs)

    def spanned(fn: _t.Callable) -> _t.Callable:
        def call(*args: object, **kwargs: object) -> object:
            with obs.span("workloads.gen", cat="bench", track="sim", fn=fn.__name__):
                return fn(*args, **kwargs)

        return call

    originals = {
        "Testbed": base,
        "make_data_app": scenario.make_data_app,
        "matmul_input": scenario.matmul_input,
    }
    scenario.Testbed = SpannedTestbed
    scenario.make_data_app = spanned(originals["make_data_app"])
    scenario.matmul_input = spanned(originals["matmul_input"])
    try:
        yield beds
    finally:
        for name, value in originals.items():
            setattr(scenario, name, value)


def run(seed: int, seconds: float, trace: bool, out_dir: str, setup: list[float]) -> dict:
    """``setup`` holds this run's cold set-up samples (empty when tracing)."""
    tally = measure.Tally()
    env = {"cells_per_op": N_CELLS, "cell_mb": SIZE / 1e6}
    if trace:
        metrics = _traced(seed, seconds, out_dir, tally, env)
    else:
        times: list[float] = []
        peaks: list[float] = []
        index = 0
        deadline = time.perf_counter() + seconds
        while True:
            wall, peak, sim_s = timed_op(tally, op_seed(seed, index))
            index += 1
            if sim_s is not None:
                times.append(wall)
                peaks.append(peak)
            if time.perf_counter() >= deadline:
                break
        op_s = statistics.median(times) if times else 0.0
        metrics = {
            "setup_s": statistics.median(setup),
            "input_mb_s": N_CELLS * SIZE / 1e6 / op_s if times else 0.0,
            "op_s_p50": op_s,
            "peak_rss_mib": statistics.median(peaks) if peaks else 0.0,
        }
        env["op_s"] = times
    return {"tally": tally, "metrics": metrics, "env": env}


def _traced(seed: int, seconds: float, out_dir: str, tally: measure.Tally, env: dict) -> dict:
    """Alternate untraced and traced ops (fresh seeds for each); per-layer
    values are medians over the traced ops, except the exact
    ``sim.events`` and ``sim_job_s``, which come from the first traced op
    so that they repeat bit for bit at a given workload seed, and
    ``sim_events_per_s``, which is taken over the untraced ops.  The
    layer wrappers stay in place throughout and record spans only while
    ``obs`` is enabled."""
    obs = Observability(enabled=False)
    untraced: list[float] = []
    traced: list[float] = []
    events_per_s: list[float] = []
    ops: list[dict] = []
    first: dict = {}
    index = 0
    deadline = time.perf_counter() + seconds
    with instrumented(obs) as beds:
        while True:
            beds.clear()
            wall, _peak, sim_s = timed_op(tally, op_seed(seed, index))
            untraced.append(wall)
            if sim_s is not None:
                events_per_s.append(sum(bed.sim.processed_events for bed in beds) / wall)
            beds.clear()
            obs.enabled = True
            mark = len(obs.spans)
            with obs.span("sim.op", cat="bench", track="sim"):
                wall, _peak, sim_s = timed_op(tally, op_seed(seed, index + 1))
            obs.enabled = False
            index += 2
            traced.append(wall)
            total: dict[str, float] = collections.defaultdict(float)
            for s in obs.spans.spans[mark:]:
                total[s.name] += s.wall_dur
            events = sum(bed.sim.processed_events for bed in beds)
            if not first:
                first = {"sim.events": events, "sim_job_s": sim_s or 0.0}
            run_s = total["sim.run"]
            ops.append(
                {
                    "workloads.gen_s": total["workloads.gen"],
                    "cluster.testbed_s": total["cluster.testbed"],
                    "sim.run_s": run_s,
                    # an op that fails before its first event loop has none
                    "sim.loop_events_per_s": events / run_s if run_s else 0.0,
                }
            )
            if time.perf_counter() >= deadline:
                break
        beds.clear()
    metrics = {name: statistics.median([op[name] for op in ops]) for name in ops[0]}
    metrics.update(first)
    metrics["sim_events_per_s"] = statistics.median(events_per_s) if events_per_s else 0.0
    metrics["obs.trace_overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1

    trace_path = os.path.join(out_dir, f"sim-paper-seed{seed}.trace.json")
    write_chrome(obs, trace_path, extra={"benchmark": {"workload": "sim-paper", "seed": seed}})
    loaded = sum(1 for s in load_spans(trace_path, run_id=obs.run_id) if s["name"] == "sim.op")
    if loaded != len(traced):
        tally.problems.append(f"trace export holds {loaded} ops, ran {len(traced)}")
    env.update(trace_file=trace_path, trace_ops=loaded)
    return metrics
