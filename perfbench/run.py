#!/usr/bin/env python3
"""The repository's benchmark: four workloads, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload wc-lowcard --seed 1 --seconds 20 --trace 0

``--trace 0`` times untraced ops and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced ops, prints the per-layer
ledger and writes a Chrome trace under ``perfbench/out/``.  Metric names,
units and workloads are declared in ``BENCHMARK.json``; what each one
measures is in ``perfbench/README.md``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Worker processes re-import this file, so everything below runs only
under the ``__main__`` guard and the top level imports stdlib modules
only.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import measure  # noqa: E402  (stdlib-only helpers beside this file)

REAL_WORKLOADS = ("wc-lowcard", "wc-highcard", "wc-spill")
WORKLOADS = REAL_WORKLOADS + ("sim-paper",)

#: cold set-ups per untraced sim run; ``setup_s`` is their median
SIM_COLD_STARTS = 6


def sim_setup_sample(seed: int, index: int, conn) -> None:
    """Child-process body: one cold simulator set-up, i.e. the imports
    plus one warm-up op, timed from before the first import."""
    t0 = time.perf_counter()
    import simpaper

    simpaper.warm_up(seed, index)
    conn.send(time.perf_counter() - t0)
    conn.close()


def _sim_cold_setup(seed: int, index: int) -> float:
    ctx = mp.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=sim_setup_sample, args=(seed, index, send))
    child.start()
    send.close()
    try:
        return recv.recv()
    finally:
        child.join()
        recv.close()


def run_sim(seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    t0 = time.perf_counter()
    import simpaper

    simpaper.warm_up(seed, 0)
    setup = [time.perf_counter() - t0]
    if not trace:
        setup += [_sim_cold_setup(seed, i) for i in range(1, SIM_COLD_STARTS)]
    return simpaper.run(seed, seconds, trace, out_dir, setup)


def _declared(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)[section]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace = bool(args.trace)

    try:
        if args.workload == "sim-paper":
            result = run_sim(args.seed, args.seconds, trace, out_dir)
        else:
            import realengine

            result = realengine.run(args.workload, args.seed, args.seconds, trace, out_dir)
    finally:
        measure.stop_helper_processes()
    tally, values = result["tally"], result["metrics"]

    env = measure.environment(ROOT, args.seed)
    env.update(workload=args.workload, trace=trace, **result["env"])
    print("environment: " + json.dumps(env, default=str))
    if not trace:
        op_s = env["op_s"]
        tail = measure.tail(op_s)
        if tail is None:
            print(f"op_s_tail: omitted, {len(op_s)} ops leave no percentile "
                  f"above the median with {measure.TAIL_BEYOND} ops beyond it")
        else:
            pct, value, beyond = tail
            print(f"op_s_tail: p{pct:.1f} = {value:.4f} s ({beyond} of {len(op_s)} ops beyond)")

    metrics = {}
    for spec in _declared("per_layer" if trace else "end_to_end"):
        # a layer the workload does not pass through reads 0
        value = values.pop(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:32s} {value:14.6g} {spec['unit']}")
    if values:
        print(f"error: undeclared metrics {sorted(values)}", file=sys.stderr)
        return 3
    for reason in tally.reasons + tally.problems:
        print(f"check failed: {reason}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
