"""The distributed engine's exact simulated schedule, pinned.

The simulation is deterministic, so a refactor of
:class:`~repro.core.DistributedEngine` that keeps its behaviour keeps
every number below: completion times, the phase timeline, shuffle bytes
and transfers, reduce owners, the merge node, shard placement, attempts,
the recovery ledger and the engine's span names.  Wordcount (exchange),
stringmatch (map-only) and matmul (split payload) run at widths 1, 2
and 4; two recovery scenarios pin a mid-exchange node kill and a
corrupted shuffle artifact.  Times are rounded to 9 decimals.
"""

from __future__ import annotations

import collections

import pytest

from repro.apps.matmul import matmul_input
from repro.cluster.testbed import Testbed
from repro.config import table1_cluster
from repro.core import DistributedEngine, DistributedJob
from repro.faults import recovery_chaos_plan
from repro.units import MB
from repro.workloads import text_input

_SIZE = MB(20)
_TIMEOUT = 3600.0


def _bed():
    return Testbed(config=table1_cluster(n_sd=4, seed=0), seed=0)


def _stage(bed, app):
    if app == "matmul":
        inp = matmul_input("/data/m", 128, payload_n=16, seed=1)
        _, sd_path = bed.stage_replicated("m", inp)
        return DistributedJob(
            app=app, input_path=sd_path, input_size=inp.size,
            params={"n": 128},
        )
    inp = text_input("/data/d", _SIZE, payload_bytes=6_000, seed=5)
    _, sd_path = bed.stage_replicated("d", inp)
    return DistributedJob(
        app=app, input_path=sd_path, input_size=_SIZE,
        fragment_bytes=(_SIZE + 3) // 4,
    )


def _r(x: float) -> float:
    return round(x, 9)


def _snapshot(bed, res) -> dict:
    spans = collections.Counter(
        s.name for s in bed.sim.obs.spans if s.cat == "dist"
    )
    rec = dict(res.recovery)
    rec["failures"] = [dict(f) for f in rec["failures"]]
    return {
        "elapsed": _r(res.elapsed),
        "timeline": {k: _r(v) for k, v in res.timeline.items()},
        "shuffle_bytes": res.shuffle_bytes,
        "shuffle_transfers": res.shuffle_transfers,
        "reduce_nodes": dict(res.reduce_nodes),
        "merge_node": res.merge_node,
        "shard_nodes": list(res.shard_nodes),
        "attempts": res.attempts,
        "recovery": rec,
        "spans": dict(sorted(spans.items())),
    }


def _run_width(app: str, width: int) -> dict:
    bed = _bed()
    job = _stage(bed, app)
    job.n_shards = width
    res = bed.run(DistributedEngine(bed.cluster).run(job, timeout=_TIMEOUT))
    return _snapshot(bed, res)


def _run_kill_at_exchange() -> dict:
    """test_kill_at_exchange_partial_restart's scenario."""
    bed = _bed()
    clean = bed.run(
        DistributedEngine(bed.cluster).run(_stage(bed, "wordcount"), timeout=_TIMEOUT)
    )
    victims = [n for n in clean.reduce_nodes.values() if n != clean.merge_node]
    victim = victims[0] if victims else clean.merge_node
    kill_at = (clean.timeline["map_done"] + clean.timeline["exchange_done"]) / 2

    bed = _bed()
    job = _stage(bed, "wordcount")

    def killer():
        yield bed.sim.timeout(kill_at)
        bed.cluster.sd_daemons[victim].kill()

    bed.sim.spawn(killer(), name="killer")
    res = bed.run(DistributedEngine(bed.cluster).run(job, timeout=5.0))
    return _snapshot(bed, res)


def _run_corrupted_artifact() -> dict:
    """test_corrupted_artifact_rebuilt_in_place's scenario."""
    bed = _bed()
    job = _stage(bed, "wordcount")
    bed.sim.install_faults(recovery_chaos_plan(0))
    res = bed.run(DistributedEngine(bed.cluster).run(job, timeout=_TIMEOUT))
    return _snapshot(bed, res)


def _run(case: str) -> dict:
    if case == "kill-at-exchange":
        return _run_kill_at_exchange()
    if case == "corrupted-artifact":
        return _run_corrupted_artifact()
    app, width = case.split("-x")
    return _run_width(app, int(width))


CASES = [
    f"{app}-x{w}" for app in ("wordcount", "stringmatch", "matmul") for w in (1, 2, 4)
] + ["kill-at-exchange", "corrupted-artifact"]

PINNED: dict = {"wordcount-x1": {"elapsed": 0.84123109,
                  "timeline": {"started": 0.0,
                               "map_done": 0.632798472,
                               "exchange_done": 0.632798472,
                               "reduce_done": 0.758346632,
                               "merge_done": 0.84123109},
                  "shuffle_bytes": 0,
                  "shuffle_transfers": 0,
                  "reduce_nodes": {0: "sd0"},
                  "merge_node": "sd0",
                  "shard_nodes": ["sd0"],
                  "attempts": 1,
                  "recovery": {"partial_restarts": 0,
                               "full_restarts": 0,
                               "dedup_transfers": 0,
                               "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                               "failures": []},
                  "spans": {"dist.job": 1,
                            "dist.map": 1,
                            "dist.map.local": 1,
                            "dist.merge": 1,
                            "dist.merge.local": 1,
                            "dist.plan": 1,
                            "dist.reduce": 1,
                            "dist.reduce.local": 1,
                            "dist.shard": 3,
                            "dist.sort": 1,
                            "dist.spill": 1,
                            "shuffle.exchange": 1}},
 "wordcount-x2": {"elapsed": 0.669564919,
                  "timeline": {"started": 0.0,
                               "map_done": 0.376623936,
                               "exchange_done": 0.396095953,
                               "reduce_done": 0.521678929,
                               "merge_done": 0.669564919},
                  "shuffle_bytes": 388518,
                  "shuffle_transfers": 3,
                  "reduce_nodes": {0: "sd1", 1: "sd0"},
                  "merge_node": "sd0",
                  "shard_nodes": ["sd0", "sd1"],
                  "attempts": 1,
                  "recovery": {"partial_restarts": 0,
                               "full_restarts": 0,
                               "dedup_transfers": 0,
                               "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                               "failures": []},
                  "spans": {"dist.job": 1,
                            "dist.map": 1,
                            "dist.map.local": 2,
                            "dist.merge": 1,
                            "dist.merge.local": 1,
                            "dist.plan": 1,
                            "dist.reduce": 1,
                            "dist.reduce.local": 2,
                            "dist.shard": 5,
                            "dist.sort": 2,
                            "dist.spill": 2,
                            "shuffle.exchange": 1,
                            "shuffle.gather": 1}},
 "wordcount-x4": {"elapsed": 0.62013023,
                  "timeline": {"started": 0.0,
                               "map_done": 0.226202836,
                               "exchange_done": 0.291850827,
                               "reduce_done": 0.467607179,
                               "merge_done": 0.62013023},
                  "shuffle_bytes": 440491,
                  "shuffle_transfers": 14,
                  "reduce_nodes": {0: "sd2", 1: "sd2", 2: "sd3", 3: "sd0"},
                  "merge_node": "sd2",
                  "shard_nodes": ["sd0", "sd1", "sd2", "sd3"],
                  "attempts": 1,
                  "recovery": {"partial_restarts": 0,
                               "full_restarts": 0,
                               "dedup_transfers": 0,
                               "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                               "failures": []},
                  "spans": {"dist.job": 1,
                            "dist.map": 1,
                            "dist.map.local": 4,
                            "dist.merge": 1,
                            "dist.merge.local": 1,
                            "dist.plan": 1,
                            "dist.reduce": 1,
                            "dist.reduce.local": 3,
                            "dist.shard": 8,
                            "dist.sort": 4,
                            "dist.spill": 4,
                            "shuffle.exchange": 1,
                            "shuffle.gather": 1}},
 "stringmatch-x1": {"elapsed": 0.506580431,
                    "timeline": {"started": 0.0,
                                 "map_done": 0.381032271,
                                 "exchange_done": 0.381032271,
                                 "reduce_done": 0.381032271,
                                 "merge_done": 0.506580431},
                    "shuffle_bytes": 0,
                    "shuffle_transfers": 0,
                    "reduce_nodes": {},
                    "merge_node": "sd0",
                    "shard_nodes": ["sd0"],
                    "attempts": 1,
                    "recovery": {"partial_restarts": 0,
                                 "full_restarts": 0,
                                 "dedup_transfers": 0,
                                 "speculation": {"launched": 0,
                                                 "won": 0,
                                                 "cancelled": 0},
                                 "failures": []},
                    "spans": {"dist.job": 1,
                              "dist.map": 1,
                              "dist.map.local": 1,
                              "dist.merge": 1,
                              "dist.merge.local": 1,
                              "dist.plan": 1,
                              "dist.shard": 2,
                              "shuffle.exchange": 1}},
 "stringmatch-x2": {"elapsed": 0.37667252,
                    "timeline": {"started": 0.0,
                                 "map_done": 0.22599936,
                                 "exchange_done": 0.25112436,
                                 "reduce_done": 0.25112436,
                                 "merge_done": 0.37667252},
                    "shuffle_bytes": 50000,
                    "shuffle_transfers": 2,
                    "reduce_nodes": {},
                    "merge_node": "sd0",
                    "shard_nodes": ["sd0", "sd1"],
                    "attempts": 1,
                    "recovery": {"partial_restarts": 0,
                                 "full_restarts": 0,
                                 "dedup_transfers": 0,
                                 "speculation": {"launched": 0,
                                                 "won": 0,
                                                 "cancelled": 0},
                                 "failures": []},
                    "spans": {"dist.job": 1,
                              "dist.map": 1,
                              "dist.map.local": 2,
                              "dist.merge": 1,
                              "dist.merge.local": 1,
                              "dist.plan": 1,
                              "dist.shard": 3,
                              "shuffle.exchange": 1}},
 "stringmatch-x4": {"elapsed": 0.292075902,
                    "timeline": {"started": 0.0,
                                 "map_done": 0.133194409,
                                 "exchange_done": 0.166527742,
                                 "reduce_done": 0.166527742,
                                 "merge_done": 0.292075902},
                    "shuffle_bytes": 75000,
                    "shuffle_transfers": 3,
                    "reduce_nodes": {},
                    "merge_node": "sd0",
                    "shard_nodes": ["sd0", "sd1", "sd2", "sd3"],
                    "attempts": 1,
                    "recovery": {"partial_restarts": 0,
                                 "full_restarts": 0,
                                 "dedup_transfers": 0,
                                 "speculation": {"launched": 0,
                                                 "won": 0,
                                                 "cancelled": 0},
                                 "failures": []},
                    "spans": {"dist.job": 1,
                              "dist.map": 1,
                              "dist.map.local": 4,
                              "dist.merge": 1,
                              "dist.merge.local": 1,
                              "dist.plan": 1,
                              "dist.shard": 5,
                              "shuffle.exchange": 1}},
 "matmul-x1": {"elapsed": 0.226019904,
               "timeline": {"started": 0.0,
                            "map_done": 0.075339968,
                            "exchange_done": 0.075339968,
                            "reduce_done": 0.150679936,
                            "merge_done": 0.226019904},
               "shuffle_bytes": 0,
               "shuffle_transfers": 0,
               "reduce_nodes": {0: "sd0"},
               "merge_node": "sd0",
               "shard_nodes": ["sd0"],
               "attempts": 1,
               "recovery": {"partial_restarts": 0,
                            "full_restarts": 0,
                            "dedup_transfers": 0,
                            "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                            "failures": []},
               "spans": {"dist.job": 1,
                         "dist.map": 1,
                         "dist.map.local": 1,
                         "dist.merge": 1,
                         "dist.merge.local": 1,
                         "dist.plan": 1,
                         "dist.reduce": 1,
                         "dist.reduce.local": 1,
                         "dist.shard": 3,
                         "dist.sort": 1,
                         "dist.spill": 1,
                         "shuffle.exchange": 1}},
 "matmul-x2": {"elapsed": 0.262791424,
               "timeline": {"started": 0.0,
                            "map_done": 0.075891008,
                            "exchange_done": 0.093061429,
                            "reduce_done": 0.168679371,
                            "merge_done": 0.262791424},
               "shuffle_bytes": 98304,
               "shuffle_transfers": 3,
               "reduce_nodes": {0: "sd0", 1: "sd1"},
               "merge_node": "sd1",
               "shard_nodes": ["sd0", "sd1"],
               "attempts": 1,
               "recovery": {"partial_restarts": 0,
                            "full_restarts": 0,
                            "dedup_transfers": 0,
                            "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                            "failures": []},
               "spans": {"dist.job": 1,
                         "dist.map": 1,
                         "dist.map.local": 2,
                         "dist.merge": 1,
                         "dist.merge.local": 1,
                         "dist.plan": 1,
                         "dist.reduce": 1,
                         "dist.reduce.local": 2,
                         "dist.shard": 5,
                         "dist.sort": 2,
                         "dist.spill": 2,
                         "shuffle.exchange": 1,
                         "shuffle.gather": 1}},
 "matmul-x4": {"elapsed": 0.334154005,
               "timeline": {"started": 0.0,
                            "map_done": 0.075444416,
                            "exchange_done": 0.10021616,
                            "reduce_done": 0.183561035,
                            "merge_done": 0.334154005},
               "shuffle_bytes": 114688,
               "shuffle_transfers": 5,
               "reduce_nodes": {0: "sd1", 1: "sd0", 3: "sd2"},
               "merge_node": "sd0",
               "shard_nodes": ["sd0", "sd1", "sd2", "sd3"],
               "attempts": 1,
               "recovery": {"partial_restarts": 0,
                            "full_restarts": 0,
                            "dedup_transfers": 0,
                            "speculation": {"launched": 0, "won": 0, "cancelled": 0},
                            "failures": []},
               "spans": {"dist.job": 1,
                         "dist.map": 1,
                         "dist.map.local": 4,
                         "dist.merge": 1,
                         "dist.merge.local": 1,
                         "dist.plan": 1,
                         "dist.reduce": 1,
                         "dist.reduce.local": 3,
                         "dist.shard": 8,
                         "dist.sort": 4,
                         "dist.spill": 4,
                         "shuffle.exchange": 1,
                         "shuffle.gather": 1}},
 "kill-at-exchange": {"elapsed": 10.70359102,
                      "timeline": {"started": 0.0,
                                   "map_done": 0.226202836,
                                   "exchange_done": 10.424543459,
                                   "reduce_done": 10.550091619,
                                   "merge_done": 10.70359102},
                      "shuffle_bytes": 485064,
                      "shuffle_transfers": 17,
                      "reduce_nodes": {0: "sd2", 1: "sd2", 2: "sd0", 3: "sd0"},
                      "merge_node": "sd2",
                      "shard_nodes": ["sd0", "sd1", "sd2", "sd3"],
                      "attempts": 1,
                      "recovery": {"partial_restarts": 1,
                                   "full_restarts": 0,
                                   "dedup_transfers": 0,
                                   "speculation": {"launched": 0,
                                                   "won": 0,
                                                   "cancelled": 0},
                                   "failures": [{"node": "sd3",
                                                 "phase": "reduce",
                                                 "cause": "OffloadTimeoutError",
                                                 "attempt": 0,
                                                 "at": 10.391851}]},
                      "spans": {"dist.job": 1,
                                "dist.map": 1,
                                "dist.map.local": 4,
                                "dist.merge": 1,
                                "dist.merge.local": 1,
                                "dist.plan": 1,
                                "dist.reduce": 2,
                                "dist.reduce.local": 3,
                                "dist.shard": 9,
                                "dist.sort": 4,
                                "dist.spill": 4,
                                "shuffle.exchange": 2,
                                "shuffle.gather": 1}},
 "corrupted-artifact": {"elapsed": 1.121967453,
                        "timeline": {"started": 0.0,
                                     "map_done": 0.768495307,
                                     "exchange_done": 0.79368805,
                                     "reduce_done": 0.969444402,
                                     "merge_done": 1.121967453},
                        "shuffle_bytes": 491215,
                        "shuffle_transfers": 16,
                        "reduce_nodes": {0: "sd2", 1: "sd2", 2: "sd3", 3: "sd0"},
                        "merge_node": "sd2",
                        "shard_nodes": ["sd0", "sd1", "sd2", "sd3"],
                        "attempts": 1,
                        "recovery": {"partial_restarts": 1,
                                     "full_restarts": 0,
                                     "dedup_transfers": 4,
                                     "speculation": {"launched": 0,
                                                     "won": 0,
                                                     "cancelled": 0},
                                     "failures": [{"node": "sd2",
                                                   "phase": "reduce",
                                                   "cause": "ShuffleArtifactError",
                                                   "attempt": 0,
                                                   "at": 0.542531}]},
                        "spans": {"dist.job": 1,
                                  "dist.map": 2,
                                  "dist.map.local": 5,
                                  "dist.merge": 1,
                                  "dist.merge.local": 1,
                                  "dist.plan": 1,
                                  "dist.reduce": 2,
                                  "dist.reduce.local": 5,
                                  "dist.shard": 10,
                                  "dist.sort": 5,
                                  "dist.spill": 5,
                                  "shuffle.exchange": 2,
                                  "shuffle.gather": 1}}}


@pytest.mark.parametrize("case", CASES)
def test_distributed_schedule_is_pinned(case):
    assert _run(case) == PINNED[case]
