"""Scatter-gather across multiple McSD nodes (Section VI future work).

"Perhaps the most exciting future work lies in exploring ... (2) the
parallelisms among multiple McSD smart disks."  With the dataset sharded
across ``n`` storage nodes, the host invokes the same preloaded module on
every node concurrently (each over its own smartFAM channel, against its
local shard) and merges the per-shard outputs with the application's
user merge function — MapReduce one level up.
"""

from __future__ import annotations

import dataclasses
import typing as _t

from repro.apps import spec_for_app
from repro.core.job import JobResult
from repro.errors import OffloadError
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = ["Shard", "ScatterJob", "ScatterGatherEngine"]


@dataclasses.dataclass(frozen=True)
class Shard:
    """One piece of a sharded dataset: which SD node holds which bytes."""

    sd_node: str
    path: str
    size: int


@dataclasses.dataclass
class ScatterJob:
    """A data-intensive job over a dataset sharded across SD nodes."""

    app: str
    shards: list[Shard]
    mode: str = "partitioned"
    fragment_bytes: int | None = None
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.shards:
            raise OffloadError("scatter job needs at least one shard")

    @property
    def total_size(self) -> int:
        """Declared bytes across all shards."""
        return sum(s.size for s in self.shards)


@dataclasses.dataclass
class ScatterResult:
    """Outcome of a scatter-gather run."""

    app: str
    output: object
    elapsed: float
    shard_results: list[JobResult]

    @property
    def n_shards(self) -> int:
        """Number of shards processed."""
        return len(self.shard_results)


class ScatterGatherEngine:
    """Fan a job out over the shards' home SD nodes, gather and merge."""

    def __init__(self, cluster: "BuiltCluster"):
        self.cluster = cluster
        self.sim = cluster.sim

    def run(self, job: ScatterJob) -> Event:
        """Run ``job``; the Process value is a :class:`ScatterResult`."""
        return self.sim.spawn(self._run(job), name=f"scatter:{job.app}")

    def _run(self, job: ScatterJob) -> _t.Generator:
        sd_names = {n.name for n in self.cluster.sd_nodes}
        for shard in job.shards:
            if shard.sd_node not in sd_names:
                raise OffloadError(f"shard on unknown SD node {shard.sd_node!r}")
        t0 = self.sim.now

        def one(shard: Shard) -> _t.Generator:
            channel = self.cluster.host_channels[shard.sd_node]
            params = {
                "input_path": shard.path,
                "input_size": shard.size,
                "mode": job.mode,
                "app": dict(job.params),
            }
            if job.mode == "partitioned":
                params["fragment_bytes"] = job.fragment_bytes
            s0 = self.sim.now
            result = yield channel.invoke(job.app, params)
            return JobResult(
                name=f"{job.app}@{shard.sd_node}",
                where=shard.sd_node,
                elapsed=self.sim.now - s0,
                output=getattr(result, "output", result),
                offloaded=True,
            )

        procs = [
            self.sim.spawn(one(shard), name=f"scatter:{job.app}:{shard.sd_node}")
            for shard in job.shards
        ]
        gathered = yield self.sim.all_of(procs)
        shard_results = [gathered[p] for p in procs]

        # Gather: merge per-shard outputs with the app's own merge function
        # (the same user code Fig 6 requires), charged to the host CPU.
        spec = spec_for_app(job.app, job.params)
        merge_ops = spec.profile.merge_ops(job.total_size)
        if len(shard_results) > 1 and merge_ops > 0:
            yield self.cluster.host.cpu.submit(merge_ops, name=f"{job.app}.gather")
        outputs = [r.output for r in shard_results]
        if len(outputs) == 1:
            merged = outputs[0]
        elif spec.merge_fn is not None:
            merged = spec.merge_fn(outputs, dict(job.params))
        else:
            merged = outputs
        return ScatterResult(
            app=job.app,
            output=merged,
            elapsed=self.sim.now - t0,
            shard_results=shard_results,
        )
