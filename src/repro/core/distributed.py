"""Distributed single-job execution: one job sharded across N McSD nodes.

The scale-out the paper leaves as future work ("the parallelisms among
multiple McSD smart disks", Section VI), following the independent
blocks-per-node model: the input is staged *replicated* on every SD node
(:meth:`~repro.cluster.testbed.Testbed.stage_replicated`), so any subset
of nodes can run any subset of the work — which is also what makes
fine-grained recovery on the survivors possible after a shard node dies.

Each attempt starts with a **plan**: the host peeks the replica payload
(content never leaves the SD; the planner needs only boundaries), cuts
the declared input into integrity-checked fragments
(:func:`~repro.partition.partitioner.plan_fragments`, the Fig 7 check)
and assigns contiguous fragment runs to shard nodes.  A pass then runs
five phase steps over one shared attempt state:

1. **map** — every shard node maps and combines its fragments
   (``dist_map``) and persists the output as crc32-framed shuffle
   artifacts under ``/export/shuffle/<job>/``: buckets partitioned by
   the crc32 shuffle hash (:func:`~repro.phoenix.sort.partition_decorated`)
   for reduce apps, one part per fragment for map-only apps.  A
   straggling shard gets a *speculative duplicate* on a spare replica
   (:class:`SpeculationPolicy`); the first result wins;
2. **exchange** — each partition's buckets move to its reduce owner;
3. **reduce** — each owner reduces its partitions (``dist_reduce``);
4. **gather** — the merge inputs move to the merge node: the reduced
   partitions, or, for a map-only app (String Match, which skips exchange
   and reduce), the per-fragment outputs in global fragment order;
5. **merge** — ``dist_merge`` applies the user merge function there and
   returns the final output.

**One owner rule** places every reduce and the merge: the live node
already holding the most bytes of the pieces (ties to the lower
candidate rank; with none live, the lowest-rank survivor).  **One move
step** ships the other pieces across the simulated fabric
(``kind="shuffle"``, fault site ``shuffle.exchange``) and skips every
copy the manifest already holds (``dist.transfer.dedup``).

**One failure contract** drives recovery.  Every durable intermediate is
registered in a per-attempt :class:`~repro.core.artifacts.AttemptManifest`.
A step that can pin a failure on a node commits every success, then
raises it; the engine invalidates only what that node held (or just the
corrupt artifact), reassigns the node's shards to survivors and runs
another pass, which redoes exactly the missing work.  Anything else — a
transfer out of retries, an exhausted pass or rebuild budget, no
survivors, or ``partial_restart=False`` — escalates to a whole-job
restart (fresh plan, fresh shuffle dir) without the excluded nodes.
When no replicas remain the engine raises
:class:`~repro.errors.DistributedJobError` — retryable, so the cluster
scheduler can fall back to a single-node host run.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing as _t

from repro.apps import spec_for_app
from repro.core.artifacts import AttemptManifest
from repro.errors import (
    DistributedJobError,
    InterruptError,
    NetworkError,
    OffloadError,
    OffloadTimeoutError,
    ShuffleArtifactError,
    is_retryable,
    mark_retryable,
)
from repro.fs import path as _p
from repro.phoenix.api import InputSpec
from repro.partition.partitioner import plan_fragments
from repro.sim.events import Event

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import BuiltCluster

__all__ = [
    "DistributedJob",
    "DistributedResult",
    "DistPlan",
    "ShardAssignment",
    "ShardFragment",
    "SpeculationPolicy",
    "plan_distribution",
    "DistributedEngine",
]


@dataclasses.dataclass(frozen=True)
class ShardFragment:
    """One integrity-checked fragment assigned to a shard.

    ``p0``/``p1`` locate the fragment's slice inside the replica payload
    (-1 when the input carries no payload); ``index`` is the fragment's
    position in the *global* plan, which fixes the gather order for
    order-sensitive (map-only) outputs.
    """

    size: int
    p0: int = -1
    p1: int = -1
    index: int = 0


@dataclasses.dataclass
class ShardAssignment:
    """A contiguous run of fragments owned by one SD node."""

    index: int
    node: str
    fragments: list
    size: int


@dataclasses.dataclass
class DistPlan:
    """The outcome of distribution planning for one attempt."""

    app: str
    #: "bytes" (fragment plan over a byte payload) or "split" (the app's
    #: own split function shards a non-byte payload, e.g. matrix rows)
    kind: str
    #: whether a cross-node partition exchange happens (reduce apps)
    exchange: bool
    n_partitions: int
    shards: list
    n_fragments: int


@dataclasses.dataclass(frozen=True)
class SpeculationPolicy:
    """When to launch a duplicate of a straggling map shard.

    Once a majority of the phase's shards have completed, a shard still
    running longer than ``multiplier`` times the median of those
    completed durations (floored at ``min_wait``) is a straggler.  The
    threshold reads only this phase's durations, so it is the same
    whether tracing is on or off and whatever ran before.  At most one
    duplicate is launched per shard, and only on a replica with no
    in-flight map work.
    """

    enabled: bool = True
    multiplier: float = 1.5
    #: floor for the straggler threshold (absorbs near-zero medians)
    min_wait: float = 0.05

    def threshold(self, durations: list) -> float | None:
        """The straggler cutoff given completed durations (None: no signal)."""
        if not durations:
            return None
        med = sorted(durations)[len(durations) // 2]
        return max(self.multiplier * max(med, 1e-9), self.min_wait)


@dataclasses.dataclass
class DistributedJob:
    """One logical job to be sharded across the SD replica set.

    ``n_shards=None`` uses every available replica; ``fragment_bytes``
    fixes the global fragment plan (pass the same value to a single-node
    partitioned run to compare outputs byte for byte);
    ``n_partitions=None`` defaults to one shuffle partition per shard.
    """

    app: str
    input_path: str
    input_size: int
    n_shards: int | None = None
    fragment_bytes: int | None = None
    n_partitions: int | None = None
    params: dict = dataclasses.field(default_factory=dict)
    tenant: str = "default"
    #: control-plane compatibility (a distributed job is never pinned)
    sd_node: str = ""
    mode: str = "distributed"


@dataclasses.dataclass
class DistributedResult:
    """Outcome of a distributed run (duck-compatible with JobResult)."""

    app: str
    output: object
    elapsed: float
    n_shards: int
    shard_nodes: list
    #: partition index -> reduce owner ({} for map-only apps)
    reduce_nodes: dict
    merge_node: str
    n_partitions: int
    shuffle_bytes: int
    shuffle_transfers: int
    attempts: int
    #: absolute sim times of phase completions (chaos windows key off this)
    timeline: dict
    plan: DistPlan | None = dataclasses.field(default=None, repr=False)
    #: the committed attempt's shuffle-dir id (``<app>-<seq>a<attempt>``)
    job_id: str = ""
    #: recovery accounting: partial/full restarts, dedup, speculation, failures
    recovery: dict = dataclasses.field(default_factory=dict)

    @property
    def name(self) -> str:
        """The application name (JobResult compatibility)."""
        return self.app

    @property
    def where(self) -> str:
        """Where the final merge ran (JobResult compatibility)."""
        return self.merge_node

    @property
    def offloaded(self) -> bool:
        """Distributed runs always execute on the SD fleet."""
        return True


def plan_distribution(
    job: DistributedJob,
    payload: object,
    nodes: _t.Sequence[str],
    mem_capacity: int,
    cfg,
) -> DistPlan:
    """Cut one job into per-node shards of integrity-checked fragments.

    Deterministic in (job, payload, nodes): restarting on a smaller
    replica set re-plans the *same global fragments* over fewer shards,
    which is what keeps restarted outputs byte-identical.
    """
    if not nodes:
        raise OffloadError(f"distributed job {job.app!r} needs at least one SD node")
    spec = spec_for_app(job.app, job.params)
    want = job.n_shards if job.n_shards is not None else len(nodes)
    n = max(1, min(int(want), len(nodes)))
    exchange = spec.reduce_fn is not None

    if payload is not None and not isinstance(payload, (bytes, bytearray)):
        # Non-byte payloads (matmul's matrices) shard through the app's
        # own split function at map time; the plan only fixes the declared
        # byte apportionment and the shard count.
        base, extra = divmod(job.input_size, n)
        shards = [
            ShardAssignment(
                index=i,
                node=nodes[i],
                fragments=[],
                size=base + (1 if i < extra else 0),
            )
            for i in range(n)
        ]
        n_partitions = job.n_partitions if job.n_partitions is not None else len(shards)
        return DistPlan(
            app=job.app,
            kind="split",
            exchange=exchange,
            n_partitions=max(1, int(n_partitions)),
            shards=shards,
            n_fragments=len(shards),
        )

    frag = job.fragment_bytes
    if frag is None:
        frag = max(1, math.ceil(job.input_size / n))
    inp = InputSpec(
        path=job.input_path,
        size=job.input_size,
        payload=payload,
        params=dict(job.params),
    )
    fplan = plan_fragments(
        inp, int(frag), mem_capacity, spec.profile, cfg, delimiters=spec.delimiters
    )
    fragments: list[ShardFragment] = []
    off = 0
    for gi, piece in enumerate(fplan.fragments):
        if piece.payload is not None:
            ln = len(piece.payload)
            fragments.append(ShardFragment(size=piece.size, p0=off, p1=off + ln, index=gi))
            off += ln
        else:
            fragments.append(ShardFragment(size=piece.size, index=gi))
    total = len(fragments)
    n_eff = max(1, min(n, total))
    shards = []
    for i in range(n_eff):
        lo = (i * total) // n_eff
        hi = ((i + 1) * total) // n_eff
        chunk = fragments[lo:hi]
        shards.append(
            ShardAssignment(
                index=i,
                node=nodes[i],
                fragments=chunk,
                size=sum(f.size for f in chunk),
            )
        )
    n_partitions = job.n_partitions if job.n_partitions is not None else len(shards)
    return DistPlan(
        app=job.app,
        kind="bytes",
        exchange=exchange,
        n_partitions=max(1, int(n_partitions)),
        shards=shards,
        n_fragments=total,
    )


class _ShardFailure(Exception):
    """A failure pinned on one node — the one failure contract.

    A phase step raises it only after committing every success to the
    attempt manifest, so the next recovery pass re-runs just the failed
    node's work.  Any other exception escalates to the whole-job loop.
    """

    def __init__(self, node: str, cause: BaseException, phase: str):
        super().__init__(f"shard on {node} failed at {phase}: {cause!r}")
        self.node = node
        self.cause = cause
        self.phase = phase


@dataclasses.dataclass(frozen=True)
class _Piece:
    """One durable artifact that a step reads on the node that owns it."""

    #: the node whose disk holds it
    node: str
    path: str
    nbytes: int
    #: the partition id in the ``shuffle.exchange`` fault-site context
    wire: int
    #: completes the manifest dedup key ``(owner, *id)``
    id: tuple
    #: where a moved copy lands
    dst: str
    #: fields the SD module's input spec carries after path and bytes
    meta: dict


@dataclasses.dataclass
class _Attempt:
    """One attempt's state, shared by its phase steps and recovery passes."""

    job: DistributedJob
    plan: DistPlan
    shuffle_dir: str
    #: parameters common to every SD-side invocation
    base: dict
    #: shard index -> its ``dist_map`` parameters
    map_params: dict
    #: node -> position in the candidate list (every tie-break)
    rank: dict
    #: nodes whose daemons this attempt still trusts
    alive: set
    #: shard index -> the node that (re)runs its map
    assignment: dict
    manifest: AttemptManifest
    timeout: float | None
    track: str
    #: the job's recovery ledger, kept across attempts
    recovery: dict
    timeline: dict
    shuffle_bytes: int = 0
    shuffle_transfers: int = 0


class DistributedEngine:
    """Shard one job across the SD replica set and shuffle between nodes.

    Parameters
    ----------
    cluster:
        The built cluster whose SD nodes hold replicas of the input.
    inflight:
        Optional shared per-node load dict (the scheduler passes the
        offload engine's, so shard load shows up in placement decisions).
    max_attempts:
        Whole-job restarts before giving up (each restart excludes the
        nodes that failed and re-plans on the survivors).
    transfer_retries:
        In-place retries per exchange transfer before the attempt is
        abandoned and the job restarts.
    partial_restart:
        When True (default), a failed shard invalidates only its own
        artifacts in the attempt manifest and the attempt resumes from
        what survives; False restores the PR-8 whole-job restart.
    speculation:
        :class:`SpeculationPolicy` for straggling map shards (None uses
        the defaults; ``SpeculationPolicy(enabled=False)`` turns it off).
    max_rebuilds:
        Corrupt-artifact rebuilds tolerated per attempt before escalating
        to a whole-job restart.
    """

    def __init__(
        self,
        cluster: "BuiltCluster",
        inflight: dict | None = None,
        max_attempts: int = 3,
        transfer_retries: int = 2,
        backoff: float = 0.1,
        partial_restart: bool = True,
        speculation: SpeculationPolicy | None = None,
        max_rebuilds: int = 3,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.inflight: dict[str, int] = inflight if inflight is not None else {}
        self.max_attempts = max(1, max_attempts)
        self.transfer_retries = max(0, transfer_retries)
        self.backoff = backoff
        self.partial_restart = partial_restart
        self.speculation = speculation if speculation is not None else SpeculationPolicy()
        self.max_rebuilds = max(0, max_rebuilds)
        #: distributed jobs started (stats)
        self.jobs = 0
        #: whole-job restarts (fresh plan + shuffle dir)
        self.full_restarts = 0
        #: in-attempt partial restarts (manifest-driven recovery passes)
        self.partial_restarts = 0
        self._seq = itertools.count(1)

    @property
    def restarts(self) -> int:
        """Total restarts of either kind (legacy stat)."""
        return self.full_restarts + self.partial_restarts

    # -- public entry point -------------------------------------------------

    def run(
        self,
        job: DistributedJob,
        nodes: _t.Sequence[str] | None = None,
        timeout: float | None = None,
    ) -> Event:
        """Run ``job``; the Process value is a :class:`DistributedResult`.

        ``nodes`` restricts the candidate replica set (default: every SD
        node holding the input).  ``timeout`` bounds each smartFAM
        invocation — the liveness signal that turns a dead shard daemon
        into an excluded node and a recovery pass on the survivors.
        """
        return self.sim.spawn(self._run(job, nodes, timeout), name=f"dist:{job.app}")

    # -- whole-job restart loop ---------------------------------------------

    def _pool(self, nodes: _t.Sequence[str] | None) -> list[str]:
        if nodes is not None:
            return list(nodes)
        return [n.name for n in self.cluster.sd_nodes]

    def _candidates(
        self, job: DistributedJob, nodes: _t.Sequence[str] | None, excluded: set
    ) -> list[str]:
        out = []
        for name in self._pool(nodes):
            if name in excluded:
                continue
            try:
                self.cluster.node(name).fs.vfs.stat(job.input_path)
            except Exception:
                continue
            out.append(name)
        return out

    def _note_failure(self, recovery: dict, fail: _ShardFailure) -> None:
        """Log a pinned failure and exclude its node (unless only an
        artifact was bad: the node itself is fine)."""
        recovery["failures"].append(
            {
                "node": fail.node,
                "phase": fail.phase,
                "cause": type(fail.cause).__name__,
                "attempt": recovery["attempt"],
                "at": round(self.sim.now, 6),
            }
        )
        self.sim.obs.count(f"dist.fail.{fail.phase}")
        if not isinstance(fail.cause, ShuffleArtifactError):
            recovery["excluded"].add(fail.node)
            if isinstance(fail.cause, OffloadTimeoutError):
                recovery["timed_out"].add(fail.node)

    def _run(
        self,
        job: DistributedJob,
        nodes: _t.Sequence[str] | None,
        timeout: float | None,
    ) -> _t.Generator:
        obs = self.sim.obs
        seq = next(self._seq)
        self.jobs += 1
        obs.count("dist.jobs")
        track = f"dist:{job.app}#{seq}"
        last: BaseException | None = None
        t0 = self.sim.now
        recovery: dict = {
            "excluded": set(),
            "timed_out": set(),
            "failures": [],
            "attempt": 0,
            "partial_restarts": 0,
            "dedup_transfers": 0,
            "speculation": {"launched": 0, "won": 0, "cancelled": 0},
        }
        with obs.span(
            "dist.job", cat="dist", track=track, force=True,
            app=job.app, input_bytes=job.input_size,
        ) as root:
            for attempt in range(self.max_attempts):
                cand = self._candidates(job, nodes, recovery["excluded"])
                if not cand:
                    break
                job_id = f"{job.app}-{seq}a{attempt}"
                recovery["attempt"] = attempt
                try:
                    result = yield from self._attempt(
                        job, cand, job_id, timeout, track, recovery
                    )
                except Exception as exc:
                    fail = exc if isinstance(exc, _ShardFailure) else None
                    last = fail.cause if fail else exc
                    if not is_retryable(last):
                        raise last
                    if fail:
                        self._note_failure(recovery, fail)
                    self.full_restarts += 1
                    obs.count("dist.restart.full")
                    obs.count("dist.restarts")
                    continue
                result.attempts = attempt + 1
                result.elapsed = self.sim.now - t0
                result.job_id = job_id
                result.recovery = {
                    "partial_restarts": recovery["partial_restarts"],
                    "full_restarts": attempt,
                    "dedup_transfers": recovery["dedup_transfers"],
                    "speculation": dict(recovery["speculation"]),
                    "failures": list(recovery["failures"]),
                }
                root.set(
                    shards=result.n_shards,
                    attempts=result.attempts,
                    merge_node=result.merge_node,
                    shuffle_bytes=result.shuffle_bytes,
                    partial_restarts=recovery["partial_restarts"],
                )
                if attempt > 0:
                    self._cleanup_prior_attempts(job, seq, attempt, nodes)
                return result
        err = DistributedJobError(
            job.app,
            self.max_attempts,
            excluded=recovery["excluded"],
            timed_out=recovery["timed_out"],
            failures=recovery["failures"],
        )
        if last is not None:
            err.__cause__ = last
        raise err

    def _cleanup_prior_attempts(
        self, job: DistributedJob, seq: int, final_attempt: int,
        nodes: _t.Sequence[str] | None,
    ) -> None:
        """Remove abandoned attempts' shuffle dirs once a later one commits.

        Host-driven VFS teardown, so it works even on nodes whose daemons
        are dead or excluded — exactly the nodes that leak directories.
        """
        cleaned = 0
        for attempt in range(final_attempt):
            stale = f"/export/shuffle/{job.app}-{seq}a{attempt}"
            for name in self._pool(nodes):
                try:
                    vfs = self.cluster.node(name).fs.vfs
                except Exception:
                    continue
                if vfs.exists(stale):
                    vfs.rmtree(stale)
                    cleaned += 1
        if cleaned:
            self.sim.obs.count("dist.shuffle.cleaned", cleaned)

    # -- one attempt: recovery passes over a manifest -----------------------

    def _attempt(
        self,
        job: DistributedJob,
        cand: list[str],
        job_id: str,
        timeout: float | None,
        track: str,
        recovery: dict,
    ) -> _t.Generator:
        """One attempt = a fixpoint loop of recovery passes over a manifest.

        Each pass runs exactly the work whose artifacts are missing; a
        pinned failure invalidates what it took down, reassigns to
        survivors, and loops.  The pass budget bounds pathological
        schedules — when it is exhausted (or no survivors remain) the
        attempt escalates to the whole-job restart loop in :meth:`_run`.
        """
        sim, cluster = self.sim, self.cluster
        obs = sim.obs
        first = cluster.node(cand[0])
        # Planner peek: boundaries only — content never leaves the SD.
        payload = first.fs.vfs.read(job.input_path) or None
        with obs.span("dist.plan", cat="dist", track=track, force=True) as sp:
            plan = plan_distribution(
                job, payload, cand, first.memory.capacity, cluster.config.phoenix
            )
            sp.set(shards=len(plan.shards), partitions=plan.n_partitions, kind=plan.kind)
        obs.count("dist.shards", len(plan.shards))
        shuffle_dir = f"/export/shuffle/{job_id}"
        base = {
            "job_id": job_id,
            "app": job.app,
            "app_params": dict(job.params),
            "input_path": job.input_path,
            "input_size": job.input_size,
            "kind": plan.kind,
            "exchange": plan.exchange,
            "n_shards": len(plan.shards),
            "n_partitions": plan.n_partitions,
            "total_fragments": plan.n_fragments,
            "shuffle_dir": shuffle_dir,
        }
        st = _Attempt(
            job=job,
            plan=plan,
            shuffle_dir=shuffle_dir,
            base=base,
            map_params={
                s.index: dict(
                    base,
                    shard_index=s.index,
                    shard_size=s.size,
                    fragments=[[f.size, f.p0, f.p1, f.index] for f in s.fragments],
                )
                for s in plan.shards
            },
            rank={name: i for i, name in enumerate(cand)},
            alive=set(cand),
            assignment={s.index: s.node for s in plan.shards},
            manifest=AttemptManifest(),
            timeout=timeout,
            track=track,
            recovery=recovery,
            timeline={"started": sim.now},
        )
        rebuilds = 0
        max_passes = len(cand) + self.max_rebuilds + 2
        for _ in range(max_passes):
            try:
                return (yield from self._pass(st))
            except _ShardFailure as fail:
                artifact = isinstance(fail.cause, ShuffleArtifactError)
                if artifact:
                    rebuilds += 1
                if (
                    not self.partial_restart
                    or not is_retryable(fail.cause)
                    or rebuilds > self.max_rebuilds
                    or not (artifact or st.alive - {fail.node})
                ):
                    raise  # the whole-job restart loop decides
                self._note_failure(recovery, fail)
                if artifact:
                    st.manifest.invalidate_artifact(fail.cause)
                else:
                    st.alive.discard(fail.node)
                    st.manifest.invalidate_node(fail.node)
                    self._reassign(st)
                recovery["partial_restarts"] += 1
                self.partial_restarts += 1
                obs.count("dist.restart.partial")
        raise mark_retryable(
            OffloadError(
                f"distributed job {job.app!r}: partial recovery "
                f"exceeded {max_passes} passes in attempt {job_id!r}"
            )
        )

    def _reassign(self, st: _Attempt) -> None:
        """Move dead nodes' shards to the least-loaded survivors."""
        load = {name: 0 for name in st.alive}
        for node in st.assignment.values():
            if node in load:
                load[node] += 1
        for i in sorted(st.assignment):
            if st.assignment[i] not in st.alive:
                target = min(load, key=lambda nm: (load[nm], st.rank[nm]))
                st.assignment[i] = target
                load[target] += 1

    def _pass(self, st: _Attempt) -> _t.Generator:
        """One recovery pass: map, exchange, reduce, gather, merge — each
        step doing only the work whose artifacts the manifest lacks."""
        m = st.manifest
        todo = [s.index for s in st.plan.shards if s.index not in m.maps]
        if todo:
            yield from self._map_step(st, todo)
        st.timeline.setdefault("map_done", self.sim.now)
        if st.plan.exchange:
            reduce_nodes, inputs = yield from self._exchange_step(st)
            yield from self._reduce_step(st, reduce_nodes, inputs)
            pieces = [
                _Piece(
                    info["node"], info["path"], int(info["bytes"]), p, ("p", p),
                    f"{st.shuffle_dir}/final/p{p}", {"partition": p},
                )
                for p, info in sorted(m.reduced.items())
            ]
        else:
            reduce_nodes = {}
            pieces = []
            for i, art in m.maps.items():
                for part in art.parts:
                    gi = int(part["index"])
                    pieces.append(_Piece(
                        art.node, part["path"], int(part["bytes"]), gi, ("part", gi),
                        f"{st.shuffle_dir}/final/part{gi}", {"shard": i},
                    ))
            pieces.sort(key=lambda pc: pc.wire)  # global fragment order
        merge_node, parts = yield from self._gather_step(st, pieces)
        output = yield from self._merge_step(st, merge_node, parts)
        return DistributedResult(
            app=st.job.app,
            output=output,
            elapsed=self.sim.now - st.timeline["started"],
            n_shards=len(st.plan.shards),
            # where each shard's committed map artifact actually lives — a
            # dead mapper whose artifact was reused still shows up here
            shard_nodes=[
                m.maps[s.index].node if s.index in m.maps else st.assignment[s.index]
                for s in st.plan.shards
            ],
            reduce_nodes=reduce_nodes,
            merge_node=merge_node,
            n_partitions=st.plan.n_partitions,
            shuffle_bytes=st.shuffle_bytes,
            shuffle_transfers=st.shuffle_transfers,
            attempts=1,
            timeline=st.timeline,
            plan=st.plan,
        )

    # -- the phase steps ----------------------------------------------------

    def _map_step(self, st: _Attempt, todo: list) -> _t.Generator:
        """Run the ``todo`` map shards, speculating duplicates of stragglers.

        First result per shard wins and is committed to the manifest; the
        losing duplicate is interrupted — safe, because an interrupted
        invocation simply reports an :class:`InterruptError` result that
        is dropped here, and because reduce inputs are keyed by partition
        id a late duplicate artifact can never double-count.
        """
        sim = self.sim
        obs = sim.obs
        pol = self.speculation
        ledger = st.recovery["speculation"]
        pending: dict = {}  # proc -> (shard_index, node, is_spec)
        start: dict[int, float] = {}
        durations: list[float] = []
        resolved: set[int] = set()
        speculated: set[int] = set()
        # wait for a majority of the phase so the threshold has signal
        min_done = max(1, (len(todo) + 1) // 2)
        with obs.span("dist.map", cat="dist", track=st.track, force=True) as sp:
            for i in todo:
                self._launch_map(st, pending, i, st.assignment[i])
                start[i] = sim.now
            while pending:
                timer = []
                if pol.enabled and len(durations) >= min_done:
                    threshold = pol.threshold(durations)
                    self._speculate(st, pending, start, speculated, threshold)
                    # wake when the next unspeculated primary crosses the
                    # cutoff; overdue ones with no spare wait for a completion
                    due = [
                        start[i] + threshold - sim.now
                        for (i, _node, is_spec) in pending.values()
                        if not is_spec and i not in speculated
                    ]
                    due = [d for d in due if d > 0]
                    if due:
                        timer = [sim.timeout(min(due))]
                waits = list(pending)
                yield sim.any_of(waits + timer)

                abort: _ShardFailure | None = None
                for proc in [p for p in waits if p.triggered]:
                    i, node, is_spec = pending.pop(proc)
                    if not proc.ok:
                        continue  # a cancelled duplicate unwinding
                    if i in resolved:
                        continue  # late duplicate: winner already committed
                    ok, value = proc.value
                    if ok:
                        resolved.add(i)
                        dur = sim.now - start[i]
                        durations.append(dur)
                        obs.observe("dist.latency.map", dur)
                        if is_spec:
                            ledger["won"] += 1
                            obs.count("spec.won")
                        st.assignment[i] = node
                        st.manifest.register_map(i, node, value)
                        # cancel the losing copy still in flight
                        for other, (oi, _onode, _ospec) in list(pending.items()):
                            if oi != i:
                                continue
                            del pending[other]
                            if not other.triggered:
                                other.interrupt("speculation resolved")
                            ledger["cancelled"] += 1
                            obs.count("spec.cancelled")
                    elif (
                        not isinstance(value, InterruptError)  # our own cancel
                        and abort is None
                        and not any(oi == i for (oi, _, _) in pending.values())
                    ):
                        abort = _ShardFailure(node, value, "map")
                if abort is not None:
                    # stop the phase; unfinished shards stay unregistered and
                    # re-run on the next recovery pass
                    for other in pending:
                        if not other.triggered:
                            other.interrupt("map phase aborted")
                    pending.clear()
                    raise abort
            sp.set(shards=len(todo))
        st.timeline["map_done"] = sim.now

    def _launch_map(
        self, st: _Attempt, pending: dict, i: int, node: str, spec: bool = False
    ) -> None:
        proc = self.sim.spawn(
            self._invoke_on(st, node, "dist_map", st.map_params[i], "map"),
            name=f"dist-map-spec:{node}" if spec else f"dist-map:{node}",
        )
        pending[proc] = (i, node, spec)

    def _speculate(
        self, st: _Attempt, pending: dict, start: dict, speculated: set,
        threshold: float,
    ) -> None:
        """Duplicate each overdue primary onto the lowest-rank idle survivor."""
        now = self.sim.now
        busy = {node for (_, node, _) in pending.values()}
        overdue = sorted(
            (
                i
                for (i, _node, is_spec) in pending.values()
                if not is_spec
                and i not in speculated
                # inclusive: the straggler-check timer fires at exactly
                # start + threshold, and that firing must launch
                and now - start[i] >= threshold
            ),
            key=start.__getitem__,
        )
        for i in overdue:
            spares = [nm for nm in st.alive if nm not in busy]
            if not spares:
                return
            spare = min(spares, key=st.rank.__getitem__)
            self._launch_map(st, pending, i, spare, spec=True)
            speculated.add(i)
            busy.add(spare)
            st.recovery["speculation"]["launched"] += 1
            self.sim.obs.count("spec.launched")

    def _exchange_step(self, st: _Attempt) -> _t.Generator:
        """Route each partition to its owner and ship the buckets it lacks.

        Returns ``(reduce_nodes, inputs)``: the owner of every partition,
        and the reduce input specs of the partitions not yet reduced.
        """
        m = st.manifest
        by_part: dict[int, list] = {p: [] for p in range(st.plan.n_partitions)}
        for i, art in sorted(m.maps.items()):
            for p, info in art.partitions.items():
                by_part[p].append(
                    _Piece(
                        art.node, info["path"], int(info["bytes"]), p, (i, p),
                        f"{st.shuffle_dir}/rx/p{p}.s{i}",
                        {"entries": int(info["entries"]), "shard": i, "partition": p},
                    )
                )
        reduce_nodes: dict[int, str] = {}
        moves = []
        for p, pieces in by_part.items():
            if not pieces:
                continue
            if p in m.reduced:
                reduce_nodes[p] = m.reduced[p]["node"]
                continue
            reduce_nodes[p] = owner = self._owner(st, pieces)
            moves += [(pc, owner) for pc in pieces]
        specs = yield from self._move(
            st, moves, m.received, "shuffle.exchange", partitions=len(reduce_nodes)
        )
        self.sim.obs.count("shuffle.partitions", len(reduce_nodes))
        st.timeline["exchange_done"] = self.sim.now
        inputs: dict[int, list] = {}
        for (pc, _owner), spec in zip(moves, specs):
            inputs.setdefault(pc.wire, []).append(spec)
        return reduce_nodes, inputs

    def _reduce_step(
        self, st: _Attempt, reduce_nodes: dict, inputs: dict
    ) -> _t.Generator:
        """Each owner reduces its partitions that are not yet reduced."""
        sim = self.sim
        m = st.manifest
        by_owner: dict[str, list] = {}
        for p in sorted(inputs):
            by_owner.setdefault(reduce_nodes[p], []).append(
                {"index": p, "sources": inputs[p]}
            )
        total_entries = sum(a.entries for a in m.maps.values())
        with sim.obs.span("dist.reduce", cat="dist", track=st.track, force=True) as sp:
            procs = {
                owner: sim.spawn(
                    self._invoke_on(
                        st, owner, "dist_reduce",
                        dict(st.base, partitions=pspecs, total_entries=total_entries),
                        "reduce",
                    ),
                    name=f"dist-reduce:{owner}",
                )
                for owner, pspecs in by_owner.items()
            }
            if procs:
                gathered = yield sim.all_of(list(procs.values()))
                failure: _ShardFailure | None = None
                for owner, proc in procs.items():
                    ok, value = gathered[proc]
                    if ok:
                        for p, info in (value.get("partitions") or {}).items():
                            m.reduced[int(p)] = dict(info, node=owner)
                    elif failure is None:
                        failure = _ShardFailure(owner, value, "reduce")
                if failure is not None:
                    raise failure
            sp.set(partitions=len(m.reduced), owners=len(by_owner))
        st.timeline["reduce_done"] = sim.now

    def _gather_step(self, st: _Attempt, pieces: list) -> _t.Generator:
        """Bring the merge inputs to their owner; returns (node, parts).

        For a map-only job this is the exchange phase itself: its span is
        ``shuffle.exchange`` and it closes the exchange and reduce marks.
        """
        merge_node = self._owner(st, pieces)
        moves = [(pc, merge_node) for pc in pieces]
        landed = st.manifest.gathered
        if st.plan.exchange:
            parts = yield from self._move(
                st, moves, landed, "shuffle.gather", idle=False
            )
        else:
            parts = yield from self._move(
                st, moves, landed, "shuffle.exchange", partitions=0
            )
            st.timeline["exchange_done"] = st.timeline["reduce_done"] = self.sim.now
        return merge_node, parts

    def _merge_step(self, st: _Attempt, node: str, parts: list) -> _t.Generator:
        """Apply the user merge at ``node``; returns the final output."""
        sim = self.sim
        with sim.obs.span(
            "dist.merge", cat="dist", track=st.track, force=True, node=node
        ):
            ok, value = yield sim.spawn(
                self._invoke_on(
                    st, node, "dist_merge", dict(st.base, parts=parts), "merge"
                ),
                name=f"dist-merge:{node}",
            )
            if not ok:
                raise _ShardFailure(node, value, "merge")
        st.timeline["merge_done"] = sim.now
        return value.get("output")

    # -- the owner rule and the move step -----------------------------------

    @staticmethod
    def _owner(st: _Attempt, pieces: list) -> str:
        """The one owner rule: the live node holding the most bytes of
        ``pieces`` (ties to the lower rank), else the lowest-rank survivor.

        The owner runs an SD module, so it needs a live daemon; dead nodes
        still serve as transfer sources (their disks stay host-readable).
        """
        held: dict[str, int] = {}
        for pc in pieces:
            if pc.node in st.alive:
                held[pc.node] = held.get(pc.node, 0) + pc.nbytes
        if held:
            return max(held, key=lambda nm: (held[nm], -st.rank[nm]))
        return min(st.alive, key=st.rank.__getitem__)

    def _move(
        self, st: _Attempt, moves: list, landed: dict, span: str,
        idle: bool = True, **attrs,
    ) -> _t.Generator:
        """The one move step: bring each ``(piece, owner)`` to its owner.

        A piece already on its owner is read in place; a copy ``landed``
        already holds under ``(owner, *piece.id)`` is skipped and counted
        in ``dist.transfer.dedup``; the rest cross the fabric concurrently
        and each copy that lands is committed to ``landed``.  ``idle``
        opens the span even when nothing moves.  Returns every piece's
        input spec on its owner, in order.  A transfer that exhausted its
        in-place retries raises its cause: that escalates to the whole-job
        restart.
        """
        sim = self.sim
        obs = sim.obs
        specs, legs, deduped = [], [], 0
        for pc, owner in moves:
            local = pc.node == owner
            path = pc.path if local else pc.dst
            specs.append({"path": path, "bytes": pc.nbytes, **pc.meta})
            if local:
                continue
            key = (owner, *pc.id)
            if key in landed:
                deduped += 1
            else:
                legs.append((pc, owner, key))
        if legs or idle:
            with obs.span(span, cat="dist", track=st.track, force=True) as sp:
                procs = [
                    sim.spawn(
                        self._transfer(pc, owner), name=f"shuffle:{pc.node}->{owner}"
                    )
                    for pc, owner, _key in legs
                ]
                moved = 0
                failure: BaseException | None = None
                if procs:
                    gathered = yield sim.all_of(procs)
                    for proc, (pc, _owner, key) in zip(procs, legs):
                        ok, value = gathered[proc]
                        if ok:
                            moved += value
                            landed[key] = pc.dst
                        elif failure is None:
                            failure = value
                if failure is not None:
                    raise failure
                st.shuffle_bytes += moved
                st.shuffle_transfers += len(legs)
                sp.set(bytes=moved, transfers=len(legs), deduped=deduped, **attrs)
        if deduped:
            st.recovery["dedup_transfers"] += deduped
            obs.count("dist.transfer.dedup", deduped)
        return specs

    # -- building blocks ----------------------------------------------------

    def _invoke_on(
        self, st: _Attempt, node: str, module: str, params: dict, phase: str
    ) -> _t.Generator:
        """Invoke one SD-side module; returns ``(ok, value-or-exception)``."""
        obs = self.sim.obs
        channel = self.cluster.host_channels.get(node)
        if channel is None:
            return False, OffloadError(f"no smartFAM channel to {node!r}")
        self.inflight[node] = self.inflight.get(node, 0) + 1
        obs.count(f"dist.invoke.{phase}")
        try:
            with obs.span(
                "dist.shard", cat="dist", track=node, force=True,
                phase=phase, module=module,
            ) as sp:
                try:
                    value = yield channel.invoke_reliable(
                        module, params, timeout=st.timeout, max_retries=1
                    )
                except Exception as exc:
                    sp.set(error=type(exc).__name__)
                    return False, exc
            return True, value
        finally:
            self.inflight[node] -= 1

    def _transfer(self, pc: _Piece, dst: str) -> _t.Generator:
        """Move one piece to ``dst``: SD disk read -> fabric -> SD disk write.

        Fault site ``shuffle.exchange`` (ctx: src, dst, partition, nbytes):
        *fail*/*drop*/*corrupt* cost the attempt (bounded in-place retries),
        *delay* adds latency before the payload lands.  Returns
        ``(True, bytes)`` or ``(False, exc)`` — never raises, so a batch
        of concurrent transfers can be inspected as a whole.
        """
        sim = self.sim
        obs = sim.obs
        src, src_path, dst_path = pc.node, pc.path, pc.dst
        nbytes, partition = max(1, pc.nbytes), pc.wire
        src_node = self.cluster.node(src)
        dst_node = self.cluster.node(dst)
        last: BaseException | None = None
        for att in range(self.transfer_retries + 1):
            inj = sim.faults
            decision = None
            if inj is not None:
                decision = inj.check(
                    "shuffle.exchange", src=src, dst=dst,
                    partition=partition, nbytes=nbytes,
                )
            try:
                with obs.span(
                    "shuffle.transfer", cat="dist", track=src,
                    partition=partition, bytes=nbytes, dst=dst,
                ):
                    if decision is not None and decision.action in ("fail", "kill"):
                        raise mark_retryable(
                            NetworkError(
                                f"injected shuffle fault {src}->{dst} p{partition}"
                            )
                        )
                    if decision is not None and decision.action == "delay":
                        yield sim.timeout(decision.delay)
                    data = src_node.fs.vfs.read(src_path)
                    yield src_node.fs.read(src_path, nbytes=nbytes)
                    yield self.cluster.fabric.transfer(src, dst, nbytes, kind="shuffle")
                    if decision is not None and decision.action in ("drop", "corrupt"):
                        # the wire cost was paid but the payload never
                        # landed intact — retry ships it again
                        raise mark_retryable(
                            NetworkError(
                                f"shuffle payload lost {src}->{dst} p{partition}"
                            )
                        )
                    dst_node.fs.vfs.mkdir(
                        _p.parent(_p.normalize(dst_path)), parents=True
                    )
                    yield dst_node.fs.write(dst_path, data=data, size=nbytes)
                obs.count("shuffle.bytes", nbytes)
                obs.count("shuffle.transfers")
                return (True, nbytes)
            except Exception as exc:
                last = exc
                if not is_retryable(exc) or att == self.transfer_retries:
                    return (False, exc)
                obs.count("retry.count")
                obs.count("retry.shuffle")
                if self.backoff > 0:
                    yield sim.timeout(self.backoff * (2.0 ** att))
        return (False, last)
