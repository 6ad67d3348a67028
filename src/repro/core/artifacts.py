"""Durable shuffle artifacts and the per-attempt recovery manifest.

Partial shard restart (ISSUE 9) turns every intermediate the distributed
engine materializes — map partition buckets, reduced partitions, gathered
merge inputs — into a *shuffle artifact*: a crc32-framed blob in the
attempt's shuffle directory, registered in an :class:`AttemptManifest`.
When a shard dies mid-job the engine consults the manifest and re-runs
only the work whose artifacts were lost, instead of re-planning the whole
attempt from scratch.

The frame is byte-compatible with the PR-4 spill frame
(``repro.exec.outofcore._BLOCK_HEADER``): ``<length:u32><crc32:u32>``
followed by the pickled payload.  A frame that fails its length or crc
check raises :class:`~repro.errors.ShuffleArtifactError`, which the
engine treats as "rebuild the producing shard", not "the node is dead".
"""

from __future__ import annotations

import dataclasses
import pickle
import struct
import typing as _t
import zlib

from repro.errors import ShuffleArtifactError

__all__ = [
    "FRAME",
    "pack_artifact",
    "unpack_artifact",
    "corrupt_artifact",
    "MapArtifact",
    "AttemptManifest",
]

#: ``<length:u32><crc32:u32>`` — identical to the out-of-core spill frame.
FRAME = struct.Struct("<II")


def pack_artifact(obj: object) -> bytes:
    """Frame ``obj`` as ``<length><crc32><pickle>``."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def unpack_artifact(
    blob: bytes,
    path: str = "",
    shard: int | None = None,
    partition: int | None = None,
) -> object:
    """Verify and unpickle a framed artifact.

    Raises :class:`ShuffleArtifactError` on a short frame, a length
    mismatch, or a crc32 mismatch — the caller maps that back to the
    producing shard via the manifest and rebuilds it.
    """
    if len(blob) < FRAME.size:
        raise ShuffleArtifactError(
            path, shard=shard, partition=partition,
            detail=f"short frame ({len(blob)} B < {FRAME.size} B header)",
        )
    length, crc = FRAME.unpack_from(blob)
    payload = blob[FRAME.size:]
    if len(payload) != length:
        raise ShuffleArtifactError(
            path, shard=shard, partition=partition,
            detail=f"length mismatch (header {length}, payload {len(payload)})",
        )
    if zlib.crc32(payload) != crc:
        raise ShuffleArtifactError(
            path, shard=shard, partition=partition, detail="crc32 mismatch",
        )
    return pickle.loads(payload)


def corrupt_artifact(blob: bytes) -> bytes:
    """Flip one payload byte past the header (fault-injection helper)."""
    if len(blob) <= FRAME.size:
        return blob + b"\xff"
    pos = FRAME.size + (len(blob) - FRAME.size) // 2
    return blob[:pos] + bytes([blob[pos] ^ 0xFF]) + blob[pos + 1:]


@dataclasses.dataclass
class MapArtifact:
    """One shard's committed map output: where it ran and what it wrote."""

    shard_index: int
    node: str
    #: exchange kind: partition id -> {"path", "bytes", "entries"}
    partitions: dict[int, dict]
    #: map-only kind: [{"index", "path", "bytes"}, ...] global output parts
    parts: list[dict]
    entries: int


class AttemptManifest:
    """Every durable intermediate of one attempt, keyed for invalidation.

    ``received`` keys are ``(owner, shard_index, partition)`` — the dedup
    id for exchange transfers: a re-run of the (deterministic) producing
    shard regenerates byte-identical buckets, so a copy that already
    landed at its reduce owner never needs re-shipping.  ``gathered``
    keys are ``(merge_node, "p"|"part", index)`` for merge-input legs.
    """

    def __init__(self) -> None:
        self.maps: dict[int, MapArtifact] = {}
        self.received: dict[tuple, str] = {}
        #: partition -> {"path", "bytes", "entries", "node"}
        self.reduced: dict[int, dict] = {}
        self.gathered: dict[tuple, str] = {}

    # -- registration -----------------------------------------------------------

    def register_map(self, shard_index: int, node: str, result: dict) -> None:
        """Commit a ``dist_map`` result into the manifest."""
        self.maps[shard_index] = MapArtifact(
            shard_index=shard_index,
            node=node,
            partitions={
                int(p): dict(info)
                for p, info in (result.get("partitions") or {}).items()
            },
            parts=[dict(part) for part in (result.get("parts") or [])],
            entries=int(result.get("entries") or 0),
        )

    # -- invalidation -----------------------------------------------------------

    def invalidate_node(self, node: str) -> None:
        """Drop what died with ``node``'s *daemon* (kill or exclusion).

        A kill crashes the smartFAM daemon, not the SD disk: the export
        stays host-readable (``revive`` brings the daemon back over the
        same filesystem), so committed map artifacts on the dead node are
        KEPT — the exchange replays them through host-driven transfers,
        and every read re-verifies the crc32 frame.  What is dropped is
        the daemon's derived working state held there — received exchange
        copies, reduced partitions and gathered merge legs — which is
        conservatively re-derived on survivors, since reduce/merge must
        re-run on a node with a live daemon anyway.

        Copies of buckets that already reached live reduce owners are
        also kept — they were received intact, and a deterministic re-map
        regenerates identical bytes, so they stay valid (and dedupable)
        sources.
        """
        for key in [k for k in self.received if k[0] == node]:
            del self.received[key]
        for p in [p for p, info in self.reduced.items() if info["node"] == node]:
            self.invalidate_reduced(p)
        for key in [k for k in self.gathered if k[0] == node]:
            del self.gathered[key]

    def invalidate_shard(self, shard_index: int) -> None:
        """Drop a shard's map artifact and every copy derived from it."""
        art = self.maps.pop(shard_index, None)
        for key in [k for k in self.received if k[1] == shard_index]:
            del self.received[key]
        if art is not None:
            # map-only outputs gathered toward a merge node
            part_ids = {int(part["index"]) for part in art.parts}
            for key in [
                k for k in self.gathered
                if k[1] == "part" and k[2] in part_ids
            ]:
                del self.gathered[key]

    def invalidate_reduced(self, partition: int) -> None:
        """Drop one reduced partition and its gathered merge-input legs."""
        self.reduced.pop(partition, None)
        for key in [
            k for k in self.gathered if k[1] == "p" and k[2] == partition
        ]:
            del self.gathered[key]

    def invalidate_artifact(self, exc: ShuffleArtifactError) -> None:
        """Targeted invalidation for one corrupt frame.

        A corrupt reduced partition needs only that partition re-reduced;
        anything else (a map bucket, an rx copy, a map-only part) traces
        back to its producing shard, whose deterministic re-map replaces
        the whole derived family.
        """
        name = exc.path.rsplit("/", 1)[-1]
        if name.startswith("red.p") and exc.partition is not None:
            self.invalidate_reduced(int(exc.partition))
        elif exc.shard is not None:
            self.invalidate_shard(int(exc.shard))
        elif exc.partition is not None:
            self.invalidate_reduced(int(exc.partition))
        else:
            # no attribution: rebuild the attempt's durable state wholesale
            self.maps.clear()
            self.received.clear()
            self.reduced.clear()
            self.gathered.clear()

    # -- introspection ----------------------------------------------------------

    def summary(self) -> dict:
        """Counts per category (for spans and failure breakdowns)."""
        return {
            "maps": len(self.maps),
            "received": len(self.received),
            "reduced": len(self.reduced),
            "gathered": len(self.gathered),
        }
