"""Background readahead for the real out-of-core engine.

While fragment N is being mapped, a :class:`ReadaheadPrefetcher` thread
pre-reads the chunks of fragment N+1 (and deeper, per ``depth``) with
``os.pread`` through descriptors of its own, so their pages are warm in
the OS page cache by the time the engine's workers map them.  It does
not touch the chunk-handle cache of :mod:`repro.exec.chunks`.  The
thread reads into a small scratch buffer and discards it: the point is
the page-cache side effect, not the bytes, so the prefetcher adds no RSS
beyond one window buffer.

``advise(i)`` is the engine's only integration point: call it when
fragment ``i`` *starts*; the prefetcher schedules the fragments after it
and skips anything already issued.  The thread is a daemon and never
raises into the engine — a prefetch that fails (file shrank, descriptor
died) is counted and dropped.
"""

from __future__ import annotations

import os
import queue
import threading
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.chunks import FileChunk
    from repro.obs import Observability

__all__ = ["ReadaheadPrefetcher"]

#: bytes per pread window (big enough to amortize, small enough for RSS)
_WINDOW = 1 << 20


class ReadaheadPrefetcher:
    """Prefetches fragment N+1's chunks while fragment N runs."""

    def __init__(
        self,
        fragments: _t.Sequence[_t.Sequence["FileChunk"]],
        depth: int = 1,
        obs: "Observability | None" = None,
    ):
        if depth < 0:
            raise ValueError("prefetch depth must be >= 0")
        self.fragments = fragments
        self.depth = depth
        self.obs = obs
        self.issued = 0
        self.bytes_prefetched = 0
        self._scheduled: set[int] = set()
        self._queue: "queue.Queue[int | None]" = queue.Queue()
        self._idle = threading.Event()
        self._idle.set()
        self._closed = False
        self._fds: dict[str, int] = {}
        self._thread = threading.Thread(
            target=self._loop, name="tier-readahead", daemon=True
        )
        self._thread.start()

    # -- engine-facing ------------------------------------------------------

    def advise(self, index: int) -> None:
        """Fragment ``index`` is starting: schedule the ones after it."""
        if self._closed or self.depth == 0:
            return
        for nxt in range(index + 1, min(index + 1 + self.depth, len(self.fragments))):
            if nxt in self._scheduled:
                continue
            self._scheduled.add(nxt)
            self._idle.clear()
            self._queue.put(nxt)

    def wait_idle(self, timeout: float | None = 10.0) -> bool:
        """Block until every scheduled prefetch has been attempted."""
        return self._idle.wait(timeout)

    def close(self) -> None:
        """Stop the thread and close the prefetch descriptors."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=10.0)
        for fd in self._fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._fds.clear()

    def __enter__(self) -> "ReadaheadPrefetcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- the thread ---------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            try:
                self._prefetch_fragment(item)
            except Exception:
                if self.obs is not None:
                    self.obs.count("tier.prefetch.failed")
            finally:
                self._queue.task_done()
                if self._queue.unfinished_tasks == 0:
                    self._idle.set()

    def _prefetch_fragment(self, index: int) -> None:
        total = 0
        for chunk in self.fragments[index]:
            if self._closed:
                return
            fd = self._fds.get(chunk.path)
            if fd is None:
                fd = os.open(chunk.path, os.O_RDONLY)
                self._fds[chunk.path] = fd
            pos = chunk.offset
            end = chunk.offset + chunk.length
            while pos < end and not self._closed:
                window = os.pread(fd, min(_WINDOW, end - pos), pos)
                if not window:
                    break
                pos += len(window)
                total += len(window)
        self.issued += 1
        self.bytes_prefetched += total
        if self.obs is not None:
            self.obs.count("tier.prefetch.issued")
            self.obs.count("tier.prefetch.bytes", total)
