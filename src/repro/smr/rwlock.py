"""A reentrant reader–writer lock guarding the SMR's three stores.

The paper's repository serves continuous reads (search, ranking, RDF
export) while pages stream in through the authoring and bulk-loading
interfaces (Section II, Fig. 6). Each request evaluates its constraints
serially, but several request threads may read the repository while an
author or the bulk loader writes, so the facade serializes writers
against readers with this lock.

Semantics, chosen deliberately (see docs/PERFORMANCE.md, "Concurrency
model"):

- **Reader-preferring.** A waiting writer does not block new readers;
  a read section waits only for an *active* writer. Writers can
  therefore be starved by a saturated read side — acceptable here
  because every read section is short (one facade call), never a whole
  request.
- **Reentrant for readers**, so ``sparql()`` may call ``rdf_graph()``
  without self-deadlock, and a thread holding *write* may freely enter
  read sections (a writer is exclusive already).
- **No upgrade.** Acquiring write while holding only read raises —
  two upgraders would deadlock each other, so the attempt is a bug.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ReproError


class ReadWriteLock:
    """Many concurrent readers or one exclusive writer.

    Use the :meth:`read` / :meth:`write` context managers; the raw
    acquire/release pairs exist for the rare caller that cannot use
    ``with`` blocks.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._active_readers = 0  # threads (not entries) holding read
        self._writer: int | None = None  # ident of the exclusive writer
        self._writer_depth = 0
        self._local = threading.local()

    def _read_depth(self) -> int:
        return getattr(self._local, "read_depth", 0)

    # -- readers ---------------------------------------------------------

    def acquire_read(self) -> None:
        """Enter the shared side, blocking while a writer is active."""
        depth = self._read_depth()
        if depth == 0 and self._writer != threading.get_ident():
            with self._cond:
                while self._writer is not None:
                    self._cond.wait()
                self._active_readers += 1
        self._local.read_depth = depth + 1

    def release_read(self) -> None:
        """Leave one nesting level of the shared side."""
        depth = self._read_depth()
        if depth <= 0:
            raise ReproError("release_read without a matching acquire_read")
        self._local.read_depth = depth - 1
        if depth == 1 and self._writer != threading.get_ident():
            with self._cond:
                self._active_readers -= 1
                if self._active_readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        """Shared read section; reentrant, and free under a held write."""
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- the writer ------------------------------------------------------

    def acquire_write(self) -> None:
        """Enter the exclusive side, blocking until all readers leave."""
        me = threading.get_ident()
        if self._writer == me:
            self._writer_depth += 1
            return
        if self._read_depth() > 0:
            raise ReproError(
                "cannot upgrade a read lock to a write lock (two upgraders "
                "would deadlock); release the read section first"
            )
        with self._cond:
            while self._writer is not None or self._active_readers > 0:
                self._cond.wait()
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        """Leave one nesting level of the exclusive side."""
        if self._writer != threading.get_ident():
            raise ReproError("release_write by a thread that does not hold it")
        self._writer_depth -= 1
        if self._writer_depth == 0:
            with self._cond:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        """Exclusive write section; reentrant for the holding thread."""
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- diagnostics -----------------------------------------------------

    @property
    def active_readers(self) -> int:
        """Threads currently inside a read section (diagnostic)."""
        return self._active_readers

    @property
    def write_held(self) -> bool:
        """Whether any thread currently holds the write side."""
        return self._writer is not None
