"""Pluggable state storage: the external-memory backends behind the engine.

ROADMAP item 2 names memory — not CPU — as the exploration scaling
wall: the full tob(4,1) run peaks around 4 GB RSS for only 359k states,
because the classic engine retains every *decoded* state (plus its
edges) for the duration of the run.  The packed-bytes refactor (PR 8)
made the canonical :mod:`~repro.engine.codec` encoding the primary
representation precisely so the retained data could leave RAM; this
module is where it goes.

A :class:`StateStore` bundles the three structures a breadth-first
exploration actually needs, each keyed by the 16-byte state fingerprint:

* ``digest -> packed`` **state storage** — every discovered state's
  canonical bytes, appended once in discovery order (the append order
  *is* the BFS discovery order, which is what lets a store-backed run
  reproduce the classic engine's graph exactly);
* a **visited set** — exact membership, kept as in-memory digest shards
  (sharded by fingerprint prefix) and rebuilt from the state sequence on
  resume; 16 bytes per state means 10^7 states cost ~160 MB of RAM while
  the multi-KB decoded states stay on disk;
* a spillable **FIFO frontier** — discovered-but-unexpanded digests; an
  in-memory window backed by a spill file, so a 10^6-wide frontier costs
  a bounded amount of RAM.

plus an append-only **expansion log** (``parent, task, action,
successor`` rows) from which :meth:`iter_expansions` replays the exact
edge structure for graph materialization and checkpoint compatibility.

Three backends implement the protocol:

* ``memory`` — plain dicts and deques; today's behavior, used to assert
  the identical-graph guarantee against the disk backends;
* ``sqlite`` — one WAL-mode database (stdlib ``sqlite3``), batched
  writes, durable ``flush()``;
* ``mmap``  — an append-only record log plus an on-disk open-addressing
  hash index (digest -> log offset), memory-mapped for reads.

Stores are selected with a string URI (resolved by
:func:`resolve_store`, the :func:`~repro.engine.budget.resolve_budget`
of storage)::

    ExplorationEngine(store="sqlite:/var/tmp/run")     # URI
    ExplorationEngine(store=StoreConfig(backend="mmap", path=...))
    ExplorationEngine(store=my_store_instance)          # pre-opened

Durability contract (the streaming-delta checkpoint protocol): the
engine calls :meth:`flush` every ``flush_interval`` expansions, then
writes a small *segment* file (counters + frontier digests — see
:mod:`repro.engine.checkpoint`).  :meth:`marks` returns the durable
high-water marks the flush established; on resume the engine calls
:meth:`truncate` with the marks recorded in the segment, dropping any
states or expansion rows the store absorbed after the last segment was
written, so a SIGKILL at any instruction resumes into a consistent
prefix of the run.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import tempfile
import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Hashable, Iterable, Iterator

from .fingerprint import DIGEST_SIZE

#: The backends :func:`open_store` can construct.
BACKENDS = ("memory", "sqlite", "mmap")

#: Default expansions between store flushes / delta segments.
DEFAULT_FLUSH_INTERVAL = 50_000

#: Default in-memory frontier window (digests) before spilling to disk.
DEFAULT_FRONTIER_WINDOW = 65_536

#: Default visited-set shard count (sharded by fingerprint prefix).
DEFAULT_SHARDS = 16


class StoreError(RuntimeError):
    """A storage backend failed or was driven outside its contract."""


@dataclass(frozen=True)
class StoreConfig:
    """How to open a :class:`StateStore`.

    ``backend`` is one of :data:`BACKENDS`.  ``path`` is the directory a
    disk backend lives in; ``None`` means a scratch temporary directory
    that is deleted when the store closes (fine for one-shot runs,
    useless for kill-and-resume — pass a real path to resume).
    ``flush_interval`` is the number of committed expansions between
    durable flushes (and therefore between delta-checkpoint segments);
    ``frontier_window`` bounds the in-memory frontier before digests
    spill to disk; ``shards`` is the visited-set shard count (sharded by
    the leading byte of the fingerprint).
    """

    backend: str = "memory"
    path: str | None = None
    flush_interval: int = DEFAULT_FLUSH_INTERVAL
    frontier_window: int = DEFAULT_FRONTIER_WINDOW
    shards: int = DEFAULT_SHARDS

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {', '.join(BACKENDS)}; got {self.backend!r}"
            )
        if self.flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        if self.frontier_window < 1:
            raise ValueError("frontier_window must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    @classmethod
    def from_uri(cls, uri: str) -> "StoreConfig":
        """Parse a store URI: ``memory``, ``sqlite:/path``, ``mmap:/path``.

        The path part is optional (a scratch directory is used when
        omitted).  Tuning knobs ride a query string:
        ``sqlite:/var/run?flush=10000&window=4096&shards=32``.
        """
        if not isinstance(uri, str) or not uri:
            raise ValueError(f"store URI must be a nonempty string, got {uri!r}")
        backend, _, rest = uri.partition(":")
        rest, _, query = rest.partition("?")
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown store backend {backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        overrides: dict = {}
        if query:
            names = {"flush": "flush_interval", "window": "frontier_window", "shards": "shards"}
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key not in names:
                    raise ValueError(
                        f"unknown store option {key!r}; expected one of "
                        f"{', '.join(sorted(names))}"
                    )
                try:
                    overrides[names[key]] = int(value)
                except ValueError:
                    raise ValueError(
                        f"store option {key}= must be an integer, got {value!r}"
                    ) from None
        return cls(backend=backend, path=rest or None, **overrides)

    def to_uri(self) -> str:
        """The canonical URI (inverse of :meth:`from_uri`, defaults omitted)."""
        uri = self.backend
        if self.path is not None:
            uri += f":{self.path}"
        query = []
        if self.flush_interval != DEFAULT_FLUSH_INTERVAL:
            query.append(f"flush={self.flush_interval}")
        if self.frontier_window != DEFAULT_FRONTIER_WINDOW:
            query.append(f"window={self.frontier_window}")
        if self.shards != DEFAULT_SHARDS:
            query.append(f"shards={self.shards}")
        if query:
            if self.path is None:
                uri += ":"
            uri += "?" + "&".join(query)
        return uri


@dataclass
class StoreStats:
    """Storage counters one exploration accumulated (``EngineReport`` feed)."""

    backend: str
    states: int = 0
    spilled_states: int = 0
    flushes: int = 0
    flush_seconds: float = 0.0
    last_flush_seconds: float = 0.0
    bytes_on_disk: int = 0

    def to_json(self) -> dict:
        """JSON-serializable payload (the shared report protocol)."""
        return {
            "backend": self.backend,
            "states": self.states,
            "spilled_states": self.spilled_states,
            "flushes": self.flushes,
            "flush_seconds": self.flush_seconds,
            "last_flush_seconds": self.last_flush_seconds,
            "bytes_on_disk": self.bytes_on_disk,
        }


class _ShardedVisited:
    """Exact in-memory visited membership, sharded by fingerprint prefix.

    The shard key is the digest's leading byte — fingerprints are
    uniform, so prefix sharding balances for free.  Sharding keeps each
    set small enough that CPython's set resizing never stalls a run on
    one multi-hundred-MB rehash, and gives a disk backend a natural
    unit for future per-shard eviction.
    """

    __slots__ = ("_shards", "_mask", "count")

    def __init__(self, shards: int) -> None:
        size = 1
        while size < shards:
            size <<= 1
        self._shards: list[set] = [set() for _ in range(size)]
        self._mask = size - 1
        self.count = 0

    def add(self, digest: bytes) -> bool:
        """Insert; True when the digest was new."""
        shard = self._shards[digest[0] & self._mask]
        if digest in shard:
            return False
        shard.add(digest)
        self.count += 1
        return True

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._shards[digest[0] & self._mask]

    def __len__(self) -> int:
        return self.count


class _SpillFrontier:
    """FIFO digest queue: an in-memory window backed by a spill file.

    Order invariant: ``head + spill_file[cursor:] + tail``.  Pushes land
    in ``head`` until the window fills, then go through ``tail`` into
    the spill file; pops drain ``head``, refilling it from the spill
    file (then from ``tail``) when it empties.  ``push_front`` exists
    for the engine's budget-breach repair (re-queue the half-merged
    state at the head).  The spill file is scratch: crash recovery
    rebuilds the frontier from the delta segment, not from this file.
    """

    __slots__ = (
        "digest_size",
        "window",
        "_head",
        "_tail",
        "_path",
        "_file",
        "_read_offset",
        "_write_offset",
        "spilled",
    )

    def __init__(self, directory: Path | None, digest_size: int, window: int) -> None:
        self.digest_size = digest_size
        self.window = window
        self._head: deque = deque()
        self._tail: deque = deque()
        self._path = None if directory is None else directory / "frontier.spill"
        self._file = None
        self._read_offset = 0
        self._write_offset = 0
        self.spilled = 0

    def _spill_handle(self):
        if self._file is None:
            if self._path is None:
                raise StoreError("in-memory frontier cannot spill")
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self._path, "w+b")
        return self._file

    def _spill_len(self) -> int:
        return (self._write_offset - self._read_offset) // self.digest_size

    def push(self, digest: bytes) -> None:
        if self._spill_len() == 0 and not self._tail and len(self._head) < self.window:
            self._head.append(digest)
            return
        self._tail.append(digest)
        if len(self._tail) >= self.window:
            self._spill_tail()

    def _spill_tail(self) -> None:
        handle = self._spill_handle()
        handle.seek(self._write_offset)
        blob = b"".join(self._tail)
        handle.write(blob)
        self._write_offset += len(blob)
        self.spilled += len(self._tail)
        self._tail.clear()

    def push_front(self, digest: bytes) -> None:
        self._head.appendleft(digest)

    def pop(self) -> bytes | None:
        if not self._head:
            self._refill()
        if not self._head:
            return None
        return self._head.popleft()

    def _refill(self) -> None:
        pending = self._spill_len()
        if pending:
            handle = self._spill_handle()
            handle.seek(self._read_offset)
            take = min(pending, self.window)
            blob = handle.read(take * self.digest_size)
            self._read_offset += len(blob)
            size = self.digest_size
            self._head.extend(
                blob[offset : offset + size] for offset in range(0, len(blob), size)
            )
            if self._spill_len() == 0:
                # Fully drained: rewind so the file never grows unboundedly.
                handle.seek(0)
                handle.truncate(0)
                self._read_offset = self._write_offset = 0
            return
        if self._tail:
            self._head, self._tail = self._tail, self._head

    def __len__(self) -> int:
        return len(self._head) + self._spill_len() + len(self._tail)

    def __bool__(self) -> bool:
        return len(self) > 0

    def snapshot(self) -> bytes:
        """Every queued digest, in pop order, as one concatenated blob."""
        parts = [b"".join(self._head)]
        if self._spill_len():
            handle = self._spill_handle()
            handle.seek(self._read_offset)
            parts.append(handle.read(self._write_offset - self._read_offset))
        parts.append(b"".join(self._tail))
        return b"".join(parts)

    def load(self, blob: bytes) -> None:
        """Replace the queue contents with a :meth:`snapshot` blob."""
        self._head.clear()
        self._tail.clear()
        if self._file is not None:
            self._file.seek(0)
            self._file.truncate(0)
        self._read_offset = self._write_offset = 0
        size = self.digest_size
        for offset in range(0, len(blob), size):
            self.push(blob[offset : offset + size])

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._path is not None:
            try:
                self._path.unlink()
            except FileNotFoundError:
                pass


class StateStore(ABC):
    """The backend protocol external-memory exploration runs against.

    One store instance serves exactly one exploration (one root).  All
    sequence numbers are discovery indices: :meth:`add` must assign them
    contiguously from 0 in call order, because the engine relies on
    append order being BFS discovery order to reproduce the classic
    engine's graph.

    The expansion log mirrors the classic engine's ``edges`` dict:
    :meth:`append_expansion` is called once per expanded state, in
    expansion order, with that state's outgoing rows (possibly empty —
    pruned and quarantined states record an empty expansion, exactly as
    the classic engine records ``edges[state] = []``).
    """

    #: True when the backend survives process death (enables delta
    #: checkpoints; the memory backend snapshots monolithically instead).
    durable = False

    config: StoreConfig
    digest_size: int

    # -- states ------------------------------------------------------------

    @abstractmethod
    def add(self, digest: bytes, packed: bytes) -> int:
        """Record a newly discovered state; returns its discovery index.

        Discovery indices are contiguous from 0 in call order (= BFS
        discovery order); ``add`` also inserts into the visited set.
        Adding an already-present digest is an idempotent no-op — the
        store keeps the first packed bytes — and returns ``-1`` (the
        engine checks membership first, so the duplicate path is only a
        safety net for replay/recovery callers).
        """

    @abstractmethod
    def get(self, digest: bytes) -> bytes | None:
        """The packed bytes of a discovered state (None when unknown)."""

    @abstractmethod
    def __contains__(self, digest: bytes) -> bool:
        """Visited-set membership."""

    @abstractmethod
    def __len__(self) -> int:
        """States discovered so far."""

    @abstractmethod
    def iter_packed(self) -> Iterator[bytes]:
        """Every state's packed bytes, in discovery order."""

    # -- expansion log -----------------------------------------------------

    @abstractmethod
    def append_expansion(
        self, parent: bytes, rows: list[tuple[int, int, bytes]]
    ) -> None:
        """Record one expansion: ``rows`` are ``(task, action_slot, succ_digest)``."""

    @abstractmethod
    def iter_expansions(self) -> Iterator[tuple[bytes, list[tuple[int, int, bytes]]]]:
        """Expansions in commit order (graph materialization)."""

    @abstractmethod
    def action_slot(self, action: Hashable) -> int:
        """Intern an action object; returns its stable slot."""

    @abstractmethod
    def actions(self) -> list:
        """The interned action table, by slot."""

    # -- frontier ----------------------------------------------------------

    @abstractmethod
    def push(self, digest: bytes) -> None:
        """Queue a digest at the frontier's tail."""

    @abstractmethod
    def push_front(self, digest: bytes) -> None:
        """Re-queue a digest at the frontier's head (budget repair)."""

    @abstractmethod
    def pop(self) -> bytes | None:
        """Dequeue the next frontier digest (None when empty)."""

    @abstractmethod
    def frontier_snapshot(self) -> bytes:
        """The queued digests, pop order, concatenated (segment payload)."""

    @abstractmethod
    def frontier_load(self, blob: bytes) -> None:
        """Replace the frontier with a :meth:`frontier_snapshot` blob."""

    @abstractmethod
    def frontier_len(self) -> int:
        """Queued digests."""

    # -- durability --------------------------------------------------------

    @abstractmethod
    def flush(self) -> None:
        """Make everything added so far durable; advances :meth:`marks`."""

    def marks(self) -> dict:
        """Backend-opaque high-water marks of the last :meth:`flush`."""
        return {}

    def truncate(self, marks: dict) -> None:
        """Drop everything recorded after ``marks`` (resume reconciliation)."""
        raise StoreError(f"{self.config.backend} store cannot truncate")

    @abstractmethod
    def clear(self) -> None:
        """Drop everything: a fresh-start engine wipes a stale store."""

    # -- lifecycle ---------------------------------------------------------

    @abstractmethod
    def stats(self) -> StoreStats:
        """Current :class:`StoreStats`."""

    @abstractmethod
    def close(self) -> None:
        """Release resources (scratch directories are deleted here)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryStore(StateStore):
    """Plain in-RAM backend behind the store protocol.

    The engine opens one for every digest-deduplicated run without a
    configured store (``workers > 1`` or ``audit=True``), and tests use
    it to assert the digest-native drivers identical to the in-RAM one
    (and to the disk backends) without any disk in the loop; not
    durable, so checkpointing falls back to monolithic snapshots.
    """

    durable = False

    def __init__(self, config: StoreConfig, digest_size: int = DIGEST_SIZE) -> None:
        self.config = config
        self.digest_size = digest_size
        self._packed: dict[bytes, bytes] = {}
        self._order: list[bytes] = []
        self._expansions: list = []
        self._actions: list = []
        self._action_index: dict = {}
        self._frontier: deque = deque()
        self._flushes = 0

    def add(self, digest: bytes, packed: bytes) -> int:
        if digest in self._packed:
            return -1
        index = len(self._order)
        self._packed[digest] = packed
        self._order.append(digest)
        return index

    def get(self, digest: bytes) -> bytes | None:
        return self._packed.get(digest)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._packed

    def __len__(self) -> int:
        return len(self._order)

    def iter_packed(self) -> Iterator[bytes]:
        packed = self._packed
        return (packed[digest] for digest in self._order)

    def append_expansion(self, parent, rows) -> None:
        self._expansions.append((parent, rows))

    def iter_expansions(self):
        return iter(self._expansions)

    def action_slot(self, action) -> int:
        slot = self._action_index.get(action)
        if slot is None:
            slot = self._action_index[action] = len(self._actions)
            self._actions.append(action)
        return slot

    def actions(self) -> list:
        return self._actions

    def push(self, digest: bytes) -> None:
        self._frontier.append(digest)

    def push_front(self, digest: bytes) -> None:
        self._frontier.appendleft(digest)

    def pop(self) -> bytes | None:
        return self._frontier.popleft() if self._frontier else None

    def frontier_snapshot(self) -> bytes:
        return b"".join(self._frontier)

    def frontier_load(self, blob: bytes) -> None:
        size = self.digest_size
        self._frontier = deque(
            blob[offset : offset + size] for offset in range(0, len(blob), size)
        )

    def frontier_len(self) -> int:
        return len(self._frontier)

    def flush(self) -> None:
        self._flushes += 1

    def clear(self) -> None:
        self._packed.clear()
        self._order.clear()
        self._expansions.clear()
        self._actions.clear()
        self._action_index.clear()
        self._frontier.clear()

    def stats(self) -> StoreStats:
        return StoreStats(
            backend="memory", states=len(self._order), flushes=self._flushes
        )

    def close(self) -> None:
        self._packed.clear()
        self._order.clear()
        self._expansions.clear()
        self._frontier.clear()


class _DiskStore(StateStore):
    """Shared plumbing of the durable backends (directory, frontier, stats)."""

    durable = True

    def __init__(self, config: StoreConfig, digest_size: int = DIGEST_SIZE) -> None:
        self.config = config
        self.digest_size = digest_size
        if config.path is None:
            self._scratch = True
            self.directory = Path(tempfile.mkdtemp(prefix=f"repro-{config.backend}-"))
        else:
            self._scratch = False
            self.directory = Path(config.path)
            self.directory.mkdir(parents=True, exist_ok=True)
        self._visited = _ShardedVisited(config.shards)
        self._frontier = _SpillFrontier(
            self.directory, digest_size, config.frontier_window
        )
        self._flushes = 0
        self._flush_seconds = 0.0
        self._last_flush_seconds = 0.0
        self._closed = False

    # frontier delegation
    def push(self, digest: bytes) -> None:
        self._frontier.push(digest)

    def push_front(self, digest: bytes) -> None:
        self._frontier.push_front(digest)

    def pop(self) -> bytes | None:
        return self._frontier.pop()

    def frontier_snapshot(self) -> bytes:
        return self._frontier.snapshot()

    def frontier_load(self, blob: bytes) -> None:
        self._frontier.load(blob)

    def frontier_len(self) -> int:
        return len(self._frontier)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self._visited

    def __len__(self) -> int:
        return len(self._visited)

    def _disk_bytes(self) -> int:
        total = 0
        try:
            for entry in self.directory.iterdir():
                try:
                    total += entry.stat().st_size
                except OSError:  # pragma: no cover - raced deletion
                    pass
        except OSError:  # pragma: no cover - directory gone
            pass
        return total

    def stats(self) -> StoreStats:
        return StoreStats(
            backend=self.config.backend,
            states=len(self._visited),
            spilled_states=self._frontier.spilled,
            flushes=self._flushes,
            flush_seconds=self._flush_seconds,
            last_flush_seconds=self._last_flush_seconds,
            bytes_on_disk=self._disk_bytes(),
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._frontier.close()
        self._close_backend()
        if self._scratch:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _close_backend(self) -> None:  # pragma: no cover - overridden
        pass


class SQLiteStore(_DiskStore):
    """The ``sqlite`` backend: one WAL database, batched durable writes.

    ``states`` rows carry discovery order via an autoincrementing
    ``seq``; ``expansions``/``edges`` replay the classic engine's edges
    dict in commit order (an expansion of ``nrows`` owns the next
    ``nrows`` edge rows).  Writes buffer in RAM and hit the database in
    one transaction per :meth:`flush`, so the durability point the delta
    checkpoints rely on is also the only fsync.
    """

    def __init__(self, config: StoreConfig, digest_size: int = DIGEST_SIZE) -> None:
        import sqlite3

        super().__init__(config, digest_size)
        self._db = sqlite3.connect(self.directory / "store.db")
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(
            """
            CREATE TABLE IF NOT EXISTS states(
                seq INTEGER PRIMARY KEY, digest BLOB UNIQUE NOT NULL,
                packed BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS expansions(
                seq INTEGER PRIMARY KEY, parent BLOB NOT NULL,
                nrows INTEGER NOT NULL);
            CREATE TABLE IF NOT EXISTS edges(
                seq INTEGER PRIMARY KEY, task INTEGER NOT NULL,
                action INTEGER NOT NULL, succ BLOB NOT NULL);
            CREATE TABLE IF NOT EXISTS meta(
                key TEXT PRIMARY KEY, value BLOB NOT NULL);
            """
        )
        self._count = 0
        self._pending_states: list[tuple[bytes, bytes]] = []
        self._pending_packed: dict[bytes, bytes] = {}
        self._pending_expansions: list[tuple[bytes, int]] = []
        self._pending_edges: list[tuple[int, int, bytes]] = []
        self._actions: list = []
        self._action_index: dict = {}
        self._actions_dirty = False
        self._reload()

    def _reload(self) -> None:
        """Adopt an existing database (resume): visited set + counters."""
        row = self._db.execute("SELECT MAX(seq) FROM states").fetchone()
        if row[0] is None:
            return
        for (digest,) in self._db.execute("SELECT digest FROM states ORDER BY seq"):
            self._visited.add(bytes(digest))
        self._count = len(self._visited)
        blob = self._db.execute(
            "SELECT value FROM meta WHERE key='actions'"
        ).fetchone()
        if blob is not None:
            self._actions = pickle.loads(blob[0])
            self._action_index = {
                action: slot for slot, action in enumerate(self._actions)
            }

    def add(self, digest: bytes, packed: bytes) -> int:
        if not self._visited.add(digest):
            return -1
        index = self._count
        self._count += 1
        self._pending_states.append((digest, packed))
        self._pending_packed[digest] = packed
        return index

    def get(self, digest: bytes) -> bytes | None:
        packed = self._pending_packed.get(digest)
        if packed is not None:
            return packed
        row = self._db.execute(
            "SELECT packed FROM states WHERE digest=?", (digest,)
        ).fetchone()
        return None if row is None else bytes(row[0])

    def iter_packed(self) -> Iterator[bytes]:
        self.flush()
        for (packed,) in self._db.execute("SELECT packed FROM states ORDER BY seq"):
            yield bytes(packed)

    def append_expansion(self, parent, rows) -> None:
        self._pending_expansions.append((parent, len(rows)))
        self._pending_edges.extend(rows)

    def iter_expansions(self):
        self.flush()
        edges = self._db.execute(
            "SELECT task, action, succ FROM edges ORDER BY seq"
        )
        cursor = 0
        rows = edges.fetchall()
        for parent, nrows in self._db.execute(
            "SELECT parent, nrows FROM expansions ORDER BY seq"
        ).fetchall():
            out = [
                (task, action, bytes(succ))
                for task, action, succ in rows[cursor : cursor + nrows]
            ]
            cursor += nrows
            yield bytes(parent), out

    def action_slot(self, action) -> int:
        slot = self._action_index.get(action)
        if slot is None:
            slot = self._action_index[action] = len(self._actions)
            self._actions.append(action)
            self._actions_dirty = True
        return slot

    def actions(self) -> list:
        return self._actions

    def flush(self) -> None:
        if not (
            self._pending_states
            or self._pending_expansions
            or self._pending_edges
            or self._actions_dirty
        ):
            return
        started = time.perf_counter()
        with self._db:  # one transaction: all-or-nothing per flush
            self._db.executemany(
                "INSERT INTO states(digest, packed) VALUES(?, ?)",
                self._pending_states,
            )
            self._db.executemany(
                "INSERT INTO expansions(parent, nrows) VALUES(?, ?)",
                self._pending_expansions,
            )
            self._db.executemany(
                "INSERT INTO edges(task, action, succ) VALUES(?, ?, ?)",
                self._pending_edges,
            )
            if self._actions_dirty:
                self._db.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES('actions', ?)",
                    (pickle.dumps(self._actions, protocol=pickle.HIGHEST_PROTOCOL),),
                )
                self._actions_dirty = False
        self._pending_states.clear()
        self._pending_packed.clear()
        self._pending_expansions.clear()
        self._pending_edges.clear()
        self._last_flush_seconds = time.perf_counter() - started
        self._flushes += 1
        self._flush_seconds += self._last_flush_seconds

    def marks(self) -> dict:
        return {"states": self._count, "expansions": self._expansion_count()}

    def _expansion_count(self) -> int:
        pending = len(self._pending_expansions)
        row = self._db.execute("SELECT COUNT(*) FROM expansions").fetchone()
        return row[0] + pending

    def truncate(self, marks: dict) -> None:
        self.flush()
        states = marks["states"]
        expansions = marks["expansions"]
        with self._db:
            keep_edges = self._db.execute(
                "SELECT COALESCE(SUM(nrows), 0) FROM expansions "
                "WHERE seq <= (SELECT COALESCE(MAX(seq), 0) FROM ("
                "SELECT seq FROM expansions ORDER BY seq LIMIT ?))",
                (expansions,),
            ).fetchone()[0]
            self._db.execute(
                "DELETE FROM states WHERE seq NOT IN "
                "(SELECT seq FROM states ORDER BY seq LIMIT ?)",
                (states,),
            )
            self._db.execute(
                "DELETE FROM expansions WHERE seq NOT IN "
                "(SELECT seq FROM expansions ORDER BY seq LIMIT ?)",
                (expansions,),
            )
            self._db.execute(
                "DELETE FROM edges WHERE seq NOT IN "
                "(SELECT seq FROM edges ORDER BY seq LIMIT ?)",
                (keep_edges,),
            )
        self._visited = _ShardedVisited(self.config.shards)
        self._count = 0
        self._reload()

    def clear(self) -> None:
        self._pending_states.clear()
        self._pending_packed.clear()
        self._pending_expansions.clear()
        self._pending_edges.clear()
        with self._db:
            self._db.execute("DELETE FROM states")
            self._db.execute("DELETE FROM expansions")
            self._db.execute("DELETE FROM edges")
            self._db.execute("DELETE FROM meta")
        self._visited = _ShardedVisited(self.config.shards)
        self._count = 0
        self._actions = []
        self._action_index = {}
        self._actions_dirty = False
        self._frontier.load(b"")

    def _close_backend(self) -> None:
        try:
            self.flush()
        finally:
            self._db.close()


#: mmap backend record headers.
_LOG_HEADER = struct.Struct("<I")  # packed length; digest follows, then packed
_EXP_HEADER = struct.Struct("<H")  # row count; rows follow
_EDGE_ROW = struct.Struct("<HI")  # task, action slot; succ digest follows
_SLOT = struct.Struct("<Q")  # log offset + 1 (0 = empty slot)

#: Initial mmap index capacity (slots; grows by rebuild at 60% load).
_INDEX_MIN_SLOTS = 1 << 15


class MmapStore(_DiskStore):
    """The ``mmap`` backend: append-only logs + an on-disk hash index.

    ``states.log`` holds ``[len][digest][packed]`` records in discovery
    order; ``index.bin`` is an open-addressing table of 8-byte slots
    (log offset + 1, keyed by the digest bits at the slot's position)
    memory-mapped for reads and writes.  ``edges.log`` holds the
    expansion records.  Appends buffer in RAM; :meth:`flush` writes and
    fsyncs the logs and flushes the index pages, which is the durable
    point :meth:`marks` reports.  The index is sized for the digests it
    holds and rebuilt at double size past 60% load (an offline rehash —
    the store is single-process by contract).
    """

    def __init__(self, config: StoreConfig, digest_size: int = DIGEST_SIZE) -> None:
        import mmap as _mmap

        super().__init__(config, digest_size)
        self._mmap_module = _mmap
        self._log = open(self.directory / "states.log", "a+b")
        self._edges = open(self.directory / "edges.log", "a+b")
        self._index_path = self.directory / "index.bin"
        self._count = 0
        self._log_offset = 0
        self._edges_offset = 0
        self._expansions = 0
        self._pending: list[tuple[bytes, bytes]] = []
        self._pending_packed: dict[bytes, bytes] = {}
        self._pending_offset: dict[bytes, int] = {}
        self._pending_edges: list[bytes] = []
        self._pending_expansions = 0
        self._actions: list = []
        self._action_index: dict = {}
        self._actions_dirty = False
        self._slots = 0
        self._index = None
        self._open_index(_INDEX_MIN_SLOTS)
        self._adopt_log()

    # -- index plumbing ----------------------------------------------------

    def _open_index(self, slots: int) -> None:
        if self._index is not None:
            self._index.close()
        size = slots * _SLOT.size
        with open(self._index_path, "a+b") as handle:
            handle.seek(0, os.SEEK_END)
            if handle.tell() < size:
                handle.truncate(size)
        self._index_file = open(self._index_path, "r+b")
        actual = os.fstat(self._index_file.fileno()).st_size
        self._slots = actual // _SLOT.size
        self._index = self._mmap_module.mmap(self._index_file.fileno(), 0)

    def _probe(self, digest: bytes) -> tuple[int, int | None]:
        """(slot index for insert, stored offset or None) for ``digest``."""
        mask = self._slots - 1
        index = int.from_bytes(digest[:8], "little") & mask
        view = self._index
        while True:
            position = index * _SLOT.size
            (value,) = _SLOT.unpack_from(view, position)
            if value == 0:
                return index, None
            offset = value - 1
            if self._digest_at(offset) == digest:
                return index, offset
            index = (index + 1) & mask

    def _digest_at(self, offset: int) -> bytes:
        self._log.seek(offset + _LOG_HEADER.size)
        return self._log.read(self.digest_size)

    def _packed_at(self, offset: int) -> bytes:
        self._log.seek(offset)
        (length,) = _LOG_HEADER.unpack(self._log.read(_LOG_HEADER.size))
        self._log.seek(offset + _LOG_HEADER.size + self.digest_size)
        return self._log.read(length)

    def _index_insert(self, digest: bytes, offset: int) -> None:
        if (self._count + 1) * 10 > self._slots * 6:
            self._grow_index()
        slot, existing = self._probe(digest)
        if existing is None:
            _SLOT.pack_into(self._index, slot * _SLOT.size, offset + 1)

    def _grow_index(self) -> None:
        entries = []
        view = self._index
        for slot in range(self._slots):
            (value,) = _SLOT.unpack_from(view, slot * _SLOT.size)
            if value:
                entries.append(value)
        self._index.close()
        self._index = None
        self._index_file.close()
        self._index_path.unlink()
        self._open_index(self._slots * 2)
        mask = self._slots - 1
        for value in entries:
            digest = self._digest_at(value - 1)
            index = int.from_bytes(digest[:8], "little") & mask
            while True:
                position = index * _SLOT.size
                (existing,) = _SLOT.unpack_from(self._index, position)
                if existing == 0:
                    _SLOT.pack_into(self._index, position, value)
                    break
                index = (index + 1) & mask

    def _adopt_log(self) -> None:
        """Scan an existing log (resume): rebuild visited set + index."""
        self._log.seek(0, os.SEEK_END)
        end = self._log.tell()
        if end == 0:
            return
        offset = 0
        while offset < end:
            self._log.seek(offset)
            header = self._log.read(_LOG_HEADER.size)
            if len(header) < _LOG_HEADER.size:
                break  # torn tail from a crash mid-write; dropped
            (length,) = _LOG_HEADER.unpack(header)
            digest = self._log.read(self.digest_size)
            record_end = offset + _LOG_HEADER.size + self.digest_size + length
            if len(digest) < self.digest_size or record_end > end:
                break
            self._visited.add(digest)
            self._count += 1
            self._index_insert(digest, offset)
            offset = record_end
        self._log_offset = offset
        self._log.truncate(offset)
        self._edges.seek(0, os.SEEK_END)
        self._edges_offset = self._edges.tell()
        self._expansions = self._count_expansions(self._edges_offset)
        actions_path = self.directory / "actions.pkl"
        if actions_path.exists():
            self._actions = pickle.loads(actions_path.read_bytes())
            self._action_index = {
                action: slot for slot, action in enumerate(self._actions)
            }

    def _count_expansions(self, end: int) -> int:
        count = 0
        offset = 0
        size = self.digest_size
        while offset < end:
            self._edges.seek(offset + size)
            header = self._edges.read(_EXP_HEADER.size)
            if len(header) < _EXP_HEADER.size:
                break
            (nrows,) = _EXP_HEADER.unpack(header)
            offset += size + _EXP_HEADER.size + nrows * (_EDGE_ROW.size + size)
            if offset > end:
                break
            count += 1
        return count

    # -- protocol ----------------------------------------------------------

    def add(self, digest: bytes, packed: bytes) -> int:
        if not self._visited.add(digest):
            return -1
        index = self._count
        self._count += 1
        self._pending.append((digest, packed))
        self._pending_packed[digest] = packed
        return index

    def get(self, digest: bytes) -> bytes | None:
        packed = self._pending_packed.get(digest)
        if packed is not None:
            return packed
        _, offset = self._probe(digest)
        return None if offset is None else self._packed_at(offset)

    def iter_packed(self) -> Iterator[bytes]:
        self.flush()
        offset = 0
        while offset < self._log_offset:
            yield self._packed_at(offset)
            self._log.seek(offset)
            (length,) = _LOG_HEADER.unpack(self._log.read(_LOG_HEADER.size))
            offset += _LOG_HEADER.size + self.digest_size + length

    def append_expansion(self, parent, rows) -> None:
        parts = [parent, _EXP_HEADER.pack(len(rows))]
        for task, action, succ in rows:
            parts.append(_EDGE_ROW.pack(task, action))
            parts.append(succ)
        self._pending_edges.append(b"".join(parts))
        self._pending_expansions += 1

    def iter_expansions(self):
        self.flush()
        offset = 0
        size = self.digest_size
        end = self._edges_offset
        while offset < end:
            self._edges.seek(offset)
            parent = self._edges.read(size)
            (nrows,) = _EXP_HEADER.unpack(self._edges.read(_EXP_HEADER.size))
            rows = []
            for _ in range(nrows):
                task, action = _EDGE_ROW.unpack(self._edges.read(_EDGE_ROW.size))
                rows.append((task, action, self._edges.read(size)))
            offset += size + _EXP_HEADER.size + nrows * (_EDGE_ROW.size + size)
            yield parent, rows

    def action_slot(self, action) -> int:
        slot = self._action_index.get(action)
        if slot is None:
            slot = self._action_index[action] = len(self._actions)
            self._actions.append(action)
            self._actions_dirty = True
        return slot

    def actions(self) -> list:
        return self._actions

    def flush(self) -> None:
        if not (self._pending or self._pending_edges or self._actions_dirty):
            return
        started = time.perf_counter()
        if self._pending:
            # Write the whole batch as one blob and flush it BEFORE any
            # index insert.  The inserts probe the log (``_digest_at``
            # on slot collisions, and ``_grow_index`` re-reads every
            # entry), and interleaving those buffered-file reads with
            # buffered appends silently LOSES writes on CPython's
            # ``a+b`` files — reads reposition the stream and pending
            # buffered writes are dropped instead of landing at EOF.
            offset = self._log_offset
            blob = bytearray()
            inserts = []
            for digest, packed in self._pending:
                blob += _LOG_HEADER.pack(len(packed))
                blob += digest
                blob += packed
                inserts.append((digest, offset))
                offset += _LOG_HEADER.size + len(digest) + len(packed)
            self._log.seek(self._log_offset)
            self._log.write(blob)
            self._log.flush()
            os.fsync(self._log.fileno())
            self._log_offset = offset
            for digest, record_offset in inserts:
                self._index_insert(digest, record_offset)
        else:
            self._log.flush()
            os.fsync(self._log.fileno())
        if self._pending_edges:
            self._edges.seek(self._edges_offset)
            blob = b"".join(self._pending_edges)
            self._edges.write(blob)
            self._edges_offset += len(blob)
            self._expansions += self._pending_expansions
            self._edges.flush()
            os.fsync(self._edges.fileno())
        if self._actions_dirty:
            blob = pickle.dumps(self._actions, protocol=pickle.HIGHEST_PROTOCOL)
            temporary = self.directory / f"actions.pkl.tmp{os.getpid()}"
            temporary.write_bytes(blob)
            os.replace(temporary, self.directory / "actions.pkl")
            self._actions_dirty = False
        self._index.flush()
        self._pending.clear()
        self._pending_packed.clear()
        self._pending_edges.clear()
        self._pending_expansions = 0
        self._last_flush_seconds = time.perf_counter() - started
        self._flushes += 1
        self._flush_seconds += self._last_flush_seconds

    def marks(self) -> dict:
        return {
            "states": self._count,
            "log_offset": self._log_offset + sum(
                _LOG_HEADER.size + self.digest_size + len(packed)
                for _, packed in self._pending
            ),
            "edges_offset": self._edges_offset
            + sum(len(blob) for blob in self._pending_edges),
            "expansions": self._expansions + self._pending_expansions,
        }

    def truncate(self, marks: dict) -> None:
        self.flush()
        self._log.truncate(marks["log_offset"])
        self._edges.truncate(marks["edges_offset"])
        self._edges_offset = marks["edges_offset"]
        self._expansions = marks["expansions"]
        # Rebuild membership and the index from the surviving log prefix.
        self._visited = _ShardedVisited(self.config.shards)
        self._count = 0
        self._log_offset = 0
        self._index.close()
        self._index = None
        self._index_file.close()
        self._index_path.unlink()
        self._open_index(_INDEX_MIN_SLOTS)
        self._adopt_log()

    def clear(self) -> None:
        self._pending.clear()
        self._pending_packed.clear()
        self._pending_edges.clear()
        self._pending_expansions = 0
        self._actions = []
        self._action_index = {}
        self._actions_dirty = False
        (self.directory / "actions.pkl").unlink(missing_ok=True)
        self._log.truncate(0)
        self._edges.truncate(0)
        self._frontier.load(b"")
        self.truncate(
            {"states": 0, "log_offset": 0, "edges_offset": 0, "expansions": 0}
        )

    def _close_backend(self) -> None:
        try:
            self.flush()
        finally:
            if self._index is not None:
                self._index.close()
            self._index_file.close()
            self._log.close()
            self._edges.close()


def open_store(
    config: StoreConfig,
    digest_size: int = DIGEST_SIZE,
    namespace: str | None = None,
) -> StateStore:
    """Open a backend for one exploration.

    ``namespace`` (the engine passes the root digest's hex) is appended
    to the configured path so one configured directory can serve every
    exploration of a pipeline without the visited sets colliding —
    exactly how checkpoint files are named by root digest.
    """
    if namespace is not None and config.path is not None:
        config = replace(config, path=str(Path(config.path) / namespace))
    if config.backend == "memory":
        return MemoryStore(config, digest_size)
    if config.backend == "sqlite":
        return SQLiteStore(config, digest_size)
    return MmapStore(config, digest_size)


def resolve_store(store) -> StoreConfig | StateStore | None:
    """Resolve the engine's ``store=`` argument (URI, config, instance).

    Returns ``None`` (the engine chooses: in-RAM exploration, or a
    memory store it owns), a
    :class:`StoreConfig` the engine opens per exploration (namespaced by
    root digest), or a ready :class:`StateStore` instance the caller
    owns (bound to exactly one exploration).
    """
    if store is None or isinstance(store, (StoreConfig, StateStore)):
        return store
    if isinstance(store, str):
        return StoreConfig.from_uri(store)
    raise TypeError(
        "store must be None, a URI string, a StoreConfig, or a StateStore; "
        f"got {type(store).__name__}"
    )


def resolve_flush_interval(
    flush_interval: int | None,
    *,
    store: StoreConfig | StateStore | None = None,
) -> int:
    """Resolve the engine's ``flush_interval=``.

    One ``flush_interval`` governs both the delta-segment cadence of
    disk-backed runs and the monolithic-snapshot cadence of in-RAM and
    memory-store runs; it defaults from the store's own
    :attr:`StoreConfig.flush_interval` when a store is configured.
    """
    if flush_interval is not None:
        return flush_interval
    config = getattr(store, "config", store)
    if isinstance(config, StoreConfig):
        return config.flush_interval
    return DEFAULT_FLUSH_INTERVAL
