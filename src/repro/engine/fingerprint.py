"""Canonical, stable state fingerprinting.

The engine's visited set stores fixed-size digests (8-16 bytes) instead
of full ``State`` objects: workers dedupe and shard by digest, and
checkpoints identify explorations by the digest of their root.  Two
properties make a digest usable for that:

* **canonical** — equal states yield equal digests no matter how their
  parts were built.  Python's builtin ``hash`` fails this across
  *processes* (string hashing is salted per interpreter via
  ``PYTHONHASHSEED``), and ``pickle`` fails it for ``frozenset`` (dump
  order follows salted iteration order).  The canonical encoding
  therefore encodes values itself: a tag-length-value scheme in which
  unordered collections are serialized in sorted-encoding order, so the
  encoding is a pure function of the value;
* **stable** — the encoding depends only on the value's structure, never
  on interpreter state, so digests computed in a worker process, the
  coordinator, or a later resume of a checkpointed run all agree.

The encoding itself lives in :mod:`repro.engine.codec` — since the
packed-bytes refactor it is the engine's *primary* state representation
(shipped over worker pipes and stored in checkpoints), not just hash
input, and the codec adds the decode path and interning caches.  This
module keeps the digest-level API on top of it: :func:`fingerprint`
and :func:`shard_of`.  The visited set itself is the state store's
(:mod:`repro.engine.store`).

Soundness: a digest collision would make the engine silently identify
two distinct states (dropping one subtree of the graph).  With the
default 16-byte BLAKE2b digest, the collision probability over an
``n``-state exploration is about ``n^2 / 2^129`` — below ``10^-28`` even
at a billion states.  For certification-grade runs the engine's
**collision-audit mode** (``ExplorationEngine(audit=True)``) compares
the packed bytes of every successor whose digest is already visited
with the stored bytes and raises :class:`FingerprintCollision` on a
mismatch, turning the probabilistic argument into a checked one (at the
cost of shipping packed bytes on every worker reply row).
"""

from __future__ import annotations

from typing import Any

from .codec import (  # noqa: F401  (canonical_bytes re-exported for compat)
    DIGEST_SIZE,
    canonical_bytes,
    digest_of_packed,
)


class FingerprintCollision(RuntimeError):
    """Two distinct states produced the same digest (audit mode only)."""


def fingerprint(value: Any, digest_size: int = DIGEST_SIZE) -> bytes:
    """The ``digest_size``-byte canonical digest of ``value``."""
    return digest_of_packed(canonical_bytes(value), digest_size)


def shard_of(digest: bytes, shards: int) -> int:
    """The worker shard owning ``digest`` (frontier partitioning)."""
    return int.from_bytes(digest[:8], "big") % shards
