"""Persistent compiled-trace cache: capture once per decomposition, ever.

Even with periodic capture (:mod:`repro.simmpi.capture`) a cold process
pays one short recorder pass per distinct (deck, decomposition, network,
processor) combination.  This module persists the resulting
:class:`~repro.simmpi.trace.CompiledTrace` to disk under the same
fingerprint-keyed, atomic-write, verified-read discipline as the sweep
cache (:class:`~repro.experiments.diskcache.SweepDiskCache` — both build
on :class:`repro.diskio.DirectoryStore`), so

* decks sharing a decomposition never re-capture across processes (a
  sweep's multiprocessing workers and later CLI runs all hit one store),
* the fleet can ship warm traces between machines through the
  ``ArtifactStore`` flow (:func:`repro.experiments.remotestore.
  push_trace_entries` / ``pull_trace_entries``), and
* the prediction service's warm tiers extend down into capture.

Entries are ``.npz`` payloads: the trace's compact event/send columns are
stored as raw numpy arrays (byte-exact, so a cache hit replays
bit-identically to the capture that stored it), with the fingerprint
key, per-rank statistics, traffic and captured return values in a small
pickled side-channel inside the archive.  A corrupt, truncated or
foreign entry — including one written by a different format version —
is a miss, never an error.

Keys are built by :meth:`~repro.sweep3d.driver.SimulationPlan.
trace_fingerprint`: deck shape + decomposition + processor/topology
models + capture-relevant config, and deliberately *not* the machine
name or noise parameters — a trace is a pattern, shared by every noise
seed and by presets that alias the same models.
"""

from __future__ import annotations

import io
import pickle
import zipfile
from typing import Any

import numpy as np

from repro.diskio import DirectoryStore
from repro.simmpi.trace import CompiledTrace

#: Format marker stored with every entry; bump to invalidate old caches.
_TRACE_CACHE_VERSION = 1

#: Event/send columns persisted as raw npz arrays, in constructor order.
_COLUMNS = ("event_kind", "event_rank", "event_slot", "event_aux",
            "base", "noise_kind", "send_eager", "send_rank",
            "event_peer", "event_tag", "event_nbytes")


class TraceDiskCache(DirectoryStore):
    """A directory of npz-serialised compiled traces keyed by fingerprint.

    Shares :class:`~repro.diskio.DirectoryStore`'s contract: atomic
    writes, verified reads, lock-guarded hit/miss/store stats,
    ``prune``/``clear`` bounding, safe concurrent sharing across
    processes, and pickling across multiprocessing workers.
    """

    suffix = ".npz"
    _decode_errors = (zipfile.BadZipFile, pickle.PickleError, EOFError,
                      AttributeError, ImportError, TypeError)

    def _encode(self, key: tuple, trace: CompiledTrace) -> bytes:
        arrays = {
            "event_kind": trace.event_kind,
            "event_rank": trace.event_rank,
            "event_slot": trace.event_slot,
            "event_aux": trace.event_aux,
            "base": trace._base,
            "noise_kind": trace._noise_kind,
            "send_eager": trace._send_eager_arr,
            "send_rank": trace._send_rank_arr,
            "event_peer": trace.event_peer,
            "event_tag": trace.event_tag,
            "event_nbytes": trace.event_nbytes,
        }
        extra = pickle.dumps(
            (_TRACE_CACHE_VERSION, key, trace.nranks,
             trace._messages_sent, trace._bytes_sent,
             trace._messages_received, trace._bytes_received,
             trace._traffic, trace._return_values),
            protocol=pickle.HIGHEST_PROTOCOL)
        buffer = io.BytesIO()
        np.savez(buffer, extra=np.frombuffer(extra, dtype=np.uint8),
                 **arrays)
        return buffer.getvalue()

    def _decode(self, data: bytes, key: tuple) -> CompiledTrace:
        with np.load(io.BytesIO(data), allow_pickle=False) as archive:
            columns = {name: archive[name] for name in _COLUMNS}
            extra = archive["extra"].tobytes()
        (version, stored_key, nranks, messages_sent, bytes_sent,
         messages_received, bytes_received, traffic,
         return_values) = pickle.loads(extra)
        if version != _TRACE_CACHE_VERSION or stored_key != key:
            # Format change or (astronomically unlikely) digest collision.
            raise ValueError("stale or foreign trace-cache entry")
        return CompiledTrace(
            nranks=nranks,
            messages_sent=messages_sent,
            bytes_sent=bytes_sent,
            messages_received=messages_received,
            bytes_received=bytes_received,
            traffic=traffic,
            return_values=return_values,
            **columns,
        )


class TraceMemory:
    """Compiled traces held in memory, optionally in front of a disk cache.

    ``api.simulate`` and the prediction service pass one as every plan's
    ``trace_cache``, so a configuration rerun at a new noise seed replays
    instead of capturing again.  ``disk`` is read on a miss and written
    through on a store.
    """

    def __init__(self, disk: TraceDiskCache | None = None):
        self.disk = disk
        self._traces: dict[tuple, CompiledTrace] = {}

    def get(self, key: tuple) -> CompiledTrace | None:
        trace = self._traces.get(key)
        if trace is None and self.disk is not None:
            trace = self.disk.get(key)
            if trace is not None:
                self._traces[key] = trace
        return trace

    def put(self, key: tuple, trace: CompiledTrace) -> None:
        self._traces[key] = trace
        if self.disk is not None:
            self.disk.put(key, trace)


def trace_cache_for(path: "str | Any") -> TraceDiskCache:
    """Coerce ``path`` (str/Path/cache) into a :class:`TraceDiskCache`."""
    if isinstance(path, TraceDiskCache):
        return path
    return TraceDiskCache(path)
