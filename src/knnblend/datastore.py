"""Immutable store of (key vector, label) pairs with exact nearest-neighbor search.

Keys are held in float32 (storage precision) and widened to float64 for all
distance math. Search is exact brute force: `core.sq_dists` over blocks of
`KEY_BLOCK` keys for each chunk of `QUERY_CHUNK` queries, then per query the
k-th smallest distance by `np.partition` and a (distance, index) sort of every
key at or below it, which keeps ties exact.

File format (little-endian)::

    magic   6 bytes  b"KNNDS1"
    version u16
    dim     u32
    count   u64
    num_labels u32
    keys    count*dim f32
    labels  count u32
    crc32   u32 over all preceding bytes
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DimensionMismatchError, as_vector, sq_dists

__all__ = [
    "BadMagicError",
    "ChecksumError",
    "Datastore",
    "DatastoreLoadError",
    "NeighborHit",
    "RetrievalUnavailableError",
    "TruncatedFileError",
    "VersionMismatchError",
]

MAGIC = b"KNNDS1"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<HIQI")  # version, dim, count, num_labels
# A block's float64 differences stay in cache (1 MiB at dim 32); a chunk bounds
# the (queries, count) distance matrix of one top-k pass.
KEY_BLOCK = 4096
QUERY_CHUNK = 8


class DatastoreLoadError(ValueError):
    """A datastore file could not be parsed."""


class BadMagicError(DatastoreLoadError):
    """The file does not start with the datastore magic bytes."""


class VersionMismatchError(DatastoreLoadError):
    """The file declares an unsupported format version."""


class TruncatedFileError(DatastoreLoadError):
    """The file ends before the declared payload is complete."""


class ChecksumError(DatastoreLoadError):
    """The stored CRC32 does not match the file contents."""


class RetrievalUnavailableError(RuntimeError):
    """Neighbor retrieval was requested but no neighbors exist to return."""


@dataclass(frozen=True)
class NeighborHit:
    """One retrieved neighbor: its store index, squared-L2 distance, and label."""

    index: int
    distance: float
    label: int


class Datastore:
    """Immutable collection of (key, label) pairs over a fixed label set."""

    def __init__(self, keys, labels, num_labels: int):
        keys_arr = np.array(keys, dtype=np.float32, order="C", copy=True)
        if keys_arr.ndim != 2:
            raise ValueError(f"keys must be a 2-d array, got shape {keys_arr.shape}")
        if not np.all(np.isfinite(keys_arr)):
            raise ValueError("keys contain non-finite entries")
        labels_arr = np.array(labels, dtype=np.int64, copy=True)
        if labels_arr.ndim != 1 or labels_arr.shape[0] != keys_arr.shape[0]:
            raise ValueError(
                f"labels shape {labels_arr.shape} does not match {keys_arr.shape[0]} keys"
            )
        if int(num_labels) < 1:
            raise ValueError("num_labels must be positive")
        if labels_arr.size and (labels_arr.min() < 0 or labels_arr.max() >= int(num_labels)):
            raise ValueError(f"labels must lie in [0, {int(num_labels) - 1}]")
        if keys_arr.shape[0] > 0 and keys_arr.shape[1] == 0:
            raise ValueError("keys must have positive dimension")
        keys_arr.setflags(write=False)
        labels_arr.setflags(write=False)
        self._keys = keys_arr
        self._keys64 = keys_arr.astype(np.float64)  # widened once; reused by search
        self._keys64.setflags(write=False)
        self._labels = labels_arr
        self._num_labels = int(num_labels)

    @classmethod
    def build(cls, entries, num_labels: int, dim: int | None = None) -> "Datastore":
        """Build a store from (vector, label) pairs, kept in input order.

        Duplicate keys are retained. `dim` is only needed when `entries` is
        empty and a specific key dimension should be recorded.
        """
        vectors: list[np.ndarray] = []
        labels: list[int] = []
        for pos, (vec, label) in enumerate(entries):
            v = as_vector(vec, f"entry {pos}")
            if dim is None:
                dim = v.shape[0]
            elif v.shape[0] != dim:
                raise DimensionMismatchError(
                    f"entry {pos} has dimension {v.shape[0]}, expected {dim}"
                )
            lab = int(label)
            if not 0 <= lab < int(num_labels):
                raise ValueError(
                    f"entry {pos} label {lab} out of range for {num_labels} labels"
                )
            vectors.append(v)
            labels.append(lab)
        if dim is None:
            dim = 0
        keys = np.asarray(vectors, dtype=np.float32).reshape(len(vectors), dim)
        return cls(keys, np.asarray(labels, dtype=np.int64), num_labels)

    @property
    def dim(self) -> int:
        return int(self._keys.shape[1])

    @property
    def count(self) -> int:
        return int(self._keys.shape[0])

    @property
    def num_labels(self) -> int:
        return self._num_labels

    @property
    def keys(self) -> np.ndarray:
        """Stored keys, float32, read-only, shape (count, dim)."""
        return self._keys

    @property
    def labels(self) -> np.ndarray:
        """Stored labels, read-only, shape (count,)."""
        return self._labels

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other) -> bool:
        if not isinstance(other, Datastore):
            return NotImplemented
        return (
            self.num_labels == other.num_labels
            and self._keys.shape == other._keys.shape
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._labels, other._labels)
        )

    __hash__ = None

    def search(self, query, k: int) -> list[NeighborHit]:
        """Exact k-nearest neighbors by squared-L2, ties broken by ascending index.

        Returns min(k, count) hits sorted by (distance, index). Raises
        RetrievalUnavailableError on an empty store.
        """
        indices, distances = self.search_batch(np.asarray(query, dtype=np.float64)[None], k)
        return [
            NeighborHit(index=int(i), distance=float(d), label=int(self._labels[i]))
            for i, d in zip(indices[0], distances[0])
        ]

    def search_batch(self, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
        """`search` for each row of a (B, dim) query matrix, as arrays.

        Returns (indices, distances), both of shape (B, min(k, count)); row b
        holds exactly the hits of `search(queries[b], k)`, in the same order.
        """
        if self.count == 0:
            raise RetrievalUnavailableError("cannot search an empty datastore")
        if int(k) < 1:
            raise ValueError("k must be at least 1")
        qs = np.asarray(queries, dtype=np.float64)
        if qs.ndim != 2 or not np.all(np.isfinite(qs)):
            raise ValueError(f"queries must be a finite (batch, dim) array, got {qs.shape}")
        if qs.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"query dimension {qs.shape[1]} does not match datastore dimension {self.dim}"
            )
        kk = min(int(k), self.count)
        indices = np.empty((qs.shape[0], kk), dtype=np.int64)
        distances = np.empty((qs.shape[0], kk))
        for lo in range(0, qs.shape[0], QUERY_CHUNK):
            chunk = qs[lo : lo + QUERY_CHUNK]
            dists = np.empty((chunk.shape[0], self.count))
            for start in range(0, self.count, KEY_BLOCK):
                block = self._keys64[start : start + KEY_BLOCK]
                for row, q in enumerate(chunk):
                    dists[row, start : start + block.shape[0]] = sq_dists(block, q)
            top = _top_k(dists, kk)
            indices[lo : lo + chunk.shape[0]] = top
            distances[lo : lo + chunk.shape[0]] = np.take_along_axis(dists, top, axis=1)
        return indices, distances

    def save(self, path) -> None:
        """Write the store in the binary format documented in the module docstring."""
        payload = bytearray()
        payload += MAGIC
        payload += _HEADER.pack(FORMAT_VERSION, self.dim, self.count, self.num_labels)
        payload += self._keys.astype("<f4", copy=False).tobytes(order="C")
        payload += self._labels.astype("<u4").tobytes()
        crc = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
        payload += struct.pack("<I", crc)
        Path(path).write_bytes(bytes(payload))

    @classmethod
    def load(cls, path) -> "Datastore":
        """Read a store written by `save`, raising a typed error on any corruption."""
        data = Path(path).read_bytes()
        if len(data) < len(MAGIC):
            raise TruncatedFileError(
                f"file has {len(data)} bytes, too short for the magic prefix"
            )
        if data[: len(MAGIC)] != MAGIC:
            raise BadMagicError(f"bad magic bytes {data[:len(MAGIC)]!r}")
        header_end = len(MAGIC) + _HEADER.size
        if len(data) < header_end:
            raise TruncatedFileError("file ends inside the header")
        version, dim, count, num_labels = _HEADER.unpack_from(data, len(MAGIC))
        if version != FORMAT_VERSION:
            raise VersionMismatchError(
                f"unsupported format version {version} (expected {FORMAT_VERSION})"
            )
        keys_bytes = count * dim * 4
        labels_bytes = count * 4
        expected = header_end + keys_bytes + labels_bytes + 4
        if len(data) < expected:
            raise TruncatedFileError(
                f"expected {expected} bytes for {count} entries, found {len(data)}"
            )
        if len(data) > expected:
            raise DatastoreLoadError(
                f"{len(data) - expected} trailing bytes after the checksum"
            )
        (stored_crc,) = struct.unpack_from("<I", data, expected - 4)
        actual_crc = zlib.crc32(data[: expected - 4]) & 0xFFFFFFFF
        if stored_crc != actual_crc:
            raise ChecksumError(
                f"checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
            )
        keys = np.frombuffer(
            data, dtype="<f4", count=count * dim, offset=header_end
        ).reshape(count, dim)
        labels = np.frombuffer(
            data, dtype="<u4", count=count, offset=header_end + keys_bytes
        )
        try:
            return cls(keys, labels.astype(np.int64), num_labels)
        except ValueError as exc:
            raise DatastoreLoadError(f"invalid stored contents: {exc}") from exc


def _top_k(dists: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest entries, by (distance, index).

    Every entry at or below the k-th smallest is a candidate, so a tie across
    the k-th place is settled by index, not by where `np.partition` put it.
    """
    kth = np.partition(dists, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(dists <= kth)
    order = np.lexsort((cols, dists[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.shape[0]) - np.searchsorted(rows, rows)
    return cols[rank < k].reshape(dists.shape[0], k)
