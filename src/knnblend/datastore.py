"""Immutable store of (key vector, label) pairs with exact nearest-neighbor search.

Keys are held in float32 (storage precision); every distance a search returns
is `core.sq_dists` of the float32 key against the float64 query, which widens
the key exactly. Search is exact and runs in two stages for each chunk of
`QUERY_CHUNK` queries. A prefilter computes approximate distances with one
float32 matrix product against the keys, together with a rigorous bound on
their error whose constants are fixed when the store is built; every key that
the bound cannot rule out of the top k is a candidate. The candidate limit
starts from any value at or above the k-th smallest approximate distance: on
a store of at least 64 k keys, the k-th smallest of the minima of strided
groups of `GROUP_SIZE` keys, so only a sixteenth of the row is partitioned.
The exact recheck then runs `sq_dists` over the candidate rows, `KEY_BLOCK`
rows at a time, and keeps the first k of one stable sort by distance; the
candidates are in ascending index order, so that is the (distance, index)
order and ties stay exact. When a query and the keys are large enough that
the float32 pass could overflow, every key is a candidate. The rule and the
bound are written out in `Datastore.search_batch`.

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

from .core import DimensionMismatchError, sq_dists

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
# The recheck's float64 differences for one block of candidate keys stay in
# cache (1 MiB at dim 32); a chunk bounds the (queries, count) float32 matrix
# of one prefilter pass.
KEY_BLOCK = 4096
QUERY_CHUNK = 8
# Keys i and i + g share a strided group of the prefilter's threshold step,
# for g = count // GROUP_SIZE.
GROUP_SIZE = 16
_U32 = 2.0**-24  # unit roundoff of float32


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
        with np.errstate(over="ignore"):  # a key beyond float32 range fails the check in _own
            keys_arr = np.array(keys, dtype=np.float32, order="C", copy=True)
        self._own(keys_arr, labels, num_labels)

    @classmethod
    def _adopt(cls, keys: np.ndarray, labels, num_labels: int) -> "Datastore":
        """A store that keeps `keys`, a C-contiguous float32 matrix that only the
        caller holds and gives up, instead of copying it."""
        store = cls.__new__(cls)
        store._own(keys, labels, num_labels)
        return store

    def _own(self, keys_arr: np.ndarray, labels, num_labels: int) -> None:
        """Check and keep a float32 key matrix no one else holds, with its labels."""
        if keys_arr.ndim != 2:
            raise ValueError(f"keys must be a 2-d array, got shape {keys_arr.shape}")
        # A float32 square fits float64: a key's norm is finite iff its entries are.
        norms = np.einsum("ij,ij->i", keys_arr, keys_arr, dtype=np.float64)
        if not np.all(np.isfinite(norms)):
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
        # Prefilter constants: squared key norms (float64, then rounded to
        # float32, inf where they overflow it), the largest key norm M, and the
        # coefficients of the bound E = c0 + c1 n + c2 (M + n)^2 for a query of
        # norm n, with the float32 dot-product error factor
        # gamma_d = d*u / (1 - d*u).
        with np.errstate(over="ignore"):
            self._norms32 = norms.astype(np.float32)
        m = float(np.sqrt(norms.max())) if norms.size else 0.0
        d = keys_arr.shape[1]
        du = d * _U32
        gamma = du / (1.0 - du) if du < 1.0 else np.inf
        self._max_norm = m
        self._bound = (
            2.0 * (3.0 * _U32 * m * m + d * (m + 1.0) * 2.0**-120),
            2.0 * (4.0 * _U32 + 3.0 * gamma) * m,
            2.0 * (d + 3) * 2.0**-52,
        )
        self._labels = labels_arr
        self._num_labels = int(num_labels)

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
        """Stored keys, float32, shape (count, dim): a read-only view, which numpy
        will not make writeable because the store's own matrix is read-only."""
        return self._keys.view()

    @property
    def labels(self) -> np.ndarray:
        """Stored labels, int64, shape (count,): a read-only view, like `keys`."""
        return self._labels.view()

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

        Exactness. For a query q let D_i = `sq_dists(keys, q)[i]` and D_(k)
        be the k-th smallest D. The prefilter computes in float32, from one
        matrix product, A_i = |k_i|^2 + k_i . fl32(-2q); scaling q by -2
        before the cast is exact, and the query's own |q|^2 is the same for
        every key and is left out. Take any tau >= kth(A), the k-th smallest
        A. If every |A_i + |q|^2 - D_i| <= E, the k keys of smallest A have
        D <= tau + |q|^2 + E, so D_(k) <= tau + |q|^2 + E, and every key with
        D_i <= D_(k) has A_i <= tau + 2E. The candidates
        {i : A_i <= tau + 2E} therefore hold every key at or below D_(k),
        ties included, and the (distance, index) top k of the candidates,
        rechecked with `sq_dists`, is the top k of the whole store. The
        candidates are in ascending index order, so the first k of one stable
        sort of their distances is that top k.

        Choosing tau. Let g = count // GROUP_SIZE. Key i < GROUP_SIZE g lies
        in strided group i mod g, and the fewer than GROUP_SIZE tail keys
        beyond stand alone. When g >= 4k, tau is the k-th smallest of the g
        group minima and the tail's A: those k smallest values are the A of k
        distinct keys, so tau >= kth(A). That takes one elementwise minimum
        and a partition of about count / GROUP_SIZE values, not of all count.
        Strided groups keep adjacent keys, often rows of one class and so
        neighbors of one query, apart; the k nearest keys then mostly lie in
        distinct groups, and tau stays close to kth(A). Smaller stores take
        tau = kth(A) from a partition of every A; the choice depends only on
        count and k.

        The bound. With u = 2^-24, gamma = d u / (1 - d u), M = max_i |k_i|
        and n = |q|,

            E = 2 [(4u + 3 gamma) M n + 3u M^2
                   + (d + 3) 2^-52 (M + n)^2 + d (M + 1) 2^-120],

        held as E = c0 + c1 n + c2 (M + n)^2 with c0, c1 and c2 fixed when
        the store is built. In the first term, 2u M n covers rounding -2q to
        float32, 2 gamma M n the float32 product in any summation order, with
        or without fused multiply-add (|fl(k.p) - k.p| <= gamma sum_j |k_j p_j|
        <= gamma M |p|), and the rest the final float32 addition; 3u M^2
        covers the float64 norm rounded to float32 and that addition. The
        third term is the float64 rounding of `sq_dists` itself, at most
        gamma64_(d+2) |k - q|^2 <= (d + 3) 2^-52 (M + n)^2. The last term
        covers underflow, flush-to-zero included. The factor 2 covers the
        float64 evaluation of E, M and n, and the limit tau + 2E is rounded
        to float32 and then moved one step up, so it is never below the real
        sum.

        Overflow. If (M + n)^2 < 2^126, no A_i overflows float32: the exact
        terms sum to at most M^2 + 2 M n <= (M + n)^2 in magnitude, and with
        d u < 1 the float32 pass enlarges that by less than e. Otherwise (a
        query or keys near or beyond float32 range), and whenever E or the
        limit is not finite, every key is a candidate, and the recheck runs
        over them all.
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
            approx, limit = self._prefilter(chunk, kk)
            for row, q in enumerate(chunk):
                if np.isfinite(limit[row]):
                    cand = np.flatnonzero(approx[row] <= limit[row])
                else:
                    cand = np.arange(self.count)
                dists = np.empty(cand.shape[0])
                for start in range(0, cand.shape[0], KEY_BLOCK):
                    block = cand[start : start + KEY_BLOCK]
                    dists[start : start + block.shape[0]] = sq_dists(self._keys[block], q)
                # cand is in ascending index order, so a stable sort by
                # distance orders the candidates by (distance, index).
                top = np.argsort(dists, kind="stable")[:kk]
                indices[lo + row] = cand[top]
                distances[lo + row] = dists[top]
        return indices, distances

    def _prefilter(self, chunk: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Float32 approximate distances A, shape (queries, count), and each
        query's candidate limit tau + 2E (not finite: every key is a
        candidate). See `search_batch` for the rule, tau and the bound."""
        m = self._max_norm
        c0, c1, c2 = self._bound
        with np.errstate(over="ignore", invalid="ignore"):
            approx = (chunk * -2.0).astype(np.float32) @ self._keys.T
            approx += self._norms32
            n = np.sqrt(np.einsum("ij,ij->i", chunk, chunk))
            span = (m + n) ** 2
            groups = self.count // GROUP_SIZE
            if groups >= 4 * k:
                body = approx[:, : GROUP_SIZE * groups].reshape(len(chunk), GROUP_SIZE, groups)
                tail = approx[:, GROUP_SIZE * groups :]
                pool = np.concatenate([np.minimum.reduce(body, axis=1), tail], axis=1)
            else:
                pool = approx
            tau = np.partition(pool, k - 1, axis=1)[:, k - 1]
            limit = np.nextafter(
                (tau + 2.0 * (c0 + c1 * n + c2 * span)).astype(np.float32), np.float32(np.inf)
            )
            limit[~(span < 2.0**126)] = np.inf
        return approx, limit

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

