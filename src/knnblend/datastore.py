"""Immutable store of (key vector, label) pairs with exact nearest-neighbor search.

Keys are held in float32 (storage precision); every distance a search returns
is `core.sq_dists` of the float32 key against the float64 query, which widens
the key exactly. Search is exact and runs on chunks of queries, each chunk as
large as keeps its (queries, count) float32 block within `WORK_BYTES` and at
least `MIN_CHUNK` queries (`chunk_rows`). The numpy calls of a chunk do not
grow with its query count. A prefilter computes approximate distances
with one float32 matrix product against the keys, together with a rigorous
bound on their error whose constants are fixed when the store is built; every
key that the bound cannot rule out of a query's top k is a candidate. The
candidate limit starts from any value at or above the k-th smallest
approximate distance: on a store of at least 64 k keys, the k-th smallest of
the minima of strided groups of `GROUP_SIZE` keys, so only a sixteenth of the
row is partitioned, and the candidate scan visits only the groups whose
minimum is within the limit. The exact recheck then runs `sq_dists` over the
chunk's candidates together, in blocks whose float64 work arrays stay within
`WORK_BYTES` too, and keeps each query's first k by (distance, index). Each
query's candidates are in ascending index order, so a stable sort by
distance gives that order and ties stay exact. A search of one query takes
that sort; a chunk of queries takes numpy's faster default sort, and sorts
again, stably, only the rows with a tie among their first k + 1 sorted
distances: if those k + 1 hold no equal pair, the first k are the same keys
in the same order under any sort. When a query and the keys are large
enough that the float32 pass could overflow, every key is a candidate. The
rule and the bound are written out in `Datastore.search_batch`.

`search_batch` is its checks plus the search kernel `_search`, which the
scoring path calls itself; the `retrieval` module docstring says where the
path checks its inputs.

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

import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Bound, DimensionMismatchError, as_int64s, as_labels, as_number, sq_dists

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
# The neighbor count's bound, which `RetrievalParams.k` declares too.
K_BOUND = Bound(1)
# The budget of each work array of a search, as arrays just above 256 KiB cost
# far more. A chunk of queries shares one prefilter product: as many rows as
# keep its (rows, count) float32 block within it, and never fewer than
# MIN_CHUNK; `_prefilter`'s np.partition copies the block it partitions, so a
# chunk holds two blocks at its peak. The exact recheck gathers and differences
# as many candidates at a time as keep each of its (candidates, dim) float64
# work arrays within it: 1,024 at dim 32. `retrieval.key_blocks` sizes the key
# build's blocks by it too.
WORK_BYTES = 2**18
MIN_CHUNK = 8
# Keys i and i + g share a strided group of the prefilter's threshold step,
# for g = count // GROUP_SIZE.
GROUP_SIZE = 16
_U32 = 2.0**-24  # unit roundoff of float32
_INF32 = np.float32(np.inf)
# The float32 value below float32's largest: a limit that rounds above it
# rounds, after the step up, to the largest value or to inf, which every
# finite A passes.
_BELOW_MAX32 = float(np.nextafter(np.finfo(np.float32).max, np.float32(0)))


def chunk_rows(count: int) -> int:
    """Queries per chunk of `Datastore.search_batch` on a store of `count` keys."""
    return max(MIN_CHUNK, WORK_BYTES // (4 * max(count, 1)))


def check_queries(qs: np.ndarray) -> np.ndarray:
    """Refuse a query array that is not a finite (batch, dim) matrix; returns it."""
    if qs.ndim != 2 or not np.isfinite(qs).all():
        raise ValueError(f"queries must be a finite (batch, dim) array, got {qs.shape}")
    return qs


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
        num_labels = as_number(num_labels, "num_labels")
        if num_labels > 2**32 - 1:
            raise ValueError(f"num_labels must be at most {2**32 - 1}, the file's u32, "
                             f"got {num_labels}")
        labels_arr = as_labels(as_int64s(labels, "labels"), num_labels)
        if labels_arr.ndim != 1 or labels_arr.shape[0] != keys_arr.shape[0]:
            raise ValueError(
                f"labels shape {labels_arr.shape} does not match {keys_arr.shape[0]} keys"
            )
        if keys_arr.shape[0] > 0 and keys_arr.shape[1] == 0:
            raise ValueError("keys must have positive dimension")
        keys_arr.setflags(write=False)
        labels_arr.setflags(write=False)
        self._keys = keys_arr
        # Prefilter constants: squared key norms (float64, then rounded to
        # float32, inf where they overflow it), the largest key norm M, and the
        # coefficients of the margin 2E = c0 + c1 n + c2 (M + n)^2 for a query
        # of norm n, with the float32 dot-product error factor
        # gamma_d = d*u / (1 - d*u).
        with np.errstate(over="ignore"):
            self._norms32 = norms.astype(np.float32)
        m = float(np.sqrt(norms.max())) if norms.size else 0.0
        d = keys_arr.shape[1]
        du = d * _U32
        gamma = du / (1.0 - du) if du < 1.0 else np.inf
        self._max_norm = m
        # A query's span (M + n)^2 at or beyond this makes every key a
        # candidate: the float32 pass may overflow, or (d u >= 1) its error
        # has no bound.
        self._span_limit = 2.0**126 if du < 1.0 else 0.0
        self._margin = (
            4.0 * (3.0 * _U32 * m * m + d * (m + 1.0) * 2.0**-120),
            4.0 * (4.0 * _U32 + 3.0 * gamma) * m,
            4.0 * (d + 3) * 2.0**-52,
        )
        self._labels = labels_arr
        self._num_labels = num_labels

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
        candidates are in ascending index order, so the first k of a stable
        sort of their distances is that top k.

        Sorting. Any sort puts a row's k + 1 smallest distances first, in
        order, but may order equal ones either way. If those k + 1 hold no
        equal pair, the first k are strictly below every other distance and
        each belongs to one key, so every sort, stable or not, gives the same
        k keys in the same order. A chunk's rows therefore take numpy's
        default sort, several times faster than its stable one, and only the
        rows with an equal pair among their first k + 1 sorted distances are
        sorted again, stably. A search of one query takes the stable sort.

        Chunks. Queries run in chunks of `chunk_rows(count)`. Each chunk
        takes one matrix product, one partition for its taus, one scan for
        every query's candidates, one recheck of all of them and one sort of
        a (queries, width) matrix that holds each query's rechecked
        candidates in a row, padded with inf after the last (two pads among
        a row's first k + 1 count as a tie). A batch of one query does the
        same on a 1-d row (`_search_one`), with n, the span and tau as
        Python floats, and sorts its candidates as they stand. The float32
        rounding of A can change with the chunk's row count and with the
        BLAS thread count, and so can the candidates, but the argument above
        holds for any A within the bound, so the results never change: row b
        is the same for every batch and every split of it.

        Choosing tau. Let g = count // GROUP_SIZE. Key i < GROUP_SIZE g lies
        in strided group i mod g, and the fewer than GROUP_SIZE tail keys
        beyond stand alone. When g >= 4k, tau is the k-th smallest of the g
        group minima and the tail's A: those k smallest values are the A of k
        distinct keys, so tau >= kth(A). That takes one elementwise minimum
        and a partition of about count / GROUP_SIZE values, not of all count,
        and a group whose minimum exceeds the limit holds no candidate, so
        the scan reads only the members of the groups within it.
        Strided groups keep adjacent keys, often rows of one class and so
        neighbors of one query, apart; the k nearest keys then mostly lie in
        distinct groups, and tau stays close to kth(A). Smaller stores take
        tau = kth(A) from a partition of every A; the choice depends only on
        count and k.

        The bound. With u = 2^-24, gamma = d u / (1 - d u), M = max_i |k_i|
        and n = |q|,

            E = 2 [(4u + 3 gamma) M n + 3u M^2
                   + (d + 3) 2^-52 (M + n)^2 + d (M + 1) 2^-120],

        held as 2E = c0 + c1 n + c2 (M + n)^2 with c0, c1 and c2 fixed when
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
        query or keys near or beyond float32 range), and for every query
        when d u >= 1 leaves gamma and the bound infinite, every key is a
        candidate, and the recheck runs over them all. A limit beyond float32
        range rounds to inf, which every finite A passes.
        """
        if self.count == 0:
            raise RetrievalUnavailableError("cannot search an empty datastore")
        k = as_number(k, "k", int, K_BOUND)
        qs = check_queries(np.asarray(queries, dtype=np.float64))
        if qs.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"query dimension {qs.shape[1]} does not match datastore dimension {self.dim}"
            )
        return self._search(qs, k)

    def _search(self, qs: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The search kernel: `search_batch` of a finite float64 (B, dim) query
        matrix and an int k >= 1 on a non-empty store, none of which it checks.
        One query (dim,) gives its (min(k, count),) hits, by `_search_one`."""
        kk = min(k, self.count)
        if qs.ndim == 1 or qs.shape[0] == 1:
            index, dist = self._search_one(qs.reshape(-1), kk)
            return (index, dist) if qs.ndim == 1 else (index[None], dist[None])
        indices = np.empty((qs.shape[0], kk), dtype=np.int64)
        distances = np.empty((qs.shape[0], kk))
        step = chunk_rows(self.count)
        for lo in range(0, qs.shape[0], step):
            chunk = qs[lo : lo + step]
            nq = chunk.shape[0]
            rows, cand = self._prefilter(chunk, kk)
            dists = self._recheck(cand, chunk, rows)
            # Sort each row of an (nq, width) matrix whose row b holds query
            # b's candidates in ascending index order: a stable sort by
            # distance orders them by (distance, index). Rows with fewer than
            # `width` candidates are padded after their last one with inf,
            # which that sort keeps after every candidate. The rows take the
            # default sort and the tied ones are re-sorted stably (see
            # Sorting above).
            counts = np.bincount(rows, minlength=nq)
            width = int(counts.max())
            if width * nq != cand.shape[0]:
                at = rows * width + np.arange(cand.shape[0]) - (np.cumsum(counts) - counts)[rows]
                pad_dists = np.full(nq * width, np.inf)
                pad_cand = np.zeros(nq * width, dtype=np.int64)
                pad_dists[at], pad_cand[at] = dists, cand
                dists, cand = pad_dists, pad_cand
            mat = dists.reshape(nq, width)
            order = np.argsort(mat, axis=1)
            head = np.take_along_axis(mat, order[:, : kk + 1], axis=1)
            tied = (head[:, 1:] == head[:, :-1]).any(axis=1)
            if tied.any():
                order[tied] = np.argsort(mat[tied], axis=1, kind="stable")
            top = order[:, :kk]
            top += np.arange(0, nq * width, width)[:, None]
            indices[lo : lo + nq] = cand[top]
            distances[lo : lo + nq] = dists[top]
        return indices, distances

    def _search_one(self, q: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The search of one query q (dim,), for k <= count: its (k,) indices
        and distances. `_prefilter`'s rule on a 1-d row, with n (by
        `math.hypot`, which does not overflow before |q| does), the span and
        tau as Python floats; its candidates, in ascending index order, take a
        stable sort."""
        n = math.hypot(*q.tolist())
        span = self._span(n)
        if not span < self._span_limit:
            cand = np.arange(self.count)
        else:
            approx = (q * -2.0).astype(np.float32) @ self._keys.T
            approx += self._norms32
            grouped = self.count // GROUP_SIZE >= 4 * k
            pool = self._group_minima(approx) if grouped else approx
            limit = self._limit(float(np.partition(pool, k - 1)[k - 1]), n, span)
            if grouped:
                units = (pool <= limit).nonzero()[0]
                cand = self._scan_groups(approx, units, units, limit)
            else:
                cand = (approx <= limit).nonzero()[0]
        dists = self._recheck(cand, q)
        top = np.argsort(dists, kind="stable")[:k]
        return cand[top], dists[top]

    def _span(self, n):
        """(M + n)^2 for a query norm n, a float or an array; every key is a
        candidate of a query whose span reaches `_span_limit`. A product, as
        Python's ** raises OverflowError where numpy gives inf."""
        return (self._max_norm + n) * (self._max_norm + n)

    def _limit(self, tau, n, span):
        """The candidate limit tau + 2E, 2E = c0 + c1 n + c2 span, of queries
        of norm n and span `_span(n)`, rounded to float32 and moved one step
        up, so it is never below the real sum. Floats give a float32 scalar
        (inf beyond float32 range, which np.float32 would warn of), arrays an
        array; every finite A passes a limit beyond float32 range."""
        c0, c1, c2 = self._margin
        limit = tau + (c0 + c1 * n + c2 * span)
        if isinstance(limit, float):
            return np.nextafter(np.float32(limit), _INF32) if limit < _BELOW_MAX32 else _INF32
        with np.errstate(over="ignore"):
            return np.nextafter(limit.astype(np.float32), _INF32)

    def _recheck(self, cand: np.ndarray, queries: np.ndarray,
                 rows: np.ndarray | None = None) -> np.ndarray:
        """`sq_dists` of each candidate key against its query: `queries` itself
        (one (dim,) query), or row `rows[i]` of it for candidate i. Runs in
        blocks of candidates whose float64 work arrays stay within WORK_BYTES."""
        block = max(1, WORK_BYTES // (8 * self.dim))
        parts = [
            sq_dists(np.take(self._keys, cand[at : at + block], axis=0),
                     queries if rows is None else np.take(queries, rows[at : at + block], axis=0))
            for at in range(0, cand.shape[0], block)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _group_minima(self, approx: np.ndarray) -> np.ndarray:
        """The threshold step's pool along the last axis of `approx`: the
        minimum of each strided group of GROUP_SIZE keys, then the tail keys."""
        groups = self.count // GROUP_SIZE
        body = approx[..., : GROUP_SIZE * groups]
        body = body.reshape(*approx.shape[:-1], GROUP_SIZE, groups)
        return np.concatenate([np.minimum.reduce(body, axis=-2),
                               approx[..., GROUP_SIZE * groups :]], axis=-1)

    def _scan_groups(self, approx: np.ndarray, units: np.ndarray, first: np.ndarray,
                     limits) -> np.ndarray:
        """The candidates, ascending, among the members of the pool units within
        their limit. Unit u < groups is the group of keys u + groups j, for j <
        GROUP_SIZE; a tail unit u >= groups is the one key u + groups
        (GROUP_SIZE - 1), the last of those. `first` is each unit's first
        member as a flat position in `approx`, and `limits` its limit."""
        groups = self.count // GROUP_SIZE
        members = first[:, None] + np.arange(0, GROUP_SIZE * groups, groups)
        hit = approx.ravel()[members] <= limits
        if self.count > GROUP_SIZE * groups:
            hit[units >= groups, :-1] = False
        return np.sort(members[hit])

    def _prefilter(self, chunk: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The candidates of a chunk of queries, as (rows, keys): the chunk row
        and the key index of each, ordered by row and then by index. Row b's
        are the keys whose float32 approximate distance A is within its limit
        tau + 2E, or every key when its span reaches `_span_limit`. See
        `search_batch` for the rule, tau and the bound."""
        count = self.count
        with np.errstate(over="ignore", invalid="ignore"):
            approx = (chunk * -2.0).astype(np.float32) @ self._keys.T
            approx += self._norms32
            n = np.sqrt(np.einsum("ij,ij->i", chunk, chunk))
            span = self._span(n)
            grouped = count // GROUP_SIZE >= 4 * k
            pool = self._group_minima(approx) if grouped else approx
            limit = self._limit(np.partition(pool, k - 1, axis=1)[:, k - 1], n, span)
            if not span.max() < self._span_limit:
                full = ~(span < self._span_limit)
                limit[full] = np.inf
                approx[full] = pool[full] = 0.0
        if grouped:
            r, u = np.divmod(np.flatnonzero(pool <= limit[:, None]), pool.shape[1])
            flat = self._scan_groups(approx, u, r * count + u, limit[r, None])
        else:
            flat = np.flatnonzero(approx <= limit[:, None])
        return np.divmod(flat, count)

    def save(self, path) -> None:
        """Write the store in the binary format documented in the module docstring.

        The header, the key matrix's own little-endian float32 buffer (a copy
        only on a big-endian host) and the u32 labels are written in turn
        after a running checksum over them, so the keys are never copied into
        a payload. Checksumming every part before the first write was faster
        than checksumming each part just before it is written."""
        parts = (MAGIC + _HEADER.pack(FORMAT_VERSION, self.dim, self.count, self.num_labels),
                 self._keys.astype("<f4", copy=False), self._labels.astype("<u4"))
        crc = 0
        for part in parts:
            crc = zlib.crc32(part, crc)
        with open(path, "wb") as file:
            for part in parts:
                file.write(part)
            file.write(struct.pack("<I", crc))

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
            return cls(keys, labels, num_labels)
        except ValueError as exc:
            raise DatastoreLoadError(f"invalid stored contents: {exc}") from exc

