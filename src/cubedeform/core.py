"""Finite CAT(0) cube complexes in hyperplane half-space coordinates.

A complex is stored through its vertex set.  Each vertex is an ``n``-bit
integer: bit ``n-1-i`` records which half-space of hyperplane ``i``
contains the vertex, so a vertex printed as a bitstring reads hyperplane
0..n-1 left to right, and lexicographic order on bitstrings is numeric
order on the integers.  A vertex family is the 0-skeleton of a finite
CAT(0) cube complex exactly when it is connected in the Hamming-1 graph
and closed under coordinatewise majorities of triples (a median graph);
:class:`CubeComplex` validates both at construction.  Both are certified
by :func:`median_certificate` from the pair patterns the vertices take, in
O(V n^2) bit operations on machine words for V vertices; a breadth-first
search, to name an unreachable vertex, and the O(V^3) scan over triples, to
name the first violating triple, run only on a failure.

A cube is its smallest vertex (the anchor) and the set of hyperplanes
cutting it.  Each degree's cubes are held as 0/1 bit rows, anchor and
cutting bits with one packed key per cube (:class:`CubeArrays`): a
big-endian uint64 while the bits fit in 8 bytes, packed bytes compared as
``np.void`` beyond (:func:`row_keys`).  A (q+1)-cube (a, C + h) with
h > max C is found from its face (a, C) by setting bit h of the face's
key: the translate (a + h, C) must be a q-cube too.  ``Cube`` tuples are
a view of the rows made on first use.  Each level's face incidences are
one cached table, :meth:`CubeComplex.facets`: per q-cube (a, C), the
positions of its 2q facets (a, C - h) and (a + h, C - h) among the
(q-1)-cubes.  The term tables of d and delta, the edge ends and the
bounded-geometry statistic all gather from it.
Geometry reduces to bit arithmetic; in particular the edge-path distance
between vertices is the Hamming distance, because separating hyperplanes
count edges on any geodesic.  The bounded-geometry statistic counts the
cubes meeting a cube by the Euler characteristic of its face poset, in
array passes over the facet tables, with no per-corner sets.

Instances are immutable after construction and safe to share between
threads: caches only ever go from absent to computed.  A cache entry that
depends on the base vertex has it in its key, so copies of a complex with
another base vertex may share the cache.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Cube",
    "CubeArrays",
    "CubeComplex",
    "CxcParseError",
    "InvalidComplex",
    "bit_rows",
    "column_bits",
    "median_certificate",
    "median_closure",
    "median_hull",
    "median_of",
    "parse_cxc",
    "project_bits",
    "row_ints",
    "row_keys",
    "row_positions",
    "write_cxc",
]

# int64-safe coordinate width; the triple scan falls back to pure Python beyond it
_NUMPY_BIT_LIMIT = 62


class InvalidComplex(ValueError):
    """The vertex family does not describe a CAT(0) cube complex."""


class CxcParseError(ValueError):
    """Malformed cxc document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Cube(NamedTuple):
    """A cube keyed by its smallest vertex and the hyperplanes cutting it."""

    anchor: int
    cutting: tuple[int, ...]


class CubeArrays(NamedTuple):
    """The q-cubes in canonical order as 0/1 rows, one uint8 column per
    hyperplane: anchor bits, cutting bits, and ascending ``row_keys`` of
    the anchor bits and the complement of the cutting bits.  Ascending
    tuples of one size order lexicographically as their masks descend, so
    the keys ascend with the canonical order."""

    anchor: np.ndarray
    cutting: np.ndarray
    keys: np.ndarray


def median_of(u: int, v: int, w: int) -> int:
    """Coordinatewise majority of three bit vectors."""
    return (u & v) | (w & (u ^ v))


def project_bits(v: int, masks: Iterable[int]) -> int:
    """The bits of ``v`` under ``masks``, packed with the first mask highest."""
    out = 0
    for m in masks:
        out = out << 1 | (1 if v & m else 0)
    return out


def bit_rows(n: int, values: Iterable[int]) -> np.ndarray:
    """0/1 rows, one uint8 column per hyperplane (hyperplane 0 first), of
    ``n``-bit integers, read from their fixed-width big-endian bytes."""
    values = list(values)
    width = (n + 7) // 8
    raw = b"".join(v.to_bytes(width, "big") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(values), width),
                         axis=1)
    return bits[:, 8 * width - n:]


def row_ints(rows: np.ndarray) -> list[int]:
    """The integers of 0/1 rows, the first column highest: ``bit_rows`` inverted."""
    width = (rows.shape[1] + 7) // 8
    shift, raw = 8 * width - rows.shape[1], np.packbits(rows, axis=1).tobytes()
    return [int.from_bytes(raw[i * width:i * width + width], "big") >> shift
            for i in range(len(rows))]


def column_bits(columns: np.ndarray, n: int) -> np.ndarray:
    """0/1 rows of width ``n``, row i with ones at the columns ``columns[i]``."""
    out = np.zeros((len(columns), n), dtype=np.uint8)
    out[np.arange(len(columns))[:, None], columns] = 1
    return out


def row_keys(*blocks: np.ndarray) -> np.ndarray:
    """One key per row of the 0/1 ``blocks`` laid side by side: the bits
    packed into big-endian bytes, so keys order as their bits read left to
    right, at any width.  Up to 8 bytes, zero-padded on the right to 8 and
    read as one big-endian uint64 (``>u8``), which numpy sorts and compares
    natively; wider, compared as ``np.void``.  Either way the key's bytes
    are its packed bits, so a ``uint8`` view of ``dtype.itemsize`` columns
    edits them."""
    packed = np.packbits(np.hstack(blocks), axis=1)
    if packed.shape[1] <= 8:
        padded = np.zeros((len(packed), 8), dtype=np.uint8)
        padded[:, :packed.shape[1]] = packed
        return padded.view(">u8").ravel()
    return packed.view("V%d" % packed.shape[1]).ravel()


def row_positions(table: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``keys`` sits in the ascending keys ``table``, and
    whether it is there."""
    pos = np.searchsorted(table, keys)
    if not len(table):
        return pos, np.zeros(len(keys), dtype=bool)
    return pos, table[np.minimum(pos, len(table) - 1)] == keys


def median_hull(n: int, verts: Iterable[int]) -> list[int]:
    """Smallest median-closed set of ``n``-bit vectors containing ``verts``, ascending.

    A median-closed set is the solution set of its projections onto pairs of
    coordinates (a 2-SAT relation; Schaefer 1978), and every subset of
    {0,1}^2 is median-closed, so the hull is the solution set of the pair
    patterns ``verts`` takes.  These come from one majority-closed relation,
    so every prefix satisfying them extends (Baker & Pixley 1975): the
    depth-first walk over hyperplanes 0..n-1 never backtracks.  Cost: O(n^2)
    operations on ``len(verts)``-bit bitsets plus O(|hull| n) steps.
    """
    rows = [format(v | 1 << n, "b")[1:] for v in verts]  # n characters, also for n = 0
    if not rows:
        return []
    full = (1 << len(rows)) - 1
    # cols[k][b]: bitset over ``verts`` of the members with bit b at hyperplane k
    cols = [(full ^ c, c) for c in (int("".join(col), 2) for col in zip(*rows))]
    # step[k]: per bit b that some member has at hyperplane k, the prefix bits
    # that must be 1 and must be 0, and b in place; bit 1 first, so 0 pops first
    step = []
    for k in range(n):
        opts = []
        for b in (1, 0):
            if cb := cols[k][b]:
                must1 = sum(1 << (n - 1 - j) for j in range(k) if not cols[j][0] & cb)
                must0 = sum(1 << (n - 1 - j) for j in range(k) if not cols[j][1] & cb)
                opts.append((must1, must0, b << (n - 1 - k)))
        step.append(opts)
    out: list[int] = []
    stack = [(0, 0)]
    while stack:
        k, x = stack.pop()
        if k == n:
            out.append(x)
            continue
        for must1, must0, bit in step[k]:
            if x & must1 == must1 and not x & must0:
                stack.append((k + 1, x | bit))
    return out


_CERTIFICATE_WORDS = 1 << 15  # machine words of one accumulator of median_certificate


def _words(bits: np.ndarray, repeat_last: bool = False) -> np.ndarray:
    """The 0/1 last axis of ``bits`` packed into unsigned machine words,
    first bit highest, the word index moved to the front: one word of 1, 2,
    4 or 8 bytes, or uint64s, the fewest that hold the bits.  The pad bits
    are 0, or with ``repeat_last`` copies of the last bit."""
    n = bits.shape[-1]
    size = max(1, -(-n // 8))
    size = 1 << (size - 1).bit_length() if size <= 8 else -(-size // 8) * 8
    padded = np.empty(bits.shape[:-1] + (8 * size,), dtype=np.uint8)
    padded[..., :n] = bits
    padded[..., n:] = bits[..., -1:] if repeat_last else 0
    words = np.packbits(padded, axis=-1).view("u%d" % min(size, 8))
    return np.ascontiguousarray(np.moveaxis(words, -1, 0))


def median_certificate(rows: np.ndarray) -> np.ndarray:
    """Whether each stack of 0/1 rows, shape (..., m, n), ascending within
    its stack, is median-closed and connected in the Hamming-1 graph.
    Repeated rows count once.  True proves both; False says one fails.

    Patterns: each column's bits over the rows are packed into machine
    words, so whether some row has a at j and b at k is an OR over the
    words of ANDs.  Closure: the rows' median hull is the solution set of
    their pair patterns, and its prefix walk never backtracks (see
    :func:`median_hull`), so the rows equal their hull exactly when, at
    each k, the walk extends the rows' distinct k-prefixes by as many
    other bits as there are rows whose prefixes split at k.  A prefix's
    first row v in the stack stands for it, and the other bit of v at k
    extends it when column k takes both values and, for every j < k, some
    row has (x_vj, 1 - x_vk) at (j, k): with the absent patterns of column
    k packed into words over j, the j where none has are again an OR of
    ANDs against v's packed row.  Connectivity, given closure: no pair
    j < k is locked, with patterns exactly {00, 11} or {01, 10}.  Take
    rows u and v of two components at the least distance: the row w != u
    of the interval I(u, v) nearest u differs from u in two coordinates or
    more (else w, in u's component, were nearer v), and any two of them
    are locked, as a row with a third pattern there would have a median
    with u and w strictly between them.  Cost: O(m n^2) bit operations in
    words of up to 64, the accumulators bounded by ``_CERTIFICATE_WORDS``.
    """
    m, n = rows.shape[-2:]
    lead = rows.shape[:-2]
    if not n:  # one vertex, maybe repeated
        return np.ones(lead, dtype=bool)
    count = int(np.prod(lead, dtype=np.int64))
    # ones[w, ..., j]: word w of column j's bits over the rows; zeros, its
    # complement, the repeated last row filling the pad bits of both
    ones = _words(rows.swapaxes(-1, -2), repeat_last=True)
    zeros = ~ones
    # per block of k: seen[2a + b][k, j], whether some row has a at j and b
    # at k; its absent patterns for j < k as words over j; and whether one
    # of its pairs is locked
    pattern, locked = [], np.zeros(lead, dtype=bool)
    step = max(1, _CERTIFICATE_WORDS // max(1, 4 * count * n))
    for k in range(0, n, step):
        at = slice(k, min(n, k + step))
        seen = np.zeros((4,) + lead + (at.stop - k, at.stop), dtype=ones.dtype)
        for w in range(len(ones)):
            for a, at_j in enumerate((zeros[w, ..., None, :at.stop], ones[w, ..., None, :at.stop])):
                seen[2 * a] |= at_j & zeros[w, ..., at, None]
                seen[2 * a + 1] |= at_j & ones[w, ..., at, None]
        absent = np.zeros((4,) + lead + (at.stop - k, n), dtype=bool)
        absent[..., :at.stop] = (seen == 0) & (np.arange(at.stop) < np.arange(k, at.stop)[:, None])
        locked |= (absent[0] & absent[3] & ~absent[1] & ~absent[2]
                   | absent[1] & absent[2] & ~absent[0] & ~absent[3]).any(axis=(-2, -1))
        pattern.append(np.moveaxis(_words(absent), 1, -2))
    pattern = np.concatenate(pattern, axis=-1)  # (W, ..., 4, n)
    # per bit b at k, the j < k where no row has (0, b), and where the rows
    # with (0, b) and with (1, b) differ
    zero, diff = pattern[:, ..., :2, :], pattern[:, ..., :2, :] ^ pattern[:, ..., 2:, :]
    words = _words(rows)  # (W, ..., m)
    other = np.empty(rows.shape, dtype=bool)
    step = max(1, _CERTIFICATE_WORDS // max(1, 2 * count * n))
    for v in range(0, m, step):
        # blocked[v, b, k]: words of the j < k at which no row has (x_vj, b) at (j, k)
        blocked = np.zeros(lead + (min(step, m - v), 2, n), dtype=words.dtype)
        for w, k in enumerate(range(1, n, 8 * words.itemsize)):  # the k past word w's j
            blocked[..., k:] |= zero[w, ..., None, :, k:] ^ (
                words[w, ..., v:v + step, None, None] & diff[w, ..., None, :, k:])
        # whether the other bit, 1 - x_vk, may follow v's k-prefix
        other[..., v:v + step, :] = np.where(rows[..., v:v + step, :] == 1,
                                             blocked[..., 0, :], blocked[..., 1, :]) == 0
    s = rows.sum(axis=-2, dtype=np.int64)
    other &= ((s > 0) & (s < m))[..., None, :]
    # lcp: the first column at which each row differs from the one before,
    # -1 for the first row and n for a repeat
    split = np.ones(lead + (m - 1, n + 1), dtype=bool)
    split[..., :n] = rows[..., 1:, :] != rows[..., :-1, :]
    lcp = np.concatenate((np.full(lead + (1,), -1), split.argmax(axis=-1)), axis=-1)
    k = np.arange(n)
    closed = ((other & (lcp[..., :, None] < k)).sum(axis=-2)
              == (lcp[..., :, None] == k).sum(axis=-2)).all(axis=-1)
    return closed & ~locked


def median_closure(seeds: Iterable[int]) -> frozenset[int]:
    """Smallest median-closed superset of ``seeds`` (see :func:`median_hull`)."""
    seed = {int(v) for v in seeds}
    if any(v < 0 for v in seed):
        raise ValueError("vertex encodings must be non-negative")
    return frozenset(median_hull(max(seed, default=0).bit_length(), seed))


class CubeComplex:
    """Vertex model of a finite CAT(0) cube complex with a base vertex."""

    __slots__ = ("n_hyperplanes", "base_vertex", "_verts", "_vset", "_vindex",
                 "_masks", "_shared", "_hdist")

    def __init__(self, n_hyperplanes: int, vertices: Iterable[int], base_vertex: int):
        n = int(n_hyperplanes)
        if n < 0:
            raise ValueError("hyperplane count must be non-negative")
        verts = sorted({int(v) for v in vertices})
        if not verts:
            raise InvalidComplex("empty vertex set")
        if verts[0] < 0 or verts[-1] >= (1 << n):
            raise InvalidComplex("vertex encoding out of range for %d hyperplanes" % n)

        self.n_hyperplanes = n
        self.base_vertex = int(base_vertex)
        self._verts = tuple(verts)
        self._vset = frozenset(verts)
        self._vindex = {v: i for i, v in enumerate(verts)}
        self._masks = tuple(1 << (n - 1 - i) for i in range(n))
        self._shared: dict = {}
        self._hdist = None

        self._validate()

    # -- construction helpers -------------------------------------------------

    def _validate(self) -> None:
        n, verts = self.n_hyperplanes, self._verts
        constant = ((1 << n) - 1) & ~(reduce(or_, verts) & ~reduce(and_, verts))
        if constant:
            h = n - constant.bit_length()
            raise InvalidComplex(
                f"hyperplane {h} has constant coordinate over the vertex set")

        # Only a failure pays for the search and the triple scan that name it.
        if not median_certificate(bit_rows(n, verts)):
            self._raise_fault()
            raise AssertionError("median hull exceeds a vertex set the triple scan accepts")

        if self.base_vertex not in self._vset:
            raise InvalidComplex(
                "base vertex %s not in vertex set"
                % format(self.base_vertex, "0%db" % n if n else "b"))

    def _raise_fault(self) -> None:
        """Raise InvalidComplex naming a vertex that no edge path from the
        first vertex reaches, or else the first triple whose median is not a
        vertex; return if there is neither."""
        verts = self._verts
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for m in self._masks:
                u = v ^ m
                if u in self._vset and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) != len(verts):
            missing = next(v for v in verts if v not in seen)
            raise InvalidComplex(
                "connectivity failure: no edge path from %s to %s"
                % (self.vertex_bits(verts[0]), self.vertex_bits(missing)))
        bad = self._median_violation()
        if bad is not None:
            u, v, w = bad
            raise InvalidComplex(
                "median-closure failure: majority(%s, %s, %s) = %s is not a vertex"
                % (self.vertex_bits(u), self.vertex_bits(v), self.vertex_bits(w),
                   self.vertex_bits(median_of(u, v, w))))

    def _median_violation(self) -> tuple[int, int, int] | None:
        verts = self._verts
        if self.n_hyperplanes > _NUMPY_BIT_LIMIT:
            for i, u in enumerate(verts):
                for j in range(i, len(verts)):
                    v = verts[j]
                    uv_and, uv_xor = u & v, u ^ v
                    for w in verts[j:]:
                        if (uv_and | (w & uv_xor)) not in self._vset:
                            return u, v, w
            return None
        arr = np.array(verts, dtype=np.int64)
        for i, u in enumerate(verts):
            uv_and = u & arr[i:]
            uv_xor = u ^ arr[i:]
            meds = uv_and[:, None] | (arr[None, :] & uv_xor[:, None])
            pos = np.searchsorted(arr, meds.ravel())
            pos[pos == arr.size] = 0
            bad = arr[pos] != meds.ravel()
            if bad.any():
                flat = int(np.flatnonzero(bad)[0])
                j, k = divmod(flat, arr.size)
                return u, int(arr[i + j]), int(arr[k])
        return None

    def cached(self, key, build):
        """The shared cache's entry for ``key``, made by ``build()`` on first use."""
        got = self._shared.get(key)
        if got is None:
            got = self._shared[key] = build()
        return got

    # -- vertex level ----------------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._verts

    @property
    def n_vertices(self) -> int:
        return len(self._verts)

    def vertex_index(self, v: int) -> int:
        return self._vindex[v]

    def contains_vertex(self, v: int) -> bool:
        return v in self._vset

    def vertex_bits(self, v: int) -> str:
        return format(v, "0%db" % self.n_hyperplanes) if self.n_hyperplanes else ""

    def mask(self, h: int) -> int:
        return self._masks[h]

    def mask_of(self, hyperplanes: Iterable[int]) -> int:
        m = 0
        for h in hyperplanes:
            m |= self._masks[h]
        return m

    def vertices_adjacent_to(self, h: int) -> tuple[int, ...]:
        m = self._masks[h]
        return self.cached(
            ("adj", h), lambda: tuple(v for v in self._verts if (v ^ m) in self._vset))

    # -- cube level --------------------------------------------------------------

    def _levels(self) -> tuple[CubeArrays, ...]:
        return self.cached("levels", self._build_levels)

    def _build_levels(self) -> tuple[CubeArrays, ...]:
        n = self.n_hyperplanes
        anchor = bit_rows(n, self._verts)
        levels = [CubeArrays(anchor, np.zeros_like(anchor), row_keys(anchor, np.ones_like(anchor)))]
        while True:
            keys = levels[-1].keys
            width = keys.dtype.itemsize
            # faces (a, C) with bit h of a clear and h > max C
            beyond = np.maximum.accumulate(levels[-1].cutting[:, ::-1], axis=1)[:, ::-1]
            extendable = (beyond | levels[-1].anchor) == 0
            found = [np.zeros((0, width), dtype=np.uint8)]
            for h in np.flatnonzero(extendable.any(axis=0)).tolist():
                # (a, C + h) is a cube when the translate (a + h, C) is a q-cube:
                # set key bit h to look it up, then clear it and complement bit n + h
                raw = keys[extendable[:, h]].view(np.uint8).reshape(-1, width)
                raw[:, h >> 3] |= 128 >> (h & 7)
                raw = raw[row_positions(keys, raw.view(keys.dtype).ravel())[1]]
                raw[:, h >> 3] ^= 128 >> (h & 7)
                raw[:, (n + h) >> 3] ^= 128 >> ((n + h) & 7)
                found.append(raw)
            raw = np.concatenate(found)
            if not len(raw):
                return tuple(levels)
            keys = raw.view(keys.dtype).ravel()
            order = np.argsort(keys)
            bits = np.unpackbits(raw[order], axis=1, count=2 * n)
            levels.append(CubeArrays(bits[:, :n], bits[:, n:] ^ 1, keys[order]))

    @property
    def dimension(self) -> int:
        return len(self._levels()) - 1

    def cubes(self, q: int) -> tuple[Cube, ...]:
        """All q-cubes in canonical order (anchor, then cutting tuple): a
        view of ``cube_arrays(q)``, made on first use and cached."""
        def build():
            rows = self.cube_arrays(q)
            anchors = row_ints(rows.anchor)
            cutting = np.nonzero(rows.cutting)[1].reshape(len(anchors), max(q, 0)).tolist()
            return tuple(map(Cube, anchors, map(tuple, cutting)))

        return self.cached(("cubes", q), build)

    def cube_arrays(self, q: int) -> CubeArrays:
        """The q-cubes as bit rows with ascending keys, empty outside
        0..dimension; each degree is built from the one below."""
        levels = self._levels()
        return levels[q] if 0 <= q < len(levels) else CubeArrays(*(a[:0] for a in levels[0]))

    def facets(self, q: int) -> np.ndarray:
        """Per q-cube (a, C), the positions among the (q-1)-cubes of its
        facets (a, C - h), then (a + h, C - h), h in C ascending: a
        read-only (N_q, 2q) table, cached and independent of the base vertex.
        Each facet is found by setting complement bit n + h of the cube's
        key, then anchor bit h; none may be missing."""
        def build():
            level, keys = self.cube_arrays(q), self.cube_arrays(q - 1).keys
            n, width = self.n_hyperplanes, keys.dtype.itemsize
            rows, hs = np.nonzero(level.cutting)
            raw = level.keys[rows].view(np.uint8).reshape(-1, width)
            at = np.arange(len(rows))
            found = []
            for bit in (n + hs, hs):
                raw[at, bit >> 3] |= (128 >> (bit & 7)).astype(np.uint8)
                pos, hit = row_positions(keys, raw.view(keys.dtype).ravel())
                if not hit.all():
                    raise AssertionError("a facet of a cube is missing from the cube arrays")
                found.append(pos.reshape(len(level.keys), max(q, 0)))
            out = np.hstack(found)
            out.flags.writeable = False
            return out

        return self.cached(("facets", q), build)

    def n_cubes(self) -> int:
        return sum(len(level.keys) for level in self._levels())

    def crossing_matrix(self) -> np.ndarray:
        """Which pairs of distinct hyperplanes cut a common square, read-only."""
        def build():
            cutting = self.cube_arrays(2).cutting.astype(np.float64)
            out = cutting.T @ cutting > 0
            np.fill_diagonal(out, False)
            out.setflags(write=False)
            return out

        return self.cached("crossing", build)

    # -- base-dependent quantities -------------------------------------------------

    def dist_hyperplane_to_base(self, h: int) -> int:
        """min over vertices adjacent to ``h`` of the distance to the base."""
        if self._hdist is None:
            base = self.base_vertex
            self._hdist = tuple(
                min((v ^ base).bit_count() for v in self.vertices_adjacent_to(h2))
                for h2 in range(self.n_hyperplanes))
        return self._hdist[h]

    # -- reporting ----------------------------------------------------------------

    def bounded_geometry_statistic(self) -> int:
        """Largest number of cubes meeting any single cube (shared vertex).

        Two cubes meet, if at all, in a face of each, and the nonempty faces
        of a cube have Euler characteristic 1, so the cubes meeting C number
        the sum over the faces F of C of ``(-1)^dim F s(F)``, ``s(F)`` the
        cubes containing F.  A (co)face k steps away is reached along k first
        steps, so both sums are k-step chain counts over the facet tables
        (:meth:`facets`) divided by k, in exact int64.  The coface sums go
        through float64 ``np.bincount``, exact below 2^53: a chain count is
        at most the dimension times the number of cubes.
        """
        levels = self._levels()
        facets = [self.facets(q) for q in range(1, len(levels))]
        # up[:, k]: the codimension-k cofaces of each cube of the level, top down
        up = np.ones((len(levels[-1].keys), 1), dtype=np.int64)
        s = [up.sum(axis=1)]
        for q in range(len(facets), 0, -1):
            at, size = facets[q - 1].ravel(), len(levels[q - 1].keys)
            sums = np.stack([np.bincount(at, np.repeat(col, 2 * q), size) for col in up.T],
                            axis=1).astype(np.int64)
            up = np.hstack((np.ones_like(sums[:, :1]), _divide_exactly(sums)))
            s.insert(0, up.sum(axis=1))
        # down[:, j]: the sum of s over the codimension-j faces of each cube, bottom up
        down = s[0][:, None]
        best = int(down.max())
        for q, pos in enumerate(facets, start=1):
            sums = sum(down[pos[:, i]] for i in range(2 * q))
            down = np.hstack((s[q][:, None], _divide_exactly(sums)))
            best = max(best, int((down @ (-1) ** np.arange(q, -1, -1)).max()))
        return best


def _divide_exactly(sums: np.ndarray) -> np.ndarray:
    """Column j of ``sums`` divided by j + 1, which must leave no remainder."""
    quotient, remainder = np.divmod(sums, np.arange(1, sums.shape[1] + 1))
    if remainder.any():
        raise AssertionError("a chain count is not a multiple of its length")
    return quotient


# -- cxc text format ------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, int]]:
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            out.append((tok, lineno))
    return out


def parse_cxc(text: str) -> CubeComplex:
    """Parse the ``cxc 1`` vertex-list format.

    Grammar: ``cxc 1`` / ``hyperplanes <n>`` / ``basepoint <bits>`` /
    ``vertices <m>`` / m distinct n-bit strings; ``#`` starts a comment.
    """
    toks = _tokenize(text)
    pos = 0

    def take(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1][1] if toks else 1
            raise CxcParseError(f"unexpected end of document, expected {what}", last)
        tok = toks[pos]
        pos += 1
        return tok

    def expect(word: str) -> None:
        tok, line = take(f"'{word}'")
        if tok != word:
            raise CxcParseError(f"expected '{word}', found '{tok}'", line)

    def integer(what: str) -> int:
        tok, line = take(what)
        if not (tok.isascii() and tok.isdigit()):
            raise CxcParseError(f"expected {what}, found '{tok}'", line)
        return int(tok)

    expect("cxc")
    tok, line = take("format version")
    if tok != "1":
        raise CxcParseError(f"unsupported format version '{tok}'", line)
    expect("hyperplanes")
    n = integer("hyperplane count")
    if n < 1:
        raise CxcParseError("hyperplane count must be at least 1")

    def bitstring(what: str) -> int:
        tok, line = take(what)
        if len(tok) != n or set(tok) - {"0", "1"}:
            raise CxcParseError(
                f"expected a {n}-character bitstring for {what}, found '{tok}'", line)
        return int(tok, 2)

    expect("basepoint")
    base = bitstring("the base vertex")
    expect("vertices")
    m = integer("vertex count")
    verts = []
    seen = set()
    for _ in range(m):
        tok, line = take("a vertex bitstring")
        if len(tok) != n or set(tok) - {"0", "1"}:
            raise CxcParseError(f"expected a {n}-character bitstring, found '{tok}'", line)
        v = int(tok, 2)
        if v in seen:
            raise CxcParseError(f"duplicate vertex '{tok}'", line)
        seen.add(v)
        verts.append(v)
    if pos != len(toks):
        tok, line = toks[pos]
        raise CxcParseError(f"unexpected trailing token '{tok}'", line)
    return CubeComplex(n, verts, base)


def write_cxc(cplx: CubeComplex) -> str:
    """Serialize; vertices in lexicographic order, so output is canonical."""
    if cplx.n_hyperplanes == 0:
        raise ValueError("cannot serialize a complex with no hyperplanes")
    lines = [
        "cxc 1",
        f"hyperplanes {cplx.n_hyperplanes}",
        f"basepoint {cplx.vertex_bits(cplx.base_vertex)}",
        f"vertices {cplx.n_vertices}",
    ]
    lines.extend(cplx.vertex_bits(v) for v in cplx.vertices)
    return "\n".join(lines) + "\n"
