"""Parallelism classes of cubes and the geometry they carry.

Two cubes are parallel when the same hyperplanes cut both, so a parallelism
class is keyed by a cutting set and holds every cube realizing it.  Classes
inherit a surprising amount of structure: each vertex picks out a unique
nearest member, distances between members add along the way to that member,
and the members themselves form a smaller median complex over the
hyperplanes that cross the whole cutting set.  The classes of each degree
are one grouping of the cube rows by their cutting bits (``class_rows``).
Cube rows ascend by anchor, so a class's first cube there has its smallest
anchor, the canonical vertex of a symbol over the class (``class_lookup``,
which also tells whether a set has a class at all, and ``class_anchors``).
Nearest members come from one 0/1 matrix product over the members' bits,
for any number of vertices and any stack of classes at once
(``nearest_rows``); one rule tells the nearest member and its ties
(``first_minimum``).  The
number of classes always equals the number of vertices; the explicit
bijection sends a vertex to the class of the first cube on its normal
cube path toward the base vertex.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import CubeComplex, row_keys, row_positions

__all__ = ["ClassRows", "class_anchors", "class_lookup", "class_rows", "first_minimum",
           "nearest_rows"]


class ClassRows(NamedTuple):
    """The degree-q cubes by parallelism class: each class's cutting bits as
    a 0/1 row (``sets``, determining sets ascending), the class of each
    q-cube (``of``), each class's member count (``sizes``), its ascending
    key (``keys``, ``row_keys`` of the complemented row) and the index of
    its first cube (``first``), the member with the smallest anchor."""

    sets: np.ndarray
    of: np.ndarray
    sizes: np.ndarray
    keys: np.ndarray
    first: np.ndarray


def class_rows(cplx: CubeComplex, q: int) -> ClassRows:
    """The cached ``ClassRows`` of degree q, one ``np.unique`` over the
    cutting keys of ``cube_arrays(q)`` (complemented, so the keys ascend
    with the determining sets)."""
    def build():
        cutting = cplx.cube_arrays(q).cutting
        keys, first, of, sizes = np.unique(row_keys(cutting ^ 1), return_index=True,
                                           return_inverse=True, return_counts=True)
        return ClassRows(cutting[first], of.ravel(), sizes, keys, first)

    return cplx.cached(("class_rows", q), build)


def class_lookup(cplx: CubeComplex, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest member anchor, as a 0/1 row, of the class with each 0/1
    cutting row of ``sets`` (a 0 row where there is none), and whether
    there is one: the anchor of its first cube in ``class_rows``, found
    with ``row_positions``."""
    out, size = np.zeros_like(sets), sets.sum(axis=1, dtype=np.int64)
    found = np.zeros(len(sets), dtype=bool)
    for q in np.flatnonzero(np.bincount(size)).tolist():
        rows = np.flatnonzero(size == q)
        classes = class_rows(cplx, q)
        pos, found[rows] = row_positions(classes.keys, row_keys(sets[rows] ^ 1))
        rows, pos = rows[found[rows]], pos[found[rows]]
        out[rows] = cplx.cube_arrays(q).anchor[classes.first[pos]]
    return out, found


def class_anchors(cplx: CubeComplex, sets: np.ndarray) -> np.ndarray:
    """``class_lookup``'s anchors of sets that are all realized; KeyError
    names the first that is not."""
    out, found = class_lookup(cplx, sets)
    if not found.all():
        raise KeyError(tuple(np.flatnonzero(sets[np.argmin(found)]).tolist()))
    return out


def nearest_rows(bits: np.ndarray, vbits: np.ndarray) -> tuple[np.ndarray, ...]:
    """The member nearest each vertex, for stacked member bits (..., m, n)
    and vertex bits (V, n), both float64: its index (..., V), whether the
    minimum is tied, and the distances (..., V, m).

    The distances are one product over the bits, |M| - 2 V M^T, exact in
    float64; the row constant |V| is left out, as it moves neither a row's
    minimum nor any difference of its entries.
    """
    dist = bits.sum(axis=-1)[..., None, :] - 2.0 * (vbits @ bits.swapaxes(-1, -2))
    return (*first_minimum(dist), dist)


def first_minimum(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position of the first minimum over the last axis of ``dist``,
    and whether that minimum is tied: the one nearest-member rule, which
    ``nearest_rows`` applies to member distances and ``check parallel`` to
    ragged classes padded with inf."""
    near = dist.argmin(axis=-1)
    # the first and the last minimum coincide exactly when it is unique
    return near, near != dist.shape[-1] - 1 - dist[..., ::-1].argmin(axis=-1)
