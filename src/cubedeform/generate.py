"""Constructors for the cube complexes used in tests and on the command line.

All generators return a :class:`~cubedeform.core.CubeComplex` and are
deterministic: the same arguments (and seed) always produce the same
complex, byte for byte under serialization.
"""

from __future__ import annotations

import random
from typing import Sequence

from .core import CubeComplex, median_closure, project_bits

__all__ = ["grid_complex", "hypercube", "random_median_complex", "star_tree"]


def star_tree(leaves: int) -> CubeComplex:
    """Star tree: one center vertex, one edge per leaf; based at the center."""
    if leaves < 1:
        raise ValueError("a star tree needs at least one leaf")
    verts = [0] + [1 << (leaves - 1 - i) for i in range(leaves)]
    return CubeComplex(leaves, verts, 0)


def hypercube(dim: int) -> CubeComplex:
    """The full dim-cube on all 2**dim vertices, based at the all-zeros vertex."""
    if dim < 1:
        raise ValueError("hypercube dimension must be at least 1")
    return CubeComplex(dim, range(1 << dim), 0)


def grid_complex(dims: Sequence[int]) -> CubeComplex:
    """Product of paths; ``dims[a]`` is the number of cells along axis ``a``.

    Axis ``a`` contributes ``dims[a]`` hyperplanes, ordered axis 0 first.
    Position ``p`` along an axis is written in unary as ``p`` ones followed
    by zeros, so the bitstring of a vertex lists its axis positions left to
    right.  Based at the origin.
    """
    dims = [int(d) for d in dims]
    if not dims or any(d < 1 for d in dims):
        raise ValueError("grid needs at least one axis, each with at least one cell")
    n = sum(dims)
    verts = [0]
    for d in dims:
        axis = [((1 << p) - 1) << (d - p) for p in range(d + 1)]
        verts = [(v << d) | a for v in verts for a in axis]
    return CubeComplex(n, verts, 0)


def _prune_constant(n: int, verts: list[int]) -> tuple[int, list[int], int]:
    """Drop coordinates constant over ``verts``; return (n', verts', base')."""
    full = (1 << n) - 1
    all_and = full
    all_or = 0
    for v in verts:
        all_and &= v
        all_or |= v
    varying = all_or & ~all_and
    masks = [1 << (n - 1 - h) for h in range(n) if varying & 1 << (n - 1 - h)]
    projected = sorted(project_bits(v, masks) for v in verts)
    return len(masks), projected, projected[0]


def random_median_complex(n: int, k: int, seed: int) -> CubeComplex:
    """Median closure of ``k`` random ``n``-bit seeds, cut to one component.

    The closure of a disconnected set is still disconnected, so the largest
    component (itself closed under majorities) is kept; coordinates made
    constant along the way are dropped.  Based at the smallest vertex.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 coordinates and k >= 1 seed vertices")
    rng = random.Random(seed)
    seeds = {rng.getrandbits(n) for _ in range(k)}
    closed = median_closure(seeds)

    n1, verts, _ = _prune_constant(n, sorted(closed))
    if n1 == 0:
        return CubeComplex(0, [0], 0)

    vset = set(verts)
    masks = [1 << (n1 - 1 - i) for i in range(n1)]
    components: list[list[int]] = []
    unvisited = set(verts)
    while unvisited:
        start = min(unvisited)
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for m in masks:
                u = v ^ m
                if u in vset and u not in comp:
                    comp.add(u)
                    stack.append(u)
        unvisited -= comp
        components.append(sorted(comp))
    largest = max(components, key=lambda c: (len(c), -c[0]))

    n2, verts2, base = _prune_constant(n1, largest)
    if n2 == 0:
        return CubeComplex(0, [0], 0)
    return CubeComplex(n2, verts2, base)
