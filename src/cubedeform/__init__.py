"""Deformation toolkit for finite CAT(0) cube complexes.

The package models a cube complex through its hyperplane coordinates,
builds the combinatorial differential calculus on cube cochains, organizes
cubes into parallelism classes with their derived complexes, constructs the
symbol calculus that the small-parameter limit lands in, deforms the inner
product and the differential along a parameter t, and certifies the
resulting operator identities (bounded transform, homotopy, resolvent
bounds) with exact or tightly-toleranced finite-dimensional checks.

Layout:

* :mod:`cubedeform.core` - vertex model, cubes, validation, serialization
* :mod:`cubedeform.generate` - deterministic complex constructors
* :mod:`cubedeform.differential` - wedge/hook calculus, Laplacian, ranks
* :mod:`cubedeform.parallelism` - parallelism classes as rows, nearest members
* :mod:`cubedeform.symbols` - symbol calculus at the t = 0 end
* :mod:`cubedeform.deformation` - W/U operators, Gram deformation, sweeps
* :mod:`cubedeform.fredholm` - graded operator, bounded transform, resolvent
* :mod:`cubedeform.cli` - command-line front end
"""

from .core import (
    Cube,
    CubeComplex,
    CxcParseError,
    InvalidComplex,
    median_closure,
    median_of,
    parse_cxc,
    write_cxc,
)
from .generate import grid_complex, hypercube, random_median_complex, star_tree

__version__ = "0.1.0"

__all__ = [
    "Cube",
    "CubeComplex",
    "CxcParseError",
    "InvalidComplex",
    "__version__",
    "grid_complex",
    "hypercube",
    "median_closure",
    "median_of",
    "parse_cxc",
    "random_median_complex",
    "star_tree",
    "write_cxc",
]
