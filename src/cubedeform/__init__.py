"""Deformation toolkit for finite CAT(0) cube complexes.

The package models a cube complex through its hyperplane coordinates,
builds the term tables of the differential and its adjoint on cube
cochains, organizes cubes into parallelism classes, constructs the symbol
complex that the small-parameter limit lands in, deforms the inner
product and the differential along a parameter t class by class, and
certifies the resulting operator identities (bounded transform, homotopy,
resolvent bounds) with exact or tightly-toleranced finite-dimensional
checks.  It holds what the command line runs; the dense and per-cube
second implementations the tests compare against live with the tests.

Layout:

* :mod:`cubedeform.core` - vertex model, cube rows and facets, validation, serialization
* :mod:`cubedeform.generate` - deterministic complex constructors
* :mod:`cubedeform.differential` - wedge/hook term tables, Laplacian diagonal, ranks
* :mod:`cubedeform.parallelism` - parallelism classes as rows, nearest members
* :mod:`cubedeform.symbols` - symbol basis and term tables at the t = 0 end
* :mod:`cubedeform.deformation` - class blocks of U_t, Gram and W, pairing tables
* :mod:`cubedeform.fredholm` - graded term listing, spectral frames, quadrature
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
