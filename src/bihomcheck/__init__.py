"""Exact-arithmetic verification and construction toolkit for
finite-dimensional twisted algebraic structures.

The package is organised as:

* :mod:`bihomcheck.exactlin` -- exact rational (multi)linear algebra,
* :mod:`bihomcheck.structures` -- structure bundles and axiom checkers,
* :mod:`bihomcheck.constructions` -- constructions with verified hypotheses,
* :mod:`bihomcheck.theorems` -- the verification registry T1..T12,
* :mod:`bihomcheck.discovery` -- certified exhaustive searches + catalogue,
* :mod:`bihomcheck.kernels` -- the integer (numpy) search prefilter,
* :mod:`bihomcheck.serialize` / :mod:`bihomcheck.cli` -- JSON documents
  and the command-line interface.
"""

from .exactlin import (
    BilinearOp,
    CheckVerdict,
    Comultiplication,
    LinearMap,
    NotInvertibleError,
    Scalar,
    ShapeError,
    Tensor2,
    Tensor3,
    Witness,
)
from .structures import (
    BiHomAlgebra,
    BiHomDendriform,
    HomAlgebra,
    HomCoalgebra,
    HomLie,
    HomPreLie,
    InfHomBialgebra,
)

__version__ = "0.1.0"

__all__ = [
    "BiHomAlgebra",
    "BiHomDendriform",
    "BilinearOp",
    "CheckVerdict",
    "Comultiplication",
    "HomAlgebra",
    "HomCoalgebra",
    "HomLie",
    "HomPreLie",
    "InfHomBialgebra",
    "LinearMap",
    "NotInvertibleError",
    "Scalar",
    "ShapeError",
    "Tensor2",
    "Tensor3",
    "Witness",
    "__version__",
]
