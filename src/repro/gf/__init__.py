"""Finite-field substrate: vectorised ``GF(2^p)`` arithmetic and linear algebra.

The paper's coding layer works over binary extension fields
``F_q, q = 2^p`` (Section III, Tables I-II).  :func:`repro.gf.GF` is the
entry point::

    from repro.gf import GF
    F = GF(8)                     # table-based GF(2^8)
    c = F.mul(a, b)               # vectorised over numpy arrays

Backends: discrete-log tables for ``p <= 16``, a quadratic tower over
``GF(2^16)`` for ``p = 32``, and a generic carry-less-multiply field for
cross-checking and other degrees.
"""

from .clmul import ClmulField
from .field import GF, BinaryField, FieldError, TableField
from .linalg import (
    IncrementalRank,
    SingularMatrixError,
    inv_matrix,
    invertible_stack,
    is_invertible,
    random_invertible,
    rank,
    row_reduce,
    solve,
)
from .polynomials import (
    DEFAULT_MODULI,
    find_irreducible,
    is_irreducible,
    is_primitive,
)
from .tower import TowerField

__all__ = [
    "GF",
    "BinaryField",
    "TableField",
    "TowerField",
    "ClmulField",
    "FieldError",
    "SingularMatrixError",
    "row_reduce",
    "rank",
    "is_invertible",
    "invertible_stack",
    "inv_matrix",
    "solve",
    "random_invertible",
    "IncrementalRank",
    "DEFAULT_MODULI",
    "find_irreducible",
    "is_irreducible",
    "is_primitive",
]
