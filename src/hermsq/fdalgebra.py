"""Finite-dimensional algebras with involution given by structure constants.

This is the common carrier for tensor products of algebras with involution:
a basis, a multiplication table, and the involution as a linear map on
coordinates.  Elements are coordinate tuples over Q(X,Y).  Tensor products
of two such algebras are again of this shape, with the involution acting
factorwise, which is all the formal tensor-certificate composition needs.
"""

from .errors import ShapeError
from .scalars import as_scalar


class StructureAlgebra:
    def __init__(self, dim, unit, table, inv_images, labels=None, prod_fn=None):
        self.dim = dim
        self.unit = tuple(unit)
        self.table = table
        self.prod_fn = prod_fn
        self._prod_cache = {}
        self.inv_images = [tuple(v) for v in inv_images]
        self.labels = labels or [f"e{t}" for t in range(dim)]

    def _prod(self, i, j):
        if self.table is not None:
            return self.table[i][j]
        key = (i, j)
        value = self._prod_cache.get(key)
        if value is None:
            value = self.prod_fn(i, j)
            self._prod_cache[key] = value
        return value

    def elem(self, coords):
        if len(coords) != self.dim:
            raise ShapeError("coordinate vector has the wrong length")
        return tuple(as_scalar(c) for c in coords)

    def zero(self):
        return tuple(as_scalar(0) for _ in range(self.dim))

    def scalar(self, c):
        c = as_scalar(c)
        return tuple(c * u for u in self.unit)

    def identity(self):
        return self.unit

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def neg(self, x):
        return tuple(-p for p in x)

    def scale(self, c, x):
        c = as_scalar(c)
        return tuple(c * p for p in x)

    def mul(self, x, y):
        out = [as_scalar(0)] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                c = xi * yj
                for t, s in enumerate(self._prod(i, j)):
                    if not s.is_zero():
                        out[t] = out[t] + c * s
        return tuple(out)

    def involution(self, x):
        out = [as_scalar(0)] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for t, s in enumerate(self.inv_images[i]):
                if not s.is_zero():
                    out[t] = out[t] + xi * s
        return tuple(out)

    def equal(self, x, y):
        return all(p == q for p, q in zip(x, y))

    def scalar_part(self, x):
        """c with x = c * 1, or None if x is not central-scalar."""
        idx = next(i for i, u in enumerate(self.unit) if not u.is_zero())
        c = x[idx] * self.unit[idx].inverse()
        return c if self.equal(x, self.scalar(c)) else None

    def tensor(self, other):
        """Tensor product with factorwise multiplication and involution."""
        dim = self.dim * other.dim

        def flat(u, v):
            return tuple(p * q for p in u for q in v)

        unit = flat(self.unit, other.unit)
        d2 = other.dim

        def prod(r, s):
            return flat(self._prod(r // d2, s // d2),
                        other._prod(r % d2, s % d2))

        inv_images = [flat(self.inv_images[i], other.inv_images[j])
                      for i in range(self.dim) for j in range(other.dim)]
        labels = [f"{a}(x){b}" for a in self.labels for b in other.labels]
        return StructureAlgebra(dim, unit, None, inv_images, labels, prod_fn=prod)


def _flatten(algebra, x):
    """Coordinates of a matrix-algebra element in the basis() order."""
    from .involutions import QuatElem
    coords = []
    for row in x:
        for v in row:
            if isinstance(v, QuatElem):
                coords.extend(v.coords)
            else:
                coords.append(v)
    return tuple(coords)


def structure_algebra(algebra):
    """Rebuild an AlgebraWithInvolution on structure-constant coordinates.

    Returns (sa, convert) where convert maps algebra elements to coordinate
    tuples of sa.  A StructureAlgebra passes through unchanged.
    """
    if isinstance(algebra, StructureAlgebra):
        return algebra, lambda x: x
    basis = algebra.basis()
    dim = len(basis)
    unit = _flatten(algebra, algebra.identity())
    table = [[_flatten(algebra, algebra.mul(basis[i], basis[j]))
              for j in range(dim)] for i in range(dim)]
    inv_images = [_flatten(algebra, algebra.involution(e)) for e in basis]
    sa = StructureAlgebra(dim, unit, table, inv_images)
    return sa, lambda x: _flatten(algebra, x)
