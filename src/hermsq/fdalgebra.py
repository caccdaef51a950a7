"""Finite-dimensional algebras with involution given by structure constants.

This is the common carrier for tensor products of algebras with involution:
a basis, the products of basis elements (each computed on first use and
cached), and the involution as a linear map on coordinates.  Elements are
coordinate tuples over Q(X,Y).  Tensor products of two such algebras are
again of this shape, with the involution acting factorwise, which is all
the formal tensor-certificate composition needs.
"""

from .errors import ShapeError
from .scalars import as_scalar


class StructureAlgebra:
    def __init__(self, dim, unit, inv_images, prod_fn):
        self.dim = dim
        self.unit = tuple(unit)
        self.prod_fn = prod_fn
        self._prod_cache = {}
        self.inv_images = [tuple(v) for v in inv_images]

    def _prod(self, i, j):
        value = self._prod_cache.get((i, j))
        if value is None:
            value = self._prod_cache[i, j] = self.prod_fn(i, j)
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
        return StructureAlgebra(dim, unit, inv_images, prod)


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
    unit = _flatten(algebra, algebra.identity())
    inv_images = [_flatten(algebra, algebra.involution(e)) for e in basis]

    def prod(i, j):
        return _flatten(algebra, algebra.mul(basis[i], basis[j]))

    sa = StructureAlgebra(len(basis), unit, inv_images, prod)
    return sa, lambda x: _flatten(algebra, x)
