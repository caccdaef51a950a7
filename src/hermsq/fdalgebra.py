"""Finite-dimensional algebras with involution given by structure constants.

This is the common carrier for tensor products of algebras with involution.
Elements are coordinate tuples over Q(X,Y).  The constants are sparse maps
{basis index: nonzero coefficient}: the unit, the involution image of each
basis element, and the product of each pair of basis elements, computed on
first use and cached.  A matrix algebra with involution supplies all three
from its own basis layout; the tensor product of two such algebras is
again of this shape, with the involution acting factorwise, which is all
the formal tensor-certificate composition needs.
"""

from .scalars import as_scalar


def _kron(u, v, d2):
    """The sparse coordinates of u (x) v, for v over a factor of dimension d2."""
    return {i * d2 + j: p * q for i, p in u.items() for j, q in v.items()}


class StructureAlgebra:
    def __init__(self, unit, inv_images, prod_fn):
        self.dim = len(inv_images)
        self.unit = unit
        self.inv_images = inv_images
        self.prod_fn = prod_fn
        self._prod_cache = {}

    def _prod(self, i, j):
        value = self._prod_cache.get((i, j))
        if value is None:
            value = self._prod_cache[i, j] = self.prod_fn(i, j)
        return value

    def _combine(self, terms):
        """sum of c * image over the (c, sparse image) pairs of terms."""
        out = [as_scalar(0)] * self.dim
        for c, image in terms:
            for t, s in image.items():
                out[t] = out[t] + c * s
        return tuple(out)

    def zero(self):
        return (as_scalar(0),) * self.dim

    def scalar(self, c):
        return self._combine([(as_scalar(c), self.unit)])

    def add(self, x, y):
        return tuple(p + q for p, q in zip(x, y))

    def mul(self, x, y):
        ys = [(j, yj) for j, yj in enumerate(y) if yj]
        return self._combine((xi * yj, self._prod(i, j))
                             for i, xi in enumerate(x) if xi for j, yj in ys)

    def involution(self, x):
        return self._combine((xi, self.inv_images[i]) for i, xi in enumerate(x) if xi)

    def equal(self, x, y):
        return all(p == q for p, q in zip(x, y))

    def scalar_part(self, x):
        """c with x = c * 1, or None if x is not central-scalar."""
        idx, u = next(iter(self.unit.items()))
        c = x[idx] * u.inverse()
        return c if self.equal(x, self.scalar(c)) else None

    def tensor(self, other):
        """Tensor product with factorwise multiplication and involution."""
        d2 = other.dim

        def prod(r, s):
            return _kron(self._prod(r // d2, s // d2),
                         other._prod(r % d2, s % d2), d2)

        inv_images = [_kron(a, b, d2) for a in self.inv_images
                      for b in other.inv_images]
        return StructureAlgebra(_kron(self.unit, other.unit, d2), inv_images, prod)


def structure_algebra(algebra):
    """Rebuild an AlgebraWithInvolution on structure-constant coordinates.

    Returns (sa, convert) where convert maps algebra elements to coordinate
    tuples of sa.  A StructureAlgebra passes through unchanged.
    """
    if isinstance(algebra, StructureAlgebra):
        return algebra, lambda x: x
    sa = StructureAlgebra(algebra.sparse_coordinates(algebra.identity()),
                          algebra.involution_images(), algebra.basis_product)
    return sa, algebra.coordinates
