"""Harish-Chandra homomorphism, central characters and linkage.

The untwisted projection phi (hc_project) evaluated at lambda gives the
scalar by which a central element acts on a highest weight module of
weight lambda; the rho-twisted psi = gamma o phi is the version that is
invariant under the ordinary Weyl action.  The twist gamma, h_i -> h_i - 1,
is a ring map of U(h) = S(h), so h_substitute multiplies its image out
with U(g)'s own product.  Linkage classes are Weyl dot orbits, and a
CentralCharacter is compared and hashed by its representative's linkage
key (``RootSystem.linkage_key``), so it walks its orbit only when
``orbit`` is read.  is_central, re-exported from liealg, commutes an
element with the 2l Chevalley generators; the Casimir is verified by it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .liealg import LieAlgebraData, UEAElement, casimir, h_substitute, is_central
from .rootdata import Weight


def gamma_twist(p: UEAElement) -> UEAElement:
    """Shift a polynomial on h* to the -rho origin: h_i -> h_i - 1."""
    return h_substitute(p, [-1] * p.alg.l)


def hc_psi(z: UEAElement) -> UEAElement:
    """Twisted Harish-Chandra image of a weight-zero element."""
    if not z.is_weight_zero():
        raise DomainError("psi is defined on weight-zero elements only")
    return gamma_twist(z.hc_project())


def central_character(lam: Weight, z: UEAElement) -> Fraction:
    """chi_lambda(z): the scalar action of a central z at highest weight lambda."""
    if not is_central(z):
        raise DomainError("argument is not central")
    return z.hc_project().evaluate_at(lam)


class CentralCharacter:
    """chi_lambda, represented by a weight; equal iff representatives are linked.

    Caches the Casimir evaluation, the one central generator bggkit
    constructs explicitly.  (A full topological generating set of the
    center is not built; linkage decides equality exactly.)  Equality and
    the hash read the representative's linkage key, so constructing,
    comparing and hashing walk no orbit and have no Weyl-group cap; the
    orbit and the canonical representative, its first member, are walked
    on each read, which past WEYL_ENUMERATION_CAP raises DomainError.
    """

    def __init__(self, alg: LieAlgebraData, lam: Weight):
        self.alg = alg
        self.rs = alg.rs
        self.representative = lam
        if "casimir_projection" not in alg.cache:  # casimir() checks centrality
            alg.cache["casimir_projection"] = casimir(alg).hc_project()
        self.casimir_value = alg.cache["casimir_projection"].evaluate_at(lam)

    @property
    def orbit(self) -> tuple:
        return tuple(self.rs.dot_orbit(self.representative))

    @property
    def canonical_representative(self) -> Weight:
        return self.orbit[0]

    def _key(self) -> tuple:
        return id(self.rs), self.rs.linkage_key(self.representative)

    def __eq__(self, other):
        return isinstance(other, CentralCharacter) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        rep = ",".join(str(c) for c in self.representative.coords)
        return f"CentralCharacter({rep})"
