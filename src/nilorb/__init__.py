"""Exact computations with nilpotent orbits of simple complex Lie algebras.

Modules:
    linalg      exact linear algebra on dense rows: fraction-free rref, kernel,
                rank, nilpotency
    rootsys     root systems from Cartan matrices, Bourbaki realizations
    chevalley   Chevalley bases, structure constants, brackets, ad(x) matrices,
                Killing form, centralizers
    dynkin      weighted diagrams, gradings (Grading(alg, wd)), sl2 triples,
                decision procedures
    partitions  classical orbits as partitions: dimension, closure, pi1
    curated     shared-orbit table and exceptional orbit metadata
    matmodel    sp(2n) minimal-orbit matrix model and product coverings
    cli         command-line interface, including the verify-paper suites
"""

from .rootsys import CartanType, RootSystem, build_root_system
from .chevalley import ChevalleyAlgebra, LieElement, build_algebra
from .dynkin import WeightedDiagram, Grading
from .partitions import JordanOrbit, OrbitPoset, orbit_dim, pi1_order

__all__ = [
    "CartanType",
    "RootSystem",
    "build_root_system",
    "ChevalleyAlgebra",
    "LieElement",
    "build_algebra",
    "WeightedDiagram",
    "Grading",
    "JordanOrbit",
    "OrbitPoset",
    "orbit_dim",
    "pi1_order",
]

__version__ = "0.1.0"
