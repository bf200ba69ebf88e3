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

The package re-exports the names in `__all__` from rootsys, chevalley,
dynkin and partitions, resolved on access (`__getattr__`, PEP 562): the
package imports no submodule itself, so `import nilorb.chevalley` loads
only rootsys, linalg and chevalley.  A name is read from its submodule on
every access and never stored in the package.
"""

# name -> the submodule that defines it
_EXPORTS = {
    "CartanType": "rootsys",
    "RootSystem": "rootsys",
    "build_root_system": "rootsys",
    "ChevalleyAlgebra": "chevalley",
    "LieElement": "chevalley",
    "build_algebra": "chevalley",
    "WeightedDiagram": "dynkin",
    "Grading": "dynkin",
    "JordanOrbit": "partitions",
    "OrbitPoset": "partitions",
    "orbit_dim": "partitions",
    "pi1_order": "partitions",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    """The re-exported `name`, read from its submodule on every access and
    never stored here, so a wrapper set on the submodule (and removed
    again) is what the package gives."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"
