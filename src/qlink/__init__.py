"""
Exact colored link invariants of the q-deformed su(2) algebra.

The package computes closure invariants of colored braids two ways: as
weighted quantum traces of represented braidings, and (for fundamental
colors) through the diagram-monoid bracket polynomial; both live over an
exact Laurent ring in v = q^(1/2).  On top of the invariants it verifies, as
exact polynomial-matrix identities, that the intermediate Casimir operators
on threefold tensor products realize the Askey-Wilson algebra, by a coproduct
route and an independent partial-trace route.

Import from the modules, e.g. `from qlink.invariant import rt_invariant`.
"""
