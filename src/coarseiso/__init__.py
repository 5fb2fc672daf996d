"""Coarse classification of countable locally finite-by-abelian groups and
shift-homogeneous ultrametric spaces: symbolic invariants, finite metric
truncations, and executable witnesses behind each verdict.

The package root exports nothing; each name is imported from its module.
`primes`, `factorfn` and `groups` are the symbolic layer and import no
numpy; `spaces`, `analysis` and `witness` are the metric layer; `cli` is
the command line."""
