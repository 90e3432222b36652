"""Factorization toolkit: pollard-rho, basic quadratic sieve, and a seeded
benchmark harness for comparing the two on semiprime datasets.

The package root exports nothing and imports none of its modules; import
each name from the module that defines it: `arith`, `primegen`, `pollard`,
`sieve`, `gf2`, `bench`, `report`, `errors` or `cli`.
"""
