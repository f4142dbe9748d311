"""Bound states and energy-dependent Green functions of one-dimensional
confining potentials: harmonic, linear, Stark-shifted, asymmetric,
hybrid, and Dirac-delta-decorated wells.

Closed-form resolvents are built on special functions from the standard
library alone (Gamma from math.gamma, parabolic cylinder D from the
Weber pair of Kummer series, Airy), bound states come from bisection
on pole-free characteristic functions, and everything is
cross-checked against an independent finite-difference Sturm-bisection
eigensolver.
"""

from . import model, oracle, resolvent, specfun, spectrum

__version__ = "0.1.0"

__all__ = ["model", "oracle", "resolvent", "specfun", "spectrum", "__version__"]
