"""Spectral Galerkin laboratory for semi-linear SPDEs with multiplicative noise."""
