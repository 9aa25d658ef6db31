"""Exact and numerical tools for graph hypersurfaces near an umbilical point:
curvature expansions, obstruction identities, inversion charts, decay
estimates, and asymptotically flat mass integrals."""

__version__ = "0.1.0"
