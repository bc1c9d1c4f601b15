"""Numerical differential geometry of curves on surfaces under conformal maps.

Submodules: :mod:`exprkit` (expression DSL, forward-mode jets, and the store
that keeps a run's derived values), :mod:`calculus` (adaptive
quadrature, arc-length reparameterization),
:mod:`geometry` (forms, Christoffel symbols, Frenet frames, curvatures),
:mod:`conformal` (dilation fields, theta terms, shift residuals),
:mod:`normalcurve` (frame decomposition, classification, deviation residuals),
:mod:`cli` (scenario-driven verification front end),
:mod:`pcg64` (numpy's ``default_rng`` stream for random grids; the cli
imports it in random mode only).
"""

from . import calculus, cli, conformal, exprkit, geometry, normalcurve

__version__ = "0.1.0"

__all__ = ["calculus", "cli", "conformal", "exprkit", "geometry", "normalcurve",
           "__version__"]
