"""Simulation and parameter estimation for coherent extinction spectroscopy
of a single two-level emitter."""

__version__ = "0.1.0"
