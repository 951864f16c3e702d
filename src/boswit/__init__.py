"""Correlation-tensor entanglement identifiers for pairs of two-mode boson
ensembles: generator bases, state families, witness quantities, brute-force
verifiers, and parameter sweeps."""

__version__ = "0.1.0"
