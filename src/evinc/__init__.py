"""Causal solver and verification harness for degenerate evolutionary inclusions.

The package re-exports nothing: import from its modules (``evinc.solver``,
``evinc.harness``, ...), so that a program loads only the modules it uses.
"""

__version__ = "0.1.0"
