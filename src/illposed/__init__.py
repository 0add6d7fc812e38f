"""Diagnostics for identifiability, conditioning, and estimability of inverse problems.

Each public name lives in one submodule and is imported from there, as in
``from illposed.diagnostics import diagnose``.  The package imports none of
them, so the pure-Python finite-map and robustness layers load without numpy.
"""

__version__ = "0.1.0"
