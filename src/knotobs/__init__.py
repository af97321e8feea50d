"""Exact-arithmetic knot concordance obstructions.

Laurent polynomial bounds on splitting concordance genus, Tristram-Levine
signature jump certificates, piecewise-linear Upsilon obstructions and an
ordered-abelian-group engine for epsilon-class domination arguments.
"""

__version__ = "0.1.0"
