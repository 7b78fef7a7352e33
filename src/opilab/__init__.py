"""Exact and asymptotic toolkit for polynomial-intersection satisfaction
bounds over prime fields."""

__version__ = "0.1.0"

# The identity suites of `opilab verify`, in run order; "all" runs each in
# turn.  They live here, where no kernel is imported, so that the CLI's
# parser reads them without importing numpy; `verify` keys its instance
# sources by them.
SUITES = ("kravchuk", "moments", "discrepancy", "fourier", "leakage", "asymptotic", "all")
