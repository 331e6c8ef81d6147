"""Sweeps, tables, and paper-vs-measured experiment reports."""
