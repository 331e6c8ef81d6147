"""Logical topologies used by the paper's algorithms."""
