"""Simulated authentication: the registry-oracle signature scheme."""
