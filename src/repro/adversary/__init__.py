"""Adversary strategies, from stock Byzantine behaviours to the paper's
lower-bound proof constructions."""
