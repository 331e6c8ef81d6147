"""The paper's algorithms plus the published baselines.

Correct algorithms: Dolev–Strong (classic and active-set forms), oral
messages OM(t), and the paper's Algorithms 1–5.  The strawmen exist only
to be broken by the executable lower-bound proofs.
"""
