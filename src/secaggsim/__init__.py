"""Secure-aggregation protocol engine and simulator.

Tree-grouped pairwise masking with partial disclosure of subgroup
aggregates, dropout recovery, suspicious-subgroup detection, the
full-pairwise baseline as a one-leaf tree whose ring covers every user,
and a deterministic scenario harness.
"""

__version__ = "0.1.0"
