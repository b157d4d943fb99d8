"""isfkit: exact generating functions and decision procedures for increasing
spanning forests and their relatives (cage-free subcomplexes, labeled
multigraph arrangements, tight forests)."""

__version__ = "0.1.0"
