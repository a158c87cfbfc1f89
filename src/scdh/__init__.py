"""Semantic-cluster hash learning toolkit.

Supervised and semi-supervised training of binary hash codes with a unary
cluster loss, numerical certification of the unary upper bounds on the
triplet ranking loss, and bit-packed Hamming retrieval with the standard
evaluation metrics.
"""

__version__ = "0.1.0"
