"""Test-side oracles: tuple-at-a-time twins of the vectorized kernels."""
