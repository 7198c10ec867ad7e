"""Lossless speculative decoding for block-wise masked-diffusion LMs.

Each public name is imported from the one module that defines it, for
example ``blockspec.engine.generate_speculative``."""

__version__ = "0.1.0"
