"""Spatio-temporal fused-graph traffic forecasting engine.

A self-contained forecaster: its own reverse-mode autodiff tensor core,
adaptive spatial/temporal graph learning with attention fusion, traffic
pattern decoupling, residual graph convolution, a GRU temporal module, and
a curriculum training loop, all on numpy.
"""

# The package re-exports nothing: import each name from the module that defines it.

__version__ = "0.1.0"
