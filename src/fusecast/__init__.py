"""Spatio-temporal fused-graph traffic forecasting engine.

A self-contained forecaster: its own reverse-mode autodiff tensor core,
adaptive spatial/temporal graph learning with attention fusion, traffic
pattern decoupling, residual graph convolution, a GRU temporal module, and
a curriculum training loop, all on numpy.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import GraphConfig, ModelConfig, RunConfig, TrainConfig, load_config
from .data import (Normalizer, TrafficSeries, WindowSet, fit_normalizer,
                   load_predefined_graph, load_series, make_synthetic, save_series,
                   split_and_window)
from .decouple import GateParams, PatternFlows, decouple
from .errors import (ConfigError, IngestionError, NumericalError, ShapeError)
from .graphgen import (AdjacencySet, AttentionFusionParams, PatternGraphParams,
                       TimeEmbeddingPools, build_directed_graph, fuse_graphs,
                       generate_pattern_graph, temporal_feature_matrix)
from .network import (Forecaster, ForwardActivations, GruParams, gru_forward,
                      normalized_propagation, rgc_forward)
from .optim import Adam, GradCheckReport, grad_check
from .tensor import Tape, Tensor
from .training import (MetricReport, TrainResult, curriculum_horizon, evaluate,
                       lr_schedule, masked_mae_loss, metrics, run_training, train)

__version__ = "0.1.0"
