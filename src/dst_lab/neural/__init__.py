"""Desk-scale neural stack: connector, query compressor, trainer, gradcheck."""

from .gradcheck import GradCheckResult, grad_check, grad_check_suite
from .pipeline import (
    CompressorConfig,
    Compressor,
    Connector,
    Readout,
    SpeechEmbedding,
    build_compressor,
    build_connector,
    build_encoder_stub,
    build_readout,
    compress_turn,
    connector_forward,
    downsample,
)
from .probe import ProbeHyper, build_probe_dataset, probe_retention
from .train import TrainingConfig, TrainingDivergence, TrainingResult, accuracy, train

__all__ = [
    "CompressorConfig",
    "Compressor",
    "Connector",
    "GradCheckResult",
    "ProbeHyper",
    "Readout",
    "SpeechEmbedding",
    "TrainingConfig",
    "TrainingDivergence",
    "TrainingResult",
    "accuracy",
    "build_compressor",
    "build_connector",
    "build_encoder_stub",
    "build_probe_dataset",
    "build_readout",
    "compress_turn",
    "connector_forward",
    "downsample",
    "grad_check",
    "grad_check_suite",
    "probe_retention",
    "train",
]
