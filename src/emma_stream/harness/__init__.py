"""Corpus ingestion, evaluation, sweeps, toy training, and reports."""

from .evaluate import (CorpusResult, SweepReport, SweepRow, evaluate_corpus,
                       threshold_sweep)
from .gen import generate_corpus, write_corpus
from .manifest import Manifest, load_instances
from .models import ToyPolicyModel, model_factory
from .reports import COLUMNS, emit_report, render_report
from .training import (ToyTrainConfig, TrainingReport, TrainingRun,
                       train_toy_policy)

__all__ = [
    "CorpusResult", "SweepReport", "SweepRow", "evaluate_corpus",
    "threshold_sweep", "generate_corpus", "write_corpus", "Manifest",
    "load_instances", "ToyPolicyModel",
    "model_factory", "COLUMNS", "emit_report", "render_report",
    "ToyTrainConfig", "TrainingReport", "TrainingRun", "train_toy_policy",
]
