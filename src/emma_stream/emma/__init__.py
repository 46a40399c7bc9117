"""Monotonic-attention policy math: probabilities, alignment, attention,
regularizers, and the differentiable objective."""

from .alignment import (alignment_parallel, alignment_recursive,
                        stepwise_probability)
from .attention import attention_energies, beta_parallel, beta_recursive
from .losses import (alignment_variance, expected_delays, ideal_delays,
                     latency_loss, variance_loss)
from .objective import ObjectiveResult, emma_objective
from .params import (EncDecStates, FeedForward, LossWeights, PolicyHeadParams,
                     Readout, pack_parameters, random_feedforward,
                     random_head, random_readout, random_states,
                     unpack_parameters)

__all__ = [
    "alignment_parallel",
    "alignment_recursive",
    "stepwise_probability",
    "attention_energies",
    "beta_parallel",
    "beta_recursive",
    "alignment_variance",
    "expected_delays",
    "ideal_delays",
    "latency_loss",
    "variance_loss",
    "ObjectiveResult",
    "emma_objective",
    "EncDecStates",
    "FeedForward",
    "LossWeights",
    "PolicyHeadParams",
    "Readout",
    "pack_parameters",
    "random_feedforward",
    "random_head",
    "random_readout",
    "random_states",
    "unpack_parameters",
]
