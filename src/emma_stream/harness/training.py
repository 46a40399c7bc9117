"""Toy training loop demonstrating the latency/variance trade-off.

Encoder and decoder states are drawn once from the seed and frozen; plain
gradient descent moves only the policy heads and the toy readout. Runs with
different loss weights share the seed, so their initializations are
identical and final delays are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..emma.objective import emma_objective
from ..emma.params import (EncDecStates, LossWeights, PolicyHeadParams,
                           Readout, pack_parameters, random_head,
                           random_readout, random_states, unpack_parameters)
from ..errors import DomainError, TrainingDivergedError

__all__ = ["ToyTrainConfig", "TrainingRun", "TrainingReport",
           "train_toy_policy", "trained_heads_for_model"]

# init knobs for trainability: a mild bias and unit temperature keep the
# stepwise sigmoids off their flat tails where descent stalls
_INIT_BIAS = -1.0
_INIT_TEMPERATURE = 1.0


@dataclass(frozen=True)
class ToyTrainConfig:
    source_len: int = 6
    target_len: int = 4
    vocab: int = 6
    d: int = 8
    d_k: int = 4
    d_v: int = 3
    n_heads: int = 2
    steps: int = 500
    learning_rate: float = 0.25
    seed: int = 0
    latency_mode: str = "ideal-lag"
    weight_settings: tuple[LossWeights, ...] = (
        LossWeights(0.0, 0.0), LossWeights(0.5, 0.0))

    def __post_init__(self):
        if self.steps < 1 or not 0 < self.learning_rate < math.inf:
            raise ValueError("steps and learning rate must be positive and finite")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


@dataclass
class TrainingRun:
    weights: LossWeights
    log: list[dict] = field(default_factory=list)
    heads: list[PolicyHeadParams] = field(default_factory=list)
    readout: Readout | None = None

    @property
    def final(self) -> dict:
        return self.log[-1]


@dataclass
class TrainingReport:
    config: ToyTrainConfig
    runs: tuple[TrainingRun, ...]

    def finals(self, key: str) -> list[float]:
        return [run.final[key] for run in self.runs]


def _frozen_problem(config: ToyTrainConfig):
    rng = np.random.default_rng(config.seed)
    heads = [random_head(rng, config.d, config.d_k, bias=_INIT_BIAS,
                         temperature=_INIT_TEMPERATURE, scale=0.5)
             for _ in range(config.n_heads)]
    readout = random_readout(rng, config.d_v, config.vocab, scale=0.5)
    states = random_states(rng, config.source_len, config.target_len,
                           config.d, config.d_v)
    targets = rng.integers(0, config.vocab, size=config.target_len)
    return heads, readout, states, targets


def train_single(config: ToyTrainConfig, weights: LossWeights) -> TrainingRun:
    """Gradient descent for one loss-weight setting, on the flat parameter
    vector; the initial heads and readout only give its layout."""
    heads, readout, states, targets = _frozen_problem(config)
    theta = pack_parameters(heads, readout)
    run = TrainingRun(weights=weights)
    for step in range(config.steps):
        try:
            res = emma_objective(heads, states, targets, weights, readout,
                                 latency_mode=config.latency_mode, theta=theta)
        except DomainError:
            # attention energies or the readout softmax underflowed to zero:
            # the parameters left the objective's computable domain, same
            # event as an inf loss
            raise TrainingDivergedError(step=step, loss=float("inf"))
        if not res.is_finite():
            raise TrainingDivergedError(step=step, loss=res.loss)
        run.log.append({"step": step, "loss": res.loss, "nll": res.nll,
                        "delay_mean": res.delay_mean,
                        "variance": res.variance})
        theta = theta - config.learning_rate * res.gradient
    run.heads, run.readout = unpack_parameters(theta, heads, readout)
    final = emma_objective(run.heads, states, targets, weights, run.readout,
                           latency_mode=config.latency_mode,
                           with_gradient=False)
    run.log.append({"step": config.steps, "loss": final.loss,
                    "nll": final.nll, "delay_mean": final.delay_mean,
                    "variance": final.variance})
    return run


def train_toy_policy(config: ToyTrainConfig) -> TrainingReport:
    """One descent per loss-weight setting, identical initialization."""
    if len(config.weight_settings) < 2:
        raise ValueError("need at least two loss-weight settings to compare")
    runs = tuple(train_single(config, w) for w in config.weight_settings)
    return TrainingReport(config=config, runs=runs)


def trained_heads_for_model(parameters: dict, seed: int):
    """Train once for a manifest's toy_trained model block.

    ``parameters`` is the block checked by ``manifest.model_parameters``,
    with every default filled in; a ``train_seed`` of None means ``seed``.
    """
    weights = LossWeights(parameters["lambda_latency"],
                          parameters["lambda_variance"])
    train_seed = parameters["train_seed"]
    config = ToyTrainConfig(
        source_len=parameters["source_len"],
        target_len=parameters["target_len"],
        vocab=parameters["vocab"],
        d=parameters["d"],
        d_k=parameters["d_k"],
        d_v=parameters["d_v"],
        n_heads=parameters["heads"],
        steps=parameters["steps"],
        learning_rate=parameters["learning_rate"],
        seed=seed if train_seed is None else train_seed,
    )
    run = train_single(config, weights)
    return run.heads, config.d
