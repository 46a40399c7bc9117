"""Toy training loop demonstrating the latency/variance trade-off.

Encoder and decoder states are drawn once from the seed and frozen; plain
gradient descent moves only the policy heads and the toy readout. Runs with
different loss weights share the seed, so their initializations are
identical and final delays are directly comparable.

The settings descend in lockstep: each step is one objective call over an
R x n parameter array, row r being setting r's parameters, and each row
moves exactly as it would in a descent of its own. The final evaluation is
the loop's last step, without a gradient. A setting diverges when its loss
is non-finite or its objective raises a DomainError, at any step, the final
evaluation included. It drops out, together with every later setting, whose
error could no longer be the one raised; the earlier ones keep stepping,
and at the end the earliest setting's error is raised, as a one-by-one loop
would raise it.
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


def _log_entry(step: int, res) -> dict:
    return {"step": step, "loss": res.loss, "nll": res.nll,
            "delay_mean": res.delay_mean, "variance": res.variance}


def _descend(config: ToyTrainConfig,
             settings: tuple[LossWeights, ...]) -> tuple[TrainingRun, ...]:
    """Gradient descent for every setting in ``settings`` in lockstep, on
    one row of flat parameters per setting; the initial heads and readout
    only give the layout. Step ``config.steps`` is the final evaluation: it
    takes no gradient and moves no parameters."""
    heads, readout, states, targets = _frozen_problem(config)
    theta = np.tile(pack_parameters(heads, readout), (len(settings), 1))
    runs = tuple(TrainingRun(weights=w) for w in settings)
    live = len(settings)  # settings 0 .. live - 1 still descend
    diverged = None

    def objective(first: int, stop: int, with_gradient: bool):
        """Results of settings first .. stop - 1 at the current theta."""
        return emma_objective(heads, states, targets, settings[first:stop],
                              readout, with_gradient=with_gradient,
                              theta=theta[first:stop])

    # an overflow shows up as a non-finite loss or a DomainError, both of
    # which end the setting as divergence, so numpy need not warn about it
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.steps + 1):
            with_gradient = step < config.steps
            try:
                results = objective(0, live, with_gradient)
            except DomainError:
                # find the settings whose attention energies or readout
                # softmax underflowed to zero: they left the objective's
                # computable domain, same event as an inf loss
                results = []
                for r in range(live):
                    try:
                        results += objective(r, r + 1, with_gradient)
                    except DomainError:
                        results.append(None)
                        break
            for r, res in enumerate(results):
                if res is None or not res.is_finite():
                    diverged = TrainingDivergedError(
                        step=step,
                        loss=float("inf") if res is None else res.loss)
                    live = r
                    break
                runs[r].log.append(_log_entry(step, res))
            if not live:
                break
            if with_gradient:
                theta = theta[:live] - config.learning_rate * np.array(
                    [res.gradient for res in results[:live]])
    if diverged is not None:
        raise diverged
    for run, row in zip(runs, theta):
        run.heads, run.readout = unpack_parameters(row, heads, readout)
    return runs


def train_single(config: ToyTrainConfig, weights: LossWeights) -> TrainingRun:
    """Gradient descent for one loss-weight setting."""
    return _descend(config, (weights,))[0]


def train_toy_policy(config: ToyTrainConfig) -> TrainingReport:
    """One descent per loss-weight setting, identical initialization, all
    settings stepping in lockstep."""
    if len(config.weight_settings) < 2:
        raise ValueError("need at least two loss-weight settings to compare")
    return TrainingReport(config=config,
                          runs=_descend(config, tuple(config.weight_settings)))


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
