"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class DomainError(ValueError):
    """A value lies outside the numeric domain an operation is defined on."""


class EmptyOutputError(ValueError):
    """A trace produced no emissions, so offset latency is undefined."""


class CorpusError(RuntimeError):
    """Every instance in a corpus evaluation failed."""


class TrainingDivergedError(RuntimeError):
    """The toy training loop produced a non-finite loss."""

    def __init__(self, step: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at step {step}")
        self.step = step
        self.loss = loss
