"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class ContractError(RuntimeError):
    """A caller violated an API precondition (not a config value)."""


class DegenerateSeriesError(ValueError):
    """A time-series row has zero variance, so its correlations are undefined."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"time-series row {row} has zero variance")


class DatasetError(ValueError):
    """A dataset cannot be used: the CLI exits with code 4."""


class DatasetParseError(DatasetError):
    """A dataset file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptySplitError(DatasetError):
    """A dataset too small to give every split at least one graph."""

    def __init__(self, split: str, num_graphs: int):
        self.split = split
        self.num_graphs = num_graphs
        super().__init__(split, num_graphs)  # args rebuild it in a pool worker

    def __str__(self) -> str:
        return (f"the {self.split} split is empty: {self.num_graphs} graphs are "
                f"too few to fill train, val and test")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss.

    The training loop knows the epoch and batch. The callers above it fill
    in the training seed and the sweep cell key as the error passes through.
    """

    def __init__(self, epoch: int, batch: int, value: float,
                 seed: int | None = None, cell: str | None = None):
        self.epoch = epoch
        self.batch = batch
        self.value = value
        self.seed = seed
        self.cell = cell
        super().__init__(epoch, batch, value, seed, cell)  # as for EmptySplitError

    def __str__(self) -> str:
        where = [f"cell {self.cell}"] if self.cell is not None else []
        if self.seed is not None:
            where.append(f"seed {self.seed}")
        what = (f"non-finite training loss ({self.value}) at epoch {self.epoch}, "
                f"batch {self.batch}")
        return f"{', '.join(where)}: {what}" if where else what
