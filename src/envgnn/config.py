"""Training configuration."""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, asdict, fields

BACKBONES = ("gcn", "gat")
METHODS = ("canet", "erm")

# the values each field annotation admits; bool is a subclass of int, so the
# numeric kinds exclude it, and a float field takes an integer
_ADMITS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def reject_non_finite(obj):
    """Raise ``ValueError`` naming the first ``float`` field of dataclass ``obj`` not finite."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if (f.type.startswith("float") and value is not None
                and not abs(value) <= sys.float_info.max):  # NaN fails every comparison
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass
class TrainConfig:
    """Everything a single training run depends on.

    ``reg_weight`` has no published reference value; 1.0 is this package's
    documented default (``envgnn sweep`` tunes it).
    """

    num_layers: int = 2
    hidden: int = 32
    num_branches: int = 3
    tau: float = 1.0
    reg_weight: float = 1.0
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout: float = 0.1
    epochs: int = 500
    backbone: str = "gcn"
    method: str = "canet"
    seed: int = 0
    # ablation and mode flags
    mean_pool_env: bool = False
    deterministic_eval: bool = False
    exact_kl: bool = False  # use the closed-form regularizer instead of MC

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _ADMITS[f.type](value):
                raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__} "
                                 f"{value!r}")
        reject_non_finite(self)
        if self.backbone not in BACKBONES:
            raise ValueError(f"backbone must be one of {BACKBONES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 1.0 / self.tau <= sys.float_info.max:  # tau < ~5.6e-309; the gate divides by it
            raise ValueError(f"tau must have a finite reciprocal, got {self.tau!r}")
        if self.reg_weight < 0:
            raise ValueError("reg_weight must be nonnegative")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.num_layers < 1 or self.hidden < 1 or self.num_branches < 1:
            raise ValueError("num_layers, hidden, num_branches must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)
