"""Pipeline configuration.

One frozen dataclass carries every knob: graph construction threshold,
pooling sizes, residual mixing, normalization mode and the attention bias flag.
JSON configs mirror the field names (``lambda_`` is spelled ``lambda`` on
disk); unknown fields are rejected.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields

from .errors import InputError
from .spectral import _check_split_rule

NORM_MODES = ("moment_match", "literal")

# Accepted value types per annotation; bools are accepted only for bool fields.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class PipelineConfig:
    iou_thr: float = 0.3
    min_size: int = 3
    stop_ncut: float = 0.5
    min_part: int = 1
    lambda_: float = 1.0
    epsilon: float = 1e-8
    norm_mode: str = "moment_match"
    iou_bias: bool = False
    per_channel: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            name = "lambda" if f.name == "lambda_" else f.name
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise InputError(f"{name} must be {f.type}, got {value!r}")
            # An int beyond the float range would overflow in the checks below.
            if type(value) is int and abs(value) > sys.float_info.max:
                raise InputError(f"{name} is out of the float range")
        if not 0.0 <= self.iou_thr < 1.0:
            raise InputError(f"iou_thr must lie in [0, 1), got {self.iou_thr}")
        if self.min_size < 1:
            raise InputError(f"min_size must be >= 1, got {self.min_size}")
        _check_split_rule(self.stop_ncut, self.min_part)
        if not math.isfinite(self.lambda_) or self.lambda_ < 0.0:
            raise InputError(f"lambda must be finite and >= 0, got {self.lambda_}")
        if not math.isfinite(self.epsilon) or self.epsilon <= 0.0:
            raise InputError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if self.norm_mode not in NORM_MODES:
            raise InputError(f"norm_mode must be one of {NORM_MODES}, got {self.norm_mode!r}")

    def to_dict(self) -> dict:
        return {
            ("lambda" if key == "lambda_" else key): value
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        # Only the on-disk spelling "lambda" names lambda_.
        known = {f.name for f in fields(cls)} - {"lambda_"} | {"lambda"}
        kwargs = {}
        for key, value in data.items():
            if key not in known:
                raise InputError(f"unknown config field {key!r}")
            kwargs["lambda_" if key == "lambda" else key] = value
        return cls(**kwargs)
