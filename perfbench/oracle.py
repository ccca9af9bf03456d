"""Output oracle for one CLI ``forward`` op.

An op is correct when the CLI exits 0, its report's digest is the SHA-256 of
the file it wrote, the file holds one finite row of the input's width per
input proposal in input order, the rows keep the input features' global mean
and standard deviation (the promise of the default ``moment_match``
normalization), and the bytes equal those of every other repeat of the same
scene in the run. The file is parsed with the standard library only, so the
oracle shares no code with the program it checks.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

# Relative tolerance on the restored mean and standard deviation.
MOMENT_TOL = 1e-9


def file_digest(path: str) -> str:
    with open(path, "rb") as stream:
        return hashlib.sha256(stream.read()).hexdigest()


def content_problems(path: str, features: np.ndarray) -> list[str]:
    """Problems with the refined-feature file at ``path``; empty when it is correct."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            data = json.load(stream)
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if not isinstance(data, dict):
        return ["output is not a JSON object"]
    m, d = features.shape
    problems = []
    if data.get("ids") != list(range(m)):
        problems.append("output ids are not the input order")
    try:
        out = np.array(data.get("features"), dtype=np.float64)
    except (TypeError, ValueError):
        return problems + ["output features are not a numeric matrix"]
    if out.shape != (m, d):
        return problems + [f"output shape {out.shape} != {(m, d)}"]
    if not np.all(np.isfinite(out)):
        return problems + ["output has non-finite values"]
    mean, std = float(features.mean()), float(features.std())
    if abs(float(out.mean()) - mean) > MOMENT_TOL * (abs(mean) + std):
        problems.append(f"output mean {float(out.mean())!r} != input mean {mean!r}")
    if abs(float(out.std()) - std) > MOMENT_TOL * std:
        problems.append(f"output std {float(out.std())!r} != input std {std!r}")
    return problems


class SceneOracle:
    """Checks every op on one scene; all its outputs must be byte-identical."""

    def __init__(self, features: np.ndarray) -> None:
        self.features = features
        self.digest: str | None = None
        self._first_problems: list[str] = []

    def check(self, exit_code: int, report: dict | None, path: str) -> list[str]:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        digest = file_digest(path)
        problems = []
        if report is None or report.get("digests", {}).get(path) != digest:
            problems.append("report digest does not match the output file")
        if self.digest is None:
            self.digest = digest
            self._first_problems = content_problems(path, self.features)
            return problems + self._first_problems
        if digest == self.digest:
            # Same bytes as the first repeat, so the same content verdict.
            return problems + self._first_problems
        return problems + content_problems(path, self.features) + [
            f"output digest {digest[:16]} differs from the first repeat's {self.digest[:16]}"
        ]
