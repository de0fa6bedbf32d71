"""Pipeline configuration: defaults, file loading, flag overrides."""

from __future__ import annotations

import json
import sys
from typing import Any, Mapping, NamedTuple

from .errors import ConfigError
from .seeding import sha256


class PipelineConfig(NamedTuple):
    """Everything the analysis pipeline can be steered with.

    The ranking sizes default to the five most-citing and six most-cited
    codes. This is the one home of every analysis parameter: the cohesion
    test, the baselines and the concentrated-world rule read theirs from
    it, and no function repeats a default.
    """

    k_citing: int = 5
    k_cited: int = 6
    min_community_size: int = 4
    null_samples: int = 100
    seed: int = 42
    ws_p: float = 0.1
    rewire_budget_factor: int = 10
    degree_fraction: float = 0.15  # concentrated: mean total degree >= fraction * (n-1)
    transitivity_factor: float = 2.5  # small world: transitivity >= factor * ER mean
    path_length_factor: float = 1.5  # small world: path length <= factor * ER mean
    sparse_sigma: float = 2.0  # sparse-random: transitivity within sigma of ER

    def digest(self) -> str:
        payload = json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode("utf-8")).hexdigest()


def _checked(name: str, value: Any) -> Any:
    """value, checked against the type and range of field name.

    A config file is JSON, which can spell true, NaN and Infinity: a bool
    is neither an integer nor a number here, and floats must be finite. A
    float field's value is returned as a float, so ``1`` and ``1.0`` give
    the same config and the same digest.
    """
    if isinstance(PipelineConfig._field_defaults[name], int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if name != "seed" and value < 1:
            raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        return value
    # not a bool, and no NaN, infinity or integer past the largest float
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if value < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")
    return float(value)


def load_config(text: str | None, overrides: Mapping[str, Any] | None = None) -> PipelineConfig:
    """Merge a JSON config document with explicit overrides; overrides win."""
    values: dict[str, Any] = {}
    if text is not None:
        try:
            loaded = json.loads(text)
        except (ValueError, RecursionError) as exc:  # not JSON, an overlong integer or deep nesting
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must contain a JSON object")
        values.update(loaded)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values).difference(PipelineConfig._fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    given = PipelineConfig(**values)
    config = PipelineConfig(*map(_checked, given._fields, given))
    if config.ws_p > 1:
        raise ConfigError(f"ws_p must be in [0, 1], got {given.ws_p!r}")
    return config
