"""Toolchain configuration: defaults, file loading, hashing, provenance.

One frozen Config carries every knob the command-line tools accept.
Values load from a JSON file (unknown keys rejected so typos fail
loudly), then individual flags override single fields. Reports embed a
sha256 over the effective config's canonical JSON plus sha256s of the
input files, which makes any result traceable to exactly what produced
it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

from . import __version__
from .driving_eval import AP_INTERPOLATIONS, L2_MODES, ORA_GATING_MODES
from .interactor import REDUCTIONS
from .jsontypes import check_fields

__all__ = [
    "AP_INTERPOLATIONS",
    "L2_MODES",
    "Config",
    "ConfigError",
    "config_hash",
    "load_config",
    "provenance_block",
    "sha256_file",
]


class ConfigError(ValueError):
    """A config file or override is malformed or out of range."""


def _one_of(choices: tuple[str, ...]):
    return choices.__contains__, f"must be one of {choices}"


# Config's range rules: field -> (predicate, the rule it checks)
_RULES = {
    "k_img": (lambda v: v >= 1, "must be at least 1"),
    "k_bev": (lambda v: v >= 1, "must be at least 1"),
    "reduction": _one_of(REDUCTIONS),
    "short_answer_threshold": (lambda v: v >= 0, "must be nonnegative"),
    "iou_thresholds": (lambda v: v and all(0.0 < t <= 1.0 for t in v),
                       "must be a non-empty list of values in (0, 1]"),
    "ap_interpolation": _one_of(AP_INTERPOLATIONS),
    "l2_mode": _one_of(L2_MODES),
    "ora_gating": _one_of(ORA_GATING_MODES),
    "ego_length": (lambda v: v > 0, "must be positive"),
    "ego_width": (lambda v: v > 0, "must be positive"),
    "temperature": (lambda v: v >= 0, "must be nonnegative"),
    "timeout": (lambda v: v > 0, "must be positive"),
    "retries": (lambda v: v >= 0, "must be nonnegative"),
    "max_in_flight": (lambda v: v >= 1, "must be at least 1"),
    "seed": (lambda v: v >= 0, "must be nonnegative"),
}


@dataclass(frozen=True)
class Config:
    """Every tool knob with its documented default."""

    # token selection
    k_img: int = 90
    k_bev: int = 300
    reduction: str = "max"
    # refinement
    short_answer_threshold: int = 5
    # evaluation
    iou_thresholds: tuple[float, ...] = (0.5,)
    ap_interpolation: str = "all_point"
    l2_mode: str = "at_horizon"
    ora_gating: str = "correct_exist"
    metric_scale_100: bool = True
    ego_length: float = 4.084
    ego_width: float = 1.85
    # chat client
    endpoint: str = ""
    step1_model: str = "gpt-4o"
    step2_model: str = "gpt-4o-mini"
    temperature: float = 0.0
    timeout: float = 60.0
    retries: int = 2
    max_in_flight: int = 2
    # randomness
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        for name, (ok, rule) in _RULES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ConfigError(f"{name} {rule}, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def override(self, **updates) -> "Config":
        """Replace the given fields; None values mean 'keep the default'."""
        live = {k: v for k, v in updates.items() if v is not None}
        unknown = sorted(set(live) - {f.name for f in fields(self)})
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return replace(self, **live)


def load_config(path: str | Path | None, **overrides) -> Config:
    """Config from an optional JSON file plus flag overrides.

    File values apply first, flags second. Unknown keys in either place
    raise ConfigError rather than being silently dropped.
    """
    data: dict = {}
    if path is not None:
        try:
            raw = Path(path).read_text(encoding="utf-8")
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not valid UTF-8") from None
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    known = {f.name for f in fields(Config)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return Config(**data).override(**overrides)


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: Config) -> str:
    """sha256 over the canonical JSON of the effective config."""
    return hashlib.sha256(_canonical_json(cfg.to_dict()).encode()).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance_block(
    cfg: Config, inputs: Mapping[str, str | Path] | Sequence[str | Path] = (),
) -> dict:
    """The provenance dict every report embeds.

    ``inputs`` maps labels to paths (or is a plain path list); each is
    hashed so a report can be traced to its exact inputs.
    """
    if isinstance(inputs, Mapping):
        items = inputs.items()
    else:
        items = ((str(p), p) for p in inputs)
    return {
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "inputs": {str(label): sha256_file(p) for label, p in items},
        "effective_config": cfg.to_dict(),
    }
