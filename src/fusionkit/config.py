"""Toolchain configuration: defaults, file loading, hashing, provenance.

One frozen Config carries every knob the command-line tools accept. It
extends the library configs whose knobs it carries, ``SelectionConfig``
(token selection) and ``PipelineConfig`` (risk QA generation), so each of
their defaults is stated once, there, and a Config is passed to ``fuse``,
``token_budget`` and ``run_pipeline`` as it is. Values load from a JSON
file, each overridden by the flag that sets it (unknown keys rejected so
typos fail loudly). Reports embed a sha256 over the effective config's
canonical JSON plus sha256s of the input files, which makes any result
traceable to exactly what produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping

from . import __version__
from .driving_eval import AP_INTERPOLATIONS, L2_MODES, ORA_GATING_MODES
from .interactor import SELECTION_RULES, SelectionConfig
from .jsontypes import (canonical_json, check_fields, check_rules, field_dict,
                        one_of)
from .refinery import DATASET_SOURCES
from .risk_qa import PIPELINE_RULES, PipelineConfig

__all__ = [
    "AP_INTERPOLATIONS",
    "L2_MODES",
    "Config",
    "ConfigError",
    "check_flags",
    "config_hash",
    "load_config",
    "provenance_block",
    "sha256_file",
]


class ConfigError(ValueError):
    """A config file or override is malformed or out of range."""


# Config's range rules: field -> (predicate, the rule it checks); the
# inherited fields' rules are their bases'
_RULES = {
    **SELECTION_RULES,
    **PIPELINE_RULES,
    "short_answer_threshold": (lambda v: v >= 0, "must be nonnegative"),
    "iou_thresholds": (lambda v: v and all(0.0 < t <= 1.0 for t in v)
                       and len(set(v)) == len(v),
                       "must be a non-empty list of distinct values in (0, 1]"),
    "ap_interpolation": one_of(AP_INTERPOLATIONS),
    "l2_mode": one_of(L2_MODES),
    "ora_gating": one_of(ORA_GATING_MODES),
    "ego_length": (lambda v: v > 0, "must be positive"),
    "ego_width": (lambda v: v > 0, "must be positive"),
    "timeout": (lambda v: v > 0, "must be positive"),
}

# The same for the flags with no config key: argparse dest -> (predicate,
# the rule it checks); the message names the flag
_FLAG_RULES = {
    "source": one_of(DATASET_SOURCES),
    "image_size": (lambda v: min(v) >= 2, "must be at least 2 on each side"),
    "view_tokens": (lambda v: v and all(n >= 0 for n in v),
                    "must be one or more nonnegative counts"),
    "bev_tokens": (lambda v: v >= 1, "must be at least 1"),
    "bev_grid": (lambda v: len(v) == 2 and all(n >= 1 for n in v),
                 "must be H,W with both at least 1"),
    "num_layers": (lambda v: v >= 1, "must be at least 1"),
    "num_heads": (lambda v: v >= 1, "must be at least 1"),
    "rates": (lambda v: v and all(0 <= r <= 100 for r in v)
              and len(set(v)) == len(v),
              "must be one or more distinct percentages in [0, 100]"),
}


def check_flags(values: Mapping) -> None:
    """Check the parsed flags that set no config key, by argparse dest; a
    flag left at None is not checked."""
    check_rules(_FLAG_RULES, values, ConfigError,
                lambda dest: "--" + dest.replace("_", "-"))


@dataclass(frozen=True)
class Config(SelectionConfig, PipelineConfig):
    """Every tool knob with its documented default.

    The token-selection knobs (``k_img``, ``k_bev``, ``reduction``) and
    the risk-QA knobs (``step1_model``, ``step2_model``, ``temperature``,
    ``seed``, ``retries``, ``max_in_flight``) are inherited with their
    defaults; ``seed`` also seeds the demo parameters and mask draws. The
    fields below are the rest. Every value is judged here, by ``_RULES``,
    which holds the bases' rule tables too, so the bases' own checks are
    not run; each message names the key.
    """

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
    timeout: float = 60.0

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        check_rules(_RULES, field_dict(self), ConfigError)

    def to_dict(self) -> dict:
        return field_dict(self)


def load_config(path: str | Path | None, **flags) -> Config:
    """Config from an optional JSON file and the flags that are set.

    A flag overrides the file's value of its key; a flag left at None
    keeps it. Unknown keys in either place raise ConfigError rather than
    being silently dropped, and only the merged values are checked.
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
    data = {**data, **{k: v for k, v in flags.items() if v is not None}}
    unknown = sorted(set(data) - {f.name for f in fields(Config)})
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    return Config(**data)


def config_hash(cfg: Config) -> str:
    """sha256 over the canonical JSON of the effective config."""
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode()).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance_block(cfg: Config, inputs: Mapping[str, str | Path]) -> dict:
    """The provenance dict every report embeds.

    ``inputs`` maps labels to paths; each is hashed so a report can be
    traced to its exact inputs.
    """
    return {
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "inputs": {label: sha256_file(p) for label, p in inputs.items()},
        "effective_config": cfg.to_dict(),
    }
