"""Scenario configuration: dataclasses, validation and strict JSON loading.

Scenario files keep powers in dBm and the self-interference coefficient in
dB; loading converts them once (`dbm_to_watt`, `db_to_linear`), so the
simulation works in linear watts, joules and seconds. The only other decibels
are the delta_db sweep axis values (`engine.apply_axis`), and nothing converts
back to decibels. Unknown keys in a scenario file are an error.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

__all__ = [
    "dbm_to_watt",
    "db_to_linear",
    "ConfigError",
    "ScenarioConfig",
    "HbsParams",
    "UeTemplate",
    "FixedUe",
    "Scenario",
    "validate_scenario",
    "ue_errors",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "config_hash",
]

def dbm_to_watt(dbm: float) -> float:
    """Convert a power level in dBm to watts; inf where it overflows."""
    return db_to_linear(dbm - 30.0)


def db_to_linear(db: float) -> float:
    """Convert a ratio in dB to linear scale; inf where it overflows, so the
    finiteness checks report the value."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


# Harvesting efficiencies below this make the circuit-power requirement
# p_cir / (mu * g) blow up; sampled values are resampled above it.
MU_FLOOR = 1e-6


class ConfigError(ValueError):
    """Raised with the full list of violated invariants or bad keys."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Global physical and simulation parameters (all linear units)."""

    num_ues: int
    epsilon: float          # power-amplifier efficiency, in (0, 1]
    delta: float            # effective self-interference coefficient, linear
    sigma2: float           # AWGN power at the base station, watts
    delta_t: float = 1.0    # harvesting interval, seconds
    attenuation_k: float = 0.09
    cell_side: float = 50.0
    hbs_placement: str = "center"   # "center" or "corner"
    seed: int = 0
    tol: float = 1e-9
    max_iter: int = 2000


@dataclass(frozen=True)
class HbsParams:
    """Base-station power model: peak harvest transmit power and circuit."""

    p_bar_h: float
    n_antennas: int = 2
    p_dyn: float = 0.0
    p_sta: float = 0.0
    p_cir: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p_cir", self.n_antennas * self.p_dyn + self.p_sta)


@dataclass(frozen=True)
class UeTemplate:
    """Per-UE parameters shared by sampled UEs; mu=None means U(0,1) draws."""

    mu: float | None
    gamma_target: float
    eta: float = 1.0
    n_antennas: int = 2
    p_dyn: float = 0.0
    p_sta: float = 0.0
    p_bar_u: float | None = None
    e_bar: float | None = None

    @property
    def p_cir(self) -> float:       # circuit power of one UE
        return self.n_antennas * self.p_dyn + self.p_sta

    def resolve_p_bar_u(self, epsilon: float, delta_t: float) -> float:
        """Uplink cap, either direct or derived from the harvest-energy limit."""
        if self.p_bar_u is not None:
            return self.p_bar_u
        return epsilon * (self.e_bar / delta_t - self.p_cir)


@dataclass(frozen=True)
class FixedUe:
    """Overrides for one UE in a fixed-distance (single snapshot) scenario."""

    distance: float
    gamma_target: float | None = None
    mu: float | None = None
    eta: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Validated bundle: global config, base station, UE template, fixed UEs."""

    cfg: ScenarioConfig
    hbs: HbsParams
    ue_template: UeTemplate
    fixed_ues: tuple[FixedUe, ...] | None = None


def _not_finite(name: str):
    return lambda u: ~np.isfinite(u[name])


# Per-UE invariants in reporting order: (field, violated(columns), message).
# The range tests compare with < or <=, which NaN passes, so every field has
# a finiteness test as well.
_UE_CHECKS = (
    ("mu", lambda u: u["mu"] <= 0.0, "mu must be strictly positive"),
    ("mu", lambda u: u["mu"] >= 1.0, "mu must be below 1"),
    ("mu", _not_finite("mu"), "must be finite"),
    ("g", lambda u: u["g"] <= 0.0, "channel gain must be strictly positive"),
    ("g", _not_finite("g"), "must be finite"),
    ("distance", lambda u: u["distance"] <= 0.0, "must be strictly positive"),
    ("distance", _not_finite("distance"), "must be finite"),
    ("gamma_target", lambda u: u["gamma_target"] < 0.0, "must be non-negative"),
    ("gamma_target", _not_finite("gamma_target"), "must be finite"),
    ("eta", lambda u: u["eta"] < 0.0, "must be non-negative"),
    ("eta", _not_finite("eta"), "must be finite"),
)


def ue_errors(columns: dict[str, np.ndarray]) -> list[str]:
    """Per-UE violations, with field paths, of the first snapshot that has any.

    `columns` maps mu, g (h is g), distance, gamma_target and eta, the
    inputs that can vary per UE, each to an (S, K) array: row s holds
    snapshot s, column i its UE i. validate_scenario checks what the UE
    template fixes for every UE.
    """
    violated = [(field, bad(columns), msg) for field, bad, msg in _UE_CHECKS]
    # or-ing the masks pairwise avoids stacking them into one (checks, S, K) array
    rows = np.flatnonzero(functools.reduce(np.logical_or, [v for _, v, _ in violated]).any(axis=-1))
    if rows.size == 0:
        return []
    s = rows[0]
    return [
        f"ues[{i}].{field}: {msg}"
        for i in range(columns["mu"].shape[1])
        for field, v, msg in violated
        if v[s, i]
    ]


def validate_scenario(cfg: ScenarioConfig, hbs: HbsParams, template: UeTemplate) -> list[str]:
    """Check the invariants of the configuration and of the constants the UE
    template fixes for every UE: its uplink cap (exactly one of p_bar_u and
    e_bar set, and the cap they give finite and positive), circuit powers,
    antennas, fixed mu and the gamma_target and eta that UEs without their
    own take. Returns all violations, each once, with field paths. ue_errors
    checks the inputs that can vary per UE."""
    errors: list[str] = []

    def bad(path: str, msg: str):
        errors.append(f"{path}: {msg}")

    if cfg.num_ues < 1:
        bad("scenario.num_ues", "must be at least 1")
    if not (0.0 < cfg.epsilon <= 1.0):
        bad("scenario.epsilon", "epsilon out of range (0, 1]")
    if cfg.delta < 0.0:
        bad("scenario.delta", "must be non-negative")
    if cfg.sigma2 <= 0.0:
        bad("scenario.sigma2", "must be strictly positive")
    if cfg.delta_t <= 0.0:
        bad("scenario.delta_t", "must be strictly positive")
    if cfg.attenuation_k <= 0.0:
        bad("scenario.attenuation_k", "must be strictly positive")
    if cfg.cell_side <= 0.0:
        bad("scenario.cell_side", "must be strictly positive")
    if cfg.hbs_placement not in ("center", "corner"):
        bad("scenario.hbs_placement", "must be 'center' or 'corner'")
    if cfg.tol <= 0.0:
        bad("scenario.tol", "must be strictly positive")
    if cfg.max_iter < 1:
        bad("scenario.max_iter", "must be at least 1")
    # snapshot s draws from stream seed + s, and numpy seeds only non-negative integers
    if cfg.seed < 0:
        bad("scenario.seed", "must be non-negative")
    # NaN passes every < or <= range test above
    for name in ("delta", "sigma2", "delta_t", "attenuation_k", "cell_side", "tol"):
        if not math.isfinite(getattr(cfg, name)):
            bad(f"scenario.{name}", "must be finite")

    if hbs.p_bar_h <= 0.0:
        bad("hbs.p_bar_h", "must be strictly positive")
    if not math.isfinite(hbs.p_bar_h):
        bad("hbs.p_bar_h", "must be finite")
    # keeps every interference under the caps finite: an infinite one times
    # a zero gamma_target is NaN, which spreads to every UE
    if (math.isfinite(cfg.delta) and math.isfinite(hbs.p_bar_h)
            and math.isinf(cfg.delta * hbs.p_bar_h)):
        bad("scenario.delta", "delta * hbs.p_bar_h must be finite")
    for path, part in (("hbs", hbs), ("ue_template", template)):
        if part.n_antennas < 1:
            bad(f"{path}.n_antennas", "must be at least 1")
        if part.p_dyn < 0.0 or part.p_sta < 0.0:
            bad(f"{path}.circuit", "circuit powers must be non-negative")
        if not (math.isfinite(part.p_dyn) and math.isfinite(part.p_sta)):
            bad(f"{path}.circuit", "circuit powers must be finite")

    if template.mu is not None and not (0.0 < template.mu < 1.0):
        bad("ue_template.mu", "must lie in (0, 1)")
    for name in ("gamma_target", "eta"):
        value = getattr(template, name)
        if value < 0.0:
            bad(f"ue_template.{name}", "must be non-negative")
        if not math.isfinite(value):
            bad(f"ue_template.{name}", "must be finite")
    if (template.p_bar_u is None) == (template.e_bar is None):
        bad("ue_template.p_bar_u", "exactly one of p_bar_u and e_bar must be set")
    elif cfg.delta_t != 0.0:      # a derived cap divides by it; a zero one is reported above
        if not 0.0 < template.resolve_p_bar_u(cfg.epsilon, cfg.delta_t) < math.inf:
            bad("ue_template.p_bar_u" if template.e_bar is None else "ue_template.e_bar",
                "uplink power cap must be finite and strictly positive")
    return errors


# ---------------------------------------------------------------------------
# strict JSON scenario files


_SCENARIO_KEYS = {
    "num_ues", "epsilon", "delta_db", "sigma2_dbm", "delta_t",
    "attenuation_k", "cell_side", "hbs_placement", "seed", "tol", "max_iter",
}
_HBS_KEYS = {"p_bar_h_dbm", "n_antennas", "p_dyn_dbm", "p_sta_dbm"}
_UE_KEYS = {
    "mu", "gamma_target", "eta", "n_antennas",
    "p_dyn_dbm", "p_sta_dbm", "p_bar_u_dbm", "e_bar_joules",
}
_FIXED_UE_KEYS = {"distance", "gamma_target", "mu", "eta"}
_TOP_KEYS = {"scenario", "hbs", "ue_template", "fixed_ues"}
# keys without a default, in reporting order
_SCENARIO_REQUIRED = ("num_ues", "epsilon", "delta_db", "sigma2_dbm")
_HBS_REQUIRED = ("p_bar_h_dbm", "p_dyn_dbm", "p_sta_dbm")
_UE_REQUIRED = ("gamma_target", "p_dyn_dbm", "p_sta_dbm")


def _check_keys(doc, allowed: set[str], required: tuple, path: str, errors: list[str]):
    if not isinstance(doc, dict):
        errors.append(f"{path}: must be an object")
        return
    errors.extend(f"{path}.{key}: unknown key" for key in doc if key not in allowed)
    errors.extend(f"{path}.{key}: missing key" for key in required if key not in doc)


def scenario_from_dict(doc: dict[str, Any]) -> Scenario:
    """Build and validate a Scenario from a parsed JSON document."""
    errors: list[str] = []
    _check_keys(doc, _TOP_KEYS, ("scenario", "hbs", "ue_template"), "$", errors)
    if errors:
        raise ConfigError(errors)

    sc = doc["scenario"]
    _check_keys(sc, _SCENARIO_KEYS, _SCENARIO_REQUIRED, "scenario", errors)
    hb = doc["hbs"]
    _check_keys(hb, _HBS_KEYS, _HBS_REQUIRED, "hbs", errors)
    ut = doc["ue_template"]
    _check_keys(ut, _UE_KEYS, _UE_REQUIRED, "ue_template", errors)
    fixed = doc.get("fixed_ues")
    if fixed is not None and not isinstance(fixed, list):
        errors.append("fixed_ues: must be a list")
    elif fixed is not None:
        for i, fu in enumerate(fixed):
            _check_keys(fu, _FIXED_UE_KEYS, ("distance",), f"fixed_ues[{i}]", errors)
    if errors:
        raise ConfigError(errors)

    def number(section: dict, path: str, key: str, default=None, kind=float):
        """section[key] converted by kind, or default when absent. Anything but
        an int or float kind converts (not a string or a boolean, which it
        would take), or a fraction where kind is int, is recorded as an error."""
        if key not in section:
            return default
        raw = section[key]
        try:
            if isinstance(raw, bool) or not isinstance(raw, (int, float)):
                raise TypeError
            value = kind(raw)
        except (TypeError, ValueError, OverflowError):
            errors.append(f"{path}.{key}: must be a number, got {raw!r}")
            return math.nan
        if kind is int and isinstance(raw, float) and value != raw:
            errors.append(f"{path}.{key}: must be a whole number, got {raw!r}")
        return value

    def optional(section: dict, path: str, key: str):
        """A number that null or absence leaves unset (None)."""
        return None if section.get(key) is None else number(section, path, key)

    cfg = ScenarioConfig(
        num_ues=number(sc, "scenario", "num_ues", kind=int),
        epsilon=number(sc, "scenario", "epsilon"),
        delta=db_to_linear(number(sc, "scenario", "delta_db")),
        sigma2=dbm_to_watt(number(sc, "scenario", "sigma2_dbm")),
        delta_t=number(sc, "scenario", "delta_t", ScenarioConfig.delta_t),
        attenuation_k=number(sc, "scenario", "attenuation_k", ScenarioConfig.attenuation_k),
        cell_side=number(sc, "scenario", "cell_side", ScenarioConfig.cell_side),
        hbs_placement=str(sc.get("hbs_placement", ScenarioConfig.hbs_placement)),
        seed=number(sc, "scenario", "seed", ScenarioConfig.seed, kind=int),
        tol=number(sc, "scenario", "tol", ScenarioConfig.tol),
        max_iter=number(sc, "scenario", "max_iter", ScenarioConfig.max_iter, kind=int),
    )
    hbs = HbsParams(
        p_bar_h=dbm_to_watt(number(hb, "hbs", "p_bar_h_dbm")),
        n_antennas=number(hb, "hbs", "n_antennas", HbsParams.n_antennas, kind=int),
        p_dyn=dbm_to_watt(number(hb, "hbs", "p_dyn_dbm")),
        p_sta=dbm_to_watt(number(hb, "hbs", "p_sta_dbm")),
    )
    template = UeTemplate(
        mu=optional(ut, "ue_template", "mu"),
        gamma_target=number(ut, "ue_template", "gamma_target"),
        eta=number(ut, "ue_template", "eta", UeTemplate.eta),
        n_antennas=number(ut, "ue_template", "n_antennas", UeTemplate.n_antennas, kind=int),
        p_dyn=dbm_to_watt(number(ut, "ue_template", "p_dyn_dbm")),
        p_sta=dbm_to_watt(number(ut, "ue_template", "p_sta_dbm")),
        p_bar_u=None if "p_bar_u_dbm" not in ut
        else dbm_to_watt(number(ut, "ue_template", "p_bar_u_dbm")),
        e_bar=number(ut, "ue_template", "e_bar_joules"),
    )
    fixed_ues = None
    if fixed is not None:
        fixed_ues = tuple(
            FixedUe(
                number(fu, f"fixed_ues[{i}]", "distance"),
                *(optional(fu, f"fixed_ues[{i}]", key) for key in ("gamma_target", "mu", "eta")),
            )
            for i, fu in enumerate(fixed)
        )
    if errors:
        raise ConfigError(errors)
    if fixed_ues is not None and len(fixed_ues) != cfg.num_ues:
        raise ConfigError([f"fixed_ues: expected {cfg.num_ues} entries, got {len(fixed_ues)}"])
    errors = validate_scenario(cfg, hbs, template)
    if errors:
        raise ConfigError(errors)

    return Scenario(cfg=cfg, hbs=hbs, ue_template=template, fixed_ues=fixed_ues)


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:    # not JSON, or not UTF-8
            raise ConfigError([f"{path}: not valid JSON: {exc}"]) from None
    return scenario_from_dict(doc)


def scenario_to_dict(scenario: Scenario) -> dict[str, Any]:
    """Round-trippable plain-dict form of a scenario (linear units kept)."""
    out: dict[str, Any] = {
        "scenario": dataclasses.asdict(scenario.cfg),
        "hbs": dataclasses.asdict(scenario.hbs),
        "ue_template": dataclasses.asdict(scenario.ue_template),
    }
    if scenario.fixed_ues is not None:
        out["fixed_ues"] = [dataclasses.asdict(fu) for fu in scenario.fixed_ues]
    return out


def config_hash(doc: dict[str, Any]) -> str:
    """Stable hash of a resolved configuration document."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
