"""Plain-text key=value configuration with [section] headers.

Lines are `key = value` under a `[section]` header; `#` starts a comment.
Every key must be known; unknown keys fail validation with the offending
names listed.  Command-line overrides use the same dotted names.
"""

from __future__ import annotations

import numpy as np

from .grids import Grid
from .hydrostatics import PotentialSpec
from .params import ScalingParams
from .primitive import DataError, GaussianBump, IllPreparedData


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


DEFAULTS: dict[str, str] = {
    "grid.geometry": "radial",
    "grid.n": "512",
    "grid.r_max": "16.0",
    "grid.r_sponge": "12.0",
    "potential.c_f": "1.0",
    "potential.a": "1.0",
    "params.eps": "0.2",
    "params.alpha": "1.0",
    "params.gamma": str(5.0 / 3.0),
    "params.lam": "0.0",
    "params.mu": "1.0",
    "params.rho_bar": "1.0",
    "params.horizon": "2.5",
    "data.rho1_amp": "0.4",
    "data.rho1_width": "1.2",
    "data.vel_amp": "0.4",
    "data.vel_width": "1.5",
    "data.theta2_amp": "0.4",
    "data.theta2_width": "1.2",
    "acoustic.delta": "0.25",
    "acoustic.ball_radius": "2.5",
    "acoustic.p": "4.0",
    "acoustic.q": "12.0",
    "acoustic.points_per_period": "24",
    "sweep.eps_list": "0.4,0.2,0.1",
    "sweep.samples": "65",
    "sweep.beta": "0.5",
    "run.seed": "0",
    "run.samples": "65",
    "output.dir": "out",
}


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        name = f"{section}.{key}" if section else key
        out[name] = value.strip()
    return out


def load_config(path: str | None = None, overrides: list[str] | None = None) -> dict[str, str]:
    """Merge defaults, an optional file, and dotted-key overrides."""
    cfg = dict(DEFAULTS)
    unknown = []
    if path is not None:
        with open(path) as fh:
            for key, value in parse_config_text(fh.read()).items():
                if key not in DEFAULTS:
                    unknown.append(key)
                else:
                    cfg[key] = value
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            unknown.append(key)
        else:
            cfg[key] = value.strip()
    if unknown:
        raise ConfigError("unknown configuration keys: " + ", ".join(sorted(unknown)))
    return cfg


# open interval the bounded float keys must lie in
FLOAT_RANGE = {"acoustic.delta": (0.0, 1.0)}
# keys that may be infinite: a Strichartz pair may take p = inf as its endpoint
INFINITE_OK = frozenset({"acoustic.p", "acoustic.q"})


def get_float(cfg: dict, key: str) -> float:
    try:
        value = float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} = {cfg[key]!r} is not a number") from exc
    if np.isnan(value) or (np.isinf(value) and key not in INFINITE_OK):
        raise ConfigError(f"{key} = {value:g} is not a finite number")
    if key in FLOAT_RANGE:
        lo, hi = FLOAT_RANGE[key]
        if not lo < value < hi:
            raise ConfigError(f"{key} = {value:g} must lie in ({lo:g}, {hi:g})")
    return value


# smallest admissible value of the integer keys that count or seed something
INT_MINIMUM = {
    "run.samples": 1,
    "run.seed": 0,
    "sweep.samples": 2,
    "acoustic.points_per_period": 1,
}


def get_int(cfg: dict, key: str) -> int:
    try:
        value = int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} = {cfg[key]!r} is not an integer") from exc
    if key in INT_MINIMUM and value < INT_MINIMUM[key]:
        raise ConfigError(f"{key} = {value} is below its minimum {INT_MINIMUM[key]}")
    return value


def grid_from(cfg: dict) -> Grid:
    return Grid(
        geometry=cfg["grid.geometry"],
        n=get_int(cfg, "grid.n"),
        r_max=get_float(cfg, "grid.r_max"),
        r_sponge=get_float(cfg, "grid.r_sponge"),
    )


def params_from(cfg: dict, eps: float | None = None) -> ScalingParams:
    return ScalingParams(
        eps=eps if eps is not None else get_float(cfg, "params.eps"),
        alpha=get_float(cfg, "params.alpha"),
        gamma=get_float(cfg, "params.gamma"),
        lam=get_float(cfg, "params.lam"),
        mu=get_float(cfg, "params.mu"),
        rho_bar=get_float(cfg, "params.rho_bar"),
        horizon=get_float(cfg, "params.horizon"),
    )


def beta_from(cfg: dict, params: ScalingParams) -> float:
    """Residual-pressure exponent sweep.beta, checked against (0, gamma/3)."""
    beta = get_float(cfg, "sweep.beta")
    if not 0.0 < beta < params.gamma / 3.0:
        raise ConfigError(
            f"sweep.beta = {beta:g} must lie in (0, gamma/3 = {params.gamma / 3.0:g})"
        )
    return beta


def potential_from(cfg: dict) -> PotentialSpec:
    return PotentialSpec(c_f=get_float(cfg, "potential.c_f"), a=get_float(cfg, "potential.a"))


def _bump(cfg: dict, name: str) -> GaussianBump:
    width_key = f"data.{name}_width"
    try:
        return GaussianBump(get_float(cfg, f"data.{name}_amp"), get_float(cfg, width_key))
    except DataError as exc:
        raise ConfigError(f"{width_key}: {exc}") from exc


def data_from(cfg: dict) -> IllPreparedData:
    return IllPreparedData(
        rho1=_bump(cfg, "rho1"),
        vel_potential=_bump(cfg, "vel"),
        theta2=_bump(cfg, "theta2"),
    )


def eps_list_from(cfg: dict) -> tuple[float, ...]:
    raw = cfg["sweep.eps_list"]
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"sweep.eps_list: bad eps list {raw!r}") from exc
    if len(values) < 2:
        raise ConfigError("sweep.eps_list: eps list needs at least two entries")
    if not all(0.0 < v < np.inf for v in values) or any(np.diff(values) >= 0.0):
        raise ConfigError(
            "sweep.eps_list: eps list must be finite, positive and strictly decreasing"
        )
    return values
