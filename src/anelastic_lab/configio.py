"""Plain-text key=value configuration with [section] headers.

Lines are `key = value` under a `[section]` header; `#` starts a comment.
Command-line overrides use the same dotted names.

This module is the one place that knows each key.  DEFAULTS holds its
default, and the default's type is the key's type: str, int, float, or a
tuple of floats written as a comma-separated list.  The `params.*` and
`potential.*` defaults are the field defaults of ScalingParams and
PotentialSpec.  BOUNDS holds the range of each bounded number, CHOICES
the allowed values of a text key, and `_check_across` the three rules that
tie keys together; every key is checked alone before the rules run, so a
bad value is blamed on its own key.  `load_config`
parses and checks every key, whichever command runs, and returns the
parsed values; any bad value, unknown key or unreadable file raises a
ConfigError that names the key or the path, and an unknown key's message
says whether the file or an override set it.
"""

from __future__ import annotations

from dataclasses import fields

from .acoustic import admissible_pair
from .grids import GEOMETRIES, Grid
from .hydrostatics import PotentialSpec
from .params import ScalingParams
from .primitive import GaussianBump, IllPreparedData


class ConfigError(ValueError):
    """Configuration file or override is invalid."""


def _field_defaults(section: str, cls) -> dict:
    return {f"{section}.{f.name}": f.default for f in fields(cls)}


DEFAULTS: dict[str, object] = {
    "grid.geometry": "radial",
    "grid.n": 512,
    "grid.r_max": 16.0,
    "grid.r_sponge": 12.0,
    **_field_defaults("potential", PotentialSpec),
    **_field_defaults("params", ScalingParams),
    "data.rho1_amp": 0.4,
    "data.rho1_width": 1.2,
    "data.vel_amp": 0.4,
    "data.vel_width": 1.5,
    "data.theta2_amp": 0.4,
    "data.theta2_width": 1.2,
    "acoustic.delta": 0.25,
    "acoustic.ball_radius": 2.5,
    "acoustic.p": 4.0,
    "acoustic.q": 12.0,
    "acoustic.points_per_period": 24,
    "sweep.eps_list": (0.4, 0.2, 0.1),
    "sweep.samples": 65,
    "sweep.beta": 0.5,
    "run.seed": 0,
    "run.samples": 65,
    "output.dir": "out",
}

# The interval each bounded number must lie in; an end may be a fraction
# (4/3).  Each entry of an eps list lies in its interval, and the list falls
# strictly.  A number without an entry must be finite, so only the Strichartz
# exponents admit inf (p = inf is an admissible endpoint).  NaN lies in no
# interval.
BOUNDS = {
    "grid.n": "[4, inf)",
    "grid.r_max": "(0, inf)",
    "grid.r_sponge": "(0, inf)",
    "potential.c_f": "[0, inf)",
    "potential.a": "(0, inf)",
    "params.eps": "(0, inf)",
    "params.alpha": "(0, 4/3)",
    "params.gamma": "(1.5, inf)",
    "params.lam": "[0, inf)",
    "params.mu": "[0, inf)",
    "params.rho_bar": "(0, inf)",
    "params.horizon": "(0, inf)",
    "data.rho1_width": "(0, inf)",
    "data.vel_width": "(0, inf)",
    "data.theta2_width": "(0, inf)",
    "acoustic.delta": "(0, 1)",
    "acoustic.p": "(0, inf]",
    "acoustic.q": "(0, inf]",
    "acoustic.points_per_period": "[1, inf)",
    "sweep.eps_list": "(0, inf)",
    "sweep.samples": "[2, inf)",
    "run.seed": "[0, inf)",
    "run.samples": "[1, inf)",
}
FINITE = "(-inf, inf)"
CHOICES = {"grid.geometry": GEOMETRIES}


def _end(text: str) -> float:
    num, _, den = text.partition("/")
    return float(num) / float(den or 1)


def _interval(text: str):
    lo, hi = (_end(end) for end in text[1:-1].split(","))
    return text[0] == "[", lo, hi, text[-1] == "]"


_INTERVALS = {text: _interval(text) for text in {FINITE, *BOUNDS.values()}}


def _inside(value: float, text: str) -> bool:
    lo_closed, lo, hi, hi_closed = _INTERVALS[text]
    return (lo <= value if lo_closed else lo < value) and (
        value <= hi if hi_closed else value < hi
    )


def parse_config_text(text: str, source: str = "") -> dict[str, str]:
    """`section.key` -> raw value; a syntax error's message starts with source."""
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
            raise ConfigError(f"{source}line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        name = f"{section}.{key}" if section else key
        out[name] = value.strip()
    return out


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"configuration file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"configuration file {path}: not UTF-8 text (byte {exc.start})"
        ) from exc


_NOUNS = {int: "an integer", float: "a number", tuple: "a comma-separated list of numbers"}


def _parse(key: str, raw: str):
    kind = type(DEFAULTS[key])
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} = {raw!r} is not {_NOUNS[kind]}") from exc


def _check(key: str, value) -> None:
    if isinstance(value, str):
        if key in CHOICES and value not in CHOICES[key]:
            raise ConfigError(f"{key} = {value!r} must be one of {', '.join(CHOICES[key])}")
        return
    bound = BOUNDS.get(key, FINITE)
    if isinstance(value, tuple):
        if len(value) < 2:
            raise ConfigError(f"{key}: eps list needs at least two entries")
        if not all(_inside(v, bound) for v in value) or any(
            a <= b for a, b in zip(value, value[1:])
        ):
            raise ConfigError(
                f"{key}: eps list must lie in {bound} and be strictly decreasing"
            )
    elif not _inside(value, bound):
        if bound == FINITE:
            raise ConfigError(f"{key} = {value:g} is not a finite number")
        raise ConfigError(f"{key} = {value:g} must lie in {bound}")


def _check_across(cfg: dict) -> None:
    """The sponge inside the domain, beta in (0, gamma/3), as the
    residual-pressure estimate needs, and a wave-admissible Strichartz pair."""
    r_sponge, r_max = cfg["grid.r_sponge"], cfg["grid.r_max"]
    if not r_sponge < r_max:
        raise ConfigError(
            f"grid.r_sponge = {r_sponge:g} must lie below grid.r_max = {r_max:g}"
        )
    beta, gamma = cfg["sweep.beta"], cfg["params.gamma"]
    if not 0.0 < beta < gamma / 3.0:
        raise ConfigError(
            f"sweep.beta = {beta:g} must lie in (0, params.gamma/3 = {gamma / 3.0:g})"
        )
    p, q = cfg["acoustic.p"], cfg["acoustic.q"]
    if not admissible_pair(p, q):
        raise ConfigError(
            f"acoustic.p, acoustic.q = {p:g}, {q:g} violate the wave admissibility "
            "1/p + 3/q = 1/2"
        )


def load_config(path: str | None = None, overrides: list[str] | None = None) -> dict:
    """Defaults, then an optional file, then dotted-key overrides, each
    value parsed to its key's type; raises ConfigError on any bad input."""
    raw = {} if path is None else parse_config_text(_read(path), f"configuration file {path}: ")
    source = dict.fromkeys(raw, f"in {path}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        key, _, value = item.partition("=")
        raw[key.strip()], source[key.strip()] = value.strip(), "from --set"
    unknown = sorted(raw.keys() - DEFAULTS.keys())
    if unknown:
        raise ConfigError("unknown configuration keys: "
                          + ", ".join(f"{key} ({source[key]})" for key in unknown))
    cfg = DEFAULTS | {key: _parse(key, value) for key, value in raw.items()}
    for key, value in cfg.items():
        _check(key, value)
    _check_across(cfg)
    return cfg


def _build(cls, section: str, cfg: dict):
    return cls(**{f.name: cfg[f"{section}.{f.name}"] for f in fields(cls)})


def grid_from(cfg: dict) -> Grid:
    return _build(Grid, "grid", cfg)


def params_from(cfg: dict) -> ScalingParams:
    return _build(ScalingParams, "params", cfg)


def potential_from(cfg: dict) -> PotentialSpec:
    return _build(PotentialSpec, "potential", cfg)


def data_from(cfg: dict) -> IllPreparedData:
    return IllPreparedData(*(
        GaussianBump(cfg[f"data.{name}_amp"], cfg[f"data.{name}_width"])
        for name in ("rho1", "vel", "theta2")
    ))
