"""The PID-family schemes' control law and analytics, and the field reader
(`read_value`, `spec`, `check_fields`) every parameter class checks its fields with."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

DEFAULT_KP = 8.8e-3
DEFAULT_KI = 3.6e-5
DEFAULT_TARGET_BUFFER_S = 60.0
DEFAULT_EPSILON = 1e-10
VALID_ZETA_LOW = 0.6
VALID_ZETA_HIGH = 0.8


class ControlError(ValueError):
    """Invalid controller parameters or arguments."""


_KIND_NAMES = {bool: "true or false", str: "a string", list: "a list", dict: "an object"}


def read_value(error, name: str, value, kind):
    """`value`, as parsed from JSON, read as `kind`: float, int, bool, str, list,
    dict, or `[kind]` for a list of that kind. A bool is never a number, an int
    must be a whole number (an integral float reads as its int) and a float must
    be finite (an int reads as its float). Anything else raises `error` (an
    exception class, or a function from message to exception) naming `name`."""
    if kind is float or kind is int:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int beyond float range
                number = math.inf
            if kind is float and math.isfinite(number):
                return number
            if kind is int and number.is_integer():
                return int(value)
        wanted = "a finite" if kind is float else "a whole"
        raise error(f"{name} must be {wanted} number, got {_shown(value)}")
    if isinstance(kind, list):
        item = f"each item of {name}"
        return [read_value(error, item, v, kind[0]) for v in read_value(error, name, value, list)]
    if not isinstance(value, kind):
        raise error(f"{name} must be {_KIND_NAMES[kind]}, got {_shown(value)}")
    return value


def _shown(value) -> str:
    """repr(value), unless it holds an int too long for `repr`."""
    try:
        return repr(value)
    except ValueError:  # past the interpreter's limit on int-to-string digits
        return "a value too long to print"


def read_json(error, name: str, text: str) -> dict:
    """`text` parsed as JSON and read as an object by `read_value`; text that is not
    JSON, nests too deep or holds an int too long to convert raises `error`."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise error(f"{name} is not valid JSON: {exc}") from None
    return read_value(error, name, raw, dict)


def require_finite(error: type[ValueError], **values) -> None:
    """Raise `error` naming the first value that is not a finite number (by
    `read_value`'s rule); range checks written as comparisons let NaN through."""
    for name, value in values.items():
        read_value(error, name, value, float)


def spec(default, kind, ok=None, message=None, name=None):
    """A dataclass field that `check_fields` reads as `kind` by `read_value`'s rule,
    then bounds by `ok`, raising `message` (formatted with the value) if it fails;
    `name` is the field's name in errors. A MISSING default makes the field
    required, and a dict default is copied for each instance."""
    metadata = {"spec": (kind, ok, message, name)}
    if isinstance(default, dict):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


def check_fields(obj, error) -> None:
    """Read each `spec` field of `obj` in field order and store what was read (a list
    kind as a tuple, a dict as a copy; None where the default is None), then test
    each bound in field order, so kinds are checked before ranges; raise `error`."""
    bounds = []
    for f in fields(obj):
        if "spec" not in f.metadata:
            continue
        kind, ok, message, name = f.metadata["spec"]
        value = getattr(obj, f.name)
        if value is None and f.default is None:
            continue
        if isinstance(kind, list) and isinstance(value, tuple):
            value = list(value)  # a list kind is held as a tuple, so a caller may pass one
        value = read_value(error, name or f.name, value, kind)
        if isinstance(value, (list, dict)):  # held as a copy, a list as a tuple
            value = tuple(value) if isinstance(value, list) else dict(value)
        object.__setattr__(obj, f.name, value)
        if ok is not None:
            bounds.append((ok, value, message))
    for ok, value, message in bounds:
        if not ok(value):
            raise error(message.format(value))


@dataclass(frozen=True)
class PidParams:
    """PI controller gains plus setpoint weighting and anti-windup threshold."""

    kp: float = spec(DEFAULT_KP, float, lambda v: v > 0, "kp and ki must be positive")
    ki: float = spec(DEFAULT_KI, float, lambda v: v > 0, "kp and ki must be positive")
    beta: float = spec(1.0, float, lambda v: 0.0 < v <= 1.0, "beta must lie in (0, 1]")
    epsilon: float = spec(DEFAULT_EPSILON, float, lambda v: 0 < v < 1, "epsilon must lie in (0, 1)")
    target_buffer: float = spec(DEFAULT_TARGET_BUFFER_S, float, lambda v: v > 0,
                                "target buffer must be positive")

    def __post_init__(self) -> None:
        check_fields(self, ControlError)


def pid_output(
    params: PidParams,
    x: float,
    integral: float,
    target: float,
    playing_indicator: int,
    kp: float | None = None,
) -> float:
    """u = kp*(beta*target - x) + ki*integral + playing_indicator; `kp`, if
    given, stands in for params.kp (a ramped gain) without building new params."""
    if x < 0:
        raise ControlError("buffer must be >= 0")
    if kp is None:
        kp = params.kp
    return kp * (params.beta * target - x) + params.ki * integral + playing_indicator


def bitrate_from_u(
    u: float,
    est_bandwidth_kbps: float,
    levels: tuple[tuple[int, float], ...],
) -> int:
    """Highest available bitrate <= est/u; lowest if none. levels: (level, kbps) pairs."""
    if u <= 0:
        raise ControlError("u must be positive (apply anti_windup first)")
    if not levels:
        raise ControlError("no levels to choose from")
    threshold = est_bandwidth_kbps / u
    eligible = [(rate, -lvl) for lvl, rate in levels if rate <= threshold]
    if eligible:
        return -max(eligible)[1]
    return min((rate, lvl) for lvl, rate in levels)[1]


def anti_windup(u: float, params: PidParams) -> tuple[float, bool, bool]:
    """Saturation guard: u <= epsilon -> (epsilon, freeze integral, force max bitrate)."""
    if u <= params.epsilon:
        return params.epsilon, True, True
    return u, False, False


def damping_ratio(kp: float, ki: float) -> float:
    """zeta = kp / (2*sqrt(ki))."""
    if ki <= 0:
        raise ControlError("ki must be positive")
    return kp / (2.0 * math.sqrt(ki))


def natural_frequency(ki: float) -> float:
    """omega_n = sqrt(ki)."""
    if ki <= 0:
        raise ControlError("ki must be positive")
    return math.sqrt(ki)


def is_valid_gain_pair(kp: float, ki: float) -> bool:
    """True iff the damping ratio falls in the closed band [0.6, 0.8]."""
    return VALID_ZETA_LOW <= damping_ratio(kp, ki) <= VALID_ZETA_HIGH


def velocity_constant(params: PidParams) -> float:
    """Inverse velocity constant 1/Kv = kp*(1 - beta)/ki; zero ramp error iff beta=1."""
    return params.kp * (1.0 - params.beta) / params.ki
