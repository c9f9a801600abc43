"""The PID-family schemes' control law and analytics, the field reader
(`read_value`, `spec`, `check_fields`) every parameter class checks its fields with,
and `Record`, the base those classes declare their fields on."""

from __future__ import annotations

import json
import math

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


MISSING = object()  # the default of a field that has none


class Field:
    """One declared field of a `Record`, read as a `dataclasses.Field` is: `name`,
    `type` (the annotation's text), `default`, `default_factory` and `metadata`."""

    __slots__ = ("name", "type", "default", "default_factory", "metadata")

    def __init__(self, default=MISSING, default_factory=MISSING, metadata=None):
        self.name = self.type = None  # set when the class is built
        self.default, self.default_factory = default, default_factory
        self.metadata = metadata or {}


class Record:
    """A class whose annotated class attributes are its fields, in declaration
    order, a base class's first (a redeclared field keeps the base's place).
    The constructor takes the fields by position or name, fills defaults, then
    calls `__post_init__`. A record is frozen: it compares and hashes by class
    and fields, and refuses assignment with AttributeError (`__post_init__`
    stores with `object.__setattr__`). A class declared `frozen=False`, and its
    subclasses, is mutable and compares and hashes by identity."""

    _fields: tuple[Field, ...] = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = {f.name: f for f in cls._fields}
        for name, kind in vars(cls).get("__annotations__", {}).items():
            value = vars(cls).get(name, MISSING)
            f = own[name] = value if isinstance(value, Field) else Field(value)
            f.name, f.type = name, kind
            if f.default is not MISSING:
                setattr(cls, name, f.default)
            elif name in vars(cls):
                delattr(cls, name)
        cls._fields = tuple(own.values())
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        name = type(self).__name__
        given = [f.name for f in self._fields[:len(args)]]
        if len(args) > len(self._fields) or kwargs.keys() & given:
            raise TypeError(f"{name}() takes each field once, by position or by name")
        kwargs.update(zip(given, args))
        for f in self._fields:
            value = kwargs.pop(f.name, f.default)
            if value is MISSING:
                if f.default_factory is MISSING:
                    raise TypeError(f"{name}() needs {f.name!r}")
                value = f.default_factory()
            object.__setattr__(self, f.name, value)
        if kwargs:
            raise TypeError(f"{name}() has no field {', '.join(map(repr, kwargs))}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def as_dict(self) -> dict:
        """The fields by name, in order."""
        return {f.name: getattr(self, f.name) for f in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __hash__(self) -> int:
        return hash(tuple(self.as_dict().values()))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in self.as_dict().items())
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def fields(record) -> tuple[Field, ...]:
    """The fields of a `Record` class or instance, in order."""
    return record._fields


def replace(record: Record, **changes) -> Record:
    """A new record of `record`'s class with its fields and `changes`; it is built,
    and so checked, anew."""
    return type(record)(**(record.as_dict() | changes))


def spec(default, kind, ok=None, message=None, name=None):
    """A record field that `check_fields` reads as `kind` by `read_value`'s rule,
    then bounds by `ok`, raising `message` (formatted with the value) if it fails;
    `name` is the field's name in errors. A MISSING default makes the field
    required, and a dict default is copied for each instance."""
    metadata = {"spec": (kind, ok, message, name)}
    if isinstance(default, dict):
        return Field(default_factory=default.copy, metadata=metadata)
    return Field(default, metadata=metadata)


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


class PidParams(Record):
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
