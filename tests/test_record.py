"""The `Record` base the parameter and log classes are declared on, the field
checks it runs at construction, and the import path it keeps free of `dataclasses`."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import abrsim
from _builders import cbr_manifest, vbr_manifest
from abrsim.cli import RunConfig
from abrsim.control import (MISSING, ControlError, PidParams, Record, fields, read_value, replace,
                            spec)
from abrsim.engine import SimConfig
from abrsim.media import BandwidthTrace
from abrsim.schemes import ConfigError, Mpc, Pia


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site's .pth imports out of sys.modules
    src = str(Path(abrsim.__file__).resolve().parents[1])
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "import abrsim.cli",
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))",
    ])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_a_frozen_record_refuses_assignment_and_deletion():
    pid = PidParams()
    with pytest.raises(AttributeError):
        pid.kp = 1.0
    with pytest.raises(AttributeError):
        del pid.kp
    with pytest.raises(AttributeError):
        pid.other = 1.0
    assert pid.kp == PidParams().kp


def test_records_compare_and_hash_by_class_and_fields():
    assert PidParams(kp=0.01) == PidParams(kp=0.01)
    assert hash(PidParams(kp=0.01)) == hash(PidParams(kp=0.01))
    assert PidParams(kp=0.01) != PidParams(kp=0.02)
    assert SimConfig() != PidParams() and SimConfig() == SimConfig()
    # a derived attribute is not a field, so it takes no part
    assert [f.name for f in fields(BandwidthTrace)] == ["name", "samples"]
    assert BandwidthTrace("t", (1.0, 2.0)) == BandwidthTrace("t", (1, 2))


def test_a_scheme_compares_and_hashes_by_identity():
    one, two = Pia(), Pia()
    assert one != two and one == one
    assert len({one, two}) == 2
    one.integral = 5.0  # schemes are mutable
    assert one.integral == 5.0


def test_replace_builds_and_checks_anew():
    with pytest.raises(ControlError, match="kp and ki must be positive"):
        replace(PidParams(), kp=-1)
    assert replace(PidParams(), kp=2) == PidParams(kp=2.0)
    with pytest.raises(TypeError):
        replace(PidParams(), gain=1.0)


def test_each_record_holds_its_own_default_dict():
    one, two = RunConfig(), RunConfig()
    assert one.scheme_params == {} and one.scheme_params is not two.scheme_params


def test_a_redeclared_field_keeps_its_base_position():
    assert [f.name for f in fields(Pia)] == ["pid", "horizon", "eta"]
    assert Pia().pid == PidParams(beta=0.2)
    assert "eval_count" not in [f.name for f in fields(Mpc)] and Mpc().eval_count == 0


def test_constructor_takes_fields_by_position_or_name():
    assert BandwidthTrace("t", (1.0,)) == BandwidthTrace(samples=(1.0,), name="t")
    for args, kwargs in (((), {"name": "t"}), (("t", (1.0,), 3), {}),
                         (("t",), {"name": "u", "samples": (1.0,)}),
                         (("t", (1.0,)), {"rate": 1})):
        with pytest.raises(TypeError):
            BandwidthTrace(*args, **kwargs)


@pytest.mark.parametrize("record", [
    SimConfig(rtt_s=0.1), PidParams(kp=0.01), Pia(horizon=3),
    BandwidthTrace("t", (100.0, 0.0, 250.0)),
    vbr_manifest([[900, 3100, 2000], [4000, 9000, 6500]],
                 vmafs_by_level=[[50.0, 61.5, 55.0], [80.0, 90.0, 85.5]]),
    cbr_manifest((300, 800, 1500), n_chunks=4),
], ids=["sim", "pid", "pia", "trace", "vbr", "cbr"])
def test_records_survive_a_pickle_round_trip(record):
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record)
    if isinstance(record, Pia):  # compared by identity: compare its fields
        assert [getattr(clone, f.name) for f in fields(Pia)] == \
            [getattr(record, f.name) for f in fields(Pia)]
    else:
        assert clone == record
    if isinstance(record, BandwidthTrace):
        assert clone.kilobits_per_period == record.kilobits_per_period == 350.0
    if hasattr(record, "rate_rows"):
        derived = ("avg_kbps", "rate_rows", "quality_rows", "_level_set")
        assert [getattr(clone, name) for name in derived] == \
            [getattr(record, name) for name in derived]


def _gain_record() -> type:
    class Gain(Record, error=ConfigError):
        gain: float = spec(MISSING, float, lambda v: v > 0, "gain must be positive, got {}")
        tag: str = spec("g", str)

    return Gain


def test_a_spec_field_needs_an_error_class():
    with pytest.raises(TypeError, match="no error class"):
        class Bare(Record):
            gain: float = spec(1.0, float)

    class Plain(Record):  # no spec field, so no error is needed
        gain: float = 1.0

    assert Plain().gain == 1.0


def test_a_record_checks_its_spec_fields_with_no_post_init():
    gain = _gain_record()
    assert "__post_init__" not in vars(gain)
    with pytest.raises(ConfigError, match=r"^gain must be a finite number, got nan$"):
        gain(float("nan"))
    with pytest.raises(ConfigError, match=r"^gain must be positive, got -1.0$"):
        gain(-1)
    with pytest.raises(ConfigError, match=r"^tag must be a string, got 3$"):
        gain(1.0, 3)
    assert repr(gain(2).gain) == "2.0"
    assert "__post_init__" not in vars(PidParams)
    with pytest.raises(ControlError, match=r"^kp must be a finite number, got nan$"):
        PidParams(kp=float("nan"))


def test_a_subclass_inherits_the_error_class():
    class Wider(_gain_record()):
        width: int = spec(1, int, lambda v: v >= 1, "width must be >= 1")

    assert Wider._error is ConfigError
    with pytest.raises(ConfigError, match=r"^width must be >= 1$"):
        Wider(1.0, width=0)


def test_the_spec_is_held_on_the_field():
    gain, tag = fields(_gain_record())
    assert (gain.kind, gain.ok(1.0), gain.message) == \
        (float, True, "gain must be positive, got {}")
    assert (tag.kind, tag.ok) == (str, None)
    assert not hasattr(gain, "metadata")


def test_a_tuple_reads_as_a_list():
    assert read_value(ConfigError, "xs", (1, 2), list) == [1, 2]
    assert read_value(ConfigError, "xs", (1, 2), [float]) == [1.0, 2.0]
