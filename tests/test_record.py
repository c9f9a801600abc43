"""The `Record` base the parameter and log classes are declared on, and the import
path it keeps free of `dataclasses`."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import abrsim
from _builders import cbr_manifest, vbr_manifest
from abrsim.cli import RunConfig
from abrsim.control import ControlError, PidParams, fields, replace
from abrsim.engine import SimConfig
from abrsim.media import BandwidthTrace
from abrsim.schemes import Mpc, Pia


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
