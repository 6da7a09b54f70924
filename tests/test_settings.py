"""Every setting read from a flag, an `all --config` file or a run manifest
meets one of two rules: an integer (not a bool) with an optional lower bound,
or a real number (not a bool) that is finite as a float and > 0.  For any
JSON value at any plan key, and at any key or nested key of a manifest, the
program either accepts it or gives the documented error: ValueError at the
plan (exit 2 from `all --config`, with no file written) and RunFormatError
when the run file is opened.  The oracles below state each key's rule from
the JSON value alone."""

import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_ARCH, write_synthetic_run

import fluctlab.cli as cli
from fluctlab.analysis import analyze_run, check_analysis_settings, histogram
from fluctlab.cli import SHAPE_NAMES, ExperimentPlan, main
from fluctlab.net import ArchitectureSpec
from fluctlab.rng import check_integer, check_positive
from fluctlab.runfile import (
    DATA_START,
    FORMAT_VERSION,
    MAGIC,
    MANIFEST_REGION,
    RunAccessor,
    RunFormatError,
    canonical_json_bytes,
)
from fluctlab.shapes import ShapeKind
from fluctlab.train import RunConfig

# values every rule must get right, tried before any drawn one
EDGE_VALUES = [
    None, True, False, 0, 1, 2, -1, 1.0, 2.5, 0.01, 2**64 - 1, 2**64, -(2**64),
    10**400, -(10**400), 2**1024 - 2**971, 2**1024 - 2**970,
    math.inf, -math.inf, math.nan, "", "1", "0.01", "circle", [], [True], [1], {}, {"a": 1},
]

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 70),
    st.integers(min_value=2**64, max_value=2**80) | st.integers(max_value=-(2**64)),
    st.integers(min_value=10**308, max_value=10**400) | st.integers(max_value=-(10**308)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e-5, 0.01]),
    st.text(max_size=6),
    st.sampled_from(SHAPE_NAMES),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def edge_examples(test):
    for value in reversed(EDGE_VALUES):
        test = example(value=value)(test)
    return test


def integer(low=None, high=None):
    return lambda v: type(v) is int and (low is None or v >= low) and (high is None or v <= high)


def positive(v):
    if type(v) not in (int, float):
        return False
    try:
        return math.isfinite(float(v)) and v > 0
    except OverflowError:  # an int past the float range is not finite
        return False


u64 = integer(0, 2**64 - 1)


# --- the plan ---------------------------------------------------------------

BASE_PLAN = {"shapes": ["circle"], "learning_rates": [0.01], "epochs": 2}
# whether a value is accepted at a scalar key, base plan otherwise
PLAN_RULES = {
    "epochs": integer(2),  # delta analysis needs two snapshots
    "capture_every": integer(1),
    "data_seed": u64,
    "init_seed": u64,
    "epsilon": positive,
    "bins": integer(1),
    "parallelism": integer(1),
    "out_dir": lambda v: isinstance(v, str),
}


def plan_verdict(settings_: dict) -> bool:
    """True when ExperimentPlan accepts the settings; any error but
    ValueError fails the test."""
    try:
        ExperimentPlan(**settings_)
    except ValueError:
        return False
    return True


def plan_cases(value):
    """(settings, expected verdict or None) per plan key: a scalar key set to
    value, and each list key set to value and to a list that holds it."""
    for key, rule in PLAN_RULES.items():
        yield {**BASE_PLAN, "out_dir": "out", key: value}, rule(value)
    for key in ("shapes", "learning_rates"):
        yield {**BASE_PLAN, "out_dir": "out", key: value}, None
    yield {**BASE_PLAN, "out_dir": "out", "shapes": ["square", value]}, None
    yield {**BASE_PLAN, "out_dir": "out", "learning_rates": [0.5, value]}, None


def list_entries_ok(settings_: dict) -> bool:
    """What an accepted plan's lists must hold: no bool, shapes that are
    strings and learning rates whose floats are positive and finite."""
    shapes, rates = settings_["shapes"], settings_["learning_rates"]
    shapes = shapes.split(",") if isinstance(shapes, str) else shapes
    rates = rates.split(",") if isinstance(rates, str) else rates
    if not all(isinstance(s, str) for s in shapes) or any(type(r) is bool for r in rates):
        return False
    return all(positive(float(r)) for r in rates)


@settings(max_examples=80, deadline=None)
@given(value=JSON_VALUES)
@edge_examples
def test_any_json_value_at_a_plan_key_is_accepted_or_a_value_error(value):
    for settings_, expected in plan_cases(value):
        accepted = plan_verdict(settings_)
        if expected is not None:
            assert accepted == expected, settings_
        if accepted:
            assert list_entries_ok(settings_), settings_


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(sorted(PLAN_RULES) + ["shapes", "learning_rates"]), value=JSON_VALUES)
@example(key="epsilon", value=10**400)
@example(key="learning_rates", value=[10**400])
@example(key="parallelism", value=True)
def test_all_config_exits_2_and_writes_nothing_when_the_plan_refuses(key, value, tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    config = {**BASE_PLAN, "out_dir": str(root / "out"), key: value}
    path = root / "plan.json"
    path.write_text(json.dumps(config))
    accepted = plan_verdict(config)
    # an accepted plan is not run: only the plan is under test
    with mock.patch.object(cli, "run_plan", return_value=({"entries": []}, 0)) as run_plan:
        code = main(["all", "--config", str(path)])
    assert code == (0 if accepted else 2)
    assert run_plan.called == accepted
    assert [p.name for p in root.iterdir()] == ["plan.json"]


# --- the run manifest -------------------------------------------------------


@pytest.fixture(scope="module")
def one_frame_run(tmp_path_factory):
    """A TINY_ARCH run of one frame, its manifest as a dict, and a descriptor
    open on it for rewriting the manifest.  With one frame, a count of true
    and a version of true would both pass an equality test, so only the bool
    checks refuse them."""
    path = tmp_path_factory.mktemp("manifest") / "run.nfl"
    write_synthetic_run(path, count=1)
    blob = path.read_bytes()
    manifest = json.loads(blob[8 : 8 + int.from_bytes(blob[4:8], "little")])
    assert manifest["snapshot_count"] == 1 and manifest["complete"] is True
    fd = os.open(path, os.O_WRONLY)
    yield path, manifest, fd
    os.close(fd)


def frame_floats(encoder, decoder) -> int:
    """f32 values in one frame: weights and biases, their gradients, and one
    mean activation per neuron."""
    shapes = list(zip(encoder, encoder[1:])) + list(zip(decoder, decoder[1:]))
    return sum(out * (2 * (inp + 1) + 1) for inp, out in shapes)


def architecture_ok(arch: dict) -> bool:
    """Dims that are lists of integers >= 1 (no bool), two or more per half,
    meeting at the latent size, whose frame has the stored frame's size."""
    encoder, decoder = arch["encoder_dims"], arch["decoder_dims"]
    if not all(isinstance(d, list) and len(d) >= 2 for d in (encoder, decoder)):
        return False
    if not all(integer(1)(v) for v in encoder + decoder) or encoder[-1] != decoder[0]:
        return False
    return frame_floats(encoder, decoder) == frame_floats(
        TINY_ARCH.encoder_dims, TINY_ARCH.decoder_dims
    )


def manifest_rules(original: dict) -> dict:
    """Per key path, whether a manifest that differs from original only there
    opens."""
    adam = original["config"]["adam"]
    rules = {
        ("format_version",): integer(FORMAT_VERSION, FORMAT_VERSION),
        ("snapshot_count",): integer(1, 1),  # one frame, and the run is complete
        ("complete",): lambda v: type(v) is bool,
        ("created_utc",): integer(),
        ("config",): lambda v: v == original["config"],
        ("architecture",): lambda v: v == original["architecture"],
        ("config", "shape"): lambda v: v in SHAPE_NAMES,
        ("config", "learning_rate"): positive,
        ("config", "epochs"): integer(1),
        ("config", "capture_every"): integer(1),
        ("config", "data_seed"): u64,
        ("config", "init_seed"): u64,
        ("config", "adam"): lambda v: v == adam,
    }
    for name in adam:
        rules[("config", "adam", name)] = lambda v, name=name: v == adam[name]
    for half in ("encoder_dims", "decoder_dims"):
        rules[("architecture", half)] = None  # architecture_ok of the edited section
    return rules


def with_value(original: dict, path: tuple, value):
    """A deep copy of original with the key at path set to value."""
    edited = json.loads(json.dumps(original))
    inner = edited
    for part in path[:-1]:
        inner = inner[part]
    inner[path[-1]] = value
    return edited


def manifest_cases(original: dict, value):
    """(edited manifest, expected verdict) per key and nested key, and per
    entry of the layer-size lists."""
    for path, rule in manifest_rules(original).items():
        edited = with_value(original, path, value)
        yield edited, architecture_ok(edited["architecture"]) if rule is None else rule(value)
    for half in ("encoder_dims", "decoder_dims"):
        for i in range(len(original["architecture"][half])):
            dims = list(original["architecture"][half])
            dims[i] = value
            edited = with_value(original, ("architecture", half), dims)
            yield edited, architecture_ok(edited["architecture"])


def opens(path, fd: int, manifest: dict) -> bool:
    """True when RunAccessor opens the run once its manifest is replaced by
    this one; any error but RunFormatError fails the test."""
    text = canonical_json_bytes(manifest)
    assert len(text) <= MANIFEST_REGION
    header = MAGIC + len(text).to_bytes(4, "little") + text.ljust(MANIFEST_REGION, b" ")
    assert os.pwrite(fd, header, 0) == DATA_START
    try:
        RunAccessor(path)
    except RunFormatError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(value=JSON_VALUES)
@edge_examples
@example(value=float(FORMAT_VERSION))  # equals the version, but is no integer
def test_any_json_value_in_a_manifest_opens_or_is_a_run_format_error(value, one_frame_run):
    path, original, fd = one_frame_run
    for edited, expected in manifest_cases(original, value):
        assert opens(path, fd, edited) == expected, edited


# --- the rules themselves and the sites no JSON value reaches ---------------


@pytest.mark.parametrize("value", EDGE_VALUES + [np.int64(3), np.float64(0.5), np.float32(np.inf)])
def test_the_two_rules_match_their_oracles(value):
    plain = value.item() if isinstance(value, np.generic) else value
    for low in (None, 1):
        expected = integer(low)(plain)
        try:
            stored = check_integer(value, "n", low)
        except ValueError as exc:
            assert not expected
            assert str(exc) == f"n must be an integer{'' if low is None else ' >= 1'}, got {value!r}"
        else:
            assert expected
            assert type(stored) is int and stored == plain
    try:
        stored = check_positive(value, "x")
    except ValueError as exc:
        assert not positive(plain)
        assert str(exc) == f"x must be positive and finite, got {value!r}"
    else:
        assert positive(plain)
        assert type(stored) is float and stored == float(plain)


@pytest.mark.parametrize("bins", [True, False, 0, -1, 2.5, "3", None])
def test_histogram_bins_follow_the_integer_rule(bins):
    with pytest.raises(ValueError, match="bins must be an integer >= 1"):
        histogram(np.array([0.5, 1.0]), bins)
    with pytest.raises(ValueError, match="bins must be an integer >= 1"):
        check_analysis_settings(1e-5, bins)


def test_numpy_integers_are_accepted_where_python_ints_are():
    n = np.int64
    spec = ArchitectureSpec((n(2), n(4), n(3), n(1)), [n(1), n(3), n(4), n(2)])
    assert spec == TINY_ARCH and all(type(d) is int for d in spec.encoder_dims + spec.decoder_dims)
    assert json.loads(json.dumps(spec.to_json_dict())) == TINY_ARCH.to_json_dict()
    plan = ExperimentPlan(**BASE_PLAN, parallelism=n(2), bins=n(7))
    assert plan.parallelism == 2 and plan.bins == 7
    config = RunConfig(ShapeKind.CIRCLE, 0.01, n(3), n(1), n(2), n(1))
    assert config == RunConfig(ShapeKind.CIRCLE, 0.01, 3, 1, 2, 1)
    histogram(np.array([0.5, 1.0]), n(3))


# A numpy scalar passes its rule, but json.dumps refuses it: each site stores
# the Python number, so the manifest, the report JSON and index.json can be written.


def test_run_config_stores_numpy_settings_as_python_numbers():
    config = RunConfig(ShapeKind.CIRCLE, np.float32(0.01), np.int64(3), np.uint64(2**64 - 1), 2, np.int32(1))
    stored = config.to_json_dict()
    for name, kind in [("learning_rate", float), ("epochs", int), ("data_seed", int), ("capture_every", int)]:
        assert type(stored[name]) is kind, name
    assert stored["learning_rate"] == float(np.float32(0.01)) and stored["data_seed"] == 2**64 - 1
    plain = RunConfig(ShapeKind.CIRCLE, float(np.float32(0.01)), 3, 2**64 - 1, 2, 1)
    assert canonical_json_bytes(stored) == canonical_json_bytes(plain.to_json_dict())


def test_analyze_run_stores_numpy_settings_as_python_numbers(tmp_path):
    path = tmp_path / "run.nfl"
    write_synthetic_run(path, count=3)
    acc = RunAccessor(path)
    report = analyze_run(acc, epsilon=np.float32(1e-5), bins=np.int64(7))
    plain = analyze_run(acc, epsilon=float(np.float32(1e-5)), bins=7)
    assert type(report.epsilon) is float and type(report.bins) is int
    assert canonical_json_bytes(report.to_json_dict()) == canonical_json_bytes(plain.to_json_dict())


def test_plan_stores_numpy_settings_as_python_numbers():
    numpy_settings = {
        "epochs": np.int64(3), "data_seed": np.uint64(7), "init_seed": np.int32(8),
        "capture_every": np.int16(2), "epsilon": np.float32(1e-5), "bins": np.int64(9),
    }
    plan = ExperimentPlan(**{**BASE_PLAN, **numpy_settings})
    plain = ExperimentPlan(**{**BASE_PLAN, **{k: v.item() for k, v in numpy_settings.items()}})
    recorded = plan.to_json_dict()
    assert all(type(recorded[k]) is type(v.item()) for k, v in numpy_settings.items())
    assert canonical_json_bytes(recorded) == canonical_json_bytes(plain.to_json_dict())
