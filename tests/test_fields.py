"""The field checkers and every config entry point that uses them.

Each config dataclass field, and each configured argument of train_model
and ratio_analysis, is refused with a ValueError that names the field and
repeats the value, never taken as a plausible wrong value or left to fail
later with a TypeError.
"""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmot.fields import check_bool, check_choice, check_count, check_pair, check_real
from graphmot.metrics import ratio_analysis
from graphmot.mpn import TrainConfig, create_model, train_model
from graphmot.synth import SceneConfig, preset
from graphmot.tracker import TrackerConfig

CONFIGS = (TrackerConfig, TrainConfig, SceneConfig)
INF, NAN = math.inf, math.nan


def refused(make, field, value):
    """make() raises a ValueError naming field and repeating value."""
    with pytest.raises(ValueError, match=field) as raised:
        make()
    assert repr(value) in str(raised.value)


class TestCheckers:
    @pytest.mark.parametrize("value", [0, 3, np.int64(2), np.uint8(7)])
    def test_count_accepts_integers(self, value):
        check_count("n", value, 0)

    @pytest.mark.parametrize("value", [-1, True, False, 2.0, 2.5, "3", None, np.float64(2)])
    def test_count_refuses(self, value):
        refused(lambda: check_count("n", value, 0), "n must be an integer >= 0", value)

    @pytest.mark.parametrize("value, low, high, ends", [
        (0.5, 0.0, 1.0, "()"), (0.0, 0.0, 1.0, "[)"), (1.0, 0.0, 1.0, "(]"), (1, 0, 1, "[]"),
        (np.float32(0.25), 0.0, 1.0, "()"), (1e300, 0.0, INF, "()"), (10**400, 0.0, INF, "()"),
    ])
    def test_real_accepts_the_interval(self, value, low, high, ends):
        check_real("x", value, low, high, ends)

    @pytest.mark.parametrize("value, low, high, ends, rule", [
        (0.0, 0.0, 1.0, "()", "in (0, 1)"), (1.0, 0.0, 1.0, "[)", "in [0, 1)"),
        (NAN, 0.0, 1.0, "[]", "in [0, 1]"), (-0.1, 0.0, INF, "[)", ">= 0 and finite"),
        (INF, 0.0, INF, "()", "> 0 and finite"), (-INF, -1.0, INF, "()", "> -1 and finite"),
        (True, 0.0, INF, "()", "> 0"), ("0.5", 0.0, 1.0, "()", "in (0, 1)"),
        (None, 0.0, INF, "()", "> 0"), (np.float64(NAN), 0.0, INF, "()", "> 0"),
    ])
    def test_real_refuses(self, value, low, high, ends, rule):
        refused(lambda: check_real("x", value, low, high, ends), re.escape(f"x must be {rule}"),
                value)

    @pytest.mark.parametrize("value, ends", [((1, 2.5), "()"), ([3.0, 4], "()"), ((0, 5), "[)")])
    def test_pair_accepts(self, value, ends):
        check_pair("size", value, ends)

    @pytest.mark.parametrize("value, ends", [
        ((0, 5), "()"), ((-1, 5), "[)"), ((1, NAN), "()"), ((INF, 1), "()"), ((True, 2), "()"),
        ((1, 2, 3), "()"), ((1,), "()"), ("12", "()"), (None, "()"), ({1: 2, 3: 4}, "()"),
    ])
    def test_pair_refuses(self, value, ends):
        refused(lambda: check_pair("size", value, ends), "size must be two finite", value)

    @pytest.mark.parametrize("value", [0, 1, "no", "false", None, np.bool_(True)])
    def test_bool_refuses_everything_but_a_bool(self, value):
        refused(lambda: check_bool("flag", value), "flag must be true or false", value)
        check_bool("flag", True)
        check_bool("flag", False)

    @pytest.mark.parametrize("value", ["d", "A", 1, None, ["a"]])
    def test_choice_refuses_what_is_not_listed(self, value):
        refused(lambda: check_choice("mode", value, ("a", "b")), "mode must be one of", value)
        check_choice("mode", "b", ("a", "b"))


def _real_bad():
    """Values no real field takes: text, a bool, NaN, an infinity, or a
    number below every field's range (the lowest bound is -pi)."""
    return st.one_of(st.text(max_size=4), st.booleans(), st.just(NAN),
                     st.sampled_from([INF, -INF]), st.floats(max_value=-4.0))


def bad_values(default):
    """A strategy of values a field with this default must refuse. A field
    whose default is of none of these kinds fails the test, so that a new
    kind of field brings its own rule."""
    if isinstance(default, bool):
        return st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.none())
    if isinstance(default, int):  # a count; every count's least is >= 0
        return st.one_of(st.text(max_size=4), st.booleans(), st.floats(), st.none(),
                         st.integers(max_value=-1))
    if default is None or isinstance(default, float):  # an optional real is checked when set
        return _real_bad()
    if isinstance(default, str):  # a choice: every choice is a lower-case word
        return st.one_of(st.text(alphabet="XYZ!", min_size=1, max_size=4), st.integers(),
                         st.booleans(), st.none())
    if isinstance(default, tuple):  # a pair
        good = st.floats(1.0, 10.0)
        return st.one_of(st.text(max_size=4), st.none(), st.tuples(_real_bad(), good),
                         st.tuples(good, _real_bad()), st.lists(good, max_size=1),
                         st.lists(good, min_size=3, max_size=4))
    raise AssertionError(f"no rule for a field whose default is {default!r}")


# Every field of every config, so that a field added without a check fails.
@pytest.mark.parametrize("cls, field", [(cls, field) for cls in CONFIGS
                                        for field in dataclasses.fields(cls)],
                         ids=lambda x: getattr(x, "__name__", getattr(x, "name", None)))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_every_config_field_refuses_a_bad_value(cls, field, data):
    value = data.draw(bad_values(field.default), label="value")
    refused(lambda: cls(**{field.name: value}), field.name, value)


# Values that are easy to mistake for valid ones: a number as text, a bool
# or a float for a count, an infinity, a range whose ends are swapped.
@pytest.mark.parametrize("cls, field, value", [
    (TrackerConfig, "k_neighbors", 2.5), (TrackerConfig, "lost_frame_limit", 1.5),
    (TrackerConfig, "emit_forecasts", "no"), (TrackerConfig, "forecast_constraints", 0),
    (TrackerConfig, "theta_app", INF), (TrackerConfig, "tau", "0.5"), (TrackerConfig, "fps", "30"),
    (TrainConfig, "lr", True), (TrainConfig, "lr", INF), (TrainConfig, "lr", "0.1"),
    (TrainConfig, "pos_weight", INF), (TrainConfig, "box_jitter", INF),
    (SceneConfig, "n_frames", -3), (SceneConfig, "dropout", 2.0), (SceneConfig, "feature_dim", 0),
    (SceneConfig, "n_targets", "5"), (SceneConfig, "speed_range", (9.0, 1.0)),
    (SceneConfig, "box_width_range", [80.0, 20.0]),
])
def test_config_refuses(cls, field, value):
    refused(lambda: cls(**{field: value}), field, value)


def test_valid_configs_are_accepted():
    TrackerConfig(ratio_variant="none", alpha=5.0)  # alpha unused
    TrackerConfig(image_size=[640, 480.5], k_neighbors=np.int64(3), lost_frame_limit=np.int32(0))
    SceneConfig(speed_range=[0.0, 1.0], crossing_turn=-math.pi, n_crossing_pairs=2,
                exit_targets=1, n_targets=5)
    for name in ("easy", "crossing", "crowded", "exits"):
        preset(name, seed=3)


# Every argument is checked on entry: [{}] has no labels, so teacher
# forcing, had it started, would refuse it with another message.
@pytest.mark.parametrize("field, value, extra", [
    ("k_neighbors", True, {}), ("k_neighbors", 2.5, {}), ("k_neighbors", 0, {}),
    ("integration", "best", {}), ("ratio_variant", "appearance", {}), ("fps", "30", {}),
    ("fps", INF, {}), ("alpha", 1.5, {"ratio_variant": "iou"}),
])
def test_train_model_checks_on_entry(field, value, extra):
    model = create_model(4, d_node=8, d_edge=8, seed=1)
    refused(lambda: train_model(model, [{}], TrainConfig(epochs=1), **{field: value}, **extra),
            field, value)


def test_train_model_ignores_an_unused_alpha():
    model = create_model(4, d_node=8, d_edge=8, seed=1)
    with pytest.raises(ValueError, match="ground-truth labels"):
        train_model(model, [{}], TrainConfig(epochs=1), ratio_variant="none", alpha=5.0)


@pytest.mark.parametrize("field, value", [
    ("lost_frame_limit", -1), ("lost_frame_limit", 1.5), ("k_neighbors", True),
])
def test_ratio_analysis_checks_on_entry(field, value):
    name = "k" if field == "k_neighbors" else field
    refused(lambda: ratio_analysis([{}], "iou", [0.5], **{field: value}), name, value)
