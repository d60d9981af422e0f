"""The typed dict-to-dataclass conversion behind every config block."""

import math

import pytest

import softgrip
from softgrip import Box, ConfigError, SlideConfig
from softgrip.inputs import from_dict


@pytest.mark.parametrize("cls, raw, named", [
    (SlideConfig, [1.0], "JSON object"),
    (SlideConfig, {"stepp": 0.01}, "'stepp'"),
    (Box, {"min_corner": [0, 0, 0]}, "'max_corner'"),
    (SlideConfig, {"step": True}, "'step'"),
    (SlideConfig, {"step": "0.01"}, "'step'"),
    (SlideConfig, {"theta_to": None}, "'theta_to'"),
    (SlideConfig, {"flex_gain": math.inf}, "'flex_gain'"),
    (SlideConfig, {"flex_gain": 10 ** 400}, "'flex_gain'"),
    (Box, {"min_corner": [0, 0], "max_corner": [1, 1, 1]}, "'min_corner'"),
    (Box, {"min_corner": [0, 0, math.nan], "max_corner": [1, 1, 1]}, "'min_corner'"),
    (Box, {"min_corner": 0, "max_corner": [1, 1, 1]}, "'min_corner'"),
])
def test_from_dict_rejects_and_names_the_field(cls, raw, named):
    with pytest.raises(ConfigError, match=named):
        from_dict(cls, raw, "block")


def test_from_dict_converts_numbers_and_takes_null_where_optional():
    cfg = from_dict(SlideConfig, {"surface_y_mm": None, "step": 1, "theta_to": -2}, "slide")
    assert cfg == SlideConfig(step=1.0, theta_to=-2.0)
    assert type(cfg.step) is float
    box = from_dict(Box, {"min_corner": [0, 0, 0], "max_corner": [1, 2, 3]}, "roi")
    assert box.max_corner == (1.0, 2.0, 3.0)


def test_one_box_type():
    assert softgrip.RegionOfInterest is softgrip.WorkspaceLimits is softgrip.Box
