"""The input boundary: the hashing reader and the typed dict-to-dataclass
conversion behind every config block."""

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

import pytest

import softgrip
from softgrip import Box, ConfigError, ParseError, SlideConfig, load_capacity_model
from softgrip.inputs import HashingReader, from_dict


@pytest.mark.parametrize("size, builtin", [(0, True), (1 << 20, True), ((1 << 20) + 1, False)])
def test_hashing_reader_digests_as_hashlib_on_either_side_of_a_mib(tmp_path, size, builtin):
    # Up to 1 MiB CPython's built-in SHA-256, past it hashlib's (OpenSSL).
    data = random.Random(size).randbytes(size)
    (tmp_path / "input").write_bytes(data)
    with HashingReader(tmp_path / "input") as reader:
        while reader.read(1 << 17):
            pass
    assert reader.sha256.hexdigest() == hashlib.sha256(data).hexdigest()
    assert (type(reader.sha256) is not type(hashlib.sha256())) == builtin


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


@dataclass(frozen=True)
class Samples:
    values: tuple[float, ...]


@dataclass(frozen=True)
class Scene:
    box: Box
    samples: tuple[Samples, ...] = ()
    crop: Optional[Box] = None


BOX = {"min_corner": [0, 0, 0], "max_corner": [1, 1, 1]}


def test_variadic_tuple_takes_a_list_of_any_length():
    assert from_dict(Samples, {"values": []}, "s").values == ()
    values = from_dict(Samples, {"values": [1, 2.5, -3]}, "s").values
    assert values == (1.0, 2.5, -3.0) and all(type(v) is float for v in values)


def test_nested_dataclasses_are_built_by_from_dict():
    scene = from_dict(Scene, {"box": BOX, "samples": [{"values": [1]}], "crop": None}, "scene")
    assert scene == Scene(Box((0, 0, 0), (1, 1, 1)), (Samples((1.0,)),))


@pytest.mark.parametrize("raw, message", [
    ({"box": BOX, "samples": [{"values": [1]}, {"values": [2, math.nan]}]},
     "scene key 'samples' item 1 key 'values' item 1 must be a finite number, got nan"),
    ({"box": BOX, "samples": {"values": [1]}}, "scene key 'samples' must be a list, got"),
    ({"box": BOX, "samples": [[1]]}, "scene key 'samples' item 0 must be a JSON object, got list"),
    ({"box": {"min_corner": [0, 0, 0]}}, "scene key 'box' is missing keys: 'max_corner'"),
    ({"box": BOX, "crop": {"min_corner": [0, 0], "max_corner": [1, 1, 1]}},
     "scene key 'crop' key 'min_corner' must be a list of 3 values, got [0, 0]"),
    ({"box": BOX, "samples": [{"values": [True]}]},
     "scene key 'samples' item 0 key 'values' item 0 must be a finite number, got True"),
])
def test_messages_name_the_key_path_and_item_index(raw, message):
    with pytest.raises(ParseError) as err:
        from_dict(Scene, raw, "scene", ParseError)
    assert str(err.value).startswith(message)


def test_constructor_errors_are_prefixed_with_the_input_name():
    with pytest.raises(ConfigError, match=re.escape("scene key 'box': need min < max per axis")):
        from_dict(Scene, {"box": {"min_corner": [1, 1, 1], "max_corner": [0, 0, 0]}}, "scene")


def test_capacity_messages_name_the_entry():
    table = json.loads(resources.files("softgrip.data").joinpath("capacity_default.json")
                       .read_text())
    table["entries"][3]["max_payload_kg"] = math.nan
    with pytest.raises(ParseError, match=re.escape(
            "capacity data key 'entries' item 3 key 'max_payload_kg' must be a finite number, "
            "got nan")):
        load_capacity_model(table)


def test_json_is_decoded_only_in_inputs():
    package = Path(softgrip.__file__).parent
    decoders = [f"{path.name}:{n}" for path in sorted(package.glob("*.py"))
                if path.name != "inputs.py"
                for n, line in enumerate(path.read_text().splitlines(), 1)
                if re.search(r"\bjson\.loads?\b", line)]
    assert decoders == []
