"""The shared config layer: field type checks, the JSON form and the
``key = value`` text form, alike for all four configs."""

import dataclasses
import math

import pytest

from psygat.causal import CausalConfig
from psygat.config import Config
from psygat.datagen import GenConfig
from psygat.errors import ConfigError
from psygat.model import ModelConfig
from psygat.train import TrainConfig

CONFIGS = (GenConfig, ModelConfig, TrainConfig, CausalConfig)

# wrong-typed values per annotation, each as (Python value, config-file text)
WRONG = {
    "int": [(True, "True"), (2.0, "2.0"), ("3", "three"), (None, "null"), ([3], "[3]")],
    "float": [(True, "True"), ("0.5", "half"), (None, "null"), ([0.5], "[0.5]"),
              (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")],
    "bool": [(1, "1"), (0.0, "0.0"), ("true", "true"), (None, "null"), ([True], "[true]")],
    "str": [(1, "1"), (0.5, "0.5"), (None, "null"), (["default"], "[default]")],
    "tuple": [((True,), "True"), ((0.0,), "0.0"), ("0,1", "zero"), (None, "null"),
              ([[0]], "[0]")],
}


def field_cases():
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            yield pytest.param(cls, f.name, f.type, id=f"{cls.__name__}.{f.name}")


class TestFieldTypes:
    @pytest.mark.parametrize("cls,name,kind", field_cases())
    def test_wrong_typed_value_is_a_config_error_by_every_route(self, cls, name, kind):
        accepted = []
        for value, text in WRONG[kind]:
            routes = {
                "direct": lambda: cls(**{name: value}),
                "from_json": lambda: cls.from_json({**cls().to_json(), name: value}),
                "from_text": lambda: cls.from_text(f"{name} = {text}\n"),
            }
            for route, build in routes.items():
                try:
                    build()
                except ConfigError as exc:
                    assert len(str(exc).splitlines()) == 1
                else:
                    accepted.append((route, value if route != "from_text" else text))
        assert accepted == []

    def test_wrong_type_named_in_the_message(self):
        with pytest.raises(ConfigError, match=r"ModelConfig\.hidden must be an integer, "
                                              r"got 128\.0"):
            ModelConfig(hidden=128.0)
        with pytest.raises(ConfigError, match=r"TrainConfig\.clip_norm must be a finite number"):
            TrainConfig(clip_norm=math.nan)

    def test_replace_is_checked_too(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            dataclasses.replace(GenConfig(), seed="1")

    def test_int_is_a_valid_float_and_kept_as_given(self):
        config = CausalConfig(weight_decay=0, lr=1)
        assert config.to_json()["weight_decay"] == 0 and type(config.weight_decay) is int

    def test_tuple_field_stores_a_list_as_a_tuple(self):
        assert TrainConfig(seeds=[3, 4]).seeds == (3, 4)

    def test_field_counts(self):
        counts = {cls.__name__: len(dataclasses.fields(cls)) for cls in CONFIGS}
        assert counts == {"GenConfig": 15, "ModelConfig": 10, "TrainConfig": 12,
                          "CausalConfig": 8}

    def test_every_config_shares_the_one_layer(self):
        for cls in CONFIGS:
            assert issubclass(cls, Config)
            for method in ("to_json", "from_json", "from_text"):
                assert method not in vars(cls)


class TestJson:
    @pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
    def test_round_trip(self, cls):
        config = cls()
        obj = config.to_json()
        assert list(obj) == [f.name for f in dataclasses.fields(cls)]
        assert cls.from_json(obj) == config

    def test_tuple_written_as_a_list(self):
        assert TrainConfig(seeds=(7, 8)).to_json()["seeds"] == [7, 8]

    @pytest.mark.parametrize("obj", [3, [], None, "lr"])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ConfigError) as info:
            CausalConfig.from_json(obj)
        assert str(info.value) == f"CausalConfig must be a JSON object, got {obj!r}"

    def test_unknown_key_rejected_as_from_text_does(self):
        with pytest.raises(ConfigError) as by_json:
            CausalConfig.from_json({**CausalConfig().to_json(), "depth": 2})
        with pytest.raises(ConfigError) as by_text:
            CausalConfig.from_text("depth = 2\n")
        assert str(by_json.value) == str(by_text.value) == "unknown CausalConfig field 'depth'"


class TestConfigParsing:
    def test_key_value_with_comments(self):
        config = TrainConfig.from_text("# header\nlr = 0.001\n\nfocal_gamma = 0  # inline\n")
        assert (config.lr, config.focal_gamma) == (0.001, 0.0)
        assert config == TrainConfig(lr=0.001, focal_gamma=0.0)

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            TrainConfig.from_text("just words\n")

    def test_coercion_onto_field_types(self):
        config = TrainConfig.from_text(
            "lr = 0.01\nmax_epochs = 3\ncontrastive_weight = 0\nseeds = 0,1\n")
        assert config.lr == 0.01
        assert config.max_epochs == 3
        assert config.contrastive_weight == 0.0
        assert config.seeds == (0, 1)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            GenConfig.from_text("sessions = 10\n")

    @pytest.mark.parametrize("key,value", [("loss", "bce"), ("contrastive_enabled", "false"),
                                           ("persona_mode", "off"), ("threshold_objective", "f1"),
                                           ("min_precision", "0.75"), ("focal_alpha", "0.75")])
    def test_removed_train_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown TrainConfig field '{key}'"):
            TrainConfig.from_text(f"{key} = {value}\n")

    def test_invalid_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_text("lr = -1.0\n")

    @pytest.mark.parametrize("key,raw", [("max_epochs", "abc"), ("lr", "fast"), ("seeds", "0,x")])
    def test_unparsable_number_becomes_config_error(self, key, raw):
        with pytest.raises(ConfigError):
            TrainConfig.from_text(f"{key} = {raw}\n")

    def test_bool_fields_have_no_text_form(self):
        with pytest.raises(ConfigError, match="persona must be true or false"):
            ModelConfig.from_text("persona = true\n")


class TestModelConfigRanges:
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelConfig)
                                      if f.type == "int"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_int_fields_are_at_least_one(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be >= 1"):
            ModelConfig(**{name: value})

    @pytest.mark.parametrize("value", [-0.1, 1.0, 1])
    def test_dropout_in_unit_interval(self, value):
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig(dropout=value)

    def test_zero_heads_is_a_range_error_before_divisibility(self):
        with pytest.raises(ConfigError, match="heads must be >= 1, got 0"):
            ModelConfig(heads=0)

    def test_boundary_values_accepted(self):
        ModelConfig(text_dim=1, hidden=1, heads=1, num_layers=1, set2set_iters=1,
                    persona_count=1, persona_dim=1, head_hidden=1, dropout=0)


class TestCausalConfigRanges:
    @pytest.mark.parametrize("name,value,message", [
        ("window", 0, ">= 1"), ("epochs", 0, ">= 1"), ("batch_instances", 0, ">= 1"),
        ("hidden", 0, ">= 1"), ("lr", 0.0, "positive"), ("weight_decay", -1.0, ">= 0"),
    ])
    def test_out_of_range_value_rejected(self, name, value, message):
        with pytest.raises(ConfigError, match=f"{name} must be {message}"):
            CausalConfig(**{name: value})
