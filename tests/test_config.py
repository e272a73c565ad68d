"""config.from_json: JSON blocks into config dataclasses, keys and types checked."""

import dataclasses

import pytest

from connectobench import (
    AttnVariantConfig,
    ConfigError,
    ExphormerConfig,
    ResidualGCNConfig,
    SyntheticSpec,
    TrainConfig,
)
from connectobench.cli import config_hash
from connectobench.config import from_json


class TestFromJson:
    def test_nested_blocks_become_configs(self):
        cfg = from_json(TrainConfig, {"total_epochs": 7, "gcn": {"hidden_dim": 8},
                                      "exphormer": {"num_layers": 1}}, "train")
        assert cfg.total_epochs == 7
        assert cfg.gcn == ResidualGCNConfig(hidden_dim=8)
        assert cfg.exphormer == ExphormerConfig(num_layers=1)

    def test_unknown_nested_key_names_its_path(self):
        with pytest.raises(ConfigError, match=r"^unknown train\.gcn key\(s\): bogus$"):
            from_json(TrainConfig, {"gcn": {"hidden_dim": 8, "bogus": 1}}, "train")

    def test_wrongly_typed_nested_value_names_its_path(self):
        message = (r"^train\.exphormer\.num_heads must be of the type of its "
                   r"default 4, got '4'$")
        with pytest.raises(ConfigError, match=message):
            from_json(TrainConfig, {"exphormer": {"num_heads": "4"}}, "train")

    @pytest.mark.parametrize("block,name", [([1], "list"), (3, "int"),
                                            (None, "NoneType"), ("gcn", "str")])
    def test_non_object_block_is_refused(self, block, name):
        with pytest.raises(ConfigError,
                           match=rf"^train\.gcn must be an object, got {name}$"):
            from_json(TrainConfig, {"gcn": block}, "train")

    def test_seeds_list_becomes_a_tuple(self):
        assert from_json(TrainConfig, {"seeds": [3, 1]}, "train").seeds == (3, 1)

    def test_int_in_a_float_field_stays_an_int(self):
        cfg = from_json(TrainConfig, {"base_lr": 1, "exphormer": {"dropout": 0}},
                        "train")
        assert type(cfg.base_lr) is int and type(cfg.exphormer.dropout) is int

    def test_optional_field_takes_null_or_an_int(self):
        assert from_json(SyntheticSpec, {"d": None}, "dataset_spec").d is None
        assert from_json(SyntheticSpec, {"d": 5}, "dataset_spec").d == 5
        with pytest.raises(ConfigError, match=r"^dataset_spec\.d must be"):
            from_json(SyntheticSpec, {"d": 2.5}, "dataset_spec")

    def test_overrides_replace_values_before_the_config_checks_itself(self):
        # from_json's own parameters are positional-only, so SyntheticSpec's
        # field d can be an override
        assert from_json(SyntheticSpec, {}, "dataset_spec", d=5).d == 5
        assert from_json(SyntheticSpec, {"n": 4, "d": 6}, "dataset_spec",
                         n=8).feature_dim == 6
        with pytest.raises(ConfigError, match="warmup_epochs < total_epochs") as info:
            from_json(TrainConfig, {"warmup_epochs": 150}, "train")
        assert str(info.value).endswith("got 150 and 100")
        cfg = from_json(TrainConfig, {"warmup_epochs": 150, "total_epochs": 7},
                        "train", total_epochs=200, seeds=(4,))
        assert (cfg.warmup_epochs, cfg.total_epochs, cfg.seeds) == (150, 200, (4,))
        with pytest.raises(ConfigError, match="seeds must be non-empty and distinct"):
            from_json(TrainConfig, {}, "train", seeds=(0, 0))


@pytest.mark.parametrize("cfg,name", [
    (ResidualGCNConfig(), "hidden_dim"), (ExphormerConfig(), "num_heads"),
    (AttnVariantConfig(), "placement"), (TrainConfig(), "seeds"),
    (SyntheticSpec(), "d")])
def test_configs_are_frozen(cfg, name):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, name, getattr(cfg, name))


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(seeds=(1, 2, 1)),
    lambda: dataclasses.replace(TrainConfig(), seeds=(0, 0)),
    lambda: dataclasses.replace(SyntheticSpec(), n=3),
    lambda: dataclasses.replace(TrainConfig(), exphormer=dataclasses.replace(
        ExphormerConfig(), num_heads=3))])
def test_a_config_checks_itself_however_it_is_built(build):
    with pytest.raises(ConfigError):
        build()


def test_config_hash_of_a_fixed_train_block():
    """Every run JSON carries this hash; an int in a float field must hash
    as the int the file wrote, not as a float."""
    cfg = from_json(TrainConfig, {
        "base_lr": 1, "total_epochs": 3, "warmup_epochs": 1, "seeds": [0, 2],
        "model_kind": "exphormer", "exphormer": {"dropout": 0, "num_layers": 1}},
        "train")
    assert config_hash(cfg) == (
        "c71749a27be02c44fbd5a8c23effcee1bb0f7ea060d9ac69d20f331a52c0c519")
