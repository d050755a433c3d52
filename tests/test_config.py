"""Tests for the configuration objects (paper Fig. 3 parameters)."""

import json

import pytest

from repro.config import (
    MODEL_PRESETS,
    ChatGraphConfig,
    FinetuneConfig,
    LLMConfig,
    RetrievalConfig,
    SequencerConfig,
)
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        config = ChatGraphConfig.default()
        assert config.retrieval.top_k_apis == 8
        assert config.sequencer.path_length == 2
        assert config.llm.model in MODEL_PRESETS

    @pytest.mark.parametrize("kwargs", [
        {"tau": -0.1}, {"ef_search": 0}, {"top_k_apis": 0},
        {"embedding_dim": 4},
    ])
    def test_retrieval_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetrievalConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"path_length": 0}, {"max_paths": 0}, {"min_motif_size": 1},
    ])
    def test_sequencer_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SequencerConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0}, {"rollouts": -1}, {"epochs": 0},
    ])
    def test_finetune_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FinetuneConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"model": "gpt4"}, {"max_chain_length": 0},
    ])
    def test_llm_validation(self, kwargs):
        with pytest.raises(ConfigError):
            LLMConfig(**kwargs)


class TestUpdatesAndSerialization:
    def test_with_updates(self):
        config = ChatGraphConfig.default().with_updates(
            retrieval=RetrievalConfig(top_k_apis=4))
        assert config.retrieval.top_k_apis == 4
        assert config.llm.model == "chatglm-sim"  # untouched

    def test_with_updates_unknown_section(self):
        with pytest.raises(ConfigError):
            ChatGraphConfig.default().with_updates(bogus=1)

    def test_roundtrip_dict(self):
        config = ChatGraphConfig(
            retrieval=RetrievalConfig(tau=0.2),
            llm=LLMConfig(model="vicuna-sim", max_chain_length=3))
        data = json.loads(json.dumps(config.to_dict()))
        back = ChatGraphConfig(**{
            name: type(getattr(config, name))(**fields)
            for name, fields in data.items()})
        assert back == config

    def test_frozen(self):
        config = ChatGraphConfig.default()
        with pytest.raises(Exception):
            config.llm = LLMConfig()  # type: ignore[misc]
