"""Model presets mirroring the paper's three integrated LLMs.

The paper downloads ChatGLM, MOSS and Vicuna from HuggingFace; offline
we expose three presets of the simulated backbone that differ in
learning dynamics (learning rate and L2), so the configuration screen
(Fig. 3) keeps its model selector.  A preset is the only owner of those
two numbers: :class:`~repro.finetune.Finetuner` trains every model at
its own rate, so the three presets finetune to three different models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ModelError
from .chain_model import ChainLanguageModel


@dataclass(frozen=True)
class ModelPreset:
    """Hyper-parameters of one named backbone."""

    name: str
    learning_rate: float
    l2: float


PRESETS: dict[str, ModelPreset] = {
    "chatglm-sim": ModelPreset("chatglm-sim", learning_rate=0.5, l2=1e-3),
    "moss-sim": ModelPreset("moss-sim", learning_rate=0.3, l2=3e-3),
    "vicuna-sim": ModelPreset("vicuna-sim", learning_rate=0.7, l2=1e-3),
}


def build_model(preset_name: str, api_names: Sequence[str],
                seed: int = 0) -> ChainLanguageModel:
    """Instantiate the chain model for a named preset."""
    try:
        preset = PRESETS[preset_name]
    except KeyError:
        raise ModelError(
            f"unknown model preset {preset_name!r}; "
            f"choose from {sorted(PRESETS)}") from None
    return ChainLanguageModel(api_names=api_names,
                              learning_rate=preset.learning_rate,
                              l2=preset.l2, seed=seed)
