"""The trainable conditional chain generator (the "LLM" substrate).

This is the offline stand-in for the paper's finetuned LLM backbone
(see the substitution note in DESIGN.md).  It is an autoregressive
log-linear model over the API vocabulary:

    P(next api | prompt, graph, retrieved APIs, prefix)
        = softmax(W @ phi(state))

where ``phi`` hashes prompt-text tokens, sequentialized-graph tokens,
retrieved-API indicators, the previous API and the position into one
sparse feature vector.  Training is SGD; the plain cross-entropy updates
here are the *baseline* objective — the paper's node matching-based loss
and search-based prediction live in :mod:`repro.finetune` and drive this
same model through :meth:`train_weighted_step`.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import ModelError
from ..embedding.tokenizer import tokenize

#: End-of-chain token (always the last vocabulary entry).
EOS = "<eos>"

_TEXT_BUCKETS = 256
_GRAPH_BUCKETS = 64

#: See :meth:`ChainLanguageModel.compile_chain`.
CompiledChain = tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]


def _bucket(feature: str, buckets: int) -> int:
    digest = hashlib.md5(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") % buckets


@dataclass(frozen=True)
class GenerationState:
    """Everything the model conditions on at one decoding step."""

    prompt_text: str
    #: Bag of sequentializer tokens of the prompt graph (may be empty).
    graph_tokens: tuple[tuple[str, int], ...] = ()
    #: Names of the retrieved candidate APIs (order = retrieval rank).
    retrieved: tuple[str, ...] = ()
    #: APIs generated so far.
    prefix: tuple[str, ...] = ()
    #: Decodable API names (e.g. the graph type's category-routed set);
    #: empty means "fall back to the retrieved set / full vocabulary".
    allowed: tuple[str, ...] = ()

    def advance(self, api_name: str) -> "GenerationState":
        return GenerationState(
            prompt_text=self.prompt_text,
            graph_tokens=self.graph_tokens,
            retrieved=self.retrieved,
            prefix=self.prefix + (api_name,),
            allowed=self.allowed,
        )

    @staticmethod
    def graph_tokens_from_counter(counts: Counter) -> tuple[
            tuple[str, int], ...]:
        return tuple(sorted(counts.items()))


@dataclass(frozen=True)
class TrainingExample:
    """One finetuning pair: a question and its ground-truth chain(s).

    ``target_chains`` may hold several equivalent chains (the paper's
    second chain property); losses take the minimum over them.
    """

    question: str
    target_chains: tuple[tuple[str, ...], ...]
    graph_tokens: tuple[tuple[str, int], ...] = ()
    retrieved: tuple[str, ...] = ()
    allowed: tuple[str, ...] = ()

    def state(self) -> GenerationState:
        return GenerationState(prompt_text=self.question,
                               graph_tokens=self.graph_tokens,
                               retrieved=self.retrieved,
                               allowed=self.allowed)


@dataclass
class ChainLanguageModel:
    """Log-linear autoregressive model over an API vocabulary.

    Example::

        model = ChainLanguageModel(api_names=registry.names())
        dist = model.next_distribution(state)   # ndarray over vocab
        model.train_step(state, "count_nodes")  # one SGD update
    """

    api_names: Sequence[str]
    learning_rate: float = 0.5
    l2: float = 1e-3
    seed: int = 0
    #: Restrict candidates to the retrieved APIs (+EOS) when retrieval
    #: supplied any — the paper's "reduce the space of prediction".
    restrict_to_retrieved: bool = True
    _vocab: dict[str, int] = field(init=False, default_factory=dict)
    _names_by_id: list[str] = field(init=False, default_factory=list)
    _weights: np.ndarray = field(init=False, default=None)  # type: ignore

    def __post_init__(self) -> None:
        if not self.api_names:
            raise ModelError("api vocabulary is empty")
        names = list(dict.fromkeys(self.api_names))  # dedupe, keep order
        self._vocab = {name: i for i, name in enumerate(names)}
        self._vocab[EOS] = len(names)
        self._names_by_id = names + [EOS]
        rng = np.random.default_rng(self.seed)
        self._weights = rng.normal(
            scale=0.01, size=(len(self._vocab), self.n_features))

    # ------------------------------------------------------------------
    # vocabulary
    # ------------------------------------------------------------------
    @property
    def vocab_size(self) -> int:
        return len(self._vocab)

    @property
    def eos_id(self) -> int:
        return self._vocab[EOS]

    def token_id(self, name: str) -> int:
        try:
            return self._vocab[name]
        except KeyError:
            raise ModelError(f"API {name!r} not in model vocabulary") \
                from None

    def token_name(self, token_id: int) -> str:
        if 0 <= token_id < len(self._names_by_id):
            return self._names_by_id[token_id]
        raise ModelError(f"no token with id {token_id}")

    # ------------------------------------------------------------------
    # features
    # ------------------------------------------------------------------
    @property
    def n_features(self) -> int:
        # text + graph + retrieved-indicator + prev-token + position + bias
        return (_TEXT_BUCKETS + _GRAPH_BUCKETS + len(self._vocab)
                + len(self._vocab) + 8 + 1)

    def _static_features(self, state: GenerationState) -> dict[int, float]:
        """The feature components invariant under :meth:`advance`.

        Text, graph, retrieved-API and bias features depend only on the
        conditioning context, not on the prefix; batched decoding caches
        them per decode lane and re-adds only the dynamic part each step.
        """
        features: dict[int, float] = {}
        base = 0
        tokens = tokenize(state.prompt_text)
        if tokens:
            weight = 1.0 / math.sqrt(len(tokens))
            for token in tokens:
                idx = base + _bucket("t:" + token, _TEXT_BUCKETS)
                features[idx] = features.get(idx, 0.0) + weight
        base += _TEXT_BUCKETS
        total_graph = sum(count for __, count in state.graph_tokens)
        if total_graph:
            for token, count in state.graph_tokens:
                idx = base + _bucket("g:" + token, _GRAPH_BUCKETS)
                features[idx] = features.get(idx, 0.0) + count / total_graph
        base += _GRAPH_BUCKETS
        for rank, name in enumerate(state.retrieved):
            if name in self._vocab:
                features[base + self._vocab[name]] = 1.0 / (1.0 + rank)
        features[self.n_features - 1] = 1.0  # bias
        return features

    def _dynamic_feature_ids(self, state: GenerationState) -> list[int]:
        """Indices of the prefix-dependent indicator features (value 1)."""
        base = _TEXT_BUCKETS + _GRAPH_BUCKETS + len(self._vocab)
        ids: list[int] = []
        prev = state.prefix[-1] if state.prefix else None
        if prev is not None and prev in self._vocab:
            ids.append(base + self._vocab[prev])
        base += len(self._vocab)
        ids.append(base + min(len(state.prefix), 7))
        return ids

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _base_candidate_ids(self, state: GenerationState) -> frozenset[int]:
        """Token ids decodable from ``state`` before the prefix mask.

        The prediction space is reduced (paper Sec. II-A) to the state's
        ``allowed`` set when given (the graph type's category-routed
        APIs), else to the retrieved APIs, else the full vocabulary, plus
        EOS.  Each step then masks the APIs already in the prefix: chains
        never invoke the same API twice.
        """
        if state.allowed:
            ids = {self._vocab[name] for name in state.allowed
                   if name in self._vocab}
        elif self.restrict_to_retrieved and state.retrieved:
            ids = {self._vocab[name] for name in state.retrieved
                   if name in self._vocab}
        else:
            ids = set(range(self.vocab_size))
        ids.add(self.eos_id)
        return frozenset(ids)

    def next_distribution(self, state: GenerationState) -> np.ndarray:
        """Distribution over the full vocabulary (masked to candidates),
        read off a one-lane :class:`BatchScorer`."""
        return BatchScorer(self, [state]).distributions([state], [0])[0]

    def log_prob(self, state: GenerationState, api_name: str) -> float:
        """log P(api_name | state)."""
        probs = self.next_distribution(state)
        return float(np.log(max(probs[self.token_id(api_name)], 1e-300)))

    def chain_log_prob(self, state: GenerationState,
                       chain: Iterable[str]) -> float:
        """log P(chain, EOS | initial state)."""
        total = 0.0
        current = state
        for name in chain:
            total += self.log_prob(current, name)
            current = current.advance(name)
        total += self.log_prob(current, EOS)
        return total

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_step(self, state: GenerationState, target: str) -> float:
        """One cross-entropy SGD step; returns the step's loss."""
        return self.train_weighted_step(state, {target: 1.0})

    def train_weighted_step(self, state: GenerationState,
                            target_weights: dict[str, float]) -> float:
        """SGD toward a *distribution* over targets.

        The finetuning module converts its chain-level matching loss into
        per-step target weights and calls this; plain training passes a
        single target with weight 1.
        """
        total = sum(target_weights.values())
        if total <= 0:
            raise ModelError("target weights must sum to > 0")
        target = np.zeros(self.vocab_size)
        for name, weight in target_weights.items():
            target[self.token_id(name)] = weight / total
        feature_ids, feature_values, candidates = self._compile_state(state)
        mask = np.where(candidates, 0.0, -np.inf)
        mask[[self._vocab[name] for name in state.prefix
              if name in self._vocab]] = -np.inf
        mask[self.eos_id] = 0.0
        return self._sgd_step(feature_ids, feature_values,
                              self._dynamic_feature_ids(state), mask, target)

    def _compile_state(self, state: GenerationState
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What no prefix changes about ``state``: the static feature ids
        and values (bias excluded, :meth:`_sgd_step` appends it last) and
        the base candidates as a vocabulary mask."""
        static = self._static_features(state)
        del static[self.n_features - 1]
        candidates = np.zeros(self.vocab_size, dtype=bool)
        candidates[sorted(self._base_candidate_ids(state))] = True
        return (np.fromiter(static.keys(), dtype=np.int64),
                np.fromiter(static.values(), dtype=np.float64), candidates)

    def compile_chain(self, example: TrainingExample) -> CompiledChain:
        """What teacher forcing on ``example``'s first target chain needs
        that no prefix changes: :meth:`_compile_state` of its state, and
        the chain's token ids followed by EOS."""
        return (*self._compile_state(example.state()),
                [self.token_id(name) for name in example.target_chains[0]]
                + [self.eos_id])

    def train_compiled(self, compiled: CompiledChain) -> float:
        """Teacher-forced CE steps on a :meth:`compile_chain` result.

        Each step adds only what the prefix changes — the previous-API
        and position features and the prefix mask — so the updates equal
        :meth:`train_step` on each advanced state, bit for bit.
        """
        feature_ids, feature_values, candidates, ids = compiled
        prev_base = _TEXT_BUCKETS + _GRAPH_BUCKETS + self.vocab_size
        mask = np.where(candidates, 0.0, -np.inf)
        loss = 0.0
        for step, token_id in enumerate(ids):
            dynamic = [prev_base + self.vocab_size + min(step, 7)]
            if step:  # the prefix grew by ids[step - 1]; EOS stays open
                dynamic.insert(0, prev_base + ids[step - 1])
                mask[ids[step - 1]] = -np.inf
                mask[self.eos_id] = 0.0
            loss += self._sgd_step(
                feature_ids, feature_values, dynamic, mask,
                np.eye(1, self.vocab_size, token_id)[0])
        return loss / len(ids)

    def train_chain(self, example: TrainingExample) -> float:
        """Teacher-forced CE training on the first target chain (baseline)."""
        return self.train_compiled(self.compile_chain(example))

    def _sgd_step(self, feature_ids: np.ndarray, feature_values: np.ndarray,
                  dynamic: list[int], mask: np.ndarray,
                  target: np.ndarray) -> float:
        """The one SGD body over the static, then ``dynamic``, then bias
        features: one gather of their weight columns, softmax, error,
        step and L2 decay on that copy, one scatter."""
        lr = self.learning_rate
        idx = np.concatenate((feature_ids, dynamic, [self.n_features - 1]))
        vals = np.concatenate((feature_values, [1.0] * (len(dynamic) + 1)))
        block = self._weights[:, idx]
        probs = _softmax(block @ vals + mask)
        block -= lr * np.outer(probs - target, vals)
        if self.l2 > 0:
            block *= (1.0 - lr * self.l2)
        self._weights[:, idx] = block
        return -float(np.sum(target * np.log(np.maximum(probs, 1e-300))))


def _softmax(logits: np.ndarray) -> np.ndarray:
    logits -= logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    return probs


class BatchScorer:
    """Batched next-token scoring over a fleet of decode lanes.

    Decoding only ever advances a :class:`GenerationState` by appending
    APIs, so the text/graph/retrieved/bias features and the pre-prefix
    candidate set of each lane are fixed for the whole decode.  The
    scorer resolves those once per lane at construction; each step then
    costs one dense ``Phi @ W.T`` matmul plus the tiny dynamic
    (previous-API + position + prefix-mask) updates.

    It is the model's only inference scorer: every decoder, the rollout
    search and :meth:`ChainLanguageModel.next_distribution` read one.
    A single-state decode builds one lane and scores every descendant
    state (advanced candidates, rollouts) against it.
    """

    def __init__(self, model: ChainLanguageModel,
                 states: Sequence[GenerationState]) -> None:
        self.model = model
        n_lanes = len(states)
        #: Dense static design rows (lane -> phi without prev/position).
        self._phi_static = np.zeros((n_lanes, model.n_features))
        #: Base candidate masks (lane -> 0.0 on candidates, -inf off).
        self._mask_static = np.full((n_lanes, model.vocab_size), -np.inf)
        for lane, state in enumerate(states):
            features = model._static_features(state)
            self._phi_static[lane, list(features.keys())] = \
                list(features.values())
            self._mask_static[
                lane, sorted(model._base_candidate_ids(state))] = 0.0
        #: Contiguous transposed weight snapshot for the per-step dgemm.
        #: A scorer is built per decode and must not outlive training
        #: steps (training mutates the model's weights in place).
        self._wt = np.ascontiguousarray(model._weights.T)

    @property
    def n_lanes(self) -> int:
        return self._phi_static.shape[0]

    def candidates(self, state: GenerationState, lane: int = 0) -> list[int]:
        """Sorted token ids open to ``state`` (a descendant of ``lane``):
        the lane's base candidates minus the APIs in the prefix."""
        open_ids = self._mask_static[lane] == 0.0
        vocab = self.model._vocab
        open_ids[[vocab[name] for name in state.prefix if name in vocab]] = \
            False
        return np.flatnonzero(open_ids).tolist()

    def distributions(self, states: Sequence[GenerationState],
                      lanes: Sequence[int]) -> np.ndarray:
        """``(len(states), vocab)`` next-token distributions.

        ``states[i]`` must be a (possibly advanced) descendant of the
        construction-time state of lane ``lanes[i]``.
        """
        logits = self._masked_logits(states, lanes)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def argmax_tokens(self, states: Sequence[GenerationState],
                      lanes: Sequence[int]) -> np.ndarray:
        """Greedy next-token ids per state (no softmax needed).

        ``argmax(softmax(x)) == argmax(x)``, so the greedy fleet
        decoder skips the exp/normalize work entirely.
        """
        return np.argmax(self._masked_logits(states, lanes), axis=1)

    def _masked_logits(self, states: Sequence[GenerationState],
                       lanes: Sequence[int]) -> np.ndarray:
        model = self.model
        vocab = model._vocab
        n = len(states)
        if n == 0:
            return np.zeros((0, model.vocab_size))
        lane_index = np.asarray(lanes, dtype=np.int64)
        phi = self._phi_static[lane_index]       # fancy index == copy
        logits_mask = self._mask_static[lane_index]
        dyn_rows: list[int] = []
        dyn_cols: list[int] = []
        masked_rows: list[int] = []
        masked_cols: list[int] = []
        for row, state in enumerate(states):
            for idx in model._dynamic_feature_ids(state):
                dyn_rows.append(row)
                dyn_cols.append(idx)
            for name in state.prefix:
                token_id = vocab.get(name)
                if token_id is not None:
                    masked_rows.append(row)
                    masked_cols.append(token_id)
        phi[dyn_rows, dyn_cols] = 1.0
        if masked_rows:
            logits_mask[masked_rows, masked_cols] = -np.inf
        logits = phi @ self._wt
        logits += logits_mask
        return logits
