"""Behavioral tests for internals that the happy paths exercise only
indirectly: report rendering, executor summaries, and TF-IDF weighting
details."""

from repro.apis.executor import _summarize
from repro.core.reports import _format, render_answer
from repro.embedding import TfidfModel, Vocabulary


class TestReportFormatting:
    def test_format_float_precision(self):
        assert _format(0.123456789) == "0.1235"

    def test_format_dict_and_list(self):
        assert _format({"a": 1}) == "{a=1}"
        text = _format(list(range(10)))
        assert "... (4 more)" in text

    def test_format_truncates(self):
        text = _format("x" * 1000)
        assert len(text) <= 400
        assert text.endswith("...")

    def test_render_answer_failure_lines(self):
        from repro.apis.executor import ChainExecutionRecord, StepRecord
        from repro.apis.chain import APIChain
        record = ChainExecutionRecord(chain=APIChain.from_names(["x"]))
        record.steps.append(StepRecord(
            index=0, api_name="x", result=None, seconds=0.0,
            ok=False, error="kaput"))
        assert "x: failed (kaput)" in render_answer(record)

    def test_render_answer_empty(self):
        from repro.apis.executor import ChainExecutionRecord
        from repro.apis.chain import APIChain
        record = ChainExecutionRecord(chain=APIChain())
        assert render_answer(record) == "(no results)"

    def test_summarize_caps_length(self):
        assert len(_summarize({"k": "v" * 200})) <= 70


class TestTfidfDetails:
    def test_idf_decreases_with_frequency(self):
        model = TfidfModel.fit(["alpha beta", "alpha gamma",
                                "alpha delta"])
        assert model.idf("alpha") < model.idf("beta")

    def test_unseen_token_gets_max_idf(self):
        model = TfidfModel.fit(["alpha beta"])
        assert model.idf("zeta") >= model.idf("alpha")

    def test_vocabulary_token_order_stable(self):
        vocab = Vocabulary.from_corpus(["zeta alpha", "beta"])
        tokens = vocab.tokens()
        assert [vocab.index(token) for token in tokens] == \
            list(range(len(tokens)))
