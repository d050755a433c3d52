"""Every model preset drives the full system; the CLI entry point works."""

import io
import subprocess
import sys

import pytest

from repro import ChatGraph, ChatGraphConfig
from repro.config import LLMConfig
from repro.core import run_graph_understanding
from repro.errors import ChatGraphError, GraphIOError
from repro.graphs import social_network


class TestPresetParity:
    @pytest.mark.parametrize("preset", ["chatglm-sim", "moss-sim",
                                        "vicuna-sim"])
    def test_preset_full_scenario(self, preset):
        config = ChatGraphConfig(llm=LLMConfig(model=preset))
        chatgraph = ChatGraph.pretrained(config=config, corpus_size=600,
                                         seed=0)
        result = run_graph_understanding(
            chatgraph, social_network(30, 3, seed=1))
        assert result.response.record.ok
        assert result.details["graph_type"] == "social"
        assert "generate_report" in result.chain_names


class TestCliMain:
    def test_scripted_session(self):
        script = ("/demo social\n"
                  "how many nodes does the graph have\n"
                  "/show degrees\n"
                  "/quit\n")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--corpus", "300"],
            input=script, capture_output=True, text=True, timeout=240)
        assert completed.returncode == 0
        assert "count_nodes: 50" in completed.stdout
        assert "degree" in completed.stdout
        assert "bye" in completed.stdout

    def test_graph_flag(self, tmp_path):
        import json
        from repro.graphs.io import to_document
        path = tmp_path / "g.json"
        path.write_text(json.dumps(to_document(social_network(12, 2,
                                                              seed=0))))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--corpus", "300",
             "--graph", str(path)],
            input="count the nodes\n/quit\n",
            capture_output=True, text=True, timeout=240)
        assert completed.returncode == 0
        assert "count_nodes: 12" in completed.stdout

    @pytest.mark.parametrize("name, content", [
        ("bad.json", "{not json"), ("empty.smi", "")])
    def test_malformed_upload_is_an_error_line(self, tmp_path, name,
                                               content):
        path = tmp_path / name
        path.write_text(content)
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--corpus", "300"],
            input=f"/upload {path}\n/demo social\ncount the nodes\n/quit\n",
            capture_output=True, text=True, timeout=240)
        assert completed.returncode == 0, completed.stderr
        assert "Traceback" not in completed.stderr
        assert f"error: {path}" in completed.stdout
        assert "count_nodes: 50" in completed.stdout  # the session went on
        assert "bye" in completed.stdout


class TestCli:
    @pytest.fixture()
    def cli(self, chatgraph):
        from repro.cli import ChatCli
        return ChatCli(chatgraph, out=io.StringIO())

    def run_script(self, cli, *lines):
        for line in lines:
            cli.handle(line)
        return cli.out.getvalue()

    def test_demo_and_question(self, cli):
        output = self.run_script(
            cli, "/demo social", "how many nodes does the graph have")
        assert "count_nodes: 50" in output

    def test_suggest(self, cli):
        output = self.run_script(cli, "/demo kg", "/suggest")
        assert "Clean G" in output

    def test_manual_confirm_flow(self, cli):
        output = self.run_script(
            cli, "/demo social", "/manual",
            "Write a brief report for G", "/chain",
            "/edit remove 1", "/confirm")
        assert "Graph report" in output
        assert "(confirm with /confirm" in output

    def test_reject(self, cli):
        output = self.run_script(
            cli, "/demo social", "/manual", "count the nodes", "/reject")
        assert "chain discarded" in output

    def test_unknown_command(self, cli):
        assert "unknown command" in self.run_script(cli, "/bogus")

    def test_error_reported_not_raised(self, cli):
        output = self.run_script(cli, "/upload /no/such/file.json")
        assert "error:" in output

    def test_apis_listing(self, cli):
        output = self.run_script(cli, "/apis")
        assert "detect_communities" in output

    def test_config_shown(self, cli):
        output = self.run_script(cli, "/config")
        assert "top_k_apis" in output

    def test_quit_stops(self, cli):
        self.run_script(cli, "/quit")
        assert not cli.running

    def test_load_graph_kinds(self, tmp_path, chatgraph):
        from repro.cli import load_graph
        import json as json_mod
        from repro.graphs.io import to_document
        g = social_network(10, 2, seed=0)
        json_path = tmp_path / "g.json"
        json_path.write_text(json_mod.dumps(to_document(g)))
        assert load_graph(str(json_path)).number_of_nodes() == 10
        smi_path = tmp_path / "m.smi"
        smi_path.write_text("CCO\n")
        assert load_graph(str(smi_path)).number_of_nodes() == 3
        with pytest.raises(ChatGraphError):
            load_graph(str(tmp_path / "missing.json"))
        (tmp_path / "bad.json").write_text("{not json")
        (tmp_path / "empty.smi").write_text("\n")
        for name in ("bad.json", "empty.smi"):
            with pytest.raises(GraphIOError):
                load_graph(str(tmp_path / name))
