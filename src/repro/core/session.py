"""The chat session: the headless equivalent of the paper's Gradio UI.

Fig. 2's three panels map to session state: panel 1 (dialogs) is
:attr:`ChatSession.history`; panel 2 (suggested questions) is
:meth:`suggestions`; panel 3 (question + graph upload) is
:meth:`upload_graph` + :meth:`send`.  Scenario 4's confirm-and-edit
loop is the ``propose -> edit_chain -> confirm`` path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..apis.chain import APIChain, ChainNode
from ..errors import GraphIOError, SessionError
from ..graphs.graph import Graph
from ..graphs.io import from_document, to_document
from ..llm.prompts import Prompt
from .chatgraph import ChatGraph, ChatResponse
from .monitoring import ChainMonitor
from .pipeline import PipelineResult
from .reports import render_answer
from .suggestions import suggested_questions


@dataclass(frozen=True)
class DialogTurn:
    """One message in panel 1."""

    role: str  # "user" | "assistant" | "system"
    text: str

    def render(self) -> str:
        return f"{self.role:>9}: {self.text}"


@dataclass
class ChatSession:
    """Stateful conversation against one :class:`ChatGraph` instance.

    Example::

        session = ChatSession(chatgraph)
        session.upload_graph(my_graph)
        proposal = session.propose("Clean G")
        session.edit_chain(remove=0)       # optional user edits
        response = session.confirm()       # execute + answer
    """

    chatgraph: ChatGraph
    history: list[DialogTurn] = field(default_factory=list)
    graph: Graph | None = None
    attachments: dict[str, Any] = field(default_factory=dict)
    #: Auto-approve confirmations unless a callback is given.
    confirm_callback: Callable[[str, Any], bool] | None = None
    _pending: PipelineResult | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # panel 3: inputs
    # ------------------------------------------------------------------
    def upload_graph(self, graph: Graph, **attachments: Any) -> None:
        """Attach a graph (and extras) to the next prompts."""
        self.graph = graph
        self.attachments.update(attachments)
        self.history.append(DialogTurn(
            "system", f"graph uploaded: {graph!r}"))

    def clear_graph(self) -> None:
        self.graph = None
        self.attachments.clear()

    # ------------------------------------------------------------------
    # panel 2: suggestions
    # ------------------------------------------------------------------
    def suggestions(self, limit: int = 4) -> list[str]:
        """Suggested questions for the current upload."""
        return suggested_questions(self.graph, limit=limit)

    # ------------------------------------------------------------------
    # panel 1: dialog
    # ------------------------------------------------------------------
    def send(self, text: str) -> ChatResponse:
        """One-shot ask: propose + auto-confirm + execute + reply."""
        self.propose(text)
        return self.confirm()

    def propose(self, text: str) -> PipelineResult:
        """Generate the chain for ``text`` and hold it for confirmation."""
        prompt = self.build_prompt(text)
        return self.hold(self.chatgraph.propose(
            text, prompt.graph, **prompt.attachments))

    def build_prompt(self, text: str) -> Prompt:
        """The first half of :meth:`propose`: record the user's turn and
        build the prompt the pipeline answers.  A server runs that
        pipeline pass for many sessions at once, then calls
        :meth:`hold` with each session's result."""
        self.history.append(DialogTurn("user", text))
        return Prompt(text=text,
                      graph=self.chatgraph.resolve_graph(self.graph),
                      attachments=dict(self.attachments))

    def hold(self, result: PipelineResult) -> PipelineResult:
        """The second half of :meth:`propose`: hold ``result`` (the
        pipeline's answer to :meth:`build_prompt`) for confirmation."""
        self._pending = result
        self.history.append(DialogTurn(
            "assistant",
            f"proposed API chain: {result.chain.render()} — confirm, or "
            f"edit it first"))
        return result

    @property
    def pending_chain(self) -> APIChain:
        """The chain awaiting confirmation."""
        if self._pending is None:
            raise SessionError("no chain awaiting confirmation")
        return self._pending.chain

    def edit_chain(self, remove: int | None = None,
                   insert: tuple[int, str] | None = None,
                   replace: tuple[int, str] | None = None,
                   append: str | None = None) -> APIChain:
        """Apply one user edit to the pending chain (scenario 4)."""
        chain = self.pending_chain
        if remove is not None:
            chain.remove(remove)
        if insert is not None:
            index, name = insert
            chain.insert(index, ChainNode(name))
        if replace is not None:
            index, name = replace
            chain.replace(index, ChainNode(name))
        if append is not None:
            chain.append(ChainNode(append))
        chain.validate(self.chatgraph.registry)
        self.history.append(DialogTurn(
            "user", f"edited chain to: {chain.render()}"))
        return chain

    def reject(self) -> None:
        """Discard the pending chain."""
        if self._pending is None:
            raise SessionError("no chain awaiting confirmation")
        self._pending = None
        self.history.append(DialogTurn("user", "rejected the chain"))

    def confirm(self, monitor: ChainMonitor | None = None) -> ChatResponse:
        """Execute the pending chain and append the answer to the dialog."""
        if self._pending is None:
            raise SessionError("no chain awaiting confirmation")
        pending = self._pending
        self._pending = None
        record, used_monitor = self.chatgraph.execute(
            pending, confirm=self.confirm_callback, monitor=monitor)
        answer = render_answer(record)
        # an edit API may have replaced the working graph
        if pending.prompt.graph is not None and record.ok:
            for step in record.steps:
                if step.api_name in ("remove_flagged_edges",
                                     "add_predicted_edges", "remove_edge",
                                     "add_edge"):
                    self.graph = _latest_graph(record, pending.prompt)
                    break
        self.history.append(DialogTurn("assistant", answer))
        return ChatResponse(
            prompt=pending.prompt,
            pipeline=pending,
            record=record,
            answer=answer,
            monitor=used_monitor,
            seconds=record.total_seconds,
        )

    def transcript(self) -> str:
        """The whole dialog, rendered."""
        return "\n".join(turn.render() for turn in self.history)

    # ------------------------------------------------------------------
    # persistence (dialog + uploaded graph survive across sessions)
    # ------------------------------------------------------------------
    def save(self, path: "str | Path") -> None:
        """Persist the dialog and the uploaded graph to a JSON file.

        Pending (unconfirmed) chains and non-graph attachments are not
        persisted; reload with :meth:`load` against any ChatGraph.
        """
        document = {
            "version": 2,
            "history": [{"role": turn.role, "text": turn.text}
                        for turn in self.history],
            "graph": to_document(self.graph) if self.graph is not None
            else None,
        }
        Path(path).write_text(json.dumps(document, indent=1),
                              encoding="utf-8")

    @classmethod
    def load(cls, path: "str | Path",
             chatgraph: ChatGraph) -> "ChatSession":
        """Rebuild a session saved by :meth:`save` (version 2 only: a
        version 1 file holds its graph in another layout)."""
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
            if document.get("version") != 2:
                raise SessionError("unsupported session version "
                                   f"{document.get('version')!r}")
            history = [DialogTurn(entry["role"], entry["text"])
                       for entry in document["history"]]
            graph = (from_document(document["graph"])
                     if document.get("graph") is not None else None)
        except (OSError, KeyError, TypeError, AttributeError, GraphIOError,
                json.JSONDecodeError) as exc:
            raise SessionError(f"cannot load session: {exc}") from exc
        session = cls(chatgraph)
        session.history = history
        session.graph = graph
        return session


def _latest_graph(record: Any, prompt: Prompt) -> Graph | None:
    """The graph after edit APIs ran (the executor context holds it)."""
    # edit APIs replace context.graph; export_graph serializes it, so if
    # present, rebuild from that document, else keep the prompt graph.
    by_name = record.results_by_name()
    if "export_graph" in by_name:
        return from_document(by_name["export_graph"])
    return prompt.graph
