"""Chat-completion boundary: request hashing, replay mock, HTTP client.

Requests hash over their canonical JSON form, which makes the replay
client a pure function from request to canned response: a directory
maps ``{sha256(request)}.txt`` to the reply text. Tests and offline
runs use replay; live runs go through the HTTP client, whose endpoint
and key come from ``FK_API_ENDPOINT`` / ``FK_API_KEY``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

__all__ = [
    "ChatRequest",
    "ChatClient",
    "ChatError",
    "ReplayMissError",
    "ReplayChatClient",
    "HttpChatClient",
    "store_replay",
    "ENDPOINT_ENV",
    "API_KEY_ENV",
]

ENDPOINT_ENV = "FK_API_ENDPOINT"
API_KEY_ENV = "FK_API_KEY"

_ROLES = ("system", "user", "assistant")


@dataclass(frozen=True)
class ChatRequest:
    """One completion request; hashable by canonical JSON content."""

    model: str
    messages: tuple[Mapping[str, str], ...]
    temperature: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("model tag must be non-empty")
        if not self.messages:
            raise ValueError("messages must be non-empty")
        frozen = []
        for i, msg in enumerate(self.messages):
            if set(msg) != {"role", "content"}:
                raise ValueError(
                    f"message {i} must have exactly 'role' and 'content'"
                )
            if msg["role"] not in _ROLES:
                raise ValueError(f"message {i} role must be one of {_ROLES}")
            frozen.append({"role": msg["role"], "content": str(msg["content"])})
        object.__setattr__(self, "messages", tuple(frozen))

    def canonical_json(self) -> str:
        body = {
            "model": self.model,
            "messages": [dict(m) for m in self.messages],
            "temperature": self.temperature,
            "seed": self.seed,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":"))

    def request_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    def with_followup(self, assistant_text: str, user_text: str) -> "ChatRequest":
        """Same conversation extended by one exchange (used for repair)."""
        return ChatRequest(
            model=self.model,
            messages=self.messages
            + (
                {"role": "assistant", "content": assistant_text},
                {"role": "user", "content": user_text},
            ),
            temperature=self.temperature,
            seed=self.seed,
        )


class ChatClient(Protocol):
    def complete(self, request: ChatRequest) -> str: ...


class ChatError(RuntimeError):
    """Transport or protocol failure talking to a chat backend."""


class ReplayMissError(ChatError):
    def __init__(self, request: ChatRequest, path: Path):
        head = request.messages[-1]["content"][:80]
        super().__init__(
            f"no canned response at {path} "
            f"(request hash {request.request_hash()}, last message {head!r})"
        )
        self.request_hash = request.request_hash()
        self.path = path


class ReplayChatClient:
    """Deterministic mock: responses read from {hash}.txt files."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        if not self.directory.is_dir():
            raise ChatError(f"replay directory {self.directory} does not exist")

    def complete(self, request: ChatRequest) -> str:
        path = self.directory / f"{request.request_hash()}.txt"
        if not path.is_file():
            raise ReplayMissError(request, path)
        return path.read_text(encoding="utf-8")


def store_replay(directory: str | Path, request: ChatRequest, text: str) -> Path:
    """Record a canned response; returns the file written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{request.request_hash()}.txt"
    path.write_text(text, encoding="utf-8")
    return path


class HttpChatClient:
    """Minimal chat-completions HTTP client."""

    def __init__(self, endpoint: str, api_key: str = "", timeout: float = 60.0):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    @classmethod
    def from_env(
        cls, environ: Mapping[str, str] | None = None, timeout: float = 60.0
    ) -> "HttpChatClient":
        env = os.environ if environ is None else environ
        endpoint = env.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ChatError(
                f"no chat endpoint configured: set {ENDPOINT_ENV} "
                f"(and optionally {API_KEY_ENV})"
            )
        return cls(
            endpoint=endpoint, api_key=env.get(API_KEY_ENV, ""), timeout=timeout
        )

    def complete(self, request: ChatRequest) -> str:
        import requests

        body: dict = {
            "model": request.model,
            "messages": [dict(m) for m in request.messages],
            "temperature": request.temperature,
        }
        if request.seed is not None:
            body["seed"] = request.seed
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as err:
            raise ChatError(f"chat request failed: {err}") from err
        if resp.status_code != 200:
            raise ChatError(
                f"chat backend returned HTTP {resp.status_code}: {resp.text[:200]}"
            )
        try:
            payload = resp.json()
            return payload["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as err:
            raise ChatError(f"malformed chat response: {err}") from err
