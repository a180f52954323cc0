"""Chat-completion boundary: request hashing, replay mock, HTTP client.

Requests hash over their canonical JSON form, which makes the replay
client a pure function from request to canned response: a directory
maps ``{sha256(request)}.txt`` to the reply text. Tests and offline
runs use replay; live runs go through the HTTP client. The CLI takes its
endpoint from --endpoint or the config, else from ``FK_API_ENDPOINT``,
and its key from ``FK_API_KEY``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol

from .jsontypes import canonical_json, field_dict, require_str

__all__ = [
    "ChatRequest",
    "ChatClient",
    "ChatError",
    "TransientChatError",
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
            frozen.append({"role": msg["role"], "content": require_str(
                msg["content"], f"message {i} content")})
        object.__setattr__(self, "messages", tuple(frozen))

    def canonical_json(self) -> str:
        return canonical_json(field_dict(self))

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


class TransientChatError(ChatError):
    """A failure that may pass on its own: HTTP 429 or 5xx, a timeout, or a
    refused or dropped connection. ``retry_after`` is the server's
    ``Retry-After`` in seconds, or None when it sent none (or an HTTP date,
    which would make a retry schedule depend on the clock)."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


def _retry_after_s(value: str | None) -> float | None:
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


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
    """Minimal chat-completions HTTP client on ``urllib.request``, one
    connection per call. HTTP 429 and 5xx, timeouts and refused or dropped
    connections raise TransientChatError; the caller decides on retries."""

    def __init__(self, endpoint: str, api_key: str = "", timeout: float = 60.0):
        if not endpoint:
            raise ValueError("endpoint must be non-empty")
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout

    def complete(self, request: ChatRequest) -> str:
        # urllib sends "Connection: close", so every call opens and closes
        # its own connection. Keep it that way rather than pooling: a server
        # that writes headers and body in two sends with Nagle's algorithm
        # on holds the body back until the client's delayed ACK of the
        # headers, about 40 ms per call on Linux, while a connection the
        # server closes after its reply is flushed at once.
        import http.client
        import urllib.error
        import urllib.request

        # the fields the request hash reads, in their order; no unset seed
        body = field_dict(request)
        if body["seed"] is None:
            del body["seed"]
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        retry_after = None
        try:
            data = json.dumps(body, allow_nan=False).encode("utf-8")
            post = urllib.request.Request(
                self.endpoint, data=data, headers=headers, method="POST"
            )
            with urllib.request.urlopen(post, timeout=self.timeout) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as err:
            status = err.code
            retry_after = _retry_after_s(err.headers.get("Retry-After"))
            try:
                raw = err.read()
            except (OSError, http.client.HTTPException):
                raw = b""
        except urllib.error.URLError as err:
            raise _request_failed(err.reason) from err
        except (OSError, ValueError, http.client.HTTPException) as err:
            raise _request_failed(err) from err
        if status != 200:
            text = raw.decode("utf-8", errors="replace")[:200]
            message = f"chat backend returned HTTP {status}: {text}"
            if status == 429 or 500 <= status <= 599:
                raise TransientChatError(message, retry_after)
            raise ChatError(message)
        try:
            payload = json.loads(raw)
            content = payload["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as err:
            raise ChatError(f"malformed chat response: {err}") from err
        if not isinstance(content, str):
            raise ChatError(f"malformed chat response: content is "
                            f"{type(content).__name__}, not a string")
        return content


def _request_failed(reason: object) -> ChatError:
    message = f"chat request failed: {reason}"
    if isinstance(reason, (TimeoutError, ConnectionError)):
        return TransientChatError(message)
    return ChatError(message)
