import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

import fusionkit
from fusionkit import risk_qa
from fusionkit.chat import (
    ChatError,
    ChatRequest,
    HttpChatClient,
    ReplayChatClient,
    ReplayMissError,
    TransientChatError,
    store_replay,
)
from fusionkit.risk_qa import PipelineConfig, run_pipeline
from test_cli import scene_to_dict
from test_risk_qa import (
    QA_RESPONSE_FIXTURE,
    RISK_RESPONSE_FIXTURE,
    _seed_replay,
    seven_car_scene,
)


def _request(content="hello", model="gpt-4o"):
    return ChatRequest(
        model=model,
        messages=({"role": "user", "content": content},),
        temperature=0.0,
        seed=0,
    )


def test_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(model="", messages=({"role": "user", "content": "x"},))
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=())
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=({"role": "robot", "content": "x"},))
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=({"role": "user"},))
    for content in (None, 5, ["x"]):  # never spelled as "None" or "5"
        with pytest.raises(ValueError, match="message 0 content must be a string"):
            ChatRequest(model="m", messages=({"role": "user", "content": content},))


def test_step1_request_hash_is_frozen(tmp_path):
    # the hash names every replay file; it must not move with the code
    # that spells the request
    cfg = PipelineConfig()
    step1 = _seed_replay(tmp_path, cfg, seven_car_scene(),
                         RISK_RESPONSE_FIXTURE, QA_RESPONSE_FIXTURE)
    assert step1.request_hash() == (
        "9fdcdfe5659b12694a7bda944f8c8bee836046374bb6fdae97d06578b153cfe8")
    pairs, _, report = run_pipeline([seven_car_scene()],
                                    ReplayChatClient(tmp_path), cfg)
    assert pairs and report.scenes_failed == []


def test_canonical_json_is_stable_and_sorted():
    req = _request()
    blob = req.canonical_json()
    assert blob == req.canonical_json()
    parsed = json.loads(blob)
    assert parsed["model"] == "gpt-4o"
    assert parsed["seed"] == 0
    # compact separators, sorted keys
    assert ": " not in blob
    assert blob.index('"messages"') < blob.index('"model"')


def test_hash_sensitivity():
    base = _request()
    assert base.request_hash() == _request().request_hash()
    assert base.request_hash() != _request(content="other").request_hash()
    assert base.request_hash() != _request(model="gpt-4o-mini").request_hash()
    warmer = ChatRequest(
        model="gpt-4o",
        messages=({"role": "user", "content": "hello"},),
        temperature=0.7,
        seed=0,
    )
    assert base.request_hash() != warmer.request_hash()


def test_with_followup_extends_conversation():
    base = _request()
    longer = base.with_followup("bad reply", "fix it")
    assert len(longer.messages) == 3
    assert longer.messages[1] == {"role": "assistant", "content": "bad reply"}
    assert longer.messages[2] == {"role": "user", "content": "fix it"}
    assert longer.request_hash() != base.request_hash()


def test_replay_round_trip(tmp_path):
    req = _request()
    store_replay(tmp_path, req, "canned answer")
    client = ReplayChatClient(tmp_path)
    assert client.complete(req) == "canned answer"


def test_replay_miss_names_hash(tmp_path):
    client = ReplayChatClient(tmp_path)
    req = _request()
    with pytest.raises(ReplayMissError) as err:
        client.complete(req)
    assert req.request_hash() in str(err.value)


def test_replay_missing_directory():
    with pytest.raises(ChatError):
        ReplayChatClient("/nonexistent/replay/dir")


class _Handler(BaseHTTPRequestHandler):
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        raw = self.rfile.read(length)
        _Handler.seen.append({"body": json.loads(raw), "raw": raw,
                              "auth": self.headers.get("Authorization")})
        if self.path == "/boom":
            self.send_response(500)
            self.end_headers()
            self.wfile.write(b"server melted")
            return
        if self.path == "/junk":
            payload = b'{"unexpected": true}'
        elif self.path in ("/null", "/list"):
            content = None if self.path == "/null" else [{"text": "pong"}]
            payload = json.dumps(
                {"choices": [{"message": {"content": content}}]}
            ).encode()
        else:
            payload = json.dumps(
                {"choices": [{"message": {"content": "pong"}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    _Handler.seen.clear()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def test_http_client_round_trip(http_server):
    client = HttpChatClient(endpoint=f"{http_server}/v1", api_key="sk-test")
    reply = client.complete(_request(content="ping"))
    assert reply == "pong"
    sent = _Handler.seen[-1]
    assert sent["auth"] == "Bearer sk-test"
    assert sent["body"]["model"] == "gpt-4o"
    assert sent["body"]["temperature"] == 0.0
    assert sent["body"]["seed"] == 0
    assert sent["body"]["messages"] == [{"role": "user", "content": "ping"}]
    assert sent["raw"] == (b'{"model": "gpt-4o", "messages": [{"role": "user", '
                           b'"content": "ping"}], "temperature": 0.0, "seed": 0}')


def test_http_client_omits_unset_seed(http_server):
    client = HttpChatClient(endpoint=f"{http_server}/v1")
    client.complete(
        ChatRequest(model="m", messages=({"role": "user", "content": "x"},))
    )
    assert "seed" not in _Handler.seen[-1]["body"]
    assert _Handler.seen[-1]["auth"] is None


def test_http_client_surfaces_status_and_shape_errors(http_server):
    boom = HttpChatClient(endpoint=f"{http_server}/boom")
    with pytest.raises(ChatError, match="HTTP 500"):
        boom.complete(_request())
    for path in ("junk", "null", "list"):
        shapeless = HttpChatClient(endpoint=f"{http_server}/{path}")
        with pytest.raises(ChatError, match="malformed"):
            shapeless.complete(_request())


def test_http_client_connection_error():
    client = HttpChatClient(endpoint="http://127.0.0.1:9/nothing", timeout=0.5)
    with pytest.raises(ChatError, match="failed"):
        client.complete(_request())


# ------------------------------------------------------------ transport


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(risk_qa, "TRANSPORT_BACKOFF_S", (0.0, 0.0, 0.0))


class _Backend(ThreadingHTTPServer):
    """Loopback chat backend that answers from a replay store, after
    first answering one scripted (status, headers) per POST.

    ``server_close`` joins the handler threads; setting ``closing`` first
    cuts a reply delay short."""

    daemon_threads = False

    def __init__(self, replay: ReplayChatClient | None = None):
        super().__init__(("127.0.0.1", 0), _BackendHandler)
        self.replay = replay
        self.script: list[tuple[int, dict]] = []
        self.delay_s = 0.0
        self.closing = threading.Event()
        self.connections = 0
        self.posts = 0
        self.lock = threading.Lock()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}/v1/chat/completions"

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed its end


class _BackendHandler(BaseHTTPRequestHandler):
    # keep-alive capable, and headers and body go out in two writes, as
    # from the benchmark's stub
    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.posts += 1
            status, headers = server.script.pop(0) if server.script else (200, {})
        server.closing.wait(server.delay_s)
        if status == 200:
            text = "pong"
            if server.replay is not None:
                text = server.replay.complete(ChatRequest(
                    model=body["model"], messages=tuple(body["messages"]),
                    temperature=body["temperature"], seed=body.get("seed")))
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": text}}]}
            ).encode()
        else:
            payload = b"backend busy"
        self.send_response(status)
        for key, value in headers.items():
            self.send_header(key, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def backend(tmp_path):
    """A backend serving the seven-car scene's replies from ``tmp_path``."""
    _seed_replay(tmp_path, PipelineConfig(), seven_car_scene(),
                 RISK_RESPONSE_FIXTURE, QA_RESPONSE_FIXTURE)
    server = _Backend(ReplayChatClient(tmp_path))
    thread = threading.Thread(target=server.serve_forever, args=(0.05,),
                              daemon=True)
    thread.start()
    yield server
    server.closing.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _run_over_http(server: _Backend, timeout: float = 10.0):
    return run_pipeline([seven_car_scene()],
                        HttpChatClient(server.url, timeout=timeout))


def test_http_client_opens_one_connection_per_call(backend):
    client = HttpChatClient(backend.url)
    backend.replay = None
    replies = [client.complete(_request(content=f"call {i}")) for i in range(5)]
    assert replies == ["pong"] * 5
    assert (backend.posts, backend.connections) == (5, 5)


def test_transient_statuses_carry_retry_after(backend):
    client = HttpChatClient(backend.url)
    backend.script = [(503, {"Retry-After": "7"}), (429, {}),
                      (502, {"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"})]
    for want in (7.0, None, None):
        with pytest.raises(TransientChatError, match="HTTP 5|HTTP 429") as err:
            client.complete(_request())
        assert err.value.retry_after == want


def test_503_then_200_retries_once_with_unchanged_outputs(backend, tmp_path):
    clean = run_pipeline([seven_car_scene()], ReplayChatClient(tmp_path))
    backend.script = [(503, {})]
    pairs, targets, report = _run_over_http(backend)
    assert report.transport_retries == 1
    assert backend.posts == 3  # two steps, one of them sent twice
    assert (pairs, targets) == clean[:2]
    assert report.to_dict() == {**clean[2].to_dict(), "transport_retries": 1}


def test_retry_after_is_capped_at_the_backoff_step(backend, monkeypatch):
    monkeypatch.setattr(risk_qa, "TRANSPORT_BACKOFF_S", (0.25, 0.5))
    waits: list[float] = []
    monkeypatch.setattr(risk_qa, "time", type("Clock", (), {
        "sleep": staticmethod(waits.append)}))
    backend.script = [(503, {"Retry-After": "3600"}), (429, {"Retry-After": "0.1"})]
    report = _run_over_http(backend)[2]
    assert waits == [0.25, 0.1]
    assert report.transport_retries == 2 and report.scenes_failed == []


def test_spent_backoff_fails_the_scene_with_its_reason(backend):
    backend.script = [(500, {})] * 4
    report = _run_over_http(backend)[2]
    assert report.transport_retries == 3
    assert report.scenes_failed == ["scene-0001"]
    assert report.failures == {
        "scene-0001": "chat backend returned HTTP 500: backend busy"}


def test_timeout_is_transient(backend):
    backend.delay_s = 1.0
    client = HttpChatClient(backend.url, timeout=0.2)
    with pytest.raises(TransientChatError, match="chat request failed"):
        client.complete(_request())


def test_client_errors_are_not_retried(backend):
    backend.script = [(400, {})]
    report = _run_over_http(backend)[2]
    assert backend.posts == 1
    assert report.transport_retries == 0
    assert report.failures == {
        "scene-0001": "chat backend returned HTTP 400: backend busy"}


def test_gen_risk_qa_does_not_import_requests(backend, tmp_path):
    scenes = tmp_path / "scenes.jsonl"
    scenes.write_text(json.dumps(scene_to_dict(seven_car_scene())) + "\n")
    code = ("import sys; from fusionkit.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'requests' in sys.modules)")
    src = str(Path(fusionkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "FK_API_KEY": ""}
    out = subprocess.run(
        [sys.executable, "-c", code, "gen-risk-qa", "--scenes", str(scenes),
         "--endpoint", backend.url, "--out-qa", str(tmp_path / "qa.jsonl"),
         "--out-grounding", str(tmp_path / "g.jsonl")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines()[-1] == "0 False"
    assert backend.posts == 2
