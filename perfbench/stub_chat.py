"""Loopback stub of a chat-completions backend.

    python3 perfbench/stub_chat.py

Binds 127.0.0.1 on a free port, prints ``port <n>`` on one line, then
serves HTTP/1.1 (keep-alive capable) until terminated. Every reply waits
``fixtures.STUB_DELAY_MS``, then returns the answer that ``fixtures.reply``
gives for the request's messages, in the OpenAI response shape.
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import fixtures


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        length = int(self.headers.get("Content-Length", "0"))
        body = json.loads(self.rfile.read(length))
        time.sleep(fixtures.STUB_DELAY_MS / 1000.0)
        text = fixtures.reply(body["messages"])
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": text}}]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, format, *args) -> None:  # noqa: A002
        pass


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
