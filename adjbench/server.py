"""The ``ingest_http`` server process: ``repro serve --source`` in a child.

    python3 adjbench/server.py SRC_DIR ADJACENCY_TSV

Loads the service and builds the server exactly as ``repro serve``
does (``repro.cli.load_service`` + ``repro.serve.build_server``) on an
ephemeral port, prints ``READY <port>``, then takes commands on stdin,
one per line, answering ``OK``:

* ``trace on`` / ``trace off`` — install or remove the layer ledger's
  wrappers in this process (:mod:`adjbench.ledger`);
* ``dump PATH`` — write the ledger's per-class totals as JSON;
* ``stop`` (or end of input) — shut the server down and exit.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path


def _classify(root):
    """Request class of a finished root span (its ``info`` is the
    request handler): neighbor reads are main, edge posts second."""
    handler = root.info
    path = getattr(handler, "path", "") or ""
    if getattr(handler, "command", None) == "GET" and \
            path.startswith("/query/neighbors"):
        return "main"
    if getattr(handler, "command", None) == "POST" and path == "/edges":
        return "second"
    return None


def main(argv) -> int:
    src_dir, source = argv[1], argv[2]
    sys.path[:0] = [src_dir, str(Path(__file__).resolve().parent.parent)]
    from repro.cli import load_service
    from repro.serve import build_server
    from adjbench.ledger import PATCHES, Ledger

    service = load_service(source, "plus_times", cache_size=1024)
    server = build_server(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(f"READY {server.server_address[1]}", flush=True)
    ledger = Ledger(classify=_classify)
    try:
        for line in sys.stdin:
            cmd = line.split()
            if not cmd:
                continue
            if cmd[0] == "stop":
                break
            if cmd == ["trace", "on"]:
                ledger.install(PATCHES)
            elif cmd == ["trace", "off"]:
                ledger.uninstall()
            elif cmd[0] == "dump":
                with open(cmd[1], "w", encoding="utf-8") as fh:
                    json.dump({cls: dict(t) for cls, t in
                               ledger.totals.items()}, fh)
            print("OK", flush=True)
    finally:
        ledger.uninstall()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
