"""Server process of ``serve-mix``: ``repro.serve.run_server`` plus a
control channel on stdin.

Run by ``wl_serve`` as ``python3 perfbench/serve_launcher.py
[--trace-out PATH]``.  It prints ``ready <port>`` once the socket is
bound, then reads commands, one per line, from stdin:

``trace``  install the layer wrappers (the serve layer included) and
           start the traced window; answers ``traced``;
``stop``   end the traced window, stop the server and exit (EOF on
           stdin does the same).

With ``--trace-out`` plan builds are timed from the start, and the
spans of the traced window, the process CPU seconds it took and the
engine's plan-cache stats are written there as Chrome trace-event JSON
before the process prints ``done`` and exits.
The int-string limit is left at the interpreter default: the server is
the program under test.
"""

from __future__ import annotations

import argparse
import asyncio
import re
import sys
import threading
import time

import common

common.require_program()

from layers import ENGINE_POINTS, PLAN_POINTS, layer_metrics  # noqa: E402
from tracer import Tracer, WrapPoint, write_chrome_trace  # noqa: E402

_ID = re.compile(rb'"id":"([a-z-]+):')


def _class_of_body(args, kwargs) -> str:
    match = _ID.search(bytes(args[0][:64]))
    return match.group(1).decode() if match else ""


def _class_of_message(args, kwargs) -> str:
    request_id = args[0].get("id") if isinstance(args[0], dict) else None
    return request_id.rsplit(":", 1)[0] if isinstance(request_id, str) else ""


def _class_of_op(args, kwargs) -> str:
    name, payload = args[0], args[1]
    if name == "multiply":
        try:
            if max(max(p) for p in payload["pairs"]).bit_length() > 4096:
                return "oversize"
        except (KeyError, TypeError, ValueError):
            return ""
    return name


SERVE_POINTS = [
    WrapPoint("repro.serve.protocol", "decode_body", "protocol.decode",
              tagger=_class_of_body),
    WrapPoint("repro.serve.protocol", "encode_frame", "protocol.encode",
              tagger=_class_of_message),
    WrapPoint("repro.serve.service", "decode_op", "ops.decode_op",
              tagger=_class_of_op),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.serve import run_server

    tracer = Tracer()
    window = {}
    handles = {}

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace" and args.trace_out:
                window["plan_build_s"] = layer_metrics(tracer.spans, 1)["plan.build_s"]
                tracer.clear()
                tracer.install(ENGINE_POINTS + SERVE_POINTS)
                window["cpu0"] = time.process_time()
                window["wall0"] = time.perf_counter()
                print("traced", flush=True)
            elif command == "stop":
                break
        if "cpu0" in window:
            window["cpu_s"] = time.process_time() - window["cpu0"]
            window["wall_s"] = time.perf_counter() - window["wall0"]
        handles["loop"].call_soon_threadsafe(handles["server"].request_stop)

    def on_ready(server) -> None:
        handles["server"] = server
        handles["loop"] = asyncio.get_running_loop()
        threading.Thread(target=control, name="perfbench-control", daemon=True).start()
        print(f"ready {server.port}", flush=True)

    if args.trace_out:
        tracer.install(PLAN_POINTS)  # plan builds happen during warm-up
    service = run_server(backend="software", on_ready=on_ready)
    tracer.uninstall()
    if args.trace_out:
        cache = service.jobs.engine.cache_stats()
        write_chrome_trace(
            args.trace_out,
            tracer.chrome_events(),
            {
                "cpu_s": window.get("cpu_s", 0.0),
                "wall_s": window.get("wall_s", 0.0),
                "plan_build_s": window.get("plan_build_s", 0.0),
                "plan_cache": {
                    "size": cache.size,
                    "hits": cache.hits,
                    "misses": cache.misses,
                },
            },
        )
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
