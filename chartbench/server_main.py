"""Serve one index snapshot over HTTP for the ``http_mixed_1k`` workload.

Started by :mod:`chartbench.http_load` as its own process::

    python3 chartbench/server_main.py --snapshot S --result R

It prints ``READY <port>`` once the server listens, then reads commands on
standard input: ``TRACE`` installs the layer wrappers of
:mod:`chartbench.layers` (answered ``TRACING``), ``STOP`` (or end of input)
drains and closes the server, writes the peak RSS, service counters and the
recorded spans to ``R`` as JSON, and exits.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from chartbench import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    common.add_repo_paths()

    from repro.serving import SearchService, ServingConfig
    from repro.serving.http.server import ChartSearchServer, HTTPServingConfig

    from chartbench import layers
    from chartbench.tracing import Tracer

    model = common.load_model()
    service = SearchService.load_index(
        model, args.snapshot, config=ServingConfig(quantized_prefilter=True)
    )
    server = ChartSearchServer(service, HTTPServingConfig(port=0)).start()
    print(f"READY {server.port}", flush=True)
    tracer = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "TRACE" and tracer is None:
                tracer = Tracer()
                layers.install_query_path(tracer)
                layers.install_ingest_path(tracer)
                layers.install_lock_timer(tracer, server)
                print("TRACING", flush=True)
            elif command == "STOP":
                break
    finally:
        server.close()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "peak_rss_mb": common.vm_hwm_mb(),
        "invalidations": service.stats.invalidations,
        "rejected_429": server.metrics.rejected_429,
        "spans": tracer.dump() if tracer is not None else [],
    }
    Path(args.result).write_text(json.dumps(result))
    print("STOPPED", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
