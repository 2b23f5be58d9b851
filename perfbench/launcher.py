"""Entry point of every process the benchmark launches.

Usage (the benchmark builds the spec)::

    python3 perfbench/launcher.py '<json spec>'

The spec names a ``role``:

``daemon``
    ``ClusterService(repository, ServiceConfig())`` — the object
    ``repro serve`` builds, at its defaults (serial backend).
``router``
    ``RouterDaemon(PlacementMap.create(nodes, num_shards, replication),
    RouterConfig())`` — what ``repro route serve`` builds, at defaults.
``cluster``
    ``SpecHDPipeline(SpecHDConfig())`` — ``repro cluster`` at its CLI
    defaults — answering ``run`` commands over stdin with
    ``run_files``.

With ``"traced": true`` the layer wrappers of :mod:`tracing` are
installed before the program object is built, and every span is written
to ``span_path`` on shutdown.  The launcher talks to the benchmark with
``PERFBENCH <json>`` lines on stdout and JSON commands on stdin; a
``stop`` command (or end of stdin) shuts it down.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _say(message: dict) -> None:
    sys.stdout.write("PERFBENCH " + json.dumps(message) + "\n")
    sys.stdout.flush()


def _commands():
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        command = json.loads(line)
        if command.get("op") == "stop":
            return
        yield command


def _serve_daemon(spec: dict) -> None:
    from repro.service import ClusterService, ServiceConfig

    service = ClusterService(spec["repository"], ServiceConfig())
    try:
        service.start()
        _say({"ready": True, "port": service.port, "pid": os.getpid()})
        for _command in _commands():
            pass
    finally:
        service.stop()


def _serve_router(spec: dict) -> None:
    from repro.fleet import NodeInfo, PlacementMap, RouterConfig, RouterDaemon

    nodes = [NodeInfo(name, host, port) for name, host, port in spec["nodes"]]
    placement = PlacementMap.create(
        nodes, num_shards=spec["num_shards"], replication=spec["replication"]
    )
    router = RouterDaemon(placement, RouterConfig())
    try:
        router.start()
        _say({"ready": True, "port": router.port, "pid": os.getpid()})
        for _command in _commands():
            pass
    finally:
        router.stop()


def _serve_cluster(spec: dict) -> None:
    from repro.pipeline import SpecHDConfig, SpecHDPipeline

    pipeline = SpecHDPipeline(SpecHDConfig())
    _say({"ready": True, "pid": os.getpid()})
    for command in _commands():
        result = pipeline.run_files(command["paths"])
        labels = result.labels_for_input(int(command["total"]))
        _say({"labels": labels.tolist()})


ROLES = {
    "daemon": _serve_daemon,
    "router": _serve_router,
    "cluster": _serve_cluster,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("traced"):
        tracer = tracing.Tracer()
        tracing.INSTALLERS[spec["role"]](tracer)
    try:
        ROLES[spec["role"]](spec)
    finally:
        if tracer is not None:
            tracer.dump(spec["span_path"])
    _say({"done": True})


if __name__ == "__main__":
    main()
