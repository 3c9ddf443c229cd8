"""Command-line front end: ``python -m repro.obs <command> [options]``.

Examples::

    python -m repro.obs snapshot                  # serve demo traffic, emit
                                                  # the unified JSON document
    python -m repro.obs snapshot --requests 12 --indent 2
    python -m repro.obs trace                     # render one request's
                                                  # span tree as text
    python -m repro.obs trace --json --all

Both commands build a tiny warm-started serving stack in process
(:func:`repro.synth.harness.tiny_serving_stack` — random weights, no
training), drive real requests through a
:class:`~repro.serve.Server` inside :func:`~repro.obs.metrics.metrics_scope`
and :func:`~repro.obs.tracing.trace_requests` scopes, and print what the
instrumentation recorded.  ``snapshot`` output is validated against the
schema (:func:`~repro.obs.snapshot.validate_snapshot`) before printing.

Exit status: 0 on a completed run, 1 when the produced snapshot fails its
own validation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability for the serving stack: unified metrics "
                    "snapshots and per-request trace trees over a demo "
                    "serving workload.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    snapshot = commands.add_parser(
        "snapshot", help="serve demo traffic and emit the unified, "
                         "versioned JSON snapshot document")
    snapshot.add_argument("--seed", type=int, default=0,
                          help="demo workload seed (default 0)")
    snapshot.add_argument("--requests", type=int, default=8,
                          help="demo requests to serve (default 8)")
    snapshot.add_argument("--indent", type=int, default=2,
                          help="JSON indent (default 2)")

    trace = commands.add_parser(
        "trace", help="serve demo traffic and print per-request span trees")
    trace.add_argument("--seed", type=int, default=0,
                       help="demo workload seed (default 0)")
    trace.add_argument("--json", action="store_true",
                       help="emit stable-schema trace JSON instead of the "
                            "text tree")
    trace.add_argument("--all", action="store_true",
                       help="print every collected trace, not just the first")
    return parser


def _demo_stack(seed: int):
    """A warm-started (server, platform, sources) triple for demo traffic."""
    from ..serve import Server, ServerConfig
    from ..synth.harness import tiny_serving_stack

    session, platform, sources = tiny_serving_stack(seed)
    return Server(session, ServerConfig(max_batch_size=4)), platform, sources


def _cmd_snapshot(args: argparse.Namespace) -> int:
    import json

    from .metrics import metrics_scope
    from .snapshot import SnapshotError, validate_snapshot
    from .tracing import trace_requests

    server, platform, sources = _demo_stack(args.seed)
    try:
        with metrics_scope(), trace_requests():
            requests = [sources[index % len(sources)]
                        for index in range(max(args.requests, 1))]
            for source in requests:
                server.submit(source, platform).result(timeout=30.0)
            server.predict_batch(sources, platform)
            document = server.snapshot()
    finally:
        server.close()
    try:
        validate_snapshot(document)
    except SnapshotError as error:
        print(f"snapshot failed its own validation: {error}",
              file=sys.stderr)
        return 1
    print(json.dumps(document, indent=args.indent or None, sort_keys=True))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .tracing import trace_requests

    server, platform, sources = _demo_stack(args.seed)
    try:
        with trace_requests() as collector:
            for source in sources:
                server.submit(source, platform).result(timeout=30.0)
    finally:
        server.close()
    traces = collector.traces()
    if not traces:
        print("no traces collected", file=sys.stderr)
        return 1
    selected = traces if args.all else traces[:1]
    for trace in selected:
        print(trace.to_json(indent=2) if args.json else trace.render())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "snapshot":
        return _cmd_snapshot(args)
    if args.command == "trace":
        return _cmd_trace(args)
    parser.error("missing command (snapshot or trace)")
    return 2  # pragma: no cover - parser.error raises SystemExit


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
