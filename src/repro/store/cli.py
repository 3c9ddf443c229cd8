"""``python -m repro.store`` — save / load / inspect / verify artifacts.

Examples::

    # train a session from a config JSON and persist the model set
    python -m repro.store save artifacts/paragraph --config tiny.json

    # integrity check: schema, versions, checksums, dtypes, finiteness
    python -m repro.store verify artifacts/paragraph

    # provenance and per-model summary (add --json for machine output)
    python -m repro.store inspect artifacts/paragraph

    # zero-retrain warm start + an optional smoke prediction
    python -m repro.store load artifacts/paragraph \
        --source kernel.c --platform v100 --teams 64 --threads 64

``verify`` exits non-zero on any problem, so it slots into CI directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .artifact import inspect_artifact, load_session, save_session, verify_artifact
from .manifest import StoreError

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Model artifact store: save, load, inspect, verify.")
    commands = parser.add_subparsers(dest="command", required=True)

    save = commands.add_parser(
        "save", help="train a session (from --config JSON or defaults) and "
                     "save its model set")
    save.add_argument("path", help="artifact directory to create")
    save.add_argument("--config", metavar="JSON",
                      help="path to a ReproConfig JSON (default: paper config)")
    save.add_argument("--name", default="session", help="artifact name")
    save.add_argument("--overwrite", action="store_true",
                      help="replace an existing artifact")

    load = commands.add_parser(
        "load", help="warm-start a session from an artifact (no retraining) "
                     "and optionally smoke-predict one source")
    load.add_argument("path", help="artifact directory")
    load.add_argument("--source", metavar="FILE",
                      help="C/OpenMP source file to predict")
    load.add_argument("--platform", default=None,
                      help="platform name/alias for --source (default: first "
                           "stored platform)")
    load.add_argument("--teams", type=int, default=64)
    load.add_argument("--threads", type=int, default=64)
    load.add_argument("--no-verify", action="store_true",
                      help="skip payload checksum verification")

    inspect = commands.add_parser(
        "inspect", help="print manifest provenance and per-model summary")
    inspect.add_argument("path", help="artifact directory")
    inspect.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output")

    verify = commands.add_parser(
        "verify", help="full integrity check; non-zero exit on any problem")
    verify.add_argument("path", help="artifact directory")
    return parser


def _cmd_save(args) -> int:
    from ..api.config import ReproConfig
    from ..api.session import Session

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if isinstance(payload, dict):
                # ReproConfig.from_dict tolerates missing keys (defaults),
                # so a typo'd top-level key would silently train the full
                # paper defaults for minutes; fail in milliseconds instead
                known = {"data", "graph", "model", "training",
                         "train_fraction", "seed"}
                unknown = set(payload) - known
                if unknown:
                    raise StoreError(
                        f"invalid --config {args.config}: unknown keys "
                        f"{sorted(unknown)}; known keys: {sorted(known)}")
            config = ReproConfig.from_dict(payload)
        except (ValueError, TypeError) as error:
            raise StoreError(
                f"invalid --config {args.config}: {error}") from error
    else:
        config = ReproConfig()
    session = Session(config)
    started = time.perf_counter()
    session.train()
    trained_s = time.perf_counter() - started
    path = save_session(session, args.path, name=args.name,
                        overwrite=args.overwrite)
    summary = inspect_artifact(path)
    print(f"trained {len(summary['models'])} platform model(s) in "
          f"{trained_s:.1f}s")
    print(f"saved {path} ({summary['size_bytes']} bytes)")
    for entry in summary["models"]:
        print(f"  {entry['name']}: {entry['num_parameters']} parameters "
              f"-> {entry['weights']}")
    return 0


def _cmd_load(args) -> int:
    started = time.perf_counter()
    session = load_session(args.path, verify=not args.no_verify)
    try:
        loaded_s = time.perf_counter() - started
        platforms = sorted(session.train())
        print(f"warm-started session from {args.path} in "
              f"{loaded_s * 1000:.1f}ms (no retraining)")
        print(f"platforms: {platforms}")
        if args.source:
            with open(args.source, "r", encoding="utf-8") as handle:
                source = handle.read()
            platform = args.platform or platforms[0]
            try:
                runtime = session.predict(source, platform,
                                          num_teams=args.teams,
                                          num_threads=args.threads)
            except KeyError as error:
                raise StoreError(error.args[0] if error.args
                                 else str(error)) from error
            except Exception as error:
                # --source is user input: parse/build failures are expected
                raise StoreError(
                    f"cannot predict --source {args.source}: "
                    f"{type(error).__name__}: {error}") from error
            print(f"predicted runtime on {platform}: {runtime:.3f} us "
                  f"(teams={args.teams}, threads={args.threads})")
    finally:
        session.close()
    return 0


def _cmd_inspect(args) -> int:
    summary = inspect_artifact(args.path)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"{summary['kind']} artifact {summary['name']!r} at {summary['path']}")
    print(f"  schema {summary['schema_version']}, written by repro "
          f"{summary['repro_version']} at {summary['created_at']}")
    print(f"  seed {summary['seed']}, dataset fingerprint "
          f"{summary['dataset_fingerprint'] or '(none)'}")
    print(f"  {summary['size_bytes']} bytes on disk")
    for entry in summary["models"]:
        metrics = ", ".join(f"{key}={value:.4g}"
                            for key, value in sorted(entry["metrics"].items()))
        print(f"  model {entry['name']}: {entry['num_parameters']} parameters"
              + (f" ({metrics})" if metrics else ""))
    return 0


def _cmd_verify(args) -> int:
    report = verify_artifact(args.path)
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"save": _cmd_save, "load": _cmd_load,
               "inspect": _cmd_inspect, "verify": _cmd_verify}[args.command]
    try:
        return handler(args)
    except (StoreError, OSError) as error:
        # expected-failure paths only (bad artifacts, bad inputs, I/O);
        # the subcommands wrap malformed --config and unknown --platform
        # into StoreError themselves, so genuine bugs keep their traceback
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
