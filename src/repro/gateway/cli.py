"""``python -m repro.gateway`` — run the ingestion gateway from the shell.

Examples
--------
Serve with dynamic tenants, two shards each, drop-oldest admission::

    python -m repro.gateway --port 8876 --shards 2 --policy drop_oldest

Serve a static tenant map from a JSON config file::

    python -m repro.gateway --config gateway.json

The config file mirrors :class:`~repro.gateway.server.GatewayConfig`::

    {
      "host": "0.0.0.0",
      "port": 8876,
      "allow_dynamic_tenants": false,
      "vocabularies": {"basic": "examples/vocabularies/basic_gestures.json"},
      "default_tenant": {"policy": "block", "pending_capacity": 4096},
      "tenants": {
        "arcade": {
          "token": "s3cret",
          "policy": "drop_newest",
          "pending_capacity": 8192,
          "max_connections": 128,
          "rate_limit_tuples_per_second": 50000,
          "session": {"shards": 4, "queue_capacity": 4096, "analyze": "strict"}
        }
      }
    }
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.api.session import SessionConfig
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.gateway.tenants import BackpressurePolicy, TenantConfig

__all__ = ["main", "build_config", "tenant_config_from_dict"]

#: SessionConfig fields settable from a config file (the composed
#: matcher/transform/workflow configs stay at their defaults — the
#: gateway is an ingestion front door, not a learning workbench).
_SESSION_FIELDS = (
    "database_path",
    "batch_size",
    "shards",
    "shard_executor",
    "queue_capacity",
    "analyze",
)

_TENANT_FIELDS = (
    "token",
    "policy",
    "pending_capacity",
    "max_connections",
    "rate_limit_tuples_per_second",
    "rate_burst",
)


def tenant_config_from_dict(data: Mapping[str, Any]) -> TenantConfig:
    """Build a :class:`TenantConfig` from its JSON representation."""
    unknown = set(data) - set(_TENANT_FIELDS) - {"session"}
    if unknown:
        raise ValueError(f"unknown tenant config keys: {sorted(unknown)}")
    session_data = data.get("session", {})
    unknown = set(session_data) - set(_SESSION_FIELDS)
    if unknown:
        raise ValueError(f"unknown session config keys: {sorted(unknown)}")
    session = SessionConfig(**dict(session_data))
    kwargs = {key: data[key] for key in _TENANT_FIELDS if key in data}
    return TenantConfig(session=session, **kwargs)


def build_config(args: argparse.Namespace) -> GatewayConfig:
    """Merge the config file (when given) with the command-line flags."""
    data: Dict[str, Any] = {}
    if args.config:
        with Path(args.config).open("r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
    tenants = {
        name: tenant_config_from_dict(tenant_data)
        for name, tenant_data in data.get("tenants", {}).items()
    }
    default_data = dict(data.get("default_tenant", {}))
    session_data = dict(default_data.get("session", {}))
    # Flags override the file for the default-tenant template.
    if args.shards is not None:
        session_data["shards"] = args.shards
    if args.analyze is not None:
        session_data["analyze"] = args.analyze
    if session_data:
        default_data["session"] = session_data
    if args.policy is not None:
        default_data["policy"] = args.policy
    if args.pending_capacity is not None:
        default_data["pending_capacity"] = args.pending_capacity
    if args.rate_limit is not None:
        default_data["rate_limit_tuples_per_second"] = args.rate_limit
    default_tenant = tenant_config_from_dict(default_data)
    vocabularies = dict(data.get("vocabularies", {}))
    for item in args.vocabulary or ():
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise ValueError(f"--vocabulary expects NAME=PATH, got {item!r}")
        vocabularies[name] = path
    allow_dynamic = data.get("allow_dynamic_tenants", True)
    if args.no_dynamic_tenants:
        allow_dynamic = False
    return GatewayConfig(
        host=args.host or data.get("host", "127.0.0.1"),
        port=args.port if args.port is not None else data.get("port", 8876),
        tenants=tenants,
        allow_dynamic_tenants=allow_dynamic,
        default_tenant=default_tenant,
        vocabularies=vocabularies,
        max_message_bytes=data.get("max_message_bytes", 1 << 20),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Multi-tenant websocket/HTTP ingestion gateway for the "
        "gesture-detection runtime.",
    )
    parser.add_argument("--config", help="JSON gateway config file")
    parser.add_argument("--host", help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, help="bind port (0 = ephemeral)")
    parser.add_argument(
        "--shards", type=int, help="worker shards per dynamic tenant session"
    )
    parser.add_argument(
        "--policy",
        choices=BackpressurePolicy.ALL,
        help="edge admission policy of dynamic tenants",
    )
    parser.add_argument(
        "--pending-capacity", type=int, help="pending-tuple bound per dynamic tenant"
    )
    parser.add_argument(
        "--rate-limit", type=float, help="tuples/second cap per dynamic tenant"
    )
    parser.add_argument(
        "--analyze",
        choices=("off", "warn", "strict"),
        help="static-analyzer deployment gate of dynamic tenants",
    )
    parser.add_argument(
        "--vocabulary",
        action="append",
        metavar="NAME=PATH",
        help="register a deployable vocabulary (JSON manifest or gesture DB); repeatable",
    )
    parser.add_argument(
        "--no-dynamic-tenants",
        action="store_true",
        help="refuse hellos for tenants missing from the config",
    )
    return parser


async def _serve(config: GatewayConfig) -> None:
    server = GatewayServer(config)
    await server.start()
    print(
        f"repro.gateway listening on ws://{config.host}:{server.port} "
        f"(tenants: {', '.join(sorted(config.tenants)) or 'dynamic'})",
        file=sys.stderr,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
