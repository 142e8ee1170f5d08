"""Command-line launcher: ``python -m repro.portal``.

Boots a complete portal (grid, distributor, stores, admin account) and
serves it over HTTP — the closest thing to the paper's
``grid.uhd.edu/~cluster`` deployment this reproduction offers.

    python -m repro.portal --port 8080 --root /srv/portal-homes \
        --admin-password s3cret --quota-mb 64 --small

Log in as ``admin`` and create accounts via ``POST /api/users`` (or the
PortalClient).  Ctrl-C stops the server.
"""

from __future__ import annotations

import argparse
import tempfile

from repro.cluster.spec import ClusterSpec
from repro.portal.app import make_default_app
from repro.portal.server import serve


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.portal",
        description="Serve the cluster computing portal over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8080, help="TCP port (default: %(default)s)")
    parser.add_argument(
        "--root", default=None,
        help="directory for user home directories (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--admin-password", default="admin-pass",
        help="password of the bootstrap 'admin' account (default: %(default)s)",
    )
    parser.add_argument(
        "--quota-mb", type=int, default=None,
        help="per-user disk quota in MiB (default: unlimited)",
    )
    parser.add_argument(
        "--small", action="store_true",
        help="use a small 2x4-node grid instead of the paper's 4x16",
    )
    parser.add_argument(
        "--users-file", default=None,
        help="JSON user store to load (created with UserStore.save); "
             "accounts persist across portal restarts",
    )
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    root = args.root or tempfile.mkdtemp(prefix="portal_homes_")
    spec = ClusterSpec.small(segments=2, slaves=4) if args.small else ClusterSpec.uhd_default()
    app = make_default_app(
        root,
        cluster_spec=spec,
        admin_password=args.admin_password,
        quota_bytes=args.quota_mb * 1024 * 1024 if args.quota_mb else None,
    )
    if args.users_file:
        from pathlib import Path

        from repro.portal.auth import UserStore

        if Path(args.users_file).exists():
            app.users = UserStore.load(args.users_file)
            print(f"loaded {len(app.users)} account(s) from {args.users_file}")
        else:
            app.users.save(args.users_file)
            print(f"created user store at {args.users_file}")
    grid = app.proxy.distributor.grid
    print(f"user homes: {root}")
    print(f"grid: {len(grid.segments)} segment(s), {grid.cores_total} cores")
    serve(app, host=args.host, port=args.port)


if __name__ == "__main__":
    main()
