"""The cluster computing portal (the paper's primary artefact).

A WSGI web application — written on the standard library, since the
reproduction environment ships no web framework — implementing every
requirement Section II lists:

* *user distinction through authentication* —
  :mod:`~repro.portal.auth` (PBKDF2 passwords, roles) +
  :mod:`~repro.portal.sessions` (signed cookies);
* *facilities for file manipulation* — :mod:`~repro.portal.files`
  (browse, upload, download, edit, copy, move, rename, delete inside a
  per-user home, with path-traversal protection);
* *compilation and execution of user programs on the cluster* —
  :mod:`~repro.portal.jobsvc` gluing the toolchain registry to the
  cluster port;
* *monitoring the standard streams, and ... input* — offset-polling
  output endpoints and an interactive stdin endpoint.

:class:`~repro.portal.app.PortalApp` wires it all into one WSGI callable
that reaches the cluster through a *cluster port*: an in-process
:class:`~repro.bus.service.LocalCluster` in the monolith
(:func:`~repro.portal.app.make_default_app`), or a
:class:`~repro.bus.proxy.ClusterProxy` over the bus in each worker of a
scale-out :class:`~repro.portal.frontend.FrontendFleet`.
:class:`~repro.portal.client.PortalClient` consumes the JSON API either
in-process (tests) or over real HTTP (:mod:`~repro.portal.server`).
"""

from repro.portal.http import HttpError, Request, Response
from repro.portal.respcache import CachedResponse, ResponseCache
from repro.portal.routing import Router
from repro.portal.sessions import SessionStore
from repro.portal.auth import User, UserStore
from repro.portal.files import FileManager
from repro.portal.jobsvc import JobService
from repro.portal.admission import AdmissionController, AdmissionDecision
from repro.portal.app import PortalApp, make_default_app
from repro.portal.frontend import FrontendFleet, SessionReplicator
from repro.portal.client import PortalClient
from repro.portal.server import serve, start_fleet

__all__ = [
    "Request",
    "Response",
    "HttpError",
    "Router",
    "ResponseCache",
    "CachedResponse",
    "SessionStore",
    "User",
    "UserStore",
    "FileManager",
    "JobService",
    "AdmissionController",
    "AdmissionDecision",
    "PortalApp",
    "make_default_app",
    "FrontendFleet",
    "SessionReplicator",
    "PortalClient",
    "serve",
    "start_fleet",
]
