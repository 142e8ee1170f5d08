"""Message bus + RPC boundary between portal front-ends and the cluster.

The scale-out architecture (DESIGN §13) splits the portal into N
front-end workers that drive one cluster back-end through an explicit
messaging boundary:

* :mod:`repro.bus.core` — the thread-safe :class:`MessageBus` over the
  in-memory backend (or any object with the same methods);
* :mod:`repro.bus.rpc` — RPC on the bus's request/reply primitive, run
  on the caller's thread: JSON wire codec, one-at-a-time handlers,
  timeouts, remote-error propagation;
* :mod:`repro.bus.service` — :class:`LocalCluster`, the cluster port
  over one in-process :class:`JobDistributor` (and the single ownership
  check), whose typed signatures are the port's one declaration; the
  ``CLUSTER_PORT`` table of RPC names; and :class:`ClusterBackendService`,
  which serves every table entry through one generic handler that checks
  the wire parameters against those types;
* :mod:`repro.bus.proxy` — :class:`ClusterProxy`, the same port as
  RPCs, its stubs generated from the same table: what each front-end
  worker holds instead of the distributor.
"""

from repro._errors import BusError, RpcRemoteError, RpcTimeout
from repro.bus.core import InMemoryBackend, MessageBus
from repro.bus.proxy import ClusterProxy
from repro.bus.rpc import RpcClient, RpcServer, decode_wire, encode_wire
from repro.bus.service import ClusterBackendService, LocalCluster

__all__ = [
    "BusError",
    "ClusterBackendService",
    "ClusterProxy",
    "InMemoryBackend",
    "LocalCluster",
    "MessageBus",
    "RpcClient",
    "RpcRemoteError",
    "RpcServer",
    "RpcTimeout",
    "decode_wire",
    "encode_wire",
]
