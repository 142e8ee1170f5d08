"""Message bus + RPC boundary between portal front-ends and the cluster.

The scale-out architecture (DESIGN §13) splits the portal into N
front-end workers that drive one cluster back-end through an explicit
messaging boundary:

* :mod:`repro.bus.core` — the thread-safe :class:`MessageBus` over the
  in-memory backend (or any object with the same methods);
* :mod:`repro.bus.rpc` — RPC on the bus's request/reply primitive, run
  on the caller's thread: JSON wire codec, one-at-a-time handlers,
  timeouts, remote-error propagation;
* :mod:`repro.bus.service` — :class:`ClusterBackendService`, the
  back-end service wrapping one :class:`JobDistributor`;
* :mod:`repro.bus.proxy` — :class:`ClusterProxy`, the typed client
  stub each front-end worker uses instead of holding the distributor.
"""

from repro._errors import BusError, RpcRemoteError, RpcTimeout
from repro.bus.core import InMemoryBackend, MessageBus
from repro.bus.proxy import ClusterProxy
from repro.bus.rpc import RpcClient, RpcServer, decode_wire, encode_wire
from repro.bus.service import ClusterBackendService

__all__ = [
    "BusError",
    "ClusterBackendService",
    "ClusterProxy",
    "InMemoryBackend",
    "MessageBus",
    "RpcClient",
    "RpcRemoteError",
    "RpcServer",
    "RpcTimeout",
    "decode_wire",
    "encode_wire",
]
