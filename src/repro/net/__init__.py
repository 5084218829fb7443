"""The network edge: a real front door on the serving gateway.

Everything before this package answered queries in-process; this package
puts the :class:`~repro.serving.gateway.ServingGateway` behind a socket:

* :mod:`repro.net.protocol` — the length-prefixed JSON wire protocol:
  framing, the label/score codecs (int / str / nested-tuple vertex labels
  round-trip exactly), the typed error mapping for the full
  :mod:`repro.errors` hierarchy, the protocol-version handshake, and the
  minimal RFC 6455 WebSocket helpers the server shares with its tests.
* :mod:`repro.net.server` — :class:`EgoServer`: one asyncio listener
  speaking the native framed protocol, plain HTTP (``/healthz``,
  ``/metrics``, ``POST /v1/query``) and WebSocket (``GET /ws``) on the
  same port, with per-request deadline propagation, admission control
  (connection + per-tenant inflight caps) and a bounded SIGTERM/SIGINT
  drain.
* :mod:`repro.net.client` — :class:`EgoClient`: a pooled async client
  with retry-on-idempotent-read semantics and streaming scores iteration.

Everything is pure standard library — no HTTP framework, no websocket
package — so the front door deploys wherever the kernels do.  ``python -m
repro serve --http HOST:PORT`` runs it; ``perfbench/run.py`` measures it
end to end.
"""

from repro.net.client import EgoClient
from repro.net.server import EgoServer, ServerStats

__all__ = ["EgoClient", "EgoServer", "ServerStats"]
