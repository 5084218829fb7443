"""Async serving layer: the multi-tenant micro-batching gateway.

The ingress the execution stack was built to feed: an :mod:`asyncio`
gateway (:class:`~repro.serving.gateway.ServingGateway`) accepts concurrent
``score`` / ``scores`` / ``top_k`` requests for any number of registered
tenants (one :class:`~repro.session.EgoSession` each), coalesces each
tenant's requests inside a small time/size micro-batch window into single
:meth:`~repro.session.EgoSession.scores_batch` passes, and streams the
answers back — while every tenant's parallel work rides one shared
:class:`~repro.parallel.runtime.WorkerPool` and ships its CSR payload into
one shared :class:`~repro.parallel.runtime.PayloadStore` keyed by
``(graph_id, version)``.

:mod:`repro.net` puts the gateway behind a socket; load is measured from
outside the package, by ``perfbench/run.py`` and the gate files under
``benchmarks/``.
"""

from repro.serving.gateway import GatewayStats, ServingGateway

__all__ = ["ServingGateway", "GatewayStats"]
