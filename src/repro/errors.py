"""Exception hierarchy for the ``repro`` (ego-betweenness) library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """Base class for graph-structure related errors."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex) -> None:
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"vertex {self.vertex!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u, v) -> None:
        super().__init__((u, v))
        self.edge = (u, v)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"edge {self.edge!r} is not in the graph"


class EdgeExistsError(GraphError, ValueError):
    """Raised when inserting an edge that already exists."""

    def __init__(self, u, v) -> None:
        super().__init__((u, v))
        self.edge = (u, v)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"edge {self.edge!r} already exists"


class SelfLoopError(GraphError, ValueError):
    """Raised when a self-loop edge (u, u) is supplied.

    The ego-betweenness model of the paper is defined on simple graphs; a
    self-loop has no meaning in an ego network and is rejected eagerly.
    """

    def __init__(self, vertex) -> None:
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"self-loops are not allowed (vertex {self.vertex!r})"


class BackendCapabilityError(ReproError, RuntimeError):
    """Raised when an operation is not available on the negotiated backend.

    Example: calling :meth:`repro.session.EgoSession.apply` on a session that
    was constructed with ``auto_promote=False`` — the frozen snapshot cannot
    absorb updates and the session refuses the static→dynamic promotion the
    caller opted out of.  The message always names the operation, the
    backend, and the remediation.
    """


class InvalidParameterError(ReproError, ValueError):
    """Raised when an algorithm receives an out-of-range parameter.

    Examples: ``k < 1`` in a top-k search, ``theta < 1`` in OptBSearch, a
    non-positive worker count in the parallel engines.
    """


class WorkerFaultError(ReproError, RuntimeError):
    """Base class for serving-plane execution-infrastructure failures.

    Everything under this class means *the machinery* (worker processes,
    shared-memory transport, task scheduling) failed — not the query.  The
    computation itself is pure and idempotent, so callers holding a serial
    code path can always re-answer bit-identically: ``EgoSession`` catches
    this base class and falls back to its serial kernels.
    """


class PoolBrokenError(WorkerFaultError):
    """Raised when the worker pool cannot accept or complete tasks.

    Covers failed submissions to a terminated/torn pool and respawn
    failures.  The supervising runtime normally respawns the pool and
    retries before letting this escape.
    """


class PoolStateError(WorkerFaultError):
    """Raised when a pool operation is invalid in the pool's current state.

    The message always names the state (``"new"`` — never started,
    ``"running"``, or ``"closed"``) so a ``submit`` on a closed or
    never-started pool fails loudly instead of surfacing as an opaque
    ``AttributeError`` or a hang.
    """


class PayloadIntegrityError(WorkerFaultError):
    """Raised when a worker attaches a torn/corrupt shared-memory payload.

    Every shipped segment carries a ``(magic, lengths, checksum)`` header;
    a mismatch means the segment was torn or corrupted and must be
    unlinked and re-shipped, never cast and dereferenced.
    """


class PayloadEvictedError(WorkerFaultError, KeyError):
    """Raised when acquiring a payload-store key that is not resident.

    The key was either evicted (its last holder released it) or never
    shipped; the message names the key and the resident keys.
    """

    def __init__(self, key, resident=()) -> None:
        super().__init__(key)
        self.key = key
        self.resident = tuple(resident)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"payload key {self.key!r} is not resident (evicted or never "
            f"shipped); resident keys: {list(self.resident)!r}"
        )


class InjectedFaultError(WorkerFaultError):
    """Raised by the fault-injection harness (:mod:`repro.faults`).

    Marks a *deliberate* failure injected by an active
    :class:`~repro.faults.FaultPlan`; the supervision layer treats it as
    transient (retry), exactly like a real worker fault.
    """


class GatewayError(ReproError):
    """Base class for serving-gateway failures."""


class GatewayClosedError(GatewayError, RuntimeError):
    """Raised when a request reaches a gateway that has been closed."""


class GatewayOverloadedError(GatewayError, RuntimeError):
    """Raised when a tenant's pending-request queue is full (back-pressure).

    The gateway sheds load instead of buffering without bound: callers
    should retry with back-off or route to another replica.  The message
    names the tenant and the configured ``max_pending``.
    """


class RequestTimeoutError(GatewayError, TimeoutError):
    """Raised when a gateway request missed its per-request deadline.

    The computation may still complete and warm the tenant's memo, but the
    caller has been released: a deadline bounds *waiting*, not work.
    """


class NetworkError(ReproError):
    """Base class for network-edge failures (wire protocol, server, client)."""


class ProtocolError(NetworkError, ValueError):
    """Raised when a wire frame or message violates the protocol.

    Covers malformed frames (bad length word, oversized frame, non-JSON
    payload), messages missing required fields, labels that cannot be
    represented on the wire, and protocol-version handshake mismatches.
    The connection that produced it is not trustworthy and is closed.
    """


class RemoteError(NetworkError, RuntimeError):
    """A server-side failure whose exception type has no local mapping.

    The wire protocol ships errors as ``(type, message)``; when the type
    names a class the client build does not know (or one that cannot be
    reconstructed from its message alone), the client raises this instead,
    with the original type name and message preserved in the text.
    """


class ClientConnectionError(NetworkError, ConnectionError):
    """Raised when the client cannot reach (or lost) the server.

    Idempotent reads are retried on a fresh pooled connection before this
    escapes; mutations (``apply``) are never retried — a lost acknowledgement
    must surface, not be replayed.
    """


class UnknownTenantError(GatewayError, KeyError):
    """Raised when a request names a tenant the gateway does not serve."""

    def __init__(self, tenant_id) -> None:
        super().__init__(tenant_id)
        self.tenant_id = tenant_id

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"no tenant {self.tenant_id!r} is registered with this gateway"


class DatasetError(ReproError):
    """Raised when a named dataset cannot be located or generated."""


class DurabilityError(ReproError, RuntimeError):
    """Base class for durability-plane failures (WAL, checkpoints, recovery).

    Everything under this class concerns the *persistence machinery* — the
    write-ahead log, the checkpoint store, and the recovery path — never the
    query results themselves.
    """


class WalCorruptionError(DurabilityError):
    """Raised when the write-ahead log contains a corrupt record.

    A *torn tail* (an interrupted final write) is **not** corruption — replay
    silently truncates it, because a crash mid-append is exactly the event the
    log exists to survive.  This error means a record that was fully written
    fails its CRC, carries an impossible length, or sits *before* later valid
    data — bit rot or an overwritten region, which recovery must refuse to
    replay rather than guess at.  The message always carries the segment path,
    the byte offset of the bad record, and the reason.
    """

    def __init__(self, path, offset: int, reason: str) -> None:
        super().__init__(path, offset, reason)
        self.path = str(path)
        self.offset = int(offset)
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - trivial
        return (
            f"corrupt WAL record in {self.path!r} at byte offset "
            f"{self.offset}: {self.reason}"
        )


class CheckpointCorruptionError(DurabilityError):
    """Raised when a checkpoint file fails its self-verification.

    Every checkpoint carries a ``(magic, payload length, checksum)`` header
    written *before* an atomic rename publishes the file; a mismatch means
    the file was corrupted after publication (or is not a checkpoint at
    all).  ``CheckpointStore.latest()`` skips such files and falls back to
    the newest valid one; this error only escapes from a direct ``load``.
    """

    def __init__(self, path, reason: str) -> None:
        super().__init__(path, reason)
        self.path = str(path)
        self.reason = reason

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"corrupt checkpoint {self.path!r}: {self.reason}"


class RecoveryError(DurabilityError):
    """Raised when a durability directory cannot be recovered into a session.

    Examples: the directory holds no valid checkpoint (so there is no base
    state to replay onto), or durability was requested on a directory that
    already contains a history (which must go through ``recover()`` instead
    of being silently overwritten).
    """


class GraphFormatError(ReproError, ValueError):
    """Raised when parsing an edge-list / SNAP file fails."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        super().__init__(message)
        self.line_number = line_number

    def __str__(self) -> str:  # pragma: no cover - trivial
        base = super().__str__()
        if self.line_number is None:
            return base
        return f"{base} (line {self.line_number})"
