"""Execution substrates: persistent engine sessions, transports, the one-shot
runner, and the centralized reference semantics."""

from .asyncio_tcp import AsyncioTCPTransport
from .central import CentralBackend, CentralOp, localize_return, run_centralized
from .engine import CLOSE_DEADLINE_CAP, ChoreoEngine, ChoreographyResult
from .local import LocalTransport
from .registry import BACKENDS, create_backend
from .runner import run_choreography
from .simulated import SimulatedNetworkTransport
from .stats import ChannelStats
from .tcp import TCPTransport
from .transport import DEFAULT_TIMEOUT, Transport, TransportEndpoint, deserialize, serialize

__all__ = [
    "AsyncioTCPTransport",
    "BACKENDS",
    "CLOSE_DEADLINE_CAP",
    "CentralBackend",
    "CentralOp",
    "ChannelStats",
    "ChoreoEngine",
    "ChoreographyResult",
    "DEFAULT_TIMEOUT",
    "LocalTransport",
    "SimulatedNetworkTransport",
    "TCPTransport",
    "Transport",
    "TransportEndpoint",
    "create_backend",
    "deserialize",
    "localize_return",
    "run_centralized",
    "run_choreography",
    "serialize",
]
