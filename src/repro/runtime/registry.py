"""The table of execution backends: a name → factory dict.

:class:`~repro.runtime.engine.ChoreoEngine` and
:func:`~repro.runtime.runner.run_choreography` resolve a backend name here.
A factory is any callable ``factory(census, timeout=..., **options)``
returning a :class:`~repro.runtime.transport.Transport` or a
:class:`~repro.runtime.central.CentralBackend`; the transport classes
themselves are factories.  Plugging in a backend is one assignment,
``BACKENDS["mine"] = MyTransport`` — or pass a pre-built ``Transport`` to
the engine.  Extra keyword options are forwarded verbatim (e.g.
``latency=`` / ``bandwidth=`` for ``"simulated"``, ``faults=`` — a
:class:`repro.faults.FaultPlan` — for ``"simulated"``, ``"tcp"``, and
``"asyncio"``; see ``docs/testing.md``).
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from ..core.locations import LocationsLike
from .asyncio_tcp import AsyncioTCPTransport
from .central import CentralBackend
from .local import LocalTransport
from .simulated import SimulatedNetworkTransport
from .tcp import TCPTransport
from .transport import DEFAULT_TIMEOUT, Transport

#: Anything a backend factory may produce.
Backend = Union[Transport, CentralBackend]

BackendFactory = Callable[..., Backend]

#: Backend name → factory.
BACKENDS: Dict[str, BackendFactory] = {
    "local": LocalTransport,
    "tcp": TCPTransport,
    "asyncio": AsyncioTCPTransport,
    "simulated": SimulatedNetworkTransport,
    "central": CentralBackend,
}


def create_backend(
    name: str,
    census: LocationsLike,
    *,
    timeout: float = DEFAULT_TIMEOUT,
    **options: object,
) -> Backend:
    """Instantiate the backend registered under ``name`` for ``census``."""
    try:
        factory = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown transport/backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None
    return factory(census, timeout=timeout, **options)
