"""The network front door: socket server, wire protocol, client driver.

MonetDB serves its shared kernel through the MAPI socket protocol —
many clients, one engine, result sets streamed in chunks.  This
package is the reproduction's equivalent layer on top of
:class:`repro.Database`:

* :mod:`repro.net.protocol` — a length-prefixed, CRC32-checksummed
  binary framing with a columnar batch codec (raw dtype bytes + NULL
  masks, the same representation the GDK kernel stores);
* :mod:`repro.net.server` — an asyncio TCP server whose accept loop
  hands each client a ``Database.connect()`` session; statements run
  on a thread pool unless they are small prepared reads, so the event
  loop never blocks on a query; per-session admission control, bounded
  pipelining and write-drain backpressure;
* :mod:`repro.net.client` — a thin synchronous driver reusing the
  PEP 249 ``Connection``/``Cursor`` surface, plus a small
  connection pool.

``repro.connect("repro://host:port")`` dispatches here.  The names
below resolve on first use (PEP 562), so importing
:mod:`repro.net.protocol` alone loads neither the server, the client
nor asyncio.
"""

import importlib

#: public name -> the submodule that defines it.
_EXPORTS = {
    "ConnectionPool": "client",
    "RemoteConnection": "client",
    "RemoteCursor": "client",
    "RemotePreparedStatement": "client",
    "connect_url": "client",
    "parse_url": "client",
    "DEFAULT_BATCH_ROWS": "protocol",
    "PROTOCOL_VERSION": "protocol",
    "DEFAULT_PORT": "server",
    "ReproServer": "server",
    "ServerThread": "server",
    "serve": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
