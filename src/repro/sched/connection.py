"""An in-process client connection to one server.

:class:`ServerConnection` is the client a
:class:`~repro.sched.scheduler.MultiUserScheduler` session drives: its
``p_*`` methods call ``server.dispatch`` directly, so the scheduler
interleaves requests at the RPC boundary without charging any network.
It exposes the same session surface as
:class:`~repro.shard.client.ShardedInversionClient` (``xid_on``,
``in_transaction``, ``close``), plus ``fs`` and the open ``tx`` for
:class:`~repro.sched.scheduler.ClientOp` functions that drive the file
system directly.

With a ``cache_factory`` the connection carries a lease-coherent
:class:`~repro.cache.ClientCache` and serves eligible auto-commit
``p_stat``/``p_read`` requests from it.
"""

from __future__ import annotations

from functools import partial

#: sentinel distinguishing "cache couldn't serve" from a served None.
_CACHE_MISS = object()


class ServerConnection:
    """One session of ``server``, dispatched in-process."""

    def __init__(self, server, cache_factory=None) -> None:
        self.server = server
        self.fs = server.fs
        self.conn: int | None = server.connect()
        #: per-session :class:`~repro.cache.ClientCache`, or None.
        self.cache = (cache_factory(server, self.conn)
                      if cache_factory is not None else None)

    @property
    def tx(self):
        """The session's open transaction, or None."""
        return self.server._sessions[self.conn]._tx

    def xid_on(self, shard: int) -> int | None:
        tx = self.tx
        return tx.xid if tx is not None else None

    def in_transaction(self) -> bool:
        return self.tx is not None

    def close(self) -> None:
        """Disconnect (aborting any open transaction) and revoke the
        cache.  Idempotent."""
        if self.conn is not None:
            self.server.disconnect(self.conn)
            self.conn = None
        if self.cache is not None:
            self.cache.revoke()

    def __getattr__(self, method: str):
        if method.startswith("p_"):
            return partial(self.call, method)
        raise AttributeError(method)

    def call(self, method: str, *args, **kwargs):
        """Dispatch one request, through the cache when there is one."""
        cache = self.cache
        if cache is None:
            return self.server.dispatch(self.conn, method, *args, **kwargs)
        served = self._try_cache(cache, method, args, kwargs)
        if served is not _CACHE_MISS:
            return served
        seq = cache.inval_seq
        try:
            result = self.server.dispatch(self.conn, method, *args, **kwargs)
        finally:
            if not cache.revoked:
                cache.poll()
        self._cache_fill(cache, method, args, kwargs, result, seq)
        return result

    def _try_cache(self, cache, method: str, args: tuple, kwargs: dict):
        """Serve an eligible auto-commit p_stat/p_read from the cache.
        Negative (ENOENT) entries are never served here — a raise out of
        a slice would fail the session — and transactional requests
        always reach the server."""
        if cache.revoked:
            return _CACHE_MISS
        server_session = self.server._sessions[self.conn]
        if server_session._tx is not None:
            return _CACHE_MISS
        cache.poll()
        if cache.revoked:
            return _CACHE_MISS
        if method == "p_stat":
            timestamp = args[1] if len(args) > 1 else kwargs.get("timestamp")
            if timestamp is not None:
                return _CACHE_MISS
            oid = cache.lookup_oid(args[0])
            if oid is not None:
                att = cache.lookup_att(oid)
                if att is not None:
                    cache.stats.hit("att")
                    return att
            cache.stats.miss("att")
            return _CACHE_MISS
        if method == "p_read":
            fd, length = args[0], args[1]
            desc = server_session._fds.get(fd)
            if (desc is None or desc.timestamp is not None
                    or not isinstance(length, int) or length <= 0):
                return _CACHE_MISS
            served = cache.serve_read(desc.fileid, desc.pos, length)
            if served is None:
                cache.stats.miss("chunk")
                return _CACHE_MISS
            data, owners = served
            acct = self.fs.db.obs.tx
            for owner in owners:
                cache.stats.hit("chunk")
                if owner is not None:
                    acct.charge_xid(owner, "client_cache_hits")
            # The server-side descriptor is the authoritative position;
            # a cache-served read advances it exactly as the dispatch
            # would have.
            desc.pos += len(data)
            return data
        return _CACHE_MISS

    def _cache_fill(self, cache, method: str, args: tuple, kwargs: dict,
                    result, seq: int) -> None:
        """Populate the cache from a successful dispatch — only if no
        invalidation notice landed while the request ran (lock parks
        let other sessions commit mid-request)."""
        if cache.revoked or cache.inval_seq != seq:
            return
        server_session = self.server._sessions.get(self.conn)
        if server_session is None or server_session._tx is not None:
            return
        if method == "p_stat":
            timestamp = args[1] if len(args) > 1 else kwargs.get("timestamp")
            if timestamp is None and result is not None:
                cache.fill_path(args[0], result.file)
                cache.fill_att(result.file, result)
        elif method == "p_read":
            desc = server_session._fds.get(args[0])
            if (desc is not None and desc.timestamp is None
                    and isinstance(result, (bytes, bytearray)) and result):
                cache.fill_read(desc.fileid, desc.pos - len(result),
                                bytes(result), server_session.last_xid)
