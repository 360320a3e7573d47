//! [`NetClient`]: the TCP side of the [`Transport`] trait.
//!
//! A client holds a small pool of connections to one server. Group
//! fetches become `Fetch` frames; [`Transport::fetch_batch`] pipelines a
//! whole batch on one connection (write every frame, then read every
//! reply), which is where the latency win of batching comes from on a
//! real socket.
//!
//! # Timeouts and pooling
//!
//! Every connection carries a read/write timeout. A connection that
//! errors or times out is **dropped, not pooled**: a late reply to a
//! timed-out request would otherwise desync the frame stream for the next
//! request on that connection. Retrying is the job of
//! [`RetryingTransport`](crate::RetryingTransport) layered on top — the
//! retried request reuses its request id, so the server's single-flight
//! makes the retry idempotent even though the original may have executed
//! or may still be executing.

use std::net::TcpStream;
use std::time::Duration;

use fgcache_types::{FileId, TransportError, TransportErrorKind};

use crate::transport::{request_id, GroupReply, GroupRequest, Transport, TransportStats};
use crate::wire::{io_to_transport, read_frame, write_frame, Message, WireStats};

/// Default per-operation socket timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(2);

/// Default connection-pool size.
pub const DEFAULT_POOL_SIZE: usize = 2;

/// Number of distinct request-id namespaces (see [`request_id`]).
const MAX_ID_NAMESPACES: u64 = 1 << 16;

/// A pooled TCP client for a group-fetch server. See the
/// [module docs](self).
#[derive(Debug)]
pub struct NetClient {
    addr: String,
    pool: Vec<TcpStream>,
    pool_size: usize,
    timeout: Duration,
    namespace: u64,
    next_seq: u64,
    stats: TransportStats,
}

impl NetClient {
    /// Connects to a server at `addr` (`host:port`), eagerly establishing
    /// one connection to validate the address.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportErrorKind::ConnectionLost`] error if the
    /// server is unreachable.
    pub fn connect(addr: &str) -> Result<Self, TransportError> {
        let mut client = NetClient {
            addr: addr.to_string(),
            pool: Vec::new(),
            pool_size: DEFAULT_POOL_SIZE,
            timeout: DEFAULT_TIMEOUT,
            namespace: 0,
            next_seq: 0,
            stats: TransportStats::default(),
        };
        let probe = client.open_connection()?;
        client.check_in(probe);
        Ok(client)
    }

    /// Overrides the per-operation socket timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self.pool.clear(); // re-open with the new timeout on next use
        self
    }

    /// Overrides the connection-pool size (minimum 1).
    #[must_use]
    pub fn with_pool_size(mut self, size: usize) -> Self {
        self.pool_size = size.max(1);
        self.pool.truncate(self.pool_size);
        self
    }

    /// Namespaces this client's request ids (see
    /// [`request_id`]); concurrent clients of one
    /// server must use distinct namespaces.
    ///
    /// # Panics
    ///
    /// If `namespace` is 2¹⁶ or more: a request id keeps only 16
    /// namespace bits, so such a namespace would alias a smaller one
    /// (`1 << 16` would share every id with namespace 0).
    #[must_use]
    pub fn with_id_namespace(mut self, namespace: u64) -> Self {
        assert!(
            namespace < MAX_ID_NAMESPACES,
            "request-id namespace {namespace} does not fit in 16 bits"
        );
        self.namespace = namespace;
        self
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Builds the next [`GroupRequest`] in this client's id sequence.
    pub fn next_request(&mut self, files: Vec<FileId>) -> GroupRequest {
        let id = request_id(self.namespace, self.next_seq);
        self.next_seq += 1;
        GroupRequest::new(id, files)
    }

    /// Asks the server for its cache counters — the remote equivalent of
    /// reading `stats()`/`group_stats()` in process.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure.
    pub fn server_stats(&mut self) -> Result<WireStats, TransportError> {
        let request = self.next_request(Vec::new());
        let reply = self.round_trip(&Message::StatsRequest {
            request_id: request.request_id,
        })?;
        match reply {
            Message::StatsReply { stats, .. } => Ok(stats),
            other => Err(unexpected(&other).with_request_id(request.request_id)),
        }
    }

    /// Pushes a membership view to the server (a cluster node), waiting
    /// for the acknowledgement. Returns the epoch the node now holds —
    /// its current one if `epoch` was stale.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure,
    /// including the server rejecting the update (not a cluster node).
    pub fn send_cluster_update(
        &mut self,
        epoch: u64,
        members: &[(u64, String)],
    ) -> Result<u64, TransportError> {
        let request = self.next_request(Vec::new());
        let reply = self.round_trip(&Message::ClusterUpdate {
            request_id: request.request_id,
            epoch,
            members: members.to_vec(),
        })?;
        match reply {
            Message::ClusterUpdateAck { epoch, .. } => Ok(epoch),
            Message::Error { message, .. } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("cluster update rejected: {message}"),
            )
            .with_request_id(request.request_id)),
            other => Err(unexpected(&other).with_request_id(request.request_id)),
        }
    }

    /// Asks the server to shut down, waiting for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on connection or protocol failure.
    pub fn send_shutdown(&mut self) -> Result<(), TransportError> {
        let request = self.next_request(Vec::new());
        let reply = self.round_trip(&Message::Shutdown {
            request_id: request.request_id,
        })?;
        match reply {
            Message::ShutdownAck { .. } => Ok(()),
            other => Err(unexpected(&other).with_request_id(request.request_id)),
        }
    }

    fn open_connection(&self) -> Result<TcpStream, TransportError> {
        let stream = TcpStream::connect(&self.addr).map_err(io_to_transport)?;
        stream.set_nodelay(true).map_err(io_to_transport)?;
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(io_to_transport)?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(io_to_transport)?;
        Ok(stream)
    }

    fn check_out(&mut self) -> Result<TcpStream, TransportError> {
        match self.pool.pop() {
            Some(stream) => Ok(stream),
            None => self.open_connection(),
        }
    }

    fn check_in(&mut self, stream: TcpStream) {
        if self.pool.len() < self.pool_size {
            self.pool.push(stream);
        }
    }

    /// One request/reply exchange. The connection returns to the pool
    /// only on success; any failure drops it (see the module docs).
    fn round_trip(&mut self, message: &Message) -> Result<Message, TransportError> {
        let mut stream = self.check_out()?;
        let exchange = (|| {
            write_frame(&mut stream, message).map_err(io_to_transport)?;
            read_frame(&mut stream)
        })();
        self.stats.round_trips += 1;
        match exchange {
            Ok(reply) => {
                self.check_in(stream);
                Ok(reply)
            }
            Err(err) => Err(err.with_request_id(message.request_id())),
        }
    }

    /// Interprets a server reply to a fetch, updating counters when it is
    /// the matching `FetchReply`.
    fn accept_fetch_reply(
        &mut self,
        request: &GroupRequest,
        reply: Message,
    ) -> Result<GroupReply, TransportError> {
        match reply {
            Message::FetchReply { request_id, files } => {
                let reply = GroupReply { request_id, files };
                if reply.request_id == request.request_id {
                    self.stats.requests += 1;
                    self.stats.files_moved += reply.files.len() as u64;
                    self.stats.hits += reply.hits();
                    self.stats.misses += reply.misses();
                }
                // A mismatched id (stale duplicate) is returned as-is;
                // the retry layer discards and re-asks.
                Ok(reply)
            }
            Message::Error { message, .. } => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!("server error: {message}"),
            )
            .with_request_id(request.request_id)),
            other => Err(unexpected(&other).with_request_id(request.request_id)),
        }
    }
}

fn unexpected(reply: &Message) -> TransportError {
    TransportError::new(
        TransportErrorKind::Protocol,
        format!("unexpected reply: {reply:?}"),
    )
}

impl Transport for NetClient {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let reply = self.round_trip(&Message::Fetch {
            request_id: request.request_id,
            files: request.files.clone(),
        })?;
        self.accept_fetch_reply(request, reply)
    }

    /// Sends the v2 `FetchOwned` frame, telling the receiving node to
    /// serve the group itself rather than proxy it onward.
    fn fetch_owned(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let reply = self.round_trip(&Message::FetchOwned {
            request_id: request.request_id,
            files: request.files.clone(),
        })?;
        self.accept_fetch_reply(request, reply)
    }

    /// Pipelines the whole batch on one connection: every `Fetch` frame is
    /// written before any reply is read, so the batch pays one
    /// round-trip's worth of latency instead of one per request.
    fn fetch_batch(&mut self, batch: &[GroupRequest]) -> Vec<Result<GroupReply, TransportError>> {
        if batch.is_empty() {
            return Vec::new();
        }
        let mut stream = match self.check_out() {
            Ok(s) => s,
            Err(err) => {
                return batch
                    .iter()
                    .map(|r| {
                        Err(TransportError::new(err.kind(), err.detail())
                            .with_request_id(r.request_id))
                    })
                    .collect()
            }
        };
        self.stats.round_trips += 1;
        for request in batch {
            let frame = Message::Fetch {
                request_id: request.request_id,
                files: request.files.clone(),
            };
            if let Err(err) = write_frame(&mut stream, &frame).map_err(io_to_transport) {
                // Connection is gone; every request in the batch fails.
                return batch
                    .iter()
                    .map(|r| {
                        Err(TransportError::new(err.kind(), err.detail())
                            .with_request_id(r.request_id))
                    })
                    .collect();
            }
        }
        let mut results = Vec::with_capacity(batch.len());
        let mut broken = false;
        for request in batch {
            if broken {
                results.push(Err(TransportError::new(
                    TransportErrorKind::ConnectionLost,
                    "connection failed earlier in this batch",
                )
                .with_request_id(request.request_id)));
                continue;
            }
            match read_frame(&mut stream) {
                Ok(reply) => results.push(self.accept_fetch_reply(request, reply)),
                Err(err) => {
                    broken = true;
                    results.push(Err(err.with_request_id(request.request_id)));
                }
            }
        }
        if !broken {
            self.check_in(stream);
        }
        results
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}
