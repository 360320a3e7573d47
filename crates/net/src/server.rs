//! A blocking TCP group-fetch server over any [`ServeBackend`].
//!
//! [`BoundServer::bind`] takes an address (use port 0 for an ephemeral
//! loopback port) and a shared [`ShardedAggregatingCache`];
//! [`BoundServer::bind_backend`] accepts any [`ServeBackend`] (a cluster
//! node, for instance). [`BoundServer::run`] then serves the
//! [wire protocol](crate::wire) until asked to stop.
//!
//! # Architecture
//!
//! One **accept loop** blocks in `accept` and gives every connection a
//! scoped thread of its own. While [`DEFAULT_MAX_CONNS`] (or the
//! [`BoundServer::with_max_conns`] override) connections are live it
//! waits on a condition variable until one closes; connections beyond
//! the cap wait in the kernel backlog, deferred rather than refused.
//!
//! A **connection thread** reads a frame with blocking reads through a
//! small reused buffer, executes it, and writes the reply before it
//! reads the next frame. Replies therefore leave in request order (the
//! pipelined client matches them by position), a frame split across any
//! number of segments is reassembled by `read_exact`, and a peer that
//! half-closes still gets every reply it is owed. Backpressure is per
//! connection: a peer that stops reading blocks its own thread in
//! `write`, that thread stops reading the peer's socket, and every
//! other connection proceeds untouched.
//!
//! Nothing polls. Every blocked thread is woken by the kernel the moment
//! its bytes arrive, so a frame pays no sleep on any hop.
//!
//! # Execution bound
//!
//! At most [`DEFAULT_WORKERS`] (or the [`BoundServer::with_workers`]
//! override) fetches execute at once. `FetchOwned` frames bypass the
//! bound: a cluster owner answers them from its own cache without waiting
//! on a peer, and queueing them behind fetches that *are* waiting on a
//! peer would let two nodes that proxy to each other stall each other.
//!
//! # Exactly-once fetches
//!
//! All connections share one [`SingleFlight`] keyed by (request id,
//! frame kind). A fetch executes with no server-wide lock held; a retry
//! racing its original, possibly on another pooled connection, waits
//! for it and receives the same reply, and a retry arriving later is
//! answered from the window of finished replies. A retry whose file
//! list differs from the original's executes on its own, so a reused id
//! never receives another group's reply. The frame kind keeps a peer's
//! `FetchOwned` apart from a client `Fetch` that happens to share its
//! id: an owned fetch then never waits on a client fetch, which may
//! itself be waiting on a peer.
//!
//! # Shutdown
//!
//! A client sends `Shutdown`, or the owner calls [`ServerHandle::stop`].
//! Either sets the stop flag and wakes the accept loop by connecting to
//! the listener (through loopback if it is bound to an unspecified
//! address). The loop closes the listener, shuts down the read half of
//! every live connection and waits for their threads, bounded by a
//! two-second drain deadline past which the remaining sockets are shut
//! down outright. A thread mid-frame finishes it and writes the reply
//! before it reads end-of-stream, so every frame the server read is
//! answered. The `ShutdownAck` follows every reply its connection
//! pipelined ahead of it.

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read as _, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use fgcache_core::ShardedAggregatingCache;
use fgcache_types::FileId;

use crate::single_flight::{SingleFlight, DEFAULT_REPLY_CACHE_CAPACITY};
use crate::transport::{FileReply, GroupReply};
use crate::wire::{decode_fetch_into, Message, WireStats, MAX_FRAME_LEN};

/// Default hard cap on concurrently-held connections; accepts beyond it
/// are deferred to the kernel backlog until a connection closes.
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Default bound on fetches executing at once (`FetchOwned` frames are
/// exempt; see the [module docs](self)).
pub const DEFAULT_WORKERS: usize = 4;

/// Upper bound on the shutdown drain.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(2);

/// Per-connection read buffer. It holds a typical frame (and a few
/// pipelined ones), so a frame usually costs one `read`.
const READ_BUF_BYTES: usize = 4 * 1024;

/// Pause after a failed `accept` (out of descriptors, say) before the
/// next attempt.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// How long a stop request tries to connect to its own listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Name of every connection thread (as `top -H` shows it).
const CONN_THREAD_NAME: &str = "fgcache-conn";

/// What a [`BoundServer`] serves fetches from: a plain cache or anything
/// cache-shaped (a cluster node that routes to peers, say). The server
/// owns framing, connection handling, retry deduplication and shutdown;
/// the backend owns what a fetch *means*.
pub trait ServeBackend: Send + Sync {
    /// Serves one group fetch, returning per-file provenance.
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply;

    /// Serves one *owned* group fetch — the depth-bounded cluster proxy
    /// frame, which the backend must answer locally and never forward
    /// onward. The default treats it like any other fetch, which is
    /// correct for backends with no notion of ownership.
    fn serve_owned(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        self.serve_group(request_id, files)
    }

    /// This backend's cache counters, for `StatsReply` (the server adds
    /// its own reply-cache hits on top).
    fn wire_stats(&self) -> WireStats;

    /// Applies a pushed membership view, returning the epoch the backend
    /// now holds (its current one if `epoch` was stale).
    ///
    /// # Errors
    ///
    /// The default rejects the update: a plain cache has no membership.
    fn apply_cluster_update(&self, epoch: u64, members: &[(u64, String)]) -> Result<u64, String> {
        let _ = (epoch, members);
        Err("this server is not a cluster node".to_string())
    }

    /// Inert: the server never calls it, since every fetch goes through
    /// one [`SingleFlight`] whatever the backend. It stays only because
    /// benchmark code outside the library forwards it.
    fn serializes_execution(&self) -> bool {
        true
    }
}

impl ServeBackend for ShardedAggregatingCache {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        let files: Vec<FileReply> = files
            .iter()
            .map(|&file| FileReply {
                file,
                outcome: self.handle_access(file),
            })
            .collect();
        GroupReply { request_id, files }
    }

    fn wire_stats(&self) -> WireStats {
        let stats = self.stats();
        let group = self.group_stats();
        WireStats {
            accesses: stats.accesses,
            hits: stats.hits,
            misses: stats.misses,
            speculative_inserts: stats.speculative_inserts,
            speculative_hits: stats.speculative_hits,
            evictions: stats.evictions,
            demand_fetches: group.demand_fetches,
            files_transferred: group.files_transferred,
            members_already_resident: group.members_already_resident,
            reply_cache_hits: 0,
        }
    }
}

/// A TCP group-fetch server bound to an address but not yet running.
pub struct BoundServer {
    listener: TcpListener,
    backend: Arc<dyn ServeBackend>,
    control: Arc<Control>,
    dedup_capacity: usize,
    max_conns: usize,
    workers: usize,
}

impl std::fmt::Debug for BoundServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundServer")
            .field("addr", &self.local_addr())
            .field("dedup_capacity", &self.dedup_capacity)
            .field("max_conns", &self.max_conns)
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl BoundServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port), serving fetches from `cache`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cache: Arc<ShardedAggregatingCache>) -> std::io::Result<Self> {
        Self::bind_backend(addr, cache)
    }

    /// Binds to `addr`, serving fetches from an arbitrary
    /// [`ServeBackend`] (e.g. a cluster node).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind_backend(
        addr: &str,
        backend: Arc<impl ServeBackend + 'static>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let control = Arc::new(Control::new(wake_addr(listener.local_addr()?)));
        Ok(BoundServer {
            listener,
            backend,
            control,
            dedup_capacity: DEFAULT_REPLY_CACHE_CAPACITY,
            max_conns: DEFAULT_MAX_CONNS,
            workers: DEFAULT_WORKERS,
        })
    }

    /// Overrides how many finished replies the server remembers for
    /// retries (see [`SingleFlight`]); 0 keeps only concurrent retries
    /// from re-executing.
    #[must_use]
    pub fn with_dedup_capacity(mut self, capacity: usize) -> Self {
        self.dedup_capacity = capacity;
        self
    }

    /// Overrides the connection cap (clamped to at least 1). Accepts
    /// beyond the cap wait in the kernel backlog until a connection
    /// closes.
    #[must_use]
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Overrides the bound on fetches executing at once (clamped to at
    /// least 1). `FetchOwned` frames are exempt; see the
    /// [module docs](self).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The bound address, as a `host:port` string clients can connect to.
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string())
    }

    /// Serves on the calling thread until shut down, with one scoped
    /// thread per connection beside it.
    pub fn run(self) {
        let BoundServer {
            listener,
            backend,
            control,
            dedup_capacity,
            max_conns,
            workers,
        } = self;
        let shared = Shared {
            backend: &*backend,
            flights: SingleFlight::new(dedup_capacity),
            control: &control,
            permits: Permits::new(workers),
        };
        let shared = &shared;
        thread::scope(|scope| {
            accept_loop(listener, max_conns, shared, scope);
            control.drain();
        });
    }

    /// Runs the server on a background thread, returning a handle that
    /// can stop it.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        let control = Arc::clone(&self.control);
        let join = thread::spawn(move || self.run());
        ServerHandle {
            addr,
            control,
            join,
        }
    }
}

/// A running server on a background thread (from [`BoundServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: String,
    control: Arc<Control>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The server's `host:port` address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the server and waits until every connection thread has
    /// finished (see the [module docs](self) for the drain).
    pub fn stop(self) {
        self.control.stop();
        self.join.join().expect("server thread panicked");
    }
}

/// Where a stop request connects to wake a blocked `accept`: the
/// listener's own address, through loopback when it is unspecified.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    bound
}

/// The connection table and stop flag, shared by the accept loop, the
/// connection threads and the [`ServerHandle`].
#[derive(Debug)]
struct Control {
    conns: Mutex<Conns>,
    /// Signalled when a connection closes or a stop is requested.
    changed: Condvar,
    wake_addr: SocketAddr,
}

#[derive(Debug)]
struct Conns {
    stopping: bool,
    next_id: u64,
    /// Every live connection, so a shutdown can end its reads.
    live: HashMap<u64, Arc<TcpStream>>,
}

impl Control {
    fn new(wake_addr: SocketAddr) -> Self {
        Control {
            conns: Mutex::new(Conns {
                stopping: false,
                next_id: 0,
                live: HashMap::new(),
            }),
            changed: Condvar::new(),
            wake_addr,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Conns> {
        self.conns
            .lock()
            .expect("a server thread panicked while holding the connection table")
    }

    /// Sets the stop flag, wakes an accept loop parked at the connection
    /// cap, and wakes one blocked in `accept` by connecting to it. The
    /// connect fails harmlessly once the listener is closed.
    fn stop(&self) {
        self.lock().stopping = true;
        self.changed.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }

    /// Registers an accepted connection; `None` once stopping (the
    /// connection is then the stop request's wake-up, or a straggler).
    fn open(&self, stream: &Arc<TcpStream>) -> Option<u64> {
        let mut conns = self.lock();
        if conns.stopping {
            return None;
        }
        let id = conns.next_id;
        conns.next_id += 1;
        conns.live.insert(id, Arc::clone(stream));
        Some(id)
    }

    fn close(&self, id: u64) {
        self.lock().live.remove(&id);
        self.changed.notify_all();
    }

    /// Waits while `max_conns` connections are live; `false` once a stop
    /// is requested.
    fn wait_for_room(&self, max_conns: usize) -> bool {
        let mut conns = self.lock();
        while !conns.stopping && conns.live.len() >= max_conns {
            conns = self
                .changed
                .wait(conns)
                .expect("a server thread panicked while holding the connection table");
        }
        !conns.stopping
    }

    /// Ends every live connection's reads and waits for its thread, up
    /// to [`DRAIN_TIMEOUT`]; past it the sockets are shut down outright,
    /// which also ends writes blocked on a peer that stopped reading.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut conns = self.lock();
        for stream in conns.live.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        while !conns.live.is_empty() {
            let now = Instant::now();
            if now >= deadline {
                for stream in conns.live.values() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                return;
            }
            conns = self
                .changed
                .wait_timeout(conns, deadline - now)
                .expect("a server thread panicked while holding the connection table")
                .0;
        }
    }
}

/// A counting bound on fetches executing at once.
struct Permits {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held execution slot; dropping it frees the slot.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn new(count: usize) -> Self {
        Permits {
            free: Mutex::new(count.max(1)),
            freed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
        self.free
            .lock()
            .expect("a connection thread panicked while holding the execution bound")
    }

    fn acquire(&self) -> Permit<'_> {
        let mut free = self.lock();
        while *free == 0 {
            free = self
                .freed
                .wait(free)
                .expect("a connection thread panicked while holding the execution bound");
        }
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // `drop` must not panic; every update leaves the count valid, so
        // a poisoned lock is safe to recover.
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.freed.notify_one();
    }
}

/// What every connection thread borrows from [`BoundServer::run`].
struct Shared<'a> {
    backend: &'a dyn ServeBackend,
    /// Fetches in flight and recently answered, by (request id, owned).
    flights: SingleFlight<(u64, bool), GroupReply>,
    control: &'a Control,
    permits: Permits,
}

/// Accepts until a stop is requested, giving each connection a scoped
/// thread. Takes the listener by value, so it closes as soon as
/// accepting ends.
fn accept_loop<'scope, 'env>(
    listener: TcpListener,
    max_conns: usize,
    shared: &'env Shared<'env>,
    scope: &'scope thread::Scope<'scope, 'env>,
) {
    while shared.control.wait_for_room(max_conns) {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => Arc::new(stream),
            Err(err) if err.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let Some(id) = shared.control.open(&stream) else {
            return;
        };
        let spawned = thread::Builder::new()
            .name(CONN_THREAD_NAME.to_string())
            .spawn_scoped(scope, move || {
                serve_conn(shared, &stream);
                shared.control.close(id);
            });
        if spawned.is_err() {
            shared.control.close(id); // cannot serve it; hang up
        }
    }
}

/// Serves one connection, a frame at a time, until the peer closes it,
/// sends something that cannot be framed or decoded, or asks the server
/// to stop, or until the server shuts its reads down.
fn serve_conn(shared: &Shared<'_>, stream: &TcpStream) {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut writer = stream;
    let mut payload = Vec::new();
    let mut files = Vec::new();
    let mut frame = Vec::new();
    loop {
        let mut header = [0u8; 4];
        if reader.read_exact(&mut header).is_err() {
            return;
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME_LEN {
            return; // an empty or oversized frame: the stream is desynced
        }
        // `take` grows the buffer only as bytes arrive, so a lying length
        // prefix cannot make the server allocate MAX_FRAME_LEN up front.
        payload.clear();
        match (&mut reader).take(u64::from(len)).read_to_end(&mut payload) {
            Ok(n) if n == len as usize => {}
            _ => return,
        }
        let Some((reply, stop)) = answer(shared, &payload, &mut files) else {
            return;
        };
        frame.clear();
        reply.encode_into(&mut frame);
        let written = writer.write_all(&frame).is_ok();
        if stop {
            shared.control.stop();
        }
        if stop || !written {
            return;
        }
    }
}

/// Answers one frame. `None` means hang up: a frame that does not decode
/// leaves a stream that cannot be re-framed. The flag marks a
/// `Shutdown`.
fn answer(shared: &Shared<'_>, payload: &[u8], files: &mut Vec<FileId>) -> Option<(Message, bool)> {
    // Fetch frames decode into the reused file buffer; everything else
    // takes the full decode.
    if let Some(header) = decode_fetch_into(payload, files).ok()? {
        let _permit = (!header.owned).then(|| shared.permits.acquire());
        let reply = serve_fetch(shared, header.request_id, files, header.owned);
        return Some((
            Message::FetchReply {
                request_id: reply.request_id,
                files: reply.files,
            },
            false,
        ));
    }
    let reply = match Message::decode(payload).ok()? {
        Message::StatsRequest { request_id } => {
            let mut stats = shared.backend.wire_stats();
            stats.reply_cache_hits += shared.flights.hits();
            Message::StatsReply { request_id, stats }
        }
        Message::ClusterUpdate {
            request_id,
            epoch,
            members,
        } => match shared.backend.apply_cluster_update(epoch, &members) {
            Ok(held) => Message::ClusterUpdateAck {
                request_id,
                epoch: held,
            },
            Err(reason) => Message::Error {
                request_id,
                message: reason,
            },
        },
        Message::Shutdown { request_id } => {
            return Some((Message::ShutdownAck { request_id }, true));
        }
        other => Message::Error {
            request_id: other.request_id(),
            message: format!("unexpected client message: {other:?}"),
        },
    };
    Some((reply, false))
}

/// Serves one fetch, exactly-once per request id and frame kind (see
/// the [module docs](self)). `owned` selects the depth-bounded
/// [`ServeBackend::serve_owned`] path.
fn serve_fetch(shared: &Shared<'_>, request_id: u64, files: &[FileId], owned: bool) -> GroupReply {
    let backend = shared.backend;
    let execute = || {
        if owned {
            backend.serve_owned(request_id, files)
        } else {
            backend.serve_group(request_id, files)
        }
    };
    shared.flights.run((request_id, owned), files, execute).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Arc<ShardedAggregatingCache> {
        Arc::new(
            fgcache_core::ShardedAggregatingCacheBuilder::new(20)
                .build()
                .expect("valid build"),
        )
    }

    #[test]
    fn builder_knobs_clamp_zero_to_one() {
        let server = BoundServer::bind("127.0.0.1:0", cache())
            .expect("ephemeral bind")
            .with_max_conns(0)
            .with_workers(0);
        assert_eq!(server.max_conns, 1);
        assert_eq!(server.workers, 1);
    }

    #[test]
    fn unspecified_bind_is_woken_through_loopback() {
        let v4: SocketAddr = "0.0.0.0:4000".parse().expect("addr");
        assert_eq!(wake_addr(v4), "127.0.0.1:4000".parse().expect("addr"));
        let v6: SocketAddr = "[::]:4000".parse().expect("addr");
        assert_eq!(wake_addr(v6), "[::1]:4000".parse().expect("addr"));
        let bound: SocketAddr = "127.0.0.2:4000".parse().expect("addr");
        assert_eq!(wake_addr(bound), bound);

        // A server on every interface still stops: the wake-up connect
        // goes through loopback.
        let handle = BoundServer::bind("0.0.0.0:0", cache())
            .expect("wildcard bind")
            .spawn();
        handle.stop();
    }
}
