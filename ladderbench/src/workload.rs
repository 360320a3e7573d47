//! The four workloads, their set-up, the closed-loop client and the timed
//! window.
//!
//! Every workload runs two client threads in this process. Each client
//! owns a 100-file LRU filter (crate `cache`) and its own seeded trace,
//! which it replays cyclically; an access that misses the filter becomes
//! a one-file group fetch and the client blocks until it is answered
//! (a closed loop, like a workstation's `open`). The server side is built
//! the way `fgcache serve` builds it, with the server crates' defaults.
//!
//! Set-up (timed as `setup_s`) generates the traces, builds and binds the
//! servers, pushes the cluster view, connects the clients, runs a short
//! deterministic round-robin pass over the real fetch path with its
//! correctness checks, and warms every cache in process through the rest
//! of the first lap. Each untraced set-up then runs a quality pass, a
//! fixed number of events with the clients taking turns, and a timed
//! window. Counts taken over the lap and over the quality passes repeat
//! exactly for a seed; counts taken over a timed window do not.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use fgcache_cache::{FilterCache, LruCache};
use fgcache_cluster::{ClusterNode, ClusterNodeStats, ClusterView, NodeId, OwnershipRing};
use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    request_id, BoundServer, DirectTransport, GroupReply, GroupRequest, Message, NetClient,
    ServeBackend, ServerHandle, Transport, TransportStats, DEFAULT_MAX_CONNS,
    DEFAULT_REPLY_CACHE_CAPACITY, DEFAULT_WORKERS,
};
use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
use fgcache_types::hash::mix64;
use fgcache_types::{FileId, TransportError};

use crate::procfs::{self, ProcSample};
use crate::spans::{Layer, Recorder, TracedBackend, TracedTransport};
use crate::stats::Hist;

/// Client threads (the host has two cores; one connection each).
pub const CLIENTS: usize = 2;
/// Files each client's LRU filter holds.
pub const FILTER_CAPACITY: usize = 100;
/// Server capacity per node, shards, group size and successors: the
/// `fgcache serve` configuration.
pub const CAPACITY: usize = 400;
const SHARDS: usize = 4;
const GROUP: usize = 5;
const SUCCESSORS: usize = 8;
/// Cluster size for `cluster_write`.
pub const NODES: usize = 3;
/// Id namespace for control requests (stats, view pushes); client
/// namespaces start at 1.
const CONTROL_NAMESPACE: u64 = 0xFFFF;
/// Request/reply pairs kept from the traced window to time the wire codec.
const FRAMES_KEPT: usize = 4096;
/// Errors kept per client before further ones are only counted.
const MAX_ERRORS: usize = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Server profile, two threads, one shared cache, no sockets.
    LocalServer,
    /// The same traces and cache behind a loopback TCP server.
    TcpServer,
    /// Write profile, two threads, one shared cache, no sockets.
    LocalWrite,
    /// The write traces into three cluster nodes over loopback TCP.
    ClusterWrite,
}

/// Which rung of the stack a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// `cache` + `core`, in process.
    Local,
    /// + `net`.
    Tcp,
    /// + `net` + `cluster`.
    Cluster,
}

impl Workload {
    /// Every workload, in ladder order.
    pub const ALL: [Workload; 4] = [
        Workload::LocalServer,
        Workload::TcpServer,
        Workload::LocalWrite,
        Workload::ClusterWrite,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalServer => "local_server",
            Workload::TcpServer => "tcp_server",
            Workload::LocalWrite => "local_write",
            Workload::ClusterWrite => "cluster_write",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic trace profile.
    pub fn profile(self) -> WorkloadProfile {
        match self {
            Workload::LocalServer | Workload::TcpServer => WorkloadProfile::Server,
            Workload::LocalWrite | Workload::ClusterWrite => WorkloadProfile::Write,
        }
    }

    /// The rung it runs on.
    pub fn rung(self) -> Rung {
        match self {
            Workload::LocalServer | Workload::LocalWrite => Rung::Local,
            Workload::TcpServer => Rung::Tcp,
            Workload::ClusterWrite => Rung::Cluster,
        }
    }

    /// Events per client in the quality pass before each untraced
    /// window: a fixed length, so the quality metrics never depend on how
    /// fast a rung runs. At the socket rungs, what one client covers in a
    /// few seconds.
    pub fn quality_events(self) -> u64 {
        match self.rung() {
            Rung::Local => 100_000,
            Rung::Tcp => 10_000,
            Rung::Cluster => 1_500,
        }
    }

    /// One request in `2^shift` is traced: sized so a traced half-window
    /// keeps on the order of 10^5 requests at each rung's fetch rate.
    pub fn sample_shift(self) -> u32 {
        match self {
            Workload::LocalServer => 6,
            Workload::LocalWrite => 5,
            Workload::TcpServer | Workload::ClusterWrite => 0,
        }
    }
}

/// Sizes of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window, seconds (split across set-ups in an
    /// untraced run, across the untraced and traced halves in a traced one).
    pub seconds: f64,
    /// Events per client trace (one lap).
    pub lap: usize,
    /// Events per client in the round-robin checking pass.
    pub prepass: usize,
    /// Events per client in each untraced set-up's quality pass.
    pub quality_events: u64,
    /// Sub-windows each timed window is split into.
    pub windows: usize,
    /// Set-ups per untraced run, each followed by its own quality pass and
    /// timed window.
    pub setups: usize,
}

impl Config {
    /// The benchmark's sizes for a run of `workload` for `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Self {
        Config {
            seed,
            seconds,
            lap: 400_000,
            prepass: 150,
            quality_events: workload.quality_events(),
            windows: 10,
            setups: 6,
        }
    }
}

/// Size of a profile's shared pool: its generator draws the files that
/// every workstation has in common from ids `0..shared_pool`.
pub fn shared_pool(profile: WorkloadProfile) -> u64 {
    match profile {
        WorkloadProfile::Workstation | WorkloadProfile::Write => 30,
        WorkloadProfile::Users => 50,
        WorkloadProfile::Server => 20,
    }
}

/// One client's trace: one run of the profile's generator, seeded from
/// the run's seed and the client. Each client's generator numbers its own
/// activity and new files from the same base, so those ids move into the
/// client's own range; the shared pool keeps its ids, and the clients
/// meet on those files in the server cache.
fn client_trace(
    profile: WorkloadProfile,
    cfg: &Config,
    client: usize,
) -> Result<Vec<FileId>, String> {
    let generator = SynthConfig::profile(profile)
        .events(cfg.lap)
        .seed(mix64(cfg.seed ^ mix64(client as u64 + 1)))
        .build()
        .map_err(|e| format!("trace config rejected: {e}"))?;
    let (pool, offset) = (shared_pool(profile), (client as u64 + 1) << 32);
    Ok(generator
        .generate()
        .files()
        .map(|f| match f.as_u64() {
            id if id < pool => f,
            id => FileId(id + offset),
        })
        .collect())
}

fn build_cache() -> Result<ShardedAggregatingCache, String> {
    ShardedAggregatingCacheBuilder::new(CAPACITY)
        .shards(SHARDS)
        .group_size(GROUP)
        .successor_capacity(SUCCESSORS)
        .build()
        .map_err(|e| format!("cache config rejected: {e}"))
}

/// Binds and spawns a loopback server with `fgcache serve`'s settings.
fn serve<B: ServeBackend + 'static>(backend: Arc<B>) -> Result<ServerHandle, String> {
    let server = BoundServer::bind_backend("127.0.0.1:0", backend)
        .map_err(|e| format!("cannot bind loopback: {e}"))?
        .with_dedup_capacity(DEFAULT_REPLY_CACHE_CAPACITY)
        .with_max_conns(DEFAULT_MAX_CONNS)
        .with_workers(DEFAULT_WORKERS);
    Ok(server.spawn())
}

fn connect(addr: &str) -> Result<NetClient, String> {
    NetClient::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// One closed-loop client.
struct Client {
    trace: Vec<FileId>,
    pos: usize,
    filter: FilterCache<LruCache>,
    namespace: u64,
    seq: u64,
    net: Option<NetClient>,
}

/// Where a run of the client loop stops.
#[derive(Clone, Copy)]
enum Stop {
    /// After this many more events.
    Events(u64),
    /// At `end`, attributing events to windows of `window_ns` from `t0`.
    Until {
        t0: Instant,
        end: Instant,
        window_ns: u64,
    },
}

/// What one client did in one phase.
pub struct Tally {
    pub events: u64,
    pub filter_hits: u64,
    pub attempted: u64,
    pub answered: u64,
    pub failed: u64,
    /// Time inside fetches, ns.
    pub fetch_ns: u64,
    /// Time in the client loop, ns.
    pub loop_ns: u64,
    pub window_events: Vec<u64>,
    /// Fetch times, ns.
    pub latency: Hist,
    pub errors: Vec<String>,
    pub error_count: u64,
    /// Request/reply pairs kept for the wire codec timing.
    pub frames: Vec<(GroupRequest, GroupReply)>,
    keep_frames: usize,
}

impl Tally {
    fn new(windows: usize, keep_frames: usize) -> Self {
        Tally {
            events: 0,
            filter_hits: 0,
            attempted: 0,
            answered: 0,
            failed: 0,
            fetch_ns: 0,
            loop_ns: 0,
            window_events: vec![0; windows],
            latency: Hist::default(),
            errors: Vec::new(),
            error_count: 0,
            frames: Vec::new(),
            keep_frames,
        }
    }

    fn error(&mut self, message: String) {
        self.error_count += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(message);
        }
    }
}

/// The reply check every fetch gets: the request's id, and exactly one
/// reply per requested file, in order.
pub fn reply_error(request: &GroupRequest, reply: &GroupReply) -> Option<String> {
    if reply.request_id != request.request_id {
        return Some(format!(
            "reply carries id {:#x} for request {:#x}",
            reply.request_id, request.request_id
        ));
    }
    if !reply
        .files
        .iter()
        .map(|f| f.file)
        .eq(request.files.iter().copied())
    {
        return Some(format!(
            "request {:#x} for {:?} answered with {:?}",
            request.request_id, request.files, reply.files
        ));
    }
    None
}

/// The client loop: next trace event through the filter; a miss becomes
/// a one-file group fetch, and the client waits for its reply.
fn drive<T: Transport>(c: &mut Client, t: &mut T, stop: Stop, tally: &mut Tally) {
    let began = Instant::now();
    let mut window = 0;
    let mut left = match stop {
        Stop::Events(n) => n,
        Stop::Until { .. } => u64::MAX,
    };
    let window_of = |now: Instant, t0: Instant, window_ns: u64, windows: usize| {
        (((now - t0).as_nanos() as u64 / window_ns) as usize).min(windows - 1)
    };
    while left > 0 {
        left -= 1;
        if let Stop::Until { t0, end, window_ns } = stop {
            if tally.events.is_multiple_of(64) {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                window = window_of(now, t0, window_ns, tally.window_events.len());
            }
        }
        let file = c.trace[c.pos];
        c.pos = if c.pos + 1 == c.trace.len() {
            0
        } else {
            c.pos + 1
        };
        tally.events += 1;
        tally.window_events[window] += 1;
        if !c.filter.offer_file(file) {
            tally.filter_hits += 1;
            continue;
        }
        let request = GroupRequest::new(request_id(c.namespace, c.seq), vec![file]);
        c.seq += 1;
        tally.attempted += 1;
        let sent = Instant::now();
        let result = t.fetch_group(&request);
        let done = Instant::now();
        let ns = (done - sent).as_nanos() as u64;
        match result {
            Ok(reply) => {
                tally.answered += 1;
                tally.fetch_ns += ns;
                tally.latency.record(ns);
                if let Some(e) = reply_error(&request, &reply) {
                    tally.error(e);
                }
                if tally.frames.len() < tally.keep_frames {
                    tally.frames.push((request, reply));
                }
            }
            // A failure is counted, not a correctness violation: the
            // result reports it as `failed` out of `attempted`.
            Err(_) => tally.failed += 1,
        }
        if let Stop::Until { t0, end, window_ns } = stop {
            if done >= end {
                break;
            }
            window = window_of(done, t0, window_ns, tally.window_events.len());
        }
    }
    tally.loop_ns += began.elapsed().as_nanos() as u64;
}

/// Routes each fetch straight to its owner's local serve: the in-process
/// warm-up for the cluster, leaving each node's cache as the proxied
/// path would (a proxied fetch is served by the owner's `serve_local`).
struct OwnerDirect<'a> {
    nodes: &'a [Arc<ClusterNode>],
    ring: &'a OwnershipRing,
}

impl Transport for OwnerDirect<'_> {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let owner = request
            .files
            .first()
            .and_then(|&f| self.ring.owner(f))
            .map_or(0, |n| n.0 as usize);
        Ok(self.nodes[owner].serve_local(request.request_id, &request.files))
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

/// Counts over the deterministic set-up lap, which repeat exactly for a
/// seed.
#[derive(Debug, Clone, Default)]
pub struct Exact {
    /// Client events over one lap (both clients).
    pub events: u64,
    /// Filter hits over the lap.
    pub filter_hits: u64,
    /// Requests sent over the lap.
    pub requests: u64,
    /// Wire round trips of the checking pass (socket rungs).
    pub round_trips: u64,
    /// Per node, over the checking pass: groups served locally.
    pub local_serves: Vec<u64>,
    /// Per node, over the checking pass: groups proxied to their owner.
    pub proxied: Vec<u64>,
}

/// A set-up system, ready for a timed window.
pub struct Rig {
    workload: Workload,
    /// One cache per node (one for the single-server rungs).
    pub caches: Vec<Arc<ShardedAggregatingCache>>,
    /// Cluster nodes (`cluster_write` only).
    pub nodes: Vec<Arc<ClusterNode>>,
    servers: Vec<ServerHandle>,
    addrs: Vec<String>,
    clients: Vec<Client>,
    /// The span recorder, for traced runs.
    pub recorder: Option<Arc<Recorder>>,
    /// Exact counts over the set-up lap.
    pub exact: Exact,
    /// Seconds spent generating traces.
    pub gen_s: f64,
    /// Correctness violations found so far.
    pub errors: Vec<String>,
}

impl Rig {
    /// Stops every server and waits for its threads.
    pub fn shutdown(self) {
        drop(self.clients);
        for server in self.servers {
            server.stop();
        }
    }

    /// Cache counters from each server, over the wire (socket rungs).
    pub fn remote_reply_cache_hits(&self) -> Result<u64, String> {
        let mut total = 0;
        for addr in &self.addrs {
            let mut control = connect(addr)?.with_id_namespace(CONTROL_NAMESPACE);
            total += control
                .server_stats()
                .map_err(|e| format!("stats request to {addr} failed: {e}"))?
                .reply_cache_hits;
        }
        Ok(total)
    }

    /// Distinct files across the clients' traces.
    pub fn unique_files(&self) -> usize {
        let files: HashSet<FileId> = self
            .clients
            .iter()
            .flat_map(|c| c.trace.iter().copied())
            .collect();
        files.len()
    }

    /// Audits every server cache and client filter.
    pub fn check_invariants(&mut self) {
        for (i, cache) in self.caches.iter().enumerate() {
            if let Err(e) = cache.check_invariants() {
                self.errors.push(format!("server cache {i}: {e}"));
            }
        }
        for (i, client) in self.clients.iter().enumerate() {
            if let Err(e) = client.filter.check_invariants() {
                self.errors.push(format!("client {i} filter: {e}"));
            }
        }
    }
}

/// Builds, binds, connects, checks and warms one system. `recorder`
/// installs the tracing decorators (switched off until the traced window).
/// Set-up `instance` of `cfg.setups` starts its window at its own point
/// of the second lap.
pub fn setup(
    workload: Workload,
    cfg: &Config,
    instance: usize,
    recorder: Option<Arc<Recorder>>,
) -> Result<Rig, String> {
    let generated = Instant::now();
    let traces = (0..CLIENTS)
        .map(|c| client_trace(workload.profile(), cfg, c))
        .collect::<Result<Vec<_>, _>>()?;
    let gen_s = generated.elapsed().as_secs_f64();

    let nodes_wanted = if workload.rung() == Rung::Cluster {
        NODES
    } else {
        1
    };
    let caches = (0..nodes_wanted)
        .map(|_| build_cache().map(Arc::new))
        .collect::<Result<Vec<_>, _>>()?;
    let mut nodes = Vec::new();
    let mut servers = Vec::new();
    match workload.rung() {
        Rung::Local => {}
        Rung::Tcp => servers.push(match &recorder {
            Some(rec) => {
                let core = TracedBackend::new(caches[0].clone(), Layer::CoreAccess, rec.clone());
                serve(Arc::new(TracedBackend::new(
                    Arc::new(core),
                    Layer::ServerServe,
                    rec.clone(),
                )))?
            }
            None => serve(caches[0].clone())?,
        }),
        Rung::Cluster => {
            for (i, cache) in caches.iter().enumerate() {
                let hop = recorder.clone();
                let node = Arc::new(ClusterNode::new(
                    NodeId(i as u64),
                    cache.clone(),
                    Box::new(move |_peer, addr| {
                        let client = NetClient::connect(addr)?;
                        Ok(match &hop {
                            Some(rec) => {
                                Box::new(TracedTransport::new(client, Layer::ProxyHop, rec.clone()))
                                    as Box<dyn Transport + Send>
                            }
                            None => Box::new(client),
                        })
                    }),
                ));
                servers.push(match &recorder {
                    Some(rec) => serve(Arc::new(TracedBackend::new(
                        node.clone(),
                        Layer::ServerServe,
                        rec.clone(),
                    )))?,
                    None => serve(node.clone())?,
                });
                nodes.push(node);
            }
        }
    }
    let addrs: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let view: Vec<(u64, String)> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (i as u64, a.clone()))
        .collect();
    if workload.rung() == Rung::Cluster {
        for addr in &addrs {
            let epoch = connect(addr)?
                .with_id_namespace(CONTROL_NAMESPACE)
                .send_cluster_update(1, &view)
                .map_err(|e| format!("view push to {addr} failed: {e}"))?;
            if epoch != 1 {
                return Err(format!("{addr} holds epoch {epoch} after the epoch-1 push"));
            }
        }
    }
    let mut clients = Vec::with_capacity(CLIENTS);
    for (c, trace) in traces.into_iter().enumerate() {
        let net = match addrs.get(c % addrs.len().max(1)) {
            Some(addr) => Some(connect(addr)?.with_pool_size(1)),
            None => None,
        };
        clients.push(Client {
            trace,
            pos: 0,
            filter: FilterCache::new(LruCache::new(FILTER_CAPACITY)),
            namespace: c as u64 + 1,
            seq: 0,
            net,
        });
    }
    let mut rig = Rig {
        workload,
        caches,
        nodes,
        servers,
        addrs,
        clients,
        recorder,
        exact: Exact::default(),
        gen_s,
        errors: Vec::new(),
    };
    let ring = ClusterView::new(1, view.iter().map(|(i, a)| (NodeId(*i), a.clone()))).ring();
    prepass(&mut rig, cfg, &ring)?;
    warm_up(&mut rig, cfg, instance, &ring);
    rig.check_invariants();
    Ok(rig)
}

/// The short deterministic round-robin pass over the real fetch path.
/// `tcp_server` replays it on a fresh in-process oracle and requires the
/// server's counters, as sent over the wire, to be byte-identical;
/// `cluster_write` requires each node's local/proxied/owned counts to
/// match what the ownership ring predicts for the fixed entry nodes.
fn prepass(rig: &mut Rig, cfg: &Config, ring: &OwnershipRing) -> Result<(), String> {
    let mut sent: Vec<(usize, GroupRequest)> = Vec::new();
    let mut tallies: Vec<Tally> = (0..CLIENTS).map(|_| Tally::new(1, usize::MAX)).collect();
    for _ in 0..cfg.prepass {
        for (c, tally) in tallies.iter_mut().enumerate() {
            let before = tally.frames.len();
            step(rig, c, tally);
            if let Some((request, _)) = tally.frames.get(before) {
                sent.push((c, request.clone()));
            }
        }
    }
    for t in &tallies {
        rig.errors.extend(t.errors.iter().cloned());
        if t.failed > 0 {
            rig.errors
                .push(format!("{} requests failed in the checking pass", t.failed));
        }
    }
    rig.exact.events = tallies.iter().map(|t| t.events).sum();
    rig.exact.filter_hits = tallies.iter().map(|t| t.filter_hits).sum();
    rig.exact.requests = sent.len() as u64;
    rig.exact.round_trips = rig
        .clients
        .iter()
        .filter_map(|c| c.net.as_ref())
        .map(|n| n.stats().round_trips)
        .sum();

    match rig.workload.rung() {
        Rung::Local => {}
        Rung::Tcp => {
            let oracle = build_cache()?;
            let mut direct = DirectTransport::new(&oracle);
            for (_, request) in &sent {
                direct
                    .fetch_group(request)
                    .map_err(|e| format!("oracle fetch failed: {e}"))?;
            }
            let mut control = connect(&rig.addrs[0])?.with_id_namespace(CONTROL_NAMESPACE);
            let remote = control
                .server_stats()
                .map_err(|e| format!("stats request failed: {e}"))?;
            let frame = |stats| {
                Message::StatsReply {
                    request_id: 0,
                    stats,
                }
                .encode()
            };
            if frame(remote) != frame(oracle.wire_stats()) {
                rig.errors.push(format!(
                    "loopback server counters {remote:?} differ from the in-process oracle {:?}",
                    oracle.wire_stats()
                ));
            }
        }
        Rung::Cluster => {
            let mut local = [0u64; NODES];
            let mut proxied = [0u64; NODES];
            let mut owned = [0u64; NODES];
            for (c, request) in &sent {
                let entry = c % NODES;
                match ring.owner(request.files[0]) {
                    Some(NodeId(o)) if o as usize != entry => {
                        proxied[entry] += 1;
                        owned[o as usize] += 1;
                    }
                    _ => local[entry] += 1,
                }
            }
            let actual: Vec<ClusterNodeStats> = rig.nodes.iter().map(|n| n.stats()).collect();
            for (i, s) in actual.iter().enumerate() {
                let want = (local[i], proxied[i], owned[i], 0, 0);
                let got = (
                    s.local_serves,
                    s.proxied,
                    s.owned_serves,
                    s.collapsed,
                    s.proxy_failures,
                );
                if want != got {
                    rig.errors.push(format!(
                        "node {i} (local, proxied, owned, collapsed, failed) = {got:?}, ring predicts {want:?}"
                    ));
                }
            }
            rig.exact.local_serves = actual.iter().map(|s| s.local_serves).collect();
            rig.exact.proxied = actual.iter().map(|s| s.proxied).collect();
        }
    }
    Ok(())
}

/// One event of client `c` over the real fetch path.
fn step(rig: &mut Rig, c: usize, tally: &mut Tally) {
    let client = &mut rig.clients[c];
    match client.net.take() {
        Some(mut net) => {
            drive(client, &mut net, Stop::Events(1), tally);
            client.net = Some(net);
        }
        None => drive(
            client,
            &mut DirectTransport::new(&rig.caches[0]),
            Stop::Events(1),
            tally,
        ),
    }
}

/// The in-process warm-up through the rest of the first lap, whose counts
/// repeat exactly, then on to set-up `instance`'s starting point: the
/// set-ups of one run start at the middles of equal parts of the second
/// lap, so slow rungs, which cover only a short stretch per set-up, still
/// sample the whole lap.
fn warm_up(rig: &mut Rig, cfg: &Config, instance: usize, ring: &OwnershipRing) {
    let lap = warm(rig, cfg.lap.saturating_sub(cfg.prepass) as u64, ring);
    rig.exact.events += lap.events;
    rig.exact.filter_hits += lap.filter_hits;
    rig.exact.requests += lap.attempted;
    let setups = cfg.setups.max(1);
    let start = (2 * instance + 1) * cfg.lap / (2 * setups);
    let beyond = warm(rig, start as u64, ring);
    rig.errors
        .extend(lap.errors.into_iter().chain(beyond.errors));
}

/// `events` more events per client, round-robin in fixed chunks so the
/// order is deterministic.
fn warm(rig: &mut Rig, events: u64, ring: &OwnershipRing) -> Tally {
    const CHUNK: u64 = 1000;
    let mut tally = Tally::new(1, 0);
    let mut done = 0;
    while done < events {
        let step = CHUNK.min(events - done);
        for client in rig.clients.iter_mut() {
            match rig.workload.rung() {
                Rung::Cluster => {
                    let mut t = OwnerDirect {
                        nodes: &rig.nodes,
                        ring,
                    };
                    drive(client, &mut t, Stop::Events(step), &mut tally);
                }
                _ => drive(
                    client,
                    &mut DirectTransport::new(&rig.caches[0]),
                    Stop::Events(step),
                    &mut tally,
                ),
            }
        }
        done += step;
    }
    tally
}

/// Counters read with every client parked, at a window edge.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub at: Instant,
    pub caches: Vec<fgcache_core::sharded::ShardedSnapshot>,
    pub nodes: Vec<ClusterNodeStats>,
    pub proc: ProcSample,
    pub allocations: u64,
}

fn snapshot(rig: &Rig) -> Snapshot {
    Snapshot {
        at: Instant::now(),
        caches: rig.caches.iter().map(|c| c.snapshot()).collect(),
        nodes: rig.nodes.iter().map(|n| n.stats()).collect(),
        proc: procfs::sample(),
        allocations: crate::alloc::allocations(),
    }
}

/// One measured stretch: a timed window or a quality pass.
pub struct Window {
    pub seconds: f64,
    /// Length of a sub-window, seconds.
    pub window_s: f64,
    pub tallies: Vec<Tally>,
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Window {
    pub fn events(&self) -> u64 {
        self.tallies.iter().map(|t| t.events).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.tallies.iter().map(|t| t.attempted).sum()
    }

    pub fn answered(&self) -> u64 {
        self.tallies.iter().map(|t| t.answered).sum()
    }

    pub fn failed(&self) -> u64 {
        self.tallies.iter().map(|t| t.failed).sum()
    }

    /// Every client's fetch times, ns.
    pub fn latency(&self) -> Hist {
        let mut all = Hist::default();
        for t in &self.tallies {
            all.merge(&t.latency);
        }
        all
    }
}

/// The quality pass: `events` per client over the real fetch path, the
/// clients taking one event each in turn. The interleaving is fixed, so
/// the counts repeat exactly for a seed and do not depend on how fast the
/// rung runs or how the client threads are scheduled.
pub fn quality_pass(rig: &mut Rig, events: u64) -> Window {
    let mut tallies: Vec<Tally> = (0..CLIENTS).map(|_| Tally::new(1, 0)).collect();
    let before = snapshot(rig);
    for _ in 0..events {
        for (c, tally) in tallies.iter_mut().enumerate() {
            step(rig, c, tally);
        }
    }
    let after = snapshot(rig);
    let seconds = (after.at - before.at).as_secs_f64();
    Window {
        seconds,
        window_s: seconds,
        tallies,
        before,
        after,
    }
}

/// Runs both clients for `seconds` in a closed loop. With `traced`, the
/// client-side decorators wrap the transports, the recorder is on and
/// allocations are counted for the window.
pub fn measure(rig: &mut Rig, seconds: f64, windows: usize, traced: bool) -> Window {
    let start = OnceLock::new();
    let barrier = Barrier::new(CLIENTS + 1);
    let duration = Duration::from_secs_f64(seconds);
    let window_ns = (duration.as_nanos() as u64 / windows as u64).max(1);
    let recorder = if traced { rig.recorder.clone() } else { None };
    let mut clients = std::mem::take(&mut rig.clients);
    let (before, after, tallies) = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (start, barrier, recorder, cache) =
                    (&start, &barrier, recorder.clone(), &rig.caches[0]);
                s.spawn(move || {
                    let keep = if traced && c == 0 { FRAMES_KEPT } else { 0 };
                    let mut tally = Tally::new(windows, keep);
                    barrier.wait();
                    let t0: Instant = *start.get().expect("set before the start barrier");
                    let stop = Stop::Until {
                        t0,
                        end: t0 + duration,
                        window_ns,
                    };
                    run_client(client, cache, recorder, stop, &mut tally);
                    barrier.wait();
                    barrier.wait();
                    tally
                })
            })
            .collect();
        // Allocations are counted for the socket rungs only: their metric
        // is per round trip, and the shared counter would contend at the
        // in-process rungs' fetch rate.
        let count_allocs = recorder.is_some() && rig.workload.rung() != Rung::Local;
        if let Some(rec) = &recorder {
            rec.set_on(true);
        }
        crate::alloc::set_counting(count_allocs);
        let before = snapshot(rig);
        start.set(Instant::now()).expect("set once");
        barrier.wait();
        barrier.wait();
        let after = snapshot(rig);
        if let Some(rec) = &recorder {
            rec.set_on(false);
        }
        crate::alloc::set_counting(false);
        barrier.wait();
        let tallies: Vec<Tally> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (before, after, tallies)
    });
    rig.clients = clients;
    let t0 = *start.get().expect("set");
    Window {
        seconds: (after.at - t0).as_secs_f64(),
        window_s: window_ns as f64 / 1e9,
        tallies,
        before,
        after,
    }
}

fn run_client(
    client: &mut Client,
    cache: &Arc<ShardedAggregatingCache>,
    recorder: Option<Arc<Recorder>>,
    stop: Stop,
    tally: &mut Tally,
) {
    match (client.net.take(), recorder) {
        (None, None) => drive(client, &mut DirectTransport::new(cache), stop, tally),
        (None, Some(rec)) => {
            let core =
                TracedTransport::new(DirectTransport::new(cache), Layer::CoreAccess, rec.clone());
            let mut t = TracedTransport::new(core, Layer::ClientFetch, rec);
            drive(client, &mut t, stop, tally);
        }
        (Some(mut net), None) => {
            drive(client, &mut net, stop, tally);
            client.net = Some(net);
        }
        (Some(net), Some(rec)) => {
            let mut t = TracedTransport::new(net, Layer::ClientFetch, rec);
            drive(client, &mut t, stop, tally);
            client.net = Some(t.into_inner());
        }
    }
}

/// The end-of-run conservation checks on a window's deltas: the client
/// side's request accounting against the server side's counters.
pub fn check_conservation(rig: &Rig, w: &Window) -> Vec<String> {
    let mut errors = Vec::new();
    // Requests the server side took in.
    let seen = match rig.workload.rung() {
        Rung::Local | Rung::Tcp => {
            w.after.caches[0].stats.accesses - w.before.caches[0].stats.accesses
        }
        Rung::Cluster => {
            let delta = |f: fn(&ClusterNodeStats) -> u64| -> u64 {
                w.after.nodes.iter().map(f).sum::<u64>() - w.before.nodes.iter().map(f).sum::<u64>()
            };
            let (proxied, owned) = (delta(|s| s.proxied), delta(|s| s.owned_serves));
            let (local, collapsed) = (delta(|s| s.local_serves), delta(|s| s.collapsed));
            let fallbacks = delta(|s| s.proxy_failures);
            // A request that failed at the client may still be in flight.
            if w.failed() == 0 && fallbacks == 0 && proxied != owned {
                errors.push(format!(
                    "{proxied} groups proxied but {owned} served by owners"
                ));
            }
            // A failed proxy is counted as proxied (or collapsed) and
            // again as the local serve it falls back to.
            (local + proxied + collapsed).saturating_sub(fallbacks)
        }
    };
    // Every answered request was taken in, and nothing that was not
    // attempted; a request that failed at the client may or may not have
    // been. With no failures, the two sides agree exactly.
    if seen < w.answered() || seen > w.attempted() {
        errors.push(format!(
            "the server side took in {seen} requests; the clients had {} answered of {} attempted",
            w.answered(),
            w.attempted()
        ));
    }
    errors
}
