//! Event-server capacity smoke + measurement: one server holding
//! hundreds of mostly-idle connections while active clients replay a
//! workload over TCP.
//!
//! What it checks (each divergence panics, so `cargo bench` exits
//! nonzero — this is the ci high-connection smoke):
//!
//! * the active replay's server-side cache statistics are byte-identical
//!   to the same replay executed in process with `DirectTransport`;
//! * every idle connection is still live afterwards and returns the
//!   same `StatsReply` bytes (served through its connection thread);
//! * the wire scratch paths (`encode_into` / `decode_fetch_into`) are
//!   allocation-free in steady state, measured by this binary's counting
//!   global allocator;
//! * resident-set growth across the whole run stays bounded (checked via
//!   `/proc/self/status` where available).
//!
//! What it measures (written to `BENCH_server.json` with `--json`):
//! connections held, events/s through the active connections, p50/p99
//! frame round-trip latency with every idle connection still attached,
//! and allocs/frame — both the wire-layer steady state (asserted 0) and
//! the honest end-to-end figure (client + server + execution in one
//! process, so it includes reply building and reply-cache retention).
//!
//! Flags (after `--`): `--smoke` shrinks the workload for CI, `--json
//! PATH` writes the summary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::Arc;
use std::time::Instant;

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    decode_fetch_into, BoundServer, DirectTransport, GroupRequest, Message, NetClient, Transport,
};
use fgcache_sim::multiclient::run_multiclient_transport;
use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
use fgcache_trace::Trace;
use fgcache_types::FileId;

/// Counts every allocation routed through the global allocator (bench
/// binary only; the library crates stay `forbid(unsafe_code)`).
struct CountingAlloc;

static ALLOCATIONS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const IDLE_CONNS: usize = 256;
const ACTIVE_CLIENTS: usize = 4;
const FILTER: usize = 100;
const FULL_EVENTS_PER_CLIENT: usize = 10_000;
const SMOKE_EVENTS_PER_CLIENT: usize = 2_000;
const FULL_PROBES: usize = 2_000;
const SMOKE_PROBES: usize = 400;
/// Generous upper bound on RSS growth across the run: 256 idle
/// connections plus replay state must stay far below this.
const MAX_RSS_GROWTH_KB: u64 = 128 * 1024;

fn cache() -> ShardedAggregatingCache {
    ShardedAggregatingCacheBuilder::new(400)
        .shards(2)
        .group_size(5)
        .successor_capacity(8)
        .build()
        .expect("valid cache config")
}

fn traces(events_per_client: usize) -> Vec<Trace> {
    (0..ACTIVE_CLIENTS)
        .map(|i| {
            SynthConfig::profile(WorkloadProfile::Server)
                .events(events_per_client)
                .seed(20020702 + i as u64)
                .build()
                .expect("valid synth config")
                .generate()
        })
        .collect()
}

/// Resident set size in KiB from `/proc/self/status`, if readable.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Asserts the reused-buffer wire paths allocate nothing in steady
/// state; returns the measured count (always 0 on success).
fn assert_wire_steady_state_alloc_free() -> u64 {
    let fetch = Message::Fetch {
        request_id: 42,
        files: (0..5).map(FileId).collect(),
    };
    let mut frame = Vec::new();
    let mut files: Vec<FileId> = Vec::new();
    // Warm: first calls grow the scratch buffers to steady capacity.
    fetch.encode_into(&mut frame);
    decode_fetch_into(&frame[4..], &mut files)
        .expect("well-formed")
        .expect("a fetch frame");
    let before = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
    for _ in 0..10_000 {
        fetch.encode_into(&mut frame);
        decode_fetch_into(&frame[4..], &mut files)
            .expect("well-formed")
            .expect("a fetch frame");
    }
    let allocs = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed) - before;
    assert_eq!(
        allocs, 0,
        "wire encode/decode must be allocation-free on warm scratch buffers"
    );
    allocs
}

fn percentile(sorted_micros: &[f64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[idx]
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    connections_held: usize,
    events: usize,
    events_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    allocs_per_frame_e2e: f64,
    rss_growth_kb: Option<u64>,
) {
    let rss = rss_growth_kb.map_or("null".to_string(), |kb| kb.to_string());
    let body = format!(
        "{{\n  \"connections_held\": {connections_held},\n  \"events\": {events},\n  \
         \"events_per_sec\": {events_per_sec:.0},\n  \"p50_frame_latency_us\": {p50_us:.1},\n  \
         \"p99_frame_latency_us\": {p99_us:.1},\n  \"allocs_per_frame_wire\": 0,\n  \
         \"allocs_per_frame_e2e\": {allocs_per_frame_e2e:.2},\n  \"rss_growth_kb\": {rss},\n  \
         \"host_cores\": {}\n}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    std::fs::write(path, body).expect("write json summary");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let events_per_client = if smoke {
        SMOKE_EVENTS_PER_CLIENT
    } else {
        FULL_EVENTS_PER_CLIENT
    };
    let probes = if smoke { SMOKE_PROBES } else { FULL_PROBES };
    let traces = traces(events_per_client);
    let total_events = ACTIVE_CLIENTS * events_per_client;
    println!(
        "# event_server: {IDLE_CONNS} idle conns + {ACTIVE_CLIENTS} active clients x \
         {events_per_client} events, {} host cores",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Wire scratch steady state first, before sockets muddy the counter.
    assert_wire_steady_state_alloc_free();
    println!("wire scratch steady state: 0 allocs/frame (asserted)");

    // Direct in-process baseline: the byte-identity oracle.
    let oracle = cache();
    let direct: Vec<DirectTransport<'_>> = (0..ACTIVE_CLIENTS)
        .map(|_| DirectTransport::new(&oracle))
        .collect();
    run_multiclient_transport(&traces, FILTER, direct, 1, false).expect("direct replay");

    let rss_before = rss_kb();

    // One real server; hold IDLE_CONNS mostly-idle connections open.
    let served = Arc::new(cache());
    let handle = BoundServer::bind("127.0.0.1:0", Arc::clone(&served))
        .expect("loopback bind")
        .spawn();
    let mut idle: Vec<NetClient> = (0..IDLE_CONNS)
        .map(|i| {
            NetClient::connect(handle.addr())
                .expect("idle connect")
                .with_id_namespace(10_000 + i as u64)
        })
        .collect();
    println!("holding {} idle connections", idle.len());

    // Active replay through the crowd of idle connections, timed.
    let clients: Vec<NetClient> = (0..ACTIVE_CLIENTS)
        .map(|i| {
            NetClient::connect(handle.addr())
                .expect("active connect")
                .with_id_namespace(i as u64)
        })
        .collect();
    let allocs_before = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed);
    let start = Instant::now();
    let (point, _) =
        run_multiclient_transport(&traces, FILTER, clients, 1, false).expect("tcp replay");
    let secs = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(std::sync::atomic::Ordering::Relaxed) - allocs_before;
    let frames = point.transport.round_trips.max(1);
    let events_per_sec = total_events as f64 / secs;
    let allocs_per_frame_e2e = allocs as f64 / frames as f64;

    // Byte-identity: the TCP replay left the server cache in exactly the
    // state the in-process replay left the oracle.
    assert_eq!(
        served.stats(),
        oracle.stats(),
        "TCP replay diverged from direct execution (cache stats)"
    );
    assert_eq!(
        served.group_stats(),
        oracle.group_stats(),
        "TCP replay diverged from direct execution (group stats)"
    );
    println!("byte-identity vs direct execution: ok ({total_events} events)");

    // Frame latency with the full crowd still connected: sequential
    // round trips on one more connection.
    let mut prober = NetClient::connect(handle.addr()).expect("probe connect");
    let mut lat_us: Vec<f64> = Vec::with_capacity(probes);
    for i in 0..probes {
        let request = GroupRequest::new(
            fgcache_net::request_id(99, i as u64),
            vec![FileId((i % 64) as u64)],
        );
        let t = Instant::now();
        prober.fetch_group(&request).expect("probe fetch");
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&lat_us, 0.50);
    let p99 = percentile(&lat_us, 0.99);

    // Every idle connection is still alive and served: its StatsReply
    // must match every other's, byte for byte (same counters, same
    // wire round trip through each connection's thread).
    let expected = idle[0].server_stats().expect("idle stats");
    for client in idle.iter_mut().skip(1) {
        let got = client.server_stats().expect("idle stats");
        assert_eq!(got, expected, "an idle connection diverged");
    }
    println!("all {IDLE_CONNS} idle connections served identical stats replies");

    let rss_growth_kb = match (rss_before, rss_kb()) {
        (Some(before), Some(after)) => {
            let growth = after.saturating_sub(before);
            assert!(
                growth < MAX_RSS_GROWTH_KB,
                "RSS grew {growth} KiB over the run (bound {MAX_RSS_GROWTH_KB} KiB)"
            );
            Some(growth)
        }
        _ => None, // not a procfs platform; structural bounds still hold
    };

    drop(idle);
    handle.stop();

    println!(
        "connections_held {:>6}\nevents_per_sec   {events_per_sec:>10.0}\n\
         p50_frame_latency {p50:>8.1} us\np99_frame_latency {p99:>8.1} us\n\
         allocs_per_frame (wire) 0 (asserted)\nallocs_per_frame (e2e)  {allocs_per_frame_e2e:.2}",
        IDLE_CONNS + ACTIVE_CLIENTS + 1,
    );
    if let Some(kb) = rss_growth_kb {
        println!("rss_growth        {kb:>8} KiB (bound {MAX_RSS_GROWTH_KB} KiB)");
    }

    if let Some(path) = json_path {
        write_json(
            &path,
            IDLE_CONNS + ACTIVE_CLIENTS + 1,
            total_events,
            events_per_sec,
            p50,
            p99,
            allocs_per_frame_e2e,
            rss_growth_kb,
        );
        println!("# wrote {path}");
    }
}
