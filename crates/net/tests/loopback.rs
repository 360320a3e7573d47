//! Loopback TCP integration tests: a real [`BoundServer`] on an ephemeral
//! 127.0.0.1 port, exercised by [`NetClient`] through the full wire
//! protocol — fetches, pipelined batches, idempotent retries (concurrent
//! ones included), stats, and cooperative shutdown.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    BoundServer, GroupReply, GroupRequest, NetClient, ServeBackend, ServerHandle, Transport,
    WireStats,
};
use fgcache_types::{FileId, TransportErrorKind};

fn server(capacity: usize, group: usize) -> (ServerHandle, Arc<ShardedAggregatingCache>) {
    let cache = Arc::new(
        ShardedAggregatingCacheBuilder::new(capacity)
            .shards(2)
            .group_size(group)
            .build()
            .expect("valid build"),
    );
    let bound = BoundServer::bind("127.0.0.1:0", Arc::clone(&cache)).expect("ephemeral bind");
    (bound.spawn(), cache)
}

fn req(id: u64, files: &[u64]) -> GroupRequest {
    GroupRequest::new(id, files.iter().map(|&f| FileId(f)).collect())
}

#[test]
fn fetch_round_trip_reports_real_provenance() {
    let (handle, cache) = server(40, 1);
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    let cold = client.fetch_group(&req(0, &[5])).expect("cold fetch");
    let warm = client.fetch_group(&req(1, &[5])).expect("warm fetch");
    assert!(cold.files[0].outcome.is_miss());
    assert!(warm.files[0].outcome.is_hit());
    assert_eq!(cold.files[0].file, FileId(5));

    // The server-side cache really served these accesses.
    assert_eq!(cache.stats().accesses, 2);
    assert_eq!(cache.stats().hits, 1);
    handle.stop();
}

#[test]
fn server_stats_match_in_process_reads() {
    let (handle, cache) = server(60, 3);
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    for i in 0..50u64 {
        client.fetch_group(&req(i, &[i % 13])).expect("fetch");
    }
    let wire = client.server_stats().expect("stats reply");
    let stats = cache.stats();
    let group = cache.group_stats();
    assert_eq!(wire.accesses, stats.accesses);
    assert_eq!(wire.hits, stats.hits);
    assert_eq!(wire.misses, stats.misses);
    assert_eq!(wire.speculative_inserts, stats.speculative_inserts);
    assert_eq!(wire.evictions, stats.evictions);
    assert_eq!(wire.demand_fetches, group.demand_fetches);
    assert_eq!(wire.files_transferred, group.files_transferred);
    handle.stop();
}

#[test]
fn repeated_request_id_is_served_from_the_reply_cache() {
    let (handle, cache) = server(40, 1);
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    let first = client.fetch_group(&req(7, &[3, 4])).expect("first");
    // A retry of the same request id — as RetryingTransport would issue
    // after a lost reply — must re-deliver, not re-execute.
    let again = client.fetch_group(&req(7, &[3, 4])).expect("retry");
    assert_eq!(
        first, again,
        "byte-identical re-delivery, provenance included"
    );
    assert_eq!(
        cache.stats().accesses,
        2,
        "two files accessed once each; the retry executed nothing"
    );
    handle.stop();
}

#[test]
fn reply_cache_hits_are_counted_and_capacity_zero_disables_dedup() {
    // Default window: a same-id retry is answered from the reply cache
    // and shows up in the wire-stats hit counter.
    let (handle, cache) = server(40, 1);
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let first = client.fetch_group(&req(7, &[3])).expect("first");
    let again = client.fetch_group(&req(7, &[3])).expect("retry");
    assert_eq!(first, again);
    let wire = client.server_stats().expect("stats reply");
    assert_eq!(wire.reply_cache_hits, 1, "the retry hit the reply cache");
    assert_eq!(cache.stats().accesses, 1, "the retry executed nothing");
    handle.stop();

    // Capacity 0 through the builder knob: dedup is off, the retry
    // re-executes and no hit is ever counted.
    let cache = Arc::new(
        ShardedAggregatingCacheBuilder::new(40)
            .shards(2)
            .group_size(1)
            .build()
            .expect("valid build"),
    );
    let handle = BoundServer::bind("127.0.0.1:0", Arc::clone(&cache))
        .expect("ephemeral bind")
        .with_dedup_capacity(0)
        .spawn();
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client.fetch_group(&req(7, &[3])).expect("first");
    client
        .fetch_group(&req(7, &[3]))
        .expect("retry re-executes");
    let wire = client.server_stats().expect("stats reply");
    assert_eq!(wire.reply_cache_hits, 0, "no window, no hits");
    assert_eq!(cache.stats().accesses, 2, "no dedup: both fetches executed");
    handle.stop();
}

#[test]
fn batched_fetches_pipeline_on_one_connection() {
    let (handle, cache) = server(100, 2);
    let mut client = NetClient::connect(handle.addr()).expect("connect");

    let batch: Vec<GroupRequest> = (0..20u64).map(|i| req(i, &[i % 7])).collect();
    let replies = client.fetch_batch(&batch);
    assert_eq!(replies.len(), 20);
    for (result, request) in replies.iter().zip(&batch) {
        let reply = result.as_ref().expect("batched fetch");
        assert_eq!(reply.request_id, request.request_id);
        assert_eq!(reply.files.len(), request.files.len());
    }
    assert_eq!(cache.stats().accesses, 20);
    assert_eq!(client.stats().round_trips, 1, "one pipelined round trip");
    handle.stop();
}

#[test]
fn sequential_and_batched_runs_agree_with_direct_execution() {
    // The same access stream three ways: direct in-process, per-request
    // TCP, and batched TCP. All three must leave identical server stats.
    let stream: Vec<u64> = (0..120).map(|i| (i * 7 + i / 11) % 23).collect();

    let run_direct = || {
        let cache = ShardedAggregatingCacheBuilder::new(30)
            .shards(2)
            .group_size(3)
            .build()
            .expect("valid build");
        for &f in &stream {
            cache.handle_access(FileId(f));
        }
        (cache.stats(), cache.group_stats())
    };
    let (direct_stats, direct_group) = run_direct();

    for batch_size in [1usize, 8, 120] {
        let (handle, cache) = server(30, 3);
        let mut client = NetClient::connect(handle.addr()).expect("connect");
        for (chunk_idx, chunk) in stream.chunks(batch_size).enumerate() {
            let batch: Vec<GroupRequest> = chunk
                .iter()
                .enumerate()
                .map(|(i, &f)| req((chunk_idx * batch_size + i) as u64, &[f]))
                .collect();
            for r in client.fetch_batch(&batch) {
                r.expect("batched fetch");
            }
        }
        assert_eq!(cache.stats(), direct_stats, "batch={batch_size}");
        assert_eq!(cache.group_stats(), direct_group, "batch={batch_size}");
        handle.stop();
    }
}

#[test]
fn read_timeout_surfaces_as_retryable_timeout() {
    // A listener that accepts and then never replies.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_millis(300));
        drop(stream);
    });

    let mut client = NetClient::connect(&addr)
        .expect("connect")
        .with_timeout(Duration::from_millis(50));
    let err = client
        .fetch_group(&req(0, &[1]))
        .expect_err("no reply ever");
    assert_eq!(err.kind(), TransportErrorKind::Timeout);
    assert!(err.is_retryable());
    silent.join().expect("silent listener thread");
}

#[test]
fn connect_to_nothing_is_connection_lost() {
    // Bind and immediately drop to obtain a port that is (almost surely)
    // closed.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let err = NetClient::connect(&format!("127.0.0.1:{port}")).expect_err("nothing listening");
    assert_eq!(err.kind(), TransportErrorKind::ConnectionLost);
}

#[test]
fn shutdown_via_client_stops_the_server() {
    let (handle, _cache) = server(40, 1);
    let addr = handle.addr().to_string();
    let mut client = NetClient::connect(&addr).expect("connect");
    client.fetch_group(&req(0, &[1])).expect("fetch");
    client.send_shutdown().expect("acknowledged");
    handle.stop(); // joins promptly because the flag is already set

    // The port no longer accepts fetches.
    let late = NetClient::connect(&addr);
    assert!(late.is_err(), "server must be gone after shutdown");
}

#[test]
fn pool_survives_many_sequential_clients() {
    let (handle, cache) = server(500, 2);
    for c in 0..4u64 {
        let mut client = NetClient::connect(handle.addr())
            .expect("connect")
            .with_id_namespace(c)
            .with_pool_size(1);
        for i in 0..25u64 {
            let request = client.next_request(vec![FileId(c * 100 + i)]);
            client.fetch_group(&request).expect("fetch");
        }
    }
    assert_eq!(cache.stats().accesses, 100);
    handle.stop();
}

#[test]
#[should_panic(expected = "does not fit in 16 bits")]
fn id_namespaces_beyond_16_bits_are_rejected() {
    // `request_id` keeps 16 namespace bits, so 1 << 16 would alias
    // namespace 0. Any listener will do: the client only has to connect.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let client = NetClient::connect(&addr)
        .expect("connect")
        .with_id_namespace(0xFFFF); // the largest namespace is fine
    let _ = client.with_id_namespace(1 << 16);
}

/// The request id whose fetches park in [`GatedCache`] until released.
const PARKED_ID: u64 = 1;

/// A plain cache whose fetches for [`PARKED_ID`] park until the test
/// opens the gate, counting how many times that id executed.
struct GatedCache {
    cache: ShardedAggregatingCache,
    parked_runs: Mutex<usize>,
    open: Mutex<bool>,
    opened: Condvar,
}

impl GatedCache {
    fn new() -> Self {
        GatedCache {
            cache: ShardedAggregatingCacheBuilder::new(40)
                .shards(2)
                .group_size(1)
                .build()
                .expect("valid build"),
            parked_runs: Mutex::new(0),
            open: Mutex::new(false),
            opened: Condvar::new(),
        }
    }

    fn parked_runs(&self) -> usize {
        *self.parked_runs.lock().expect("run counter")
    }

    fn release(&self) {
        *self.open.lock().expect("gate") = true;
        self.opened.notify_all();
    }
}

impl ServeBackend for GatedCache {
    fn serve_group(&self, request_id: u64, files: &[FileId]) -> GroupReply {
        if request_id == PARKED_ID {
            *self.parked_runs.lock().expect("run counter") += 1;
            let mut open = self.open.lock().expect("gate");
            while !*open {
                open = self.opened.wait(open).expect("gate");
            }
        }
        self.cache.serve_group(request_id, files)
    }

    fn wire_stats(&self) -> WireStats {
        self.cache.wire_stats()
    }
}

/// Fetches `request` on a fresh client, so on a connection of its own.
fn fetch_on_new_connection(addr: &str, request: GroupRequest) -> JoinHandle<GroupReply> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        NetClient::connect(&addr)
            .expect("connect")
            .with_timeout(Duration::from_secs(10))
            .fetch_group(&request)
            .expect("fetch")
    })
}

/// The server's `reply_cache_hits` once it is nonzero, or 0 after
/// `patience`. A retry counts as a hit when it joins a running fetch, so
/// a hit while the original is parked shows the retry is waiting on it.
fn reply_cache_hits_within(client: &mut NetClient, patience: Duration) -> u64 {
    let deadline = std::time::Instant::now() + patience;
    loop {
        let hits = client.server_stats().expect("stats reply").reply_cache_hits;
        if hits > 0 || std::time::Instant::now() >= deadline {
            return hits;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A server over a [`GatedCache`], with fetch [`PARKED_ID`] already
/// parked inside the backend.
fn server_with_a_parked_fetch() -> (ServerHandle, Arc<GatedCache>, JoinHandle<GroupReply>) {
    let backend = Arc::new(GatedCache::new());
    let handle = BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&backend))
        .expect("ephemeral bind")
        .spawn();
    let parked = fetch_on_new_connection(handle.addr(), req(PARKED_ID, &[1, 2]));
    while backend.parked_runs() == 0 {
        std::thread::yield_now();
    }
    (handle, backend, parked)
}

#[test]
fn a_parked_fetch_does_not_hold_up_other_connections() {
    let (handle, backend, parked) = server_with_a_parked_fetch();
    // A server that serialised execution would leave this fetch queued
    // behind the parked one until the client timed out.
    let mut client = NetClient::connect(handle.addr())
        .expect("connect")
        .with_timeout(Duration::from_secs(2));
    let other = client.fetch_group(&req(2, &[3]));
    backend.release();
    let other = other.expect("fetch id 2 completes while id 1 is parked");
    assert_eq!(other.files[0].file, FileId(3));
    assert_eq!(parked.join().expect("parked client").request_id, PARKED_ID);
    assert_eq!(backend.cache.stats().accesses, 3);
    handle.stop();
}

#[test]
fn a_concurrent_retry_waits_for_the_original_and_shares_its_reply() {
    let (handle, backend, parked) = server_with_a_parked_fetch();
    let retry = fetch_on_new_connection(handle.addr(), req(PARKED_ID, &[1, 2]));
    let mut stats = NetClient::connect(handle.addr()).expect("connect");
    assert_eq!(
        reply_cache_hits_within(&mut stats, Duration::from_secs(5)),
        1
    );
    assert!(!retry.is_finished(), "the retry waits while id 1 is parked");
    backend.release();
    let first = parked.join().expect("parked client");
    let again = retry.join().expect("retrying client");
    assert_eq!(first, again, "the identical reply, provenance included");
    assert_eq!(backend.parked_runs(), 1, "id 1 executed once");
    assert_eq!(backend.cache.stats().accesses, 2);
    assert_eq!(stats.server_stats().expect("stats").reply_cache_hits, 1);
    handle.stop();
}
