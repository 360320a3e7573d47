//! Cluster nodes behind real TCP servers: proxies between two nodes must
//! not exhaust each other's execution bound, a peer that accepts but
//! never replies ends in the local fallback, not a hang, and each
//! request is answered exactly once with its own group.

use std::net::TcpListener;
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use fgcache_cluster::{ClusterNode, ClusterView, NodeId, PeerConnector};
use fgcache_core::{CostModel, ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{
    BoundServer, GroupReply, GroupRequest, NetClient, ServerHandle, SimTransport, Transport,
    TransportStats,
};
use fgcache_types::{FileId, TransportError};

fn cache() -> Arc<ShardedAggregatingCache> {
    Arc::new(
        ShardedAggregatingCacheBuilder::new(200)
            .shards(2)
            .group_size(1)
            .build()
            .expect("valid config"),
    )
}

fn connector(timeout: Duration) -> PeerConnector {
    Box::new(move |_peer, addr| {
        Ok(Box::new(NetClient::connect(addr)?.with_timeout(timeout)) as Box<dyn Transport + Send>)
    })
}

/// A node behind a server that executes one fetch at a time.
fn serve(id: u64) -> (Arc<ClusterNode>, BoundServer) {
    let node = Arc::new(ClusterNode::new(
        NodeId(id),
        cache(),
        connector(Duration::from_secs(2)),
    ));
    let server = BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&node))
        .expect("ephemeral bind")
        .with_workers(1);
    (node, server)
}

/// The first `count` files the view's ring gives to `owner`, past `skip`.
fn owned_by(view: &ClusterView, owner: NodeId, skip: usize, count: usize) -> Vec<FileId> {
    let ring = view.ring();
    (0..)
        .map(FileId)
        .filter(|&f| ring.owner(f) == Some(owner))
        .skip(skip)
        .take(count)
        .collect()
}

#[test]
fn cross_node_proxies_do_not_exhaust_a_one_worker_bound() {
    const CLIENTS: usize = 4;
    const FETCHES: usize = 5;
    let (a, server_a) = serve(1);
    let (b, server_b) = serve(2);
    let view = ClusterView::new(
        1,
        [
            (NodeId(1), server_a.local_addr()),
            (NodeId(2), server_b.local_addr()),
        ],
    );
    a.apply_view(view.clone());
    b.apply_view(view.clone());
    let handles: Vec<ServerHandle> = vec![server_a.spawn(), server_b.spawn()];

    // Half the clients enter at each node and fetch only files the other
    // node owns, each a different file, so every fetch is one proxy and
    // two proxies cross in opposite directions at once.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let (entry, owner) = if c % 2 == 0 { (0, 2) } else { (1, 1) };
            let addr = handles[entry].addr().to_string();
            let files = owned_by(&view, NodeId(owner), c * FETCHES, FETCHES);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Longer than the proxy timeout, so a stalled proxy shows
                // up as a fallback in the stats, not as a client error.
                let mut client = NetClient::connect(&addr)
                    .expect("connect")
                    .with_timeout(Duration::from_secs(10))
                    .with_id_namespace(c as u64);
                barrier.wait();
                for file in files {
                    let request = client.next_request(vec![file]);
                    let reply = client.fetch_group(&request).expect("fetch");
                    assert_eq!(reply.files[0].file, file);
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    let took = started.elapsed();

    let (sa, sb) = (a.stats(), b.stats());
    for handle in handles {
        handle.stop();
    }
    assert!(took < Duration::from_secs(1), "20 fetches took {took:?}");
    assert_eq!(sa.proxy_failures + sb.proxy_failures, 0, "{sa:?} {sb:?}");
    assert_eq!(sa.proxied + sb.proxied, (CLIENTS * FETCHES) as u64);
    assert_eq!(sa.owned_serves, sb.proxied, "{sa:?} {sb:?}");
    assert_eq!(sb.owned_serves, sa.proxied, "{sa:?} {sb:?}");
}

#[test]
fn stalled_owner_falls_back_to_a_local_serve() {
    // The owner's address is a bare listener: the kernel completes each
    // handshake into its backlog, and nothing ever replies.
    let stalled = TcpListener::bind("127.0.0.1:0").expect("bind");
    let stalled_addr = stalled.local_addr().expect("addr").to_string();

    let node = Arc::new(ClusterNode::new(
        NodeId(1),
        cache(),
        connector(Duration::from_millis(200)),
    ));
    let server =
        BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&node)).expect("ephemeral bind");
    let view = ClusterView::new(
        1,
        [(NodeId(1), server.local_addr()), (NodeId(2), stalled_addr)],
    );
    node.apply_view(view.clone());
    let handle = server.spawn();

    let file = owned_by(&view, NodeId(2), 0, 1)[0];
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let started = Instant::now();
    let request = client.next_request(vec![file]);
    let reply = client
        .fetch_group(&request)
        .expect("answered by the fallback");
    let took = started.elapsed();
    handle.stop();
    drop(stalled);

    assert_eq!(reply.files.len(), 1);
    assert_eq!(reply.files[0].file, file);
    assert!(took < Duration::from_secs(1), "fallback took {took:?}");
    let stats = node.stats();
    assert_eq!(stats.proxy_failures, 1, "{stats:?}");
    assert_eq!(stats.proxied, 1, "{stats:?}");
    assert_eq!(stats.local_serves, 1, "{stats:?}");
    assert_eq!(node.cache().stats().accesses, 1);
}

#[test]
fn a_proxied_id_never_answers_another_clients_fetch() {
    // Two default-namespace clients, each talking only to its own node,
    // share request ids. A's proxy of P's fetch brings P's id 0 into B's
    // server; Q's own id-0 fetch at B must still get Q's file.
    let (a, server_a) = serve(1);
    let (b, server_b) = serve(2);
    let view = ClusterView::new(
        1,
        [
            (NodeId(1), server_a.local_addr()),
            (NodeId(2), server_b.local_addr()),
        ],
    );
    a.apply_view(view.clone());
    b.apply_view(view.clone());
    let (handle_a, handle_b) = (server_a.spawn(), server_b.spawn());
    let files = owned_by(&view, NodeId(2), 0, 2);

    let mut p = NetClient::connect(handle_a.addr()).expect("connect to A");
    let mut q = NetClient::connect(handle_b.addr()).expect("connect to B");
    let from_p = p.next_request(vec![files[0]]);
    let from_q = q.next_request(vec![files[1]]);
    assert_eq!(from_p.request_id, from_q.request_id, "the ids collide");
    let reply_p = p.fetch_group(&from_p).expect("P's fetch");
    let reply_q = q.fetch_group(&from_q).expect("Q's fetch");
    handle_a.stop();
    handle_b.stop();

    assert_eq!(reply_p.files[0].file, files[0]);
    assert_eq!(reply_q.files[0].file, files[1], "Q got another group");
    assert_eq!(b.cache().stats().accesses, 2, "B executed both fetches");
    assert_eq!(a.stats().proxied, 1);
}

/// The test's handle on [`GatedPeer`]: how many fetches entered it, and
/// whether they may proceed.
#[derive(Default)]
struct Gate {
    state: Mutex<(usize, bool)>,
    changed: Condvar,
}

impl Gate {
    fn entered(&self) -> usize {
        self.state.lock().expect("gate").0
    }

    fn release(&self) {
        self.state.lock().expect("gate").1 = true;
        self.changed.notify_all();
    }
}

/// Parks every fetch through it until the test opens the gate.
struct GatedPeer {
    inner: SimTransport<'static>,
    gate: Arc<Gate>,
}

impl Transport for GatedPeer {
    fn fetch_group(&mut self, request: &GroupRequest) -> Result<GroupReply, TransportError> {
        let mut state = self.gate.state.lock().expect("gate");
        state.0 += 1;
        while !state.1 {
            state = self.gate.changed.wait(state).expect("gate");
        }
        drop(state);
        self.inner.fetch_group(request)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

#[test]
fn a_concurrent_retry_at_a_node_waits_for_the_original() {
    // Node 1 proxies to an in-process owner through a gated transport,
    // so fetch 1 parks mid-proxy while its retry arrives on another
    // connection.
    let gate = Arc::new(Gate::default());
    let owner = cache();
    let node = Arc::new(ClusterNode::new(NodeId(1), cache(), {
        let (gate, owner) = (Arc::clone(&gate), Arc::clone(&owner));
        Box::new(move |_peer, _addr| {
            Ok(Box::new(GatedPeer {
                inner: SimTransport::to_shared_arc(Arc::clone(&owner), CostModel::remote()),
                gate: Arc::clone(&gate),
            }) as Box<dyn Transport + Send>)
        })
    }));
    let view = ClusterView::new(
        1,
        [
            (NodeId(1), "unused".to_string()),
            (NodeId(2), "sim://2".to_string()),
        ],
    );
    node.apply_view(view.clone());
    let handle = BoundServer::bind_backend("127.0.0.1:0", Arc::clone(&node))
        .expect("ephemeral bind")
        .spawn();
    let request = GroupRequest::new(1, owned_by(&view, NodeId(2), 0, 1));
    let fetch = |request: GroupRequest| {
        let addr = handle.addr().to_string();
        std::thread::spawn(move || {
            NetClient::connect(&addr)
                .expect("connect")
                .with_timeout(Duration::from_secs(10))
                .fetch_group(&request)
                .expect("fetch")
        })
    };

    let first = fetch(request.clone());
    while gate.entered() == 0 {
        std::thread::yield_now();
    }
    let retry = fetch(request);
    // A retry counts as a server hit when it joins the running fetch.
    let mut stats = NetClient::connect(handle.addr()).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut hits = 0;
    while hits == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        hits = stats.server_stats().expect("stats reply").reply_cache_hits;
    }
    assert_eq!(hits, 1, "the retry joined the parked fetch at the server");
    assert!(!retry.is_finished(), "the retry waits while id 1 is parked");
    gate.release();
    let (first, again) = (first.join().expect("first"), retry.join().expect("retry"));
    handle.stop();

    assert_eq!(first, again, "the identical reply");
    assert_eq!(owner.stats().accesses, 1, "executed once");
    assert_eq!(gate.entered(), 1, "one proxy fetch");
    let stats = node.stats();
    assert_eq!((stats.proxied, stats.collapsed), (1, 0), "{stats:?}");
}
