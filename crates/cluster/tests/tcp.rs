//! Cluster nodes behind real TCP servers: proxies between two nodes must
//! not exhaust each other's execution bound, and a peer that accepts but
//! never replies ends in the local fallback, not a hang.

use std::net::TcpListener;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fgcache_cluster::{ClusterNode, ClusterView, NodeId, PeerConnector};
use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::{BoundServer, NetClient, ServerHandle, Transport};
use fgcache_types::FileId;

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
