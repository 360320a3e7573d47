//! Server integration tests: pipelined order, slow clients, the
//! connection cap, half-close, malformed frames and frames arriving one
//! byte at a time.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::wire::{read_frame, write_frame};
use fgcache_net::{BoundServer, GroupRequest, Message, NetClient, ServerHandle, Transport};
use fgcache_types::FileId;

fn cache(capacity: usize) -> Arc<ShardedAggregatingCache> {
    Arc::new(
        ShardedAggregatingCacheBuilder::new(capacity)
            .shards(2)
            .group_size(2)
            .build()
            .expect("valid build"),
    )
}

fn bound(capacity: usize) -> BoundServer {
    BoundServer::bind("127.0.0.1:0", cache(capacity)).expect("ephemeral bind")
}

fn req(id: u64, files: &[u64]) -> GroupRequest {
    GroupRequest::new(id, files.iter().map(|&f| FileId(f)).collect())
}

fn fetch_frame(id: u64, files: &[u64]) -> Vec<u8> {
    Message::Fetch {
        request_id: id,
        files: files.iter().map(|&f| FileId(f)).collect(),
    }
    .encode()
}

#[test]
fn pipelined_batch_larger_than_the_pending_cap_replies_in_order() {
    // 100 requests pipelined on one connection, far more than a reply
    // fits in flight: the connection's thread answers each before it
    // reads the next, so every reply leaves in request order (the batched
    // client matches replies by position).
    let handle: ServerHandle = bound(300).spawn();
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    let batch: Vec<GroupRequest> = (0..100u64).map(|i| req(i, &[i % 17, i % 5])).collect();
    let replies = client.fetch_batch(&batch);
    assert_eq!(replies.len(), 100);
    for (result, request) in replies.iter().zip(&batch) {
        let reply = result.as_ref().expect("pipelined fetch");
        assert_eq!(reply.request_id, request.request_id, "in-order release");
        assert_eq!(reply.files.len(), request.files.len());
    }
    handle.stop();
}

#[test]
fn connection_cap_defers_accepts_until_a_slot_frees() {
    // max_conns = 1: the second client's connection sits in the kernel
    // backlog (established, unaccepted) and is served — never refused,
    // never panicking — once the first client disconnects.
    let handle = bound(100).with_max_conns(1).spawn();
    let addr = handle.addr().to_string();

    let mut first = NetClient::connect(&addr).expect("first connect");
    first.fetch_group(&req(0, &[1])).expect("first fetch");

    let second_addr = addr.clone();
    let second = std::thread::spawn(move || {
        let mut client = NetClient::connect(&second_addr)
            .expect("backlogged connect")
            .with_timeout(Duration::from_secs(10));
        client.fetch_group(&req(1, &[2])).expect("deferred fetch")
    });

    // Give the second client time to be genuinely waiting, then free the
    // only slot.
    std::thread::sleep(Duration::from_millis(200));
    drop(first);

    let reply = second.join().expect("second client thread");
    assert_eq!(reply.request_id, 1);
    assert_eq!(reply.files[0].file, FileId(2));
    handle.stop();
}

#[test]
fn slow_reader_backpressure_leaves_other_connections_unaffected() {
    // A client that pipelines 300 requests and reads nothing: once the
    // socket buffers fill, its connection thread blocks in `write` and
    // stops reading, and a well-behaved client on another connection
    // keeps round-tripping normally. When the slow reader finally drains,
    // every reply arrives, in order — nothing was dropped under pressure.
    let handle = bound(400).spawn();

    let mut slow = TcpStream::connect(handle.addr()).expect("slow connect");
    slow.set_nodelay(true).expect("nodelay");
    slow.set_write_timeout(Some(Duration::from_secs(10)))
        .expect("write timeout");
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let files: Vec<u64> = (0..100).collect();
    for id in 0..300u64 {
        slow.write_all(&fetch_frame(id, &files)).expect("pipeline");
    }

    // The slow reader's requests and replies are now parked in kernel
    // buffers. The other connection must not notice.
    let mut brisk = NetClient::connect(handle.addr()).expect("brisk connect");
    for i in 0..50u64 {
        let reply = brisk
            .fetch_group(&req(1_000_000 + i, &[i % 7]))
            .expect("brisk fetch while the slow reader is stalled");
        assert_eq!(reply.files.len(), 1);
    }

    // Now drain: all 300 replies, in request order.
    for id in 0..300u64 {
        match read_frame(&mut slow).expect("drained reply") {
            Message::FetchReply { request_id, files } => {
                assert_eq!(request_id, id, "in-order release under pressure");
                assert_eq!(files.len(), 100);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    handle.stop();
}

#[test]
fn frame_split_across_single_byte_writes_is_reassembled() {
    let handle = bound(50).spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let frame = fetch_frame(42, &[7, 8]);
    for &byte in &frame {
        stream.write_all(&[byte]).expect("one byte");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    match read_frame(&mut stream).expect("reassembled") {
        Message::FetchReply { request_id, files } => {
            assert_eq!(request_id, 42);
            assert_eq!(files.len(), 2);
            assert_eq!(files[0].file, FileId(7));
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The connection stays usable for a normally-written frame.
    write_frame(
        &mut stream,
        &Message::Fetch {
            request_id: 43,
            files: vec![FileId(9)],
        },
    )
    .expect("write");
    match read_frame(&mut stream).expect("second reply") {
        Message::FetchReply { request_id, .. } => assert_eq!(request_id, 43),
        other => panic!("unexpected reply {other:?}"),
    }
    handle.stop();
}

#[test]
fn half_close_still_flushes_every_owed_reply() {
    // A client that pipelines requests and closes its write side is owed
    // every reply before the server parts with the connection.
    let handle = bound(100).spawn();
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    for id in 0..10u64 {
        stream.write_all(&fetch_frame(id, &[id])).expect("pipeline");
    }
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    for id in 0..10u64 {
        match read_frame(&mut stream).expect("owed reply") {
            Message::FetchReply { request_id, .. } => assert_eq!(request_id, id),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    // After the last owed reply the server closes; EOF, not garbage.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());
    handle.stop();
}

#[test]
fn malformed_frame_hangs_up_without_poisoning_the_server() {
    let handle = bound(50).spawn();

    // Garbage with a plausible length prefix: the server must hang up on
    // that connection only.
    let mut bad = TcpStream::connect(handle.addr()).expect("connect");
    bad.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    bad.write_all(&5u32.to_le_bytes()).expect("length");
    bad.write_all(&[99, 99, 99, 99, 99]).expect("garbage");
    let mut rest = Vec::new();
    bad.read_to_end(&mut rest).expect("hangup");
    assert!(rest.is_empty(), "no reply to garbage, just a close");

    // The server is still healthy for everyone else.
    let mut client = NetClient::connect(handle.addr()).expect("connect");
    client.fetch_group(&req(0, &[3])).expect("healthy fetch");
    handle.stop();
}
