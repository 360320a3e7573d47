//! Shutdown under load: a server stopped while hundreds of connections
//! pipeline fetches answers every frame it read, returns within its
//! drain deadline and leaves no connection thread behind; a `Shutdown`
//! frame stops a server whose accept loop is parked at its connection
//! cap.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use fgcache_core::{ShardedAggregatingCache, ShardedAggregatingCacheBuilder};
use fgcache_net::wire::read_frame;
use fgcache_net::{BoundServer, GroupRequest, Message, NetClient, Transport};
use fgcache_types::FileId;

const CONNS: u64 = 256;
const FRAMES_PER_CONN: u64 = 32;
const FILES_PER_FRAME: u64 = 4;

/// The server's drain deadline, plus scheduling slack.
const STOP_BOUND: Duration = Duration::from_millis(2500);

/// Both tests count the process's connection threads, so they must not
/// overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn cache() -> Arc<ShardedAggregatingCache> {
    Arc::new(
        ShardedAggregatingCacheBuilder::new(500)
            .shards(4)
            .group_size(1)
            .build()
            .expect("valid build"),
    )
}

/// Live threads the server named as connection threads (Linux only;
/// elsewhere the structural guarantee — `run` joins a thread scope —
/// stands alone).
fn conn_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim_end() == "fgcache-conn")
        })
        .count()
}

/// The connection-thread count once finished threads have left the task
/// list. `run` returns when every connection thread's closure has
/// returned; the OS thread itself exits a moment later.
fn settled_conn_threads(baseline: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let live = conn_threads();
        if live == baseline || Instant::now() >= deadline {
            return live;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn files_of(conn: u64, frame: u64) -> Vec<FileId> {
    (0..FILES_PER_FRAME)
        .map(|k| FileId((conn * FRAMES_PER_CONN + frame) * FILES_PER_FRAME + k))
        .collect()
}

#[test]
fn stop_under_load_answers_every_frame_it_read() {
    let _serial = serial();
    let threads_before = conn_threads();
    let cache = cache();
    let handle = BoundServer::bind("127.0.0.1:0", Arc::clone(&cache))
        .expect("ephemeral bind")
        .spawn();

    let mut streams: Vec<TcpStream> = (0..CONNS)
        .map(|_| {
            let stream = TcpStream::connect(handle.addr()).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            stream
        })
        .collect();
    // Every connection pipelines its frames; the replies (about 2 KiB a
    // connection) fit the socket buffers, so nobody has to read yet.
    for (conn, stream) in (0..).zip(&mut streams) {
        let mut burst = Vec::new();
        for frame in 0..FRAMES_PER_CONN {
            burst.extend(
                Message::Fetch {
                    request_id: conn * FRAMES_PER_CONN + frame,
                    files: files_of(conn, frame),
                }
                .encode(),
            );
        }
        stream.write_all(&burst).expect("pipeline");
    }

    let started = Instant::now();
    handle.stop();
    let took = started.elapsed();
    assert!(took < STOP_BOUND, "stop took {took:?} under load");
    assert_eq!(
        settled_conn_threads(threads_before),
        threads_before,
        "a connection thread outlived stop"
    );

    // Each connection got an in-order prefix of its replies, then a clean
    // close; and every fetch the server executed was answered.
    let mut answered = 0;
    for (conn, stream) in (0..).zip(&mut streams) {
        let mut frame = 0;
        while let Ok(reply) = read_frame(stream) {
            match reply {
                Message::FetchReply { request_id, files } => {
                    assert_eq!(request_id, conn * FRAMES_PER_CONN + frame, "in order");
                    let got: Vec<FileId> = files.iter().map(|f| f.file).collect();
                    assert_eq!(got, files_of(conn, frame));
                }
                other => panic!("unexpected reply {other:?}"),
            }
            frame += 1;
        }
        assert!(frame <= FRAMES_PER_CONN);
        answered += frame;
    }
    assert_eq!(
        cache.stats().accesses,
        answered * FILES_PER_FRAME,
        "a fetch was executed but its reply never left"
    );
}

#[test]
fn shutdown_frame_stops_a_server_parked_at_its_connection_cap() {
    let _serial = serial();
    let threads_before = conn_threads();
    let server = BoundServer::bind("127.0.0.1:0", cache())
        .expect("ephemeral bind")
        .with_max_conns(1);
    let addr = server.local_addr();
    let (done_tx, done_rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        server.run();
        done_tx.send(()).expect("test still listening");
    });

    // One round trip: the only slot is taken and the accept loop is
    // parked at the cap, not in `accept`.
    let mut client = NetClient::connect(&addr).expect("connect");
    client
        .fetch_group(&GroupRequest::new(0, vec![FileId(1)]))
        .expect("fetch");
    // A second connection waits in the backlog behind the cap.
    let _backlogged = TcpStream::connect(&addr).expect("backlogged connect");

    client.send_shutdown().expect("acknowledged");
    done_rx
        .recv_timeout(STOP_BOUND)
        .expect("the Shutdown frame alone must stop the server");
    runner.join().expect("server thread");
    assert_eq!(
        settled_conn_threads(threads_before),
        threads_before,
        "a connection thread outlived run"
    );
    assert!(
        NetClient::connect(&addr).is_err(),
        "listener must be closed"
    );
}
