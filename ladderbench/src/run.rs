//! One benchmark run: set up, measure, check, and turn counters and
//! spans into metrics.

use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fgcache_net::{GroupReply, GroupRequest, Message};

use crate::report::{array, num, object, quote, Metrics, END_TO_END, PER_LAYER};
use crate::spans::{place, Layer, Placed, Recorder};
use crate::stats::{median, percentile};
use crate::workload::{
    check_conservation, measure, quality_pass, setup, Config, Rig, Rung, Window, Workload,
};

/// What a run prints.
pub struct Outcome {
    /// Requests attempted in the measured window(s).
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Context for the result, as JSON object fields.
    pub detail: Vec<(&'static str, String)>,
    /// Correctness violations; the run is correct when there are none.
    pub errors: Vec<String>,
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Counter deltas over a window, summed over every server cache.
#[derive(Default)]
struct Deltas {
    accesses: u64,
    hits: u64,
    spec_inserts: u64,
    spec_hits: u64,
    evictions: u64,
    demand_fetches: u64,
    files_transferred: u64,
    already_resident: u64,
    locks: u64,
    fast_hits: u64,
    /// Per-cache accesses, and per-shard accesses of every cache.
    node_accesses: Vec<u64>,
    shard_accesses: Vec<u64>,
}

fn deltas(w: &Window) -> Deltas {
    let mut d = Deltas::default();
    for (a, b) in w.after.caches.iter().zip(&w.before.caches) {
        d.accesses += a.stats.accesses - b.stats.accesses;
        d.hits += a.stats.hits - b.stats.hits;
        d.spec_inserts += a.stats.speculative_inserts - b.stats.speculative_inserts;
        d.spec_hits += a.stats.speculative_hits - b.stats.speculative_hits;
        d.evictions += a.stats.evictions - b.stats.evictions;
        d.demand_fetches += a.group_stats.demand_fetches - b.group_stats.demand_fetches;
        d.files_transferred += a.group_stats.files_transferred - b.group_stats.files_transferred;
        d.already_resident +=
            a.group_stats.members_already_resident - b.group_stats.members_already_resident;
        // The snapshot's own lock acquisitions (one per shard) are
        // excluded; fast-path hits are a relaxed sample, exact here
        // because every client is parked.
        d.locks += a.lock_acquisitions - b.lock_acquisitions - a.shard_accesses.len() as u64;
        d.fast_hits += a.fast_path_hits - b.fast_path_hits;
        d.node_accesses.push(a.stats.accesses - b.stats.accesses);
        d.shard_accesses.extend(
            a.shard_accesses
                .iter()
                .zip(&b.shard_accesses)
                .map(|(x, y)| x - y),
        );
    }
    d
}

/// Busiest over mean.
fn imbalance(loads: &[u64]) -> Option<f64> {
    let total: u64 = loads.iter().sum();
    let max = *loads.iter().max()?;
    (total > 0).then(|| max as f64 * loads.len() as f64 / total as f64)
}

/// One window's counts, per-sub-window rates, and its latency
/// percentiles (µs) with the sample count behind them.
fn window_detail(w: &Window) -> String {
    let windows = w.tallies[0].window_events.len();
    let all = w.latency();
    let us = |permille| {
        all.percentile(permille)
            .map_or("null".to_string(), |ns| num(ns / 1000.0))
    };
    object(&[
        ("seconds", num(w.seconds)),
        ("events", w.events().to_string()),
        ("requests", w.attempted().to_string()),
        ("fetch_samples", all.count().to_string()),
        (
            "fetch_mean_us",
            all.mean().map_or("null".to_string(), |ns| num(ns / 1000.0)),
        ),
        ("fetch_p50_us", us(500)),
        ("fetch_p90_us", us(900)),
        ("fetch_p99_us", us(990)),
        ("fetch_p999_us", us(999)),
        (
            "events_per_s_by_window",
            array((0..windows).map(|i| {
                num(w.tallies.iter().map(|t| t.window_events[i]).sum::<u64>() as f64 / w.window_s)
            })),
        ),
    ])
}

fn common_detail(workload: Workload, cfg: &Config, traced: bool) -> Vec<(&'static str, String)> {
    let mut args = std::env::args();
    let program = args
        .next()
        .and_then(|p| {
            PathBuf::from(p)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
        })
        .unwrap_or_default();
    let command = std::iter::once(program)
        .chain(args)
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        ("bench", quote("fgcache-ladderbench")),
        ("workload", quote(workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", num(cfg.seconds)),
        ("trace", (traced as u8).to_string()),
        ("host_cores", host_cores().to_string()),
        ("command", quote(&command)),
        ("lap_events_per_client", cfg.lap.to_string()),
        ("capacity_per_node", crate::workload::CAPACITY.to_string()),
    ]
}

/// Runs `workload` once: untraced (end-to-end metrics) or traced
/// (per-layer metrics).
///
/// # Errors
///
/// Returns a message when the system cannot be set up at all.
pub fn run(workload: Workload, cfg: &Config, traced: bool) -> Result<Outcome, String> {
    if traced {
        run_traced(workload, cfg)
    } else {
        run_plain(workload, cfg)
    }
}

fn finish_checks(rig: &mut Rig, windows: &[&Window]) -> Vec<String> {
    let mut errors = std::mem::take(&mut rig.errors);
    for w in windows {
        for t in &w.tallies {
            errors.extend(t.errors.iter().cloned());
            if t.error_count > t.errors.len() as u64 {
                errors.push(format!(
                    "... and {} more",
                    t.error_count - t.errors.len() as u64
                ));
            }
        }
        errors.extend(check_conservation(rig, w));
    }
    rig.check_invariants();
    errors.append(&mut rig.errors);
    errors
}

/// The speed metrics of one timed window, each over the whole window:
/// events over its length, the p90 of every fetch in it, CPU over events.
fn speed(w: &Window) -> Vec<(&'static str, Option<f64>)> {
    let events = w.events();
    let cpu = w
        .after
        .proc
        .cpu_s
        .zip(w.before.proc.cpu_s)
        .map(|(a, b)| a - b);
    vec![
        ("events_per_s", Some(events as f64 / w.seconds)),
        (
            "fetch_p90_us",
            w.latency().percentile(900).map(|ns| ns / 1000.0),
        ),
        (
            "cpu_us_per_event",
            cpu.filter(|_| events > 0).map(|s| s * 1e6 / events as f64),
        ),
    ]
}

/// The quality metrics, pooled over the quality passes (a ratio of sums).
/// Each pass is a fixed number of events from its set-up's starting
/// point in a fixed interleaving, so these repeat exactly for a seed.
fn quality(passes: &[Window]) -> Vec<(&'static str, Option<f64>)> {
    let (mut hits, mut accesses, mut fetches, mut files, mut events) = (0, 0, 0, 0, 0);
    for w in passes {
        let d = deltas(w);
        hits += d.hits;
        accesses += d.accesses;
        fetches += d.demand_fetches;
        files += d.files_transferred;
        events += w.events();
    }
    vec![
        ("server_hit_rate", ratio(hits, accesses)),
        ("demand_fetches_per_kevent", ratio(fetches * 1000, events)),
        ("files_fetched_per_kevent", ratio(files * 1000, events)),
    ]
}

/// Set up `cfg.setups` times. Each set-up runs its quality pass, then its
/// own share of the timed window. Speed metrics are the median over
/// set-ups, so one unlucky server instance or scheduling phase cannot
/// carry the run; quality metrics are pooled over the passes.
fn run_plain(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    let setups = cfg.setups.max(1);
    let mut setup_times = Vec::with_capacity(setups);
    let mut passes = Vec::with_capacity(setups);
    let mut windows = Vec::with_capacity(setups);
    let mut errors = Vec::new();
    for instance in 0..setups {
        let began = Instant::now();
        let mut rig = setup(workload, cfg, instance, None)?;
        setup_times.push(began.elapsed().as_secs_f64());
        let q = quality_pass(&mut rig, cfg.quality_events);
        let w = measure(&mut rig, cfg.seconds / setups as f64, cfg.windows, false);
        errors.extend(finish_checks(&mut rig, &[&q, &w]));
        rig.shutdown();
        passes.push(q);
        windows.push(w);
    }
    let per: Vec<_> = windows.iter().map(speed).collect();
    let mut m = Metrics::default();
    for (i, &(name, _)) in per[0].iter().enumerate() {
        let values: Vec<f64> = per.iter().filter_map(|p| p[i].1).collect();
        let all = values.len() == per.len();
        m.put(END_TO_END, name, if all { median(&values) } else { None });
    }
    for (name, value) in quality(&passes) {
        m.put(END_TO_END, name, value);
    }
    let all = || passes.iter().chain(&windows);
    m.put(
        END_TO_END,
        "answered_frac",
        ratio(
            all().map(Window::answered).sum(),
            all().map(Window::attempted).sum(),
        ),
    );
    m.put(END_TO_END, "setup_s", median(&setup_times));
    // The peak through the first set-up and its window: later set-ups
    // rebuild the same system, and what they add to the peak is the
    // allocator's fragmentation from this benchmark's own rebuilds.
    m.put(
        END_TO_END,
        "peak_rss_mb",
        windows.first().and_then(|w| w.after.proc.peak_rss_mb),
    );

    let mut detail = common_detail(workload, cfg, false);
    detail.push(("setup_s_each", array(setup_times.iter().map(|s| num(*s)))));
    detail.push(("quality_events_per_client", cfg.quality_events.to_string()));
    detail.push(("quality_passes", array(passes.iter().map(window_detail))));
    detail.push(("windows", array(windows.iter().map(window_detail))));
    detail.push((
        "peak_rss_mb_each",
        array(
            windows
                .iter()
                .map(|w| w.after.proc.peak_rss_mb.map_or("null".to_string(), num)),
        ),
    ));
    detail.push((
        "speed_each",
        array(per.iter().map(|p| {
            object(
                &p.iter()
                    .map(|(n, v)| (*n, v.map_or("null".to_string(), num)))
                    .collect::<Vec<_>>(),
            )
        })),
    ));
    detail.push((
        "rule",
        quote(
            "speed metrics are medians over set-ups of whole-window figures; quality \
             metrics are pooled over fixed-length round-robin passes, one per set-up; a \
             percentile needs 10 samples beyond it",
        ),
    ));
    Ok(Outcome {
        attempted: all().map(Window::attempted).sum(),
        failed: all().map(Window::failed).sum(),
        metrics: m,
        detail,
        errors,
    })
}

/// Per-request span measurements for the per-layer metrics.
#[derive(Default)]
struct SpanStats {
    core_access: Vec<u64>,
    backend: Vec<u64>,
    overhead: Vec<u64>,
    hop: Vec<u64>,
    peer_wait: Vec<u64>,
    core_total_ns: u64,
    requests: u64,
    unjoined: u64,
}

fn span_stats(trees: &[(u64, Vec<Placed>)]) -> SpanStats {
    let mut s = SpanStats::default();
    for (_, chain) in trees {
        s.requests += 1;
        let root = &chain[0];
        if root.span.layer != Layer::ClientFetch {
            s.unjoined += 1;
            continue;
        }
        s.unjoined += chain[1..].iter().filter(|p| p.depth == 0).count() as u64;
        let entry = chain
            .iter()
            .find(|p| p.depth == 1 && p.span.layer == Layer::ServerServe);
        if let Some(entry) = entry {
            s.backend.push(entry.duration());
            s.overhead.push(root.duration() - entry.duration());
        }
        let hop = chain.iter().find(|p| p.span.layer == Layer::ProxyHop);
        if let (Some(hop), Some(entry)) = (hop, entry) {
            s.hop.push(hop.duration());
            s.peer_wait.push(entry.self_ns);
        }
        for p in chain.iter().filter(|p| p.span.layer == Layer::CoreAccess) {
            s.core_access.push(p.duration());
            s.core_total_ns += p.duration();
        }
    }
    for v in [
        &mut s.core_access,
        &mut s.backend,
        &mut s.overhead,
        &mut s.hop,
        &mut s.peer_wait,
    ] {
        v.sort_unstable();
    }
    s
}

/// A typical traced request of the longest chain shape (its client fetch
/// is the median of those chains), with its self times: they add up to
/// the client-observed fetch.
fn sample_chain(trees: &[(u64, Vec<Placed>)]) -> String {
    let joined = || {
        trees
            .iter()
            .filter(|(_, c)| c[0].span.layer == Layer::ClientFetch)
    };
    let Some(longest) = joined().map(|(_, c)| c.len()).max() else {
        return "null".to_string();
    };
    let mut chains: Vec<_> = joined().filter(|(_, c)| c.len() == longest).collect();
    chains.sort_by_key(|(_, c)| c[0].duration());
    let (id, chain) = chains[chains.len() / 2];
    let self_sum: u64 = chain.iter().map(|p| p.self_ns).sum();
    object(&[
        ("request_id", id.to_string()),
        (
            "spans",
            array(chain.iter().map(|p| {
                object(&[
                    ("name", quote(p.span.layer.name())),
                    ("depth", p.depth.to_string()),
                    (
                        "parent",
                        p.parent.map_or("null".to_string(), |l| quote(l.name())),
                    ),
                    ("duration_us", num(p.duration() as f64 / 1000.0)),
                    ("self_us", num(p.self_ns as f64 / 1000.0)),
                ])
            })),
        ),
        ("self_sum_us", num(self_sum as f64 / 1000.0)),
        ("client_fetch_us", num(chain[0].duration() as f64 / 1000.0)),
    ])
}

/// Times the wire codec on the run's own request and reply frames.
/// Returns (bytes per frame, encode ns, decode ns).
fn wire_times(frames: &[(GroupRequest, GroupReply)]) -> Result<Option<(f64, f64, f64)>, String> {
    if frames.is_empty() {
        return Ok(None);
    }
    let messages: Vec<Message> = frames
        .iter()
        .flat_map(|(req, reply)| {
            [
                Message::Fetch {
                    request_id: req.request_id,
                    files: req.files.clone(),
                },
                Message::reply_for(reply),
            ]
        })
        .collect();
    let encoded: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
    for (m, frame) in messages.iter().zip(&encoded) {
        match Message::decode(&frame[4..]) {
            Ok(back) if &back == m => {}
            other => return Err(format!("frame {m:?} decoded as {other:?}")),
        }
    }
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let reps = (200_000 / messages.len()).max(1);
    let mut buf = Vec::new();
    let began = Instant::now();
    for _ in 0..reps {
        for m in &messages {
            black_box(m).encode_into(&mut buf);
            black_box(&buf);
        }
    }
    let encode_ns = began.elapsed().as_nanos() as f64 / (reps * messages.len()) as f64;
    let began = Instant::now();
    for _ in 0..reps {
        for frame in &encoded {
            let _ = black_box(Message::decode(black_box(&frame[4..])));
        }
    }
    let decode_ns = began.elapsed().as_nanos() as f64 / (reps * messages.len()) as f64;
    Ok(Some((
        bytes as f64 / encoded.len() as f64,
        encode_ns,
        decode_ns,
    )))
}

fn write_spans(workload: Workload, seed: u64, trees: &[(u64, Vec<Placed>)]) -> Option<String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("spans");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-{seed}.tsv", workload.name()));
    let mut out = String::from("request\tname\tdepth\tparent\tstart_ns\tend_ns\tself_ns\n");
    for (id, chain) in trees {
        for p in chain {
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}",
                p.span.layer.name(),
                p.depth,
                p.parent.map_or("-", Layer::name),
                p.span.start,
                p.span.end,
                p.self_ns
            );
        }
    }
    std::fs::write(&path, out).ok()?;
    Some(path.display().to_string())
}

fn run_traced(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    let recorder = Recorder::new(workload.sample_shift());
    let began = Instant::now();
    let mut rig = setup(workload, cfg, 0, Some(Arc::clone(&recorder)))?;
    let setup_s = began.elapsed().as_secs_f64();
    // As in an untraced set-up, the quality pass comes first, so the
    // windows start from the same state.
    let pass = quality_pass(&mut rig, cfg.quality_events);
    let half = cfg.seconds / 2.0;
    let plain = measure(&mut rig, half, cfg.windows, false);
    let traced = measure(&mut rig, half, cfg.windows, true);
    let trees = place(recorder.drain());
    let rung = workload.rung();
    let mut errors = Vec::new();
    let reply_cache_hits = if rung == Rung::Local {
        None
    } else {
        match rig.remote_reply_cache_hits() {
            Ok(n) => Some(n),
            Err(e) => {
                errors.push(e);
                None
            }
        }
    };
    let frames: Vec<(GroupRequest, GroupReply)> = traced
        .tallies
        .iter()
        .flat_map(|t| t.frames.iter().cloned())
        .collect();
    let wire = if rung == Rung::Local {
        None
    } else {
        wire_times(&frames).unwrap_or_else(|e| {
            errors.push(e);
            None
        })
    };
    let metadata_entries: usize = rig.caches.iter().map(|c| c.metadata_entries()).sum();
    let node_stats: Vec<_> = rig.nodes.iter().map(|n| n.stats()).collect();
    errors.extend(finish_checks(&mut rig, &[&pass, &plain, &traced]));
    let exact = rig.exact.clone();
    let (gen_s, unique_files) = (rig.gen_s, rig.unique_files());
    rig.shutdown();

    let d = deltas(&traced);
    // The cache-policy metrics come from the quality pass, like the
    // end-to-end quality metrics they explain.
    let q = deltas(&pass);
    let s = span_stats(&trees);
    let events = traced.events();
    let requests = traced.attempted();
    let rate = |w: &Window| w.events() as f64 / w.seconds;
    let us = |v: &[u64], q| percentile(v, q).map(|ns| ns / 1000.0);
    let socket = rung != Rung::Local;
    let cluster = rung == Rung::Cluster;
    // Layers a rung does not run report 0 and are listed as absent.
    let mut absent: Vec<&str> = Vec::new();
    let mut m = Metrics::default();
    let mut put = |name: &'static str, applies: bool, value: Option<f64>| {
        if applies {
            m.put(PER_LAYER, name, value);
        } else {
            absent.push(name);
            m.put(PER_LAYER, name, Some(0.0));
        }
    };
    let sampled = recorder.sample_rate();
    put("trace.gen_s", true, Some(gen_s));
    put("trace.unique_files", true, Some(unique_files as f64));
    put(
        "trace.overhead_frac",
        true,
        Some(1.0 - rate(&traced) / rate(&plain)),
    );
    put("cache.filter_hits", true, Some(exact.filter_hits as f64));
    put(
        "cache.hit_rate",
        true,
        ratio(exact.filter_hits, exact.events),
    );
    let offer_ns: u64 = traced.tallies.iter().map(|t| t.loop_ns - t.fetch_ns).sum();
    put("cache.ns_per_offer", true, ratio(offer_ns, events));
    put("client.requests", true, Some(exact.requests as f64));
    put(
        "core.access_p50_ns",
        !cluster,
        percentile(&s.core_access, 500),
    );
    put(
        "core.access_p99_ns",
        !cluster,
        percentile(&s.core_access, 990),
    );
    put(
        "core.busy_frac",
        !cluster,
        Some(s.core_total_ns as f64 / sampled / (traced.seconds * 1e9 * host_cores() as f64)),
    );
    put("core.locks_per_access", true, ratio(d.locks, d.accesses));
    put("core.fast_path_frac", true, ratio(d.fast_hits, d.accesses));
    put("core.shard_imbalance", true, imbalance(&d.shard_accesses));
    put(
        "core.spec_hit_ratio",
        true,
        ratio(q.spec_hits, q.spec_inserts),
    );
    put(
        "core.mean_group_size",
        true,
        ratio(q.files_transferred, q.demand_fetches),
    );
    put(
        "core.already_resident_frac",
        true,
        ratio(q.already_resident, q.already_resident + q.files_transferred),
    );
    put(
        "core.evictions_per_access",
        true,
        ratio(q.evictions, q.accesses),
    );
    put("core.metadata_entries", true, Some(metadata_entries as f64));
    put(
        "net.client.round_trips",
        socket,
        Some(exact.round_trips as f64),
    );
    put("net.server.backend_p50_us", socket, us(&s.backend, 500));
    put("net.server.backend_p99_us", socket, us(&s.backend, 990));
    put("net.server.overhead_p50_us", socket, us(&s.overhead, 500));
    put("net.server.overhead_p99_us", socket, us(&s.overhead, 990));
    put(
        "net.server.reply_cache_hits",
        socket,
        reply_cache_hits.map(|n| n as f64),
    );
    put("net.wire.bytes_per_frame", socket, wire.map(|w| w.0));
    put("net.wire.encode_ns", socket, wire.map(|w| w.1));
    put("net.wire.decode_ns", socket, wire.map(|w| w.2));
    put(
        "net.allocs_per_round_trip",
        socket,
        ratio(
            traced.after.allocations - traced.before.allocations,
            requests,
        ),
    );
    let served: u64 = exact.local_serves.iter().chain(&exact.proxied).sum();
    put(
        "cluster.proxied_frac",
        cluster,
        ratio(exact.proxied.iter().sum(), served),
    );
    // Per entry node: node 2 takes no client traffic.
    let per_node = [
        ("cluster.node0.local_serves", "cluster.node0.proxied"),
        ("cluster.node1.local_serves", "cluster.node1.proxied"),
    ];
    for (i, (local, proxied)) in per_node.into_iter().enumerate() {
        put(local, cluster, exact.local_serves.get(i).map(|&n| n as f64));
        put(proxied, cluster, exact.proxied.get(i).map(|&n| n as f64));
    }
    put("cluster.proxy_hop_p50_us", cluster, us(&s.hop, 500));
    put("cluster.proxy_hop_p99_us", cluster, us(&s.hop, 990));
    put("cluster.peer_wait_p50_us", cluster, us(&s.peer_wait, 500));
    let node_delta = |f: fn(&fgcache_cluster::ClusterNodeStats) -> u64| {
        (traced.after.nodes.iter().map(f).sum::<u64>()
            - traced.before.nodes.iter().map(f).sum::<u64>()) as f64
    };
    put(
        "cluster.collapsed",
        cluster,
        Some(node_delta(|n| n.collapsed)),
    );
    put(
        "cluster.proxy_failures",
        cluster,
        Some(node_delta(|n| n.proxy_failures)),
    );
    put(
        "cluster.load_imbalance",
        cluster,
        imbalance(&d.node_accesses),
    );
    let ctx = traced
        .after
        .proc
        .ctx_switches
        .zip(traced.before.proc.ctx_switches)
        .map(|(a, b)| a.saturating_sub(b));
    if let Some(ctx) = ctx {
        put("proc.ctx_switches_per_request", true, ratio(ctx, requests));
    }
    if let Some(threads) = traced.after.proc.threads {
        put("proc.threads", true, Some(threads as f64));
    }

    let mut detail = common_detail(workload, cfg, true);
    detail.push(("setup_s", num(setup_s)));
    detail.push(("quality_pass", window_detail(&pass)));
    detail.push(("untraced_window", window_detail(&plain)));
    detail.push(("traced_window", window_detail(&traced)));
    detail.push((
        "exact",
        array(crate::report::EXACT.iter().map(|n| quote(n))),
    ));
    detail.push(("absent", array(absent.iter().map(|n| quote(n)))));
    detail.push((
        "spans",
        object(&[
            ("sample_rate", num(sampled)),
            ("traced_requests", s.requests.to_string()),
            ("unjoined", s.unjoined.to_string()),
            ("dropped", recorder.dropped().to_string()),
            (
                "file",
                write_spans(workload, cfg.seed, &trees).map_or("null".to_string(), |p| quote(&p)),
            ),
        ]),
    ));
    detail.push(("sample_chain", sample_chain(&trees)));
    detail.push((
        "node_stats",
        array(node_stats.iter().map(|n| quote(&format!("{n:?}")))),
    ));
    let all = [&pass, &plain, &traced];
    Ok(Outcome {
        attempted: all.iter().map(|w| w.attempted()).sum(),
        failed: all.iter().map(|w| w.failed()).sum(),
        metrics: m,
        detail,
        errors,
    })
}
