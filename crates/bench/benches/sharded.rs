//! Sharded-server throughput: single-shard baseline vs the sharded
//! composition under K concurrent clients, plus the `parallel_map` sweep
//! cost that the two-level experiments pay.
//!
//! The client traces follow the ISSUE's 100k-event scenario: 4 clients ×
//! 25k events each. Shard counts 1/2/4/8 replay the identical workload,
//! so the printed throughputs are directly comparable. Note that the
//! speedup from sharding is bounded by the machine's core count — on a
//! single-core host the sharded runs measure pure overhead.

use fgcache_bench::harness;
use fgcache_cache::PolicyKind;
use fgcache_sim::multiclient::run_multiclient;
use fgcache_sim::server::{two_level_sweep, ServerScheme, TwoLevelConfig};
use fgcache_sim::MultiClientConfig;
use fgcache_trace::synth::WorkloadProfile;
use std::hint::black_box;

const CLIENTS: usize = 4;
const EVENTS_PER_CLIENT: usize = 25_000;

fn sharded_throughput() {
    let cfg = MultiClientConfig {
        clients: CLIENTS,
        shard_counts: vec![1, 2, 4, 8],
        events_per_client: EVENTS_PER_CLIENT,
        filter_capacity: 100,
        server_capacity: 400,
        group_size: 5,
        successor_capacity: 8,
        seed: 20020702,
        profile: WorkloadProfile::Server,
        concurrent: true,
    };
    let traces = cfg.client_traces().expect("valid config");
    let events = (CLIENTS * EVENTS_PER_CLIENT) as u64;
    println!(
        "# {} clients x {} events, {} host cores",
        CLIENTS,
        EVENTS_PER_CLIENT,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for &shards in &cfg.shard_counts {
        harness::run(
            &format!("sharded_replay/shards={shards}/clients={CLIENTS}"),
            Some(events),
            || {
                run_multiclient(
                    black_box(&traces),
                    shards,
                    cfg.filter_capacity,
                    cfg.server_capacity,
                    cfg.group_size,
                    cfg.successor_capacity,
                    true,
                )
                .expect("valid run")
                .demand_fetches
            },
        );
    }
    // The deterministic interleave isolates sharding overhead from
    // threading: same work, no spawn/join, no contention.
    for &shards in &[1usize, 4] {
        harness::run(
            &format!("sharded_replay_seq/shards={shards}/clients={CLIENTS}"),
            Some(events),
            || {
                run_multiclient(
                    black_box(&traces),
                    shards,
                    cfg.filter_capacity,
                    cfg.server_capacity,
                    cfg.group_size,
                    cfg.successor_capacity,
                    false,
                )
                .expect("valid run")
                .demand_fetches
            },
        );
    }
}

fn parallel_sweep() {
    let trace = fgcache_bench::small_trace(WorkloadProfile::Workstation);
    let cfg = TwoLevelConfig {
        filter_capacities: vec![50, 100, 200, 300],
        server_capacity: 300,
        schemes: vec![
            ServerScheme::Aggregating { group_size: 5 },
            ServerScheme::Policy(PolicyKind::Lru),
        ],
        successor_capacity: 8,
    };
    harness::run("parallel_map/two_level_sweep_8pt", None, || {
        two_level_sweep(black_box(&trace), &cfg)
            .expect("valid sweep")
            .len()
    });
}

fn main() {
    sharded_throughput();
    parallel_sweep();
}
