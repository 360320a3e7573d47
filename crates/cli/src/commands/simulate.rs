//! `fgcache simulate` — run one cache over a trace, optionally as `K`
//! clients against a sharded aggregating server.
//!
//! Both modes replay the event stream in a single pass (the multi-client
//! mode via [`run_multiclient_stream`], which attributes event `i` to
//! client `i % K`), so simulation memory is bounded by the caches being
//! simulated — never by the trace length.

use std::error::Error;

use fgcache_cache::{Cache, LandlordCache, PolicyKind};
use fgcache_core::{AggregatingCacheBuilder, ShardedAggregatingCacheBuilder};
use fgcache_sim::multiclient::run_multiclient_stream;
use fgcache_trace::io::TraceIoError;
#[cfg(test)]
use fgcache_trace::Trace;
use fgcache_types::sizing::{SizeCostAssigner, SizeDistribution};
use fgcache_types::AccessEvent;

/// Size/cost options shared by the single-cache and multi-client modes.
///
/// `--sizes <uniform|pareto|bimodal>` gives every file a deterministic
/// seeded size and retrieval cost; it applies to `--policy landlord`
/// (cost-aware replacement) and `--policy agg` (unit-accounted residency
/// with bundle-aware group admission; add `--bundle true` for whole-group
/// eviction). Other policies are count-based, so `--sizes` is rejected.
#[derive(Clone, Copy, Default)]
pub(crate) struct SizingOpts {
    pub assigner: Option<SizeCostAssigner>,
    pub bundle: bool,
}

impl SizingOpts {
    fn parse(args: &crate::args::Args) -> Result<Self, Box<dyn Error>> {
        let assigner = match args.flag("sizes") {
            Some(raw) => {
                let dist: SizeDistribution = raw.parse()?;
                Some(SizeCostAssigner::new(
                    dist,
                    args.flag_or("size-seed", 42u64)?,
                ))
            }
            None => None,
        };
        let bundle = args.flag_or("bundle", false)?;
        if bundle && assigner.is_none() {
            return Err("--bundle requires --sizes".into());
        }
        Ok(SizingOpts { assigner, bundle })
    }
}

use crate::args::Args;
use crate::commands::open_trace_events;

/// Adapts an in-memory trace to the streaming cores (used by the
/// `&Trace` wrappers the unit tests drive).
#[cfg(test)]
fn ok_events(trace: &Trace) -> impl Iterator<Item = Result<AccessEvent, TraceIoError>> + '_ {
    trace
        .events()
        .iter()
        .map(|ev| Ok::<AccessEvent, TraceIoError>(*ev))
}

#[cfg(test)] // the materialized twin survives as the differential-test oracle
pub(crate) fn simulate(
    trace: &Trace,
    policy: &str,
    capacity: usize,
    group: usize,
    successors: usize,
) -> Result<String, Box<dyn Error>> {
    simulate_events(
        ok_events(trace),
        policy,
        capacity,
        group,
        successors,
        SizingOpts::default(),
    )
}

#[cfg(test)]
pub(crate) fn simulate_sized(
    trace: &Trace,
    policy: &str,
    capacity: usize,
    group: usize,
    sizing: SizingOpts,
) -> Result<String, Box<dyn Error>> {
    simulate_events(ok_events(trace), policy, capacity, group, 8, sizing)
}

/// Streaming single-cache replay: consumes the events once.
pub(crate) fn simulate_events<I>(
    events: I,
    policy: &str,
    capacity: usize,
    group: usize,
    successors: usize,
    sizing: SizingOpts,
) -> Result<String, Box<dyn Error>>
where
    I: IntoIterator<Item = Result<AccessEvent, TraceIoError>>,
{
    let mut out = String::new();
    if policy == "agg" {
        let mut builder = AggregatingCacheBuilder::new(capacity)
            .group_size(group)
            .successor_capacity(successors)
            .bundle_eviction(sizing.bundle);
        if let Some(assigner) = sizing.assigner {
            builder = builder.sizes(assigner);
        }
        let mut cache = builder.build()?;
        for ev in events {
            cache.handle_access(ev?.file);
        }
        let stats = Cache::stats(&cache);
        out.push_str(&format!(
            "aggregating cache: capacity {capacity}, group size {group}, successors {successors}\n"
        ));
        if let Some(assigner) = sizing.assigner {
            out.push_str(&format!(
                "size model        {} (seed-assigned){}\n",
                assigner.distribution(),
                if sizing.bundle {
                    ", whole-group eviction"
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!("accesses          {}\n", stats.accesses));
        out.push_str(&format!("demand fetches    {}\n", cache.demand_fetches()));
        out.push_str(&format!(
            "hit rate          {:.1}%\n",
            stats.hit_rate() * 100.0
        ));
        out.push_str(&format!(
            "files transferred {} ({:.2} per fetch)\n",
            cache.group_stats().files_transferred,
            cache.group_stats().mean_group_size()
        ));
        out.push_str(&format!(
            "prefetch accuracy {:.1}%\n",
            stats.speculative_accuracy() * 100.0
        ));
        out.push_str(&format!("metadata entries  {}\n", cache.metadata_entries()));
        if sizing.assigner.is_some() {
            out.push_str(&format!(
                "units transferred {}\n",
                cache.group_stats().size_units_transferred
            ));
            out.push_str(&format!(
                "units resident    {}/{}\n",
                cache.units_used(),
                capacity
            ));
        }
    } else {
        let kind: PolicyKind = policy
            .parse()
            .map_err(|e| format!("{e} (or \"agg\" for the aggregating cache)"))?;
        if sizing.assigner.is_some() && kind != PolicyKind::Landlord {
            return Err(
                "--sizes applies to cost-aware caches only (--policy landlord or agg)".into(),
            );
        }
        let mut cache: Box<dyn Cache> = match sizing.assigner {
            Some(assigner) => Box::new(LandlordCache::with_assigner(capacity, assigner)),
            None => kind.build(capacity),
        };
        for ev in events {
            cache.access(ev?.file);
        }
        let stats = cache.stats();
        out.push_str(&format!("{kind} cache: capacity {capacity}\n"));
        if let Some(assigner) = sizing.assigner {
            out.push_str(&format!(
                "size model     {} (seed-assigned)\n",
                assigner.distribution()
            ));
        }
        out.push_str(&format!("accesses       {}\n", stats.accesses));
        out.push_str(&format!("misses         {}\n", stats.misses));
        out.push_str(&format!(
            "hit rate       {:.1}%\n",
            stats.hit_rate() * 100.0
        ));
        out.push_str(&format!("evictions      {}\n", stats.evictions));
    }
    Ok(out)
}

/// Options for the `--clients K` multi-client mode, gathered into one
/// struct so the flag set can grow without widening call signatures.
pub(crate) struct MulticlientOpts {
    pub clients: usize,
    pub shards: usize,
    pub filter: usize,
    pub capacity: usize,
    pub group: usize,
    pub successors: usize,
    /// Size/cost model for the sharded server (`--sizes`, `--bundle`).
    pub sizing: SizingOpts,
}

/// The `--clients K` mode: event `i` of the stream belongs to client
/// `i % K`; each client sits behind a private LRU filter in front of one
/// shared sharded aggregating server. The single-pass streaming replay
/// produces the same counters as splitting the trace round-robin and
/// replaying the deterministic interleave, so the report is reproducible.
#[cfg(test)] // the materialized twin survives as the differential-test oracle
pub(crate) fn simulate_multiclient(
    trace: &Trace,
    opts: &MulticlientOpts,
) -> Result<String, Box<dyn Error>> {
    simulate_multiclient_events(ok_events(trace), opts)
}

/// Streaming core of the `--clients K` mode.
pub(crate) fn simulate_multiclient_events<I>(
    events: I,
    opts: &MulticlientOpts,
) -> Result<String, Box<dyn Error>>
where
    I: IntoIterator<Item = Result<AccessEvent, TraceIoError>>,
{
    let MulticlientOpts {
        clients,
        shards,
        filter,
        capacity,
        group,
        successors,
        sizing: _,
    } = *opts;
    if clients == 0 {
        return Err("--clients must be greater than zero".into());
    }
    let mut builder = ShardedAggregatingCacheBuilder::new(capacity)
        .shards(shards)
        .group_size(group)
        .successor_capacity(successors)
        .bundle_eviction(opts.sizing.bundle);
    if let Some(assigner) = opts.sizing.assigner {
        builder = builder.sizes(assigner);
    }
    let server = builder.build()?;
    let point = run_multiclient_stream(&server, events, clients, filter)?;
    let mut out = String::new();
    out.push_str(&format!(
        "sharded aggregating server: capacity {capacity}, {shards} shard(s), group size {group}\n"
    ));
    out.push_str(&format!(
        "clients           {} (filter capacity {filter})\n",
        point.clients
    ));
    out.push_str(&format!("events            {}\n", point.events));
    out.push_str(&format!(
        "client hit rate   {:.1}%\n",
        point.client_hit_rate * 100.0
    ));
    out.push_str(&format!("server accesses   {}\n", point.server_accesses));
    out.push_str(&format!(
        "server hit rate   {:.1}%\n",
        point.server_hit_rate * 100.0
    ));
    out.push_str(&format!("demand fetches    {}\n", point.demand_fetches));
    out.push_str(&format!("shard imbalance   {:.2}\n", point.imbalance));
    Ok(out)
}

pub fn run(tokens: &[String]) -> Result<(), Box<dyn Error>> {
    let args = Args::parse(tokens.iter().cloned())?;
    args.check_known(&[
        "format",
        "policy",
        "capacity",
        "group",
        "successors",
        "clients",
        "shards",
        "filter",
        "sizes",
        "size-seed",
        "bundle",
    ])?;
    let path = args.require_positional(0, "trace")?;
    let capacity: usize = args.require_flag("capacity")?;
    let policy = args.flag("policy").unwrap_or("agg");
    let group = args.flag_or("group", 5usize)?;
    let successors = args.flag_or("successors", 8usize)?;
    let sizing = SizingOpts::parse(&args)?;
    let events = open_trace_events(path, args.flag("format"))?;
    if args.flag("clients").is_some() || args.flag("shards").is_some() {
        if policy != "agg" {
            return Err("--clients/--shards require the aggregating server (--policy agg)".into());
        }
        let opts = MulticlientOpts {
            clients: args.flag_or("clients", 1usize)?,
            shards: args.flag_or("shards", 1usize)?,
            filter: args.flag_or("filter", 100usize)?,
            capacity,
            group,
            successors,
            sizing,
        };
        print!("{}", simulate_multiclient_events(events, &opts)?);
    } else {
        print!(
            "{}",
            simulate_events(events, policy, capacity, group, successors, sizing)?
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::from_files((0..500u64).map(|i| i % 17))
    }

    #[test]
    fn plain_policy_report() {
        let text = simulate(&trace(), "lru", 10, 5, 8).unwrap();
        assert!(text.contains("lru cache: capacity 10"));
        assert!(text.contains("accesses       500"));
    }

    #[test]
    fn aggregating_report() {
        let text = simulate(&trace(), "agg", 10, 3, 4).unwrap();
        assert!(text.contains("aggregating cache"));
        assert!(text.contains("demand fetches"));
        assert!(text.contains("metadata entries"));
    }

    #[test]
    fn bad_policy_rejected() {
        assert!(simulate(&trace(), "belady", 10, 3, 4).is_err());
    }

    #[test]
    fn bad_group_rejected() {
        assert!(simulate(&trace(), "agg", 2, 5, 4).is_err());
    }

    fn opts(clients: usize, shards: usize, filter: usize, capacity: usize) -> MulticlientOpts {
        MulticlientOpts {
            clients,
            shards,
            filter,
            capacity,
            group: 3,
            successors: 4,
            sizing: SizingOpts::default(),
        }
    }

    fn sized(dist: SizeDistribution, bundle: bool) -> SizingOpts {
        SizingOpts {
            assigner: Some(SizeCostAssigner::new(dist, 42)),
            bundle,
        }
    }

    #[test]
    fn landlord_policy_report() {
        let text = simulate(&trace(), "landlord", 10, 5, 8).unwrap();
        assert!(text.contains("landlord cache: capacity 10"));
    }

    #[test]
    fn landlord_sized_report() {
        let text = simulate_sized(
            &trace(),
            "landlord",
            10,
            5,
            sized(SizeDistribution::Pareto, false),
        )
        .unwrap();
        assert!(text.contains("size model     pareto"), "{text}");
        assert!(text.contains("accesses       500"));
    }

    #[test]
    fn sized_landlord_uniform_matches_plain_lru_numbers() {
        let lru = simulate(&trace(), "lru", 10, 5, 8).unwrap();
        let sizedrun = simulate_sized(
            &trace(),
            "landlord",
            10,
            5,
            sized(SizeDistribution::Uniform, false),
        )
        .unwrap();
        // Same misses/hit-rate/evictions lines (skip the differing headers).
        let tail = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("cache:") && !l.contains("size model"))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(tail(&lru), tail(&sizedrun));
    }

    #[test]
    fn aggregating_sized_report() {
        let text = simulate_sized(
            &trace(),
            "agg",
            20,
            3,
            sized(SizeDistribution::Bimodal, true),
        )
        .unwrap();
        assert!(text.contains("size model        bimodal"), "{text}");
        assert!(text.contains("whole-group eviction"));
        assert!(text.contains("units transferred"));
        assert!(text.contains("units resident"));
    }

    #[test]
    fn sizes_rejected_for_count_based_policies() {
        assert!(simulate_sized(
            &trace(),
            "arc",
            10,
            5,
            sized(SizeDistribution::Pareto, false)
        )
        .is_err());
    }

    #[test]
    fn multiclient_report() {
        let text = simulate_multiclient(&trace(), &opts(4, 2, 10, 30)).unwrap();
        assert!(text.contains("2 shard(s)"));
        assert!(text.contains("clients           4"));
        assert!(text.contains("events            500"));
        assert!(text.contains("shard imbalance"));
    }

    #[test]
    fn multiclient_single_shard_matches_aggregate_totals() {
        // 1 client / 1 shard / huge filter-less path sanity: the server
        // sees exactly the client's misses.
        let text = simulate_multiclient(&trace(), &opts(1, 1, 1000, 30)).unwrap();
        // A 1000-entry filter over 17 distinct files absorbs everything
        // after the cold misses: the server sees 17 accesses.
        assert!(text.contains("server accesses   17"), "{text}");
    }

    #[test]
    fn multiclient_validation() {
        assert!(simulate_multiclient(&trace(), &opts(0, 1, 10, 30)).is_err());
        // A 30-file server over 16 shards has slices below group size 3,
        // which now builds (shards clamp); a group larger than the whole
        // server does not.
        assert!(simulate_multiclient(&trace(), &opts(2, 16, 10, 30)).is_ok());
        assert!(simulate_multiclient(
            &trace(),
            &MulticlientOpts {
                group: 31,
                ..opts(2, 16, 10, 30)
            }
        )
        .is_err());
    }
}
