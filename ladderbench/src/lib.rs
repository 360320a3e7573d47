//! **fgcache-ladderbench** — the repository benchmark: one seeded,
//! closed-loop workload pair per ladder step, measured at two rungs of the
//! stack so the difference between rungs is the cost of the layers the
//! upper rung adds. See `README.md` beside this crate for the workloads,
//! metrics and readouts.

pub mod alloc;
pub mod procfs;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

#[cfg(test)]
mod tests {
    use crate::report::{valid_name, END_TO_END, PER_LAYER};
    use crate::run::run;
    use crate::workload::{reply_error, shared_pool, Config, Workload};
    use fgcache_net::{FileReply, GroupReply, GroupRequest};
    use fgcache_trace::synth::{SynthConfig, WorkloadProfile};
    use fgcache_types::{AccessOutcome, FileId};

    fn tiny(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.4,
            lap: 3000,
            prepass: 100,
            quality_events: 200,
            windows: 2,
            setups: 2,
        }
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let out = run(workload, &tiny(7), traced).expect("sets up");
                let tag = format!("{} traced={traced}", workload.name());
                assert!(out.errors.is_empty(), "{tag}: {:?}", out.errors);
                assert!(out.attempted > 0 && out.failed == 0, "{tag}");
                let table = if traced { PER_LAYER } else { END_TO_END };
                // Small samples may not support a p99 (nor, at the
                // cluster rung, a p50); nothing else may be missing.
                for name in out.metrics.missing(table) {
                    assert!(
                        name.contains("_p99") || name.contains("_p50"),
                        "{tag}: {name}"
                    );
                }
                assert!(out.metrics.get("setup_s").is_some() || traced, "{tag}");
            }
        }
    }

    #[test]
    fn shared_pool_matches_the_profiles() {
        for profile in WorkloadProfile::ALL {
            let config = format!("{:?}", SynthConfig::profile(profile));
            let pool = format!("shared_pool: {},", shared_pool(profile));
            assert!(config.contains(&pool), "{profile}: {config}");
        }
    }

    #[test]
    fn exact_counts_repeat_for_a_seed() {
        let a = run(Workload::ClusterWrite, &tiny(11), true).expect("sets up");
        let b = run(Workload::ClusterWrite, &tiny(11), true).expect("sets up");
        for name in crate::report::EXACT {
            assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
        }
        assert!(a.metrics.get("cluster.proxied_frac").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn quality_metrics_repeat_for_a_seed() {
        let names = [
            "server_hit_rate",
            "demand_fetches_per_kevent",
            "files_fetched_per_kevent",
        ];
        for workload in [Workload::LocalServer, Workload::ClusterWrite] {
            let a = run(workload, &tiny(13), false).expect("sets up");
            let b = run(workload, &tiny(13), false).expect("sets up");
            for name in names {
                assert!(a.metrics.get(name).is_some(), "{name}");
                assert_eq!(a.metrics.get(name), b.metrics.get(name), "{name}");
            }
        }
    }

    #[test]
    fn reply_check_rejects_wrong_ids_and_files() {
        let request = GroupRequest::new(5, vec![FileId(1), FileId(2)]);
        let reply = |id, files: &[u64]| GroupReply {
            request_id: id,
            files: files
                .iter()
                .map(|&f| FileReply {
                    file: FileId(f),
                    outcome: AccessOutcome::Hit,
                })
                .collect(),
        };
        assert_eq!(reply_error(&request, &reply(5, &[1, 2])), None);
        assert!(reply_error(&request, &reply(6, &[1, 2])).is_some());
        assert!(reply_error(&request, &reply(5, &[2, 1])).is_some());
        assert!(reply_error(&request, &reply(5, &[1])).is_some());
        assert!(reply_error(&request, &reply(5, &[1, 2, 2])).is_some());
        assert!(valid_name(Workload::ClusterWrite.name()));
    }
}
