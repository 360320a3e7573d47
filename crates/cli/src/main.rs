//! `fgcache` — command-line interface to the fgcache workspace.
//!
//! ```text
//! fgcache gen       --profile server --events 100000 --seed 1 --out trace.txt
//! fgcache stats     trace.txt
//! fgcache entropy   trace.txt [--max-k 20] [--filter CAPACITY]
//! fgcache simulate  trace.txt --capacity 300 [--policy lru|lfu|fifo|clock|2q|mq|arc|agg] [--group 5]
//! fgcache simulate  trace.txt --capacity 400 --clients 4 --shards 4 [--filter 100]
//! fgcache two-level trace.txt --filter 200 --server 300 [--scheme g5|lru|lfu|...]
//! fgcache groups    trace.txt [--group-size 5] [--top 10]
//! fgcache plan      --alpha 0.9 --clients 16 --target-hit-rate 0.8 [--universe 100000] [--sizes pareto] [--json plan.json]
//! fgcache plan      --validate true [--events 10000000]   # CI gate: Che vs simulator
//! fgcache plan      --compare-grouping true [--run-length 4] [--capacities 200,800]
//! fgcache serve     --capacity 400 [--addr 127.0.0.1:0] [--shards 4] [--max-conns 1024] [--workers 4] [--node-id 1 [--peers 1=HOST:PORT,...]]
//! fgcache bench-net --loopback true [--clients 4] [--events 10000] [--batch 1,8,32]
//! fgcache bench-cluster [--nodes 3] [--events 6000] [--virtual true]
//! fgcache convert   access.log --from strace --out trace.bin [--to text|json|bin]
//! ```
//!
//! Traces are read in the text format (`seq client kind file` per line),
//! JSON (`--format json`) or binary (`--format bin`); `stats`, `entropy`
//! and `simulate` stream events from disk, so traces far larger than
//! memory replay fine.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
fgcache — group-based management of distributed file caches (ICDCS 2002)

USAGE:
    fgcache <COMMAND> [ARGS]

COMMANDS:
    gen        generate a synthetic workload trace
    stats      summarise a trace
    entropy    successor-entropy analysis (figures 7/8)
    simulate   run one cache over a trace
    two-level  client filter + server cache simulation (figure 4)
    groups     show the strongest dynamic groups of a trace
    plan       analytic capacity planner (Che/Fagin characteristic time):
               recommend filter/server/shard sizes for a target hit rate;
               --validate true replays the planner against the streamed
               simulator (CI gate), --compare-grouping true measures
               where group fetching beats the analytic LRU bound
    serve      run a TCP group-fetch server over a sharded cache, one
               thread per connection (--max-conns caps connections,
               --workers caps fetches executing at once;
               --node-id/--peers turn it into one cluster node)
    bench-net  loopback TCP differential check + batch-pipelining sweep
    bench-cluster  multi-process TCP cluster smoke vs a single-process
               oracle (--virtual true: 100-node in-process fleet)
    convert    translate DFSTrace/strace logs into fgcache traces
    help       print this message

Run `fgcache <COMMAND> --help` semantics: every command validates its
flags and reports unknown ones.
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = argv.collect();
    let result = match command.as_str() {
        "gen" => commands::gen::run(&rest),
        "stats" => commands::stats::run(&rest),
        "entropy" => commands::entropy::run(&rest),
        "simulate" => commands::simulate::run(&rest),
        "two-level" => commands::two_level::run(&rest),
        "groups" => commands::groups::run(&rest),
        "plan" => commands::plan::run(&rest),
        "serve" => commands::serve::run(&rest),
        "bench-net" => commands::bench_net::run(&rest),
        "bench-cluster" => commands::bench_cluster::run(&rest),
        "convert" => commands::convert::run(&rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
