//! Benchmark of the NObLe serving stack: seeded workloads, output checks,
//! and outside-in per-layer tracing. `src/main.rs` is the command.

pub mod host;
pub mod report;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["wire-steady", "paged-track"];

/// End-to-end metrics an untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("fix_p50_us", "us"),
    ("fix_p99_us", "us"),
    ("fixes_per_s", "1/s"),
    ("loc_err_m", "m"),
    ("rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics a traced run reports, with units. A workload that
/// does not exercise a layer reports it as `0`.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("loadgen.late_us_p99", "us"),
    ("net.send_us_p50", "us"),
    ("net.edge_us_mean", "us"),
    ("net.accepted", "count"),
    ("net.shed", "count"),
    ("net.completed", "count"),
    ("serve.mean_batch", "count"),
    ("serve.wait_us_mean", "us"),
    ("serve.submit_us_p50", "us"),
    ("serve.errors", "count"),
    ("model.us_per_fix", "us"),
    ("model.call_us_p50", "us"),
    ("model.calls", "count"),
    ("model.rows", "count"),
    ("catalog.faults", "count"),
    ("catalog.drains", "count"),
    ("catalog.hit_ratio", "ratio"),
    ("catalog.cold_fix_us_p50", "us"),
    ("catalog.warm_fix_us_p50", "us"),
    ("store.get_us_p50", "us"),
    ("store.put_us_p50", "us"),
    ("store.put_version_us_p50", "us"),
    ("store.gets", "count"),
    ("store.puts", "count"),
    ("session.observe_us_p50", "us"),
    ("session.sweep_us_p50", "us"),
    ("session.events", "count"),
    ("refresh.observe_us_p50", "us"),
    ("refresh.swaps", "count"),
    ("refresh.count", "count"),
    ("refresh.ms_p50", "ms"),
    ("setup.campaign_s", "s"),
    ("setup.train_s", "s"),
    ("setup.reference_s", "s"),
    ("fix.samples", "count"),
    ("fix.failed_frac", "ratio"),
    ("trace.overhead_p50_pct", "%"),
    ("trace.overhead_tput_pct", "%"),
    ("trace.spans", "count"),
    ("host.steal_pct", "%"),
    ("host.windows_kept", "count"),
];
