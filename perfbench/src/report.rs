//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` declares these same names and units; the
//! benchmark's own test checks the two agree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every untraced run prints all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("create_p50_us", "us"),
    ("create_p99_us", "us"),
    ("stat_p50_us", "us"),
    ("stat_p99_us", "us"),
    ("unlink_p50_us", "us"),
    ("unlink_p99_us", "us"),
    ("meta_ops_s", "1/s"),
    ("write_mib_s", "MiB/s"),
    ("read_mib_s", "MiB/s"),
    ("host_ns_per_sim_op", "ns"),
    ("rss_kib_per_client", "KiB"),
];

/// Per-layer metrics: every traced run prints all of them (0 where a
/// workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.ops.encode_ns", "ns"),
    ("wire.ops.decode_ns", "ns"),
    ("wire.ops.frame_bytes", "B"),
    ("wire.store.ns_per_mib", "ns/MiB"),
    ("wire.store.frames", "count"),
    ("net.ops.calls_per_op", "1/op"),
    ("net.ops.calls_per_create", "1/op"),
    ("net.ops.calls_per_stat", "1/op"),
    ("net.ops.calls_per_unlink", "1/op"),
    ("net.ops.rtt_p50_us", "us"),
    ("net.ops.self_us_per_call", "us"),
    ("net.store.calls", "count"),
    ("net.store.self_ns_per_mib", "ns/MiB"),
    ("net.lease.calls_per_op", "1/op"),
    ("net.retry.count", "count"),
    ("net.give_up.count", "count"),
    ("rpc.ops.handle_p50_us", "us"),
    ("rpc.ops.handle_p99_us", "us"),
    ("rpc.store.handle_ns_per_mib", "ns/MiB"),
    ("store.calls", "count"),
    ("store.objects_per_call", "1/call"),
    ("store.bytes_per_user_byte", "B/B"),
    ("store.host_ns_per_call", "ns"),
    ("store.busy_share", "share"),
    ("journal.flights_per_kop", "1/kop"),
    ("journal.txns_per_flight", "1/flight"),
    ("journal.commit_retries", "count"),
    ("meta.checkpoints", "count"),
    ("meta.put_objects_per_op", "1/op"),
    ("meta.takeovers", "count"),
    ("cache.hit_ratio", "share"),
    ("cache.misses", "count"),
    ("cache.writebacks_before_close", "count"),
    ("lease.acquires_per_op", "1/op"),
    ("lease.redirects_per_op", "1/op"),
    ("lease.retries", "count"),
    ("sim.store_host_share", "share"),
    ("sim.bus_host_share", "share"),
    ("sim.lease_host_share", "share"),
    ("sim.client_host_share", "share"),
    ("sim.virtual_kops_s", "kop/s"),
    ("sim.virtual_ack_p50_us", "us"),
    ("sim.virtual_ack_p99_us", "us"),
    ("attr.create.client_us", "us"),
    ("attr.create.wire_us", "us"),
    ("attr.create.net_us", "us"),
    ("attr.create.rpc_us", "us"),
    ("attr.create.store_us", "us"),
    ("attr.create.residual_us", "us"),
    ("attr.stat.client_us", "us"),
    ("attr.stat.wire_us", "us"),
    ("attr.stat.net_us", "us"),
    ("attr.stat.rpc_us", "us"),
    ("attr.stat.store_us", "us"),
    ("attr.stat.residual_us", "us"),
    ("base.ops", "count"),
    ("base.user_mib", "MiB"),
    ("base.store_frame_mib", "MiB"),
    ("base.journal_flights", "count"),
    ("base.cache_lookups", "count"),
    ("base.wall_s", "s"),
    ("trace.dropped_spans", "count"),
    ("trace.overhead_share", "share"),
];

/// `a / b`, or 0 when there is no base to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        let key = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
            .0;
        self.metrics
            .insert(key, if value.is_finite() { value } else { 0.0 });
    }

    /// The last line of the benchmark's output: the catalogue's metrics
    /// for this mode, in catalogue order, each with its unit.
    pub fn json(&self, traced: bool) -> String {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut m = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(m, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}
