//! Host wall-clock benchmark of ArkFS.
//!
//! Three closed-loop workloads, each driven by one load thread:
//! `meta_shared` (forwarded metadata ops over loopback TCP),
//! `archive_stream` (archive write and cold read-back over loopback
//! TCP) and `sim_zipf` (host cost of fig9's largest simulator point).
//! An untraced run prints the end-to-end metrics; a traced run wraps
//! every layer at its public trait and prints the per-layer metrics.
//! See `README.md` in this directory for why each workload exists.

pub mod archive;
pub mod common;
pub mod deploy;
pub mod meta;
pub mod report;
pub mod sim;
pub mod tracer;
pub mod wrap;

use archive::{ArchiveOut, ArchivePlan, MIB};
use common::{median, peak_rss_kib, percentile, rss_kib, Rng, Tally};
use meta::{Meta, MetaOut};
use report::{ratio, Report};
use sim::{Sim, SimOut};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tracer::{Group, Layer, OpKind, Proto, Trace};
use wrap::StoreCounts;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaShared,
    ArchiveStream,
    SimZipf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MetaShared,
        Workload::ArchiveStream,
        Workload::SimZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaShared => "meta_shared",
            Workload::ArchiveStream => "archive_stream",
            Workload::SimZipf => "sim_zipf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work each workload does.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Files per `meta_shared` round, and the fewest rounds to run.
    pub meta_files: usize,
    pub meta_min_rounds: usize,
    /// `archive_stream` size: at least `archive_total` bytes of files of
    /// up to `archive_small_max` MiB, plus the 64 MiB+ pair if
    /// `archive_big`.
    pub archive_total: u64,
    pub archive_small_max: u64,
    pub archive_big: bool,
    pub sim_clients: usize,
    pub sim_files: u64,
}

impl Scale {
    /// The workloads as named in `BENCHMARK.json`.
    pub fn full() -> Scale {
        Scale {
            meta_files: 2000,
            meta_min_rounds: 3,
            // More than B's 256 x 2 MiB data cache.
            archive_total: 576 * MIB,
            archive_small_max: 48,
            archive_big: true,
            sim_clients: sim::FIG9_CLIENTS,
            sim_files: sim::FIG9_FILES,
        }
    }

    /// One half of the small fixed runs that supply the end-to-end
    /// metrics of the two workloads a run is not about (see `README.md`).
    pub fn probe() -> Scale {
        Scale {
            meta_files: 2000,
            meta_min_rounds: 38,
            archive_total: 80 * MIB,
            archive_small_max: 16,
            archive_big: false,
            sim_clients: 2048,
            sim_files: 65_536,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// How long the workload's measurement lasts.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scale of one half of each probe.
    pub probe: Scale,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Where a traced run writes its spans and counters.
    pub trace_out: Option<PathBuf>,
}

pub fn run(cfg: &Config) -> Report {
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };
    if cfg.trace {
        run_traced(cfg, &mut rep);
    } else {
        run_untraced(cfg, &mut rep);
    }
    rep
}

fn account(rep: &mut Report, tally: &Tally, correct: bool) {
    rep.attempted += tally.attempted;
    rep.failed += tally.failed;
    rep.correct &= correct;
    for (e, n) in &tally.errors {
        eprintln!("  failed {n}x: {e}");
    }
}

/// Running totals of one workload's untraced measurement. A probe runs
/// in two halves, before and after the main workload, so that it samples
/// the host at two times.
#[derive(Debug, Default)]
struct Totals {
    setup_s: Vec<f64>,
    meta: Option<MetaOut>,
    /// `archive_stream`: write ns, read ns, verified bytes.
    archive: [u64; 3],
    /// `sim_zipf`: host ns inside `run_ops` and simulated creates.
    sim: [u64; 2],
    /// Peak RSS growth per client of the first simulator part.
    rss_per_client: Option<f64>,
}

fn run_untraced(cfg: &Config, rep: &mut Report) {
    use Workload::{ArchiveStream, MetaShared, SimZipf};
    let main = cfg.workload;
    let o: Vec<Workload> = [SimZipf, MetaShared, ArchiveStream]
        .into_iter()
        .filter(|&w| w != main)
        .collect();
    // The simulator's memory is measured on a fresh heap, so its run or
    // first probe half goes first.
    let order = if main == SimZipf {
        [main, o[0], o[1], o[0], o[1]]
    } else {
        [o[0], o[1], main, o[0], o[1]]
    };
    let mut totals: [Totals; 3] = Default::default();
    let mut parts = [0u64; 3];
    for w in order {
        let (scale, deadline, setups) = if w == main {
            (&cfg.scale, Duration::from_secs_f64(cfg.seconds), cfg.setups)
        } else {
            (&cfg.probe, Duration::ZERO, 1)
        };
        let seed = cfg.seed ^ parts[w as usize];
        parts[w as usize] += 1;
        let t = &mut totals[w as usize];
        match w {
            SimZipf => sim_part(scale, deadline, setups, t, rep),
            MetaShared => meta_part(seed, scale, deadline, setups, t),
            ArchiveStream => archive_part(seed, scale, deadline, setups, t, rep),
        }
    }
    for (w, t) in Workload::ALL.into_iter().zip(&totals) {
        finish(w, t, rep);
    }
    rep.set("setup_s", median(&totals[main as usize].setup_s));
}

/// Set the end-to-end metrics one workload's totals give.
fn finish(w: Workload, t: &Totals, rep: &mut Report) {
    match w {
        Workload::MetaShared => {
            let out = t.meta.as_ref().expect("meta_shared ran");
            for (i, phase) in meta::PHASES.iter().enumerate() {
                rep.set(
                    &format!("{phase}_p50_us"),
                    out.round_percentile(i, 0.50) / 1e3,
                );
                rep.set(
                    &format!("{phase}_p99_us"),
                    out.round_percentile(i, 0.99) / 1e3,
                );
            }
            rep.set("meta_ops_s", out.round_ops_s());
            eprintln!(
                "meta_shared: {} rounds, {} ops",
                out.lat[0].len(),
                out.ops()
            );
            account(rep, &out.tally, out.correct);
        }
        Workload::ArchiveStream => {
            let [write_ns, read_ns, verified] = t.archive;
            let mib = verified as f64 / MIB as f64;
            rep.set("write_mib_s", ratio(mib, write_ns as f64 / 1e9));
            rep.set("read_mib_s", ratio(mib, read_ns as f64 / 1e9));
        }
        Workload::SimZipf => {
            let [host_ns, ops] = t.sim;
            rep.set("host_ns_per_sim_op", ratio(host_ns as f64, ops as f64));
            rep.set("rss_kib_per_client", t.rss_per_client.unwrap_or(0.0));
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Untimed rounds run on a deployment before its timed ones.
const WARMUP_ROUNDS: usize = 3;

/// Warm-up rounds: their ops are counted and checked, their latencies
/// dropped. They take the first ops after a set-up, and after a part
/// that freed a large heap, out of the figures.
fn meta_warmup(m: &Meta, rng: &mut Rng, scale: &Scale, out: &mut MetaOut) {
    let mut warm = MetaOut::new();
    for round in 0..WARMUP_ROUNDS {
        m.round(rng, scale.meta_files, round, &mut warm);
    }
    out.absorb(warm);
}

/// Rounds until `deadline` has passed and at least the minimum ran.
fn meta_rounds(m: &Meta, rng: &mut Rng, scale: &Scale, deadline: Duration, out: &mut MetaOut) {
    let t0 = Instant::now();
    let mut round = 0;
    while round < scale.meta_min_rounds || t0.elapsed() < deadline {
        m.round(rng, scale.meta_files, WARMUP_ROUNDS + round, out);
        round += 1;
    }
}

fn meta_part(seed: u64, scale: &Scale, deadline: Duration, setups: usize, t: &mut Totals) {
    for _ in 1..setups {
        let start = Instant::now();
        let m = Meta::setup(false);
        t.setup_s.push(secs(start));
        m.teardown();
    }
    let start = Instant::now();
    let m = Meta::setup(false);
    t.setup_s.push(secs(start));
    let out = t.meta.get_or_insert_with(MetaOut::new);
    let mut rng = Rng::new(seed);
    meta_warmup(&m, &mut rng, scale, out);
    meta_rounds(&m, &mut rng, scale, deadline, out);
    m.teardown();
}

fn archive_plan(seed: u64, scale: &Scale) -> ArchivePlan {
    ArchivePlan::new(
        seed,
        scale.archive_total,
        scale.archive_small_max,
        scale.archive_big,
    )
}

fn report_archive(out: &ArchiveOut, files: usize) {
    eprintln!(
        "archive_stream: {files} files, {:.1} MiB; {:.1} MiB ({:.1}%) in files that failed",
        out.total_bytes as f64 / MIB as f64,
        out.failed_bytes as f64 / MIB as f64,
        100.0 * ratio(out.failed_bytes as f64, out.total_bytes as f64),
    );
}

/// Whole passes, each on a fresh deployment, until the next one would
/// end past `deadline`. The extra set-ups come first: after a pass, the
/// freed archive is still being returned while they would run.
fn archive_part(
    seed: u64,
    scale: &Scale,
    deadline: Duration,
    setups: usize,
    t: &mut Totals,
    rep: &mut Report,
) {
    for _ in 1..setups {
        let start = Instant::now();
        let d = archive::setup(false);
        t.setup_s.push(secs(start));
        d.teardown();
    }
    let plan = archive_plan(seed, scale);
    let t0 = Instant::now();
    loop {
        let start = Instant::now();
        let d = archive::setup(false);
        t.setup_s.push(secs(start));
        let out = archive::pass(&d, &plan);
        d.teardown();
        drop(d);
        t.archive[0] += out.write_ns;
        t.archive[1] += out.read_ns;
        t.archive[2] += out.verified_bytes;
        report_archive(&out, plan.sizes.len());
        account(rep, &out.tally, out.correct);
        if t0.elapsed() + start.elapsed() > deadline {
            break;
        }
    }
}

/// Whole fig9-style points, each on a fresh deployment, until the next
/// one would end past `deadline`.
fn sim_part(scale: &Scale, deadline: Duration, setups: usize, t: &mut Totals, rep: &mut Report) {
    let base_rss = rss_kib();
    let t0 = Instant::now();
    loop {
        let start = Instant::now();
        let s = Sim::setup(false, scale.sim_clients);
        t.setup_s.push(secs(start));
        let mut out = s.run(scale.sim_files);
        if t.rss_per_client.is_none() {
            let grown = peak_rss_kib().saturating_sub(base_rss);
            t.rss_per_client = Some(grown as f64 / s.clients() as f64);
        }
        s.check(scale.sim_files, &mut out);
        s.teardown();
        t.sim[0] += out.host_ns;
        t.sim[1] += out.ops;
        eprintln!(
            "sim_zipf: {} clients, {} creates in {:.2} s host; virtual ack p50/p99 {}/{} ns",
            scale.sim_clients,
            out.ops,
            out.host_ns as f64 / 1e9,
            out.ack_p50_ns,
            out.ack_p99_ns
        );
        account(rep, &out.tally, out.correct);
        if t0.elapsed() + start.elapsed() > deadline {
            break;
        }
    }
    while t.setup_s.len() < setups {
        let start = Instant::now();
        let s = Sim::setup(false, scale.sim_clients);
        t.setup_s.push(secs(start));
        s.teardown();
    }
}

/// Inputs to the per-layer metrics of one traced measurement.
struct Traced<'a> {
    trace: &'a Trace,
    /// Program counter deltas, summed over the measured phases.
    counters: BTreeMap<String, u64>,
    counts: Option<&'a StoreCounts>,
    /// Ops the per-op ratios divide by.
    ops: u64,
    user_bytes: u64,
    wall_ns: u64,
}

fn mean_ns(a: &tracer::Agg) -> f64 {
    ratio(a.total_ns as f64, a.calls as f64)
}

fn layer_metrics(t: &Traced, rep: &mut Report) {
    let tr = t.trace;
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0) as f64;
    let ops = t.ops as f64;
    let (enc, dec) = (
        tr.layer(Layer::Enc(Proto::Ops)),
        tr.layer(Layer::Dec(Proto::Ops)),
    );
    rep.set("wire.ops.encode_ns", mean_ns(enc));
    rep.set("wire.ops.decode_ns", mean_ns(dec));
    rep.set(
        "wire.ops.frame_bytes",
        ratio(enc.bytes as f64, enc.calls as f64),
    );
    let (senc, sdec) = (
        tr.layer(Layer::Enc(Proto::Store)),
        tr.layer(Layer::Dec(Proto::Store)),
    );
    let frame_mib = senc.bytes as f64 / MIB as f64;
    rep.set(
        "wire.store.ns_per_mib",
        ratio((senc.total_ns + sdec.total_ns) as f64, frame_mib),
    );
    rep.set("wire.store.frames", senc.calls as f64);
    rep.set("base.store_frame_mib", frame_mib);

    let net = tr.layer(Layer::Net(Proto::Ops));
    let roots = &tr.ops;
    let calls_per = |kind: Option<OpKind>| {
        if roots.is_empty() {
            // The simulator has no benchmark-side op spans: every op is
            // a create issued by the engine.
            return if kind.is_none() || kind == Some(OpKind::Create) {
                ratio(net.calls as f64, ops)
            } else {
                0.0
            };
        }
        let sel: Vec<_> = roots
            .iter()
            .filter(|o| kind.is_none_or(|k| o.kind == k))
            .collect();
        ratio(
            sel.iter()
                .map(|o| o.calls[Proto::Ops as usize] as f64)
                .sum(),
            sel.len() as f64,
        )
    };
    rep.set("net.ops.calls_per_op", calls_per(None));
    rep.set("net.ops.calls_per_create", calls_per(Some(OpKind::Create)));
    rep.set("net.ops.calls_per_stat", calls_per(Some(OpKind::Stat)));
    rep.set("net.ops.calls_per_unlink", calls_per(Some(OpKind::Unlink)));
    rep.set(
        "net.ops.rtt_p50_us",
        percentile(&net.durations, 0.5) as f64 / 1e3,
    );
    rep.set(
        "net.ops.self_us_per_call",
        ratio(net.self_ns as f64, net.calls as f64) / 1e3,
    );
    let snet = tr.layer(Layer::Net(Proto::Store));
    rep.set("net.store.calls", snet.calls as f64);
    rep.set(
        "net.store.self_ns_per_mib",
        ratio(snet.self_ns as f64, frame_mib),
    );
    rep.set(
        "net.lease.calls_per_op",
        ratio(tr.layer(Layer::Net(Proto::Lease)).calls as f64, ops),
    );
    rep.set("net.retry.count", c("net.retry.count"));
    rep.set("net.give_up.count", c("net.give_up.count"));

    let rpc = tr.layer(Layer::Rpc(Proto::Ops));
    rep.set(
        "rpc.ops.handle_p50_us",
        percentile(&rpc.durations, 0.50) as f64 / 1e3,
    );
    rep.set(
        "rpc.ops.handle_p99_us",
        percentile(&rpc.durations, 0.99) as f64 / 1e3,
    );
    rep.set(
        "rpc.store.handle_ns_per_mib",
        ratio(
            tr.layer(Layer::Rpc(Proto::Store)).total_ns as f64,
            frame_mib,
        ),
    );

    let store = tr.layer(Layer::Store);
    rep.set("store.calls", store.calls as f64);
    rep.set(
        "store.objects_per_call",
        ratio(store.items as f64, store.calls as f64),
    );
    rep.set(
        "store.bytes_per_user_byte",
        ratio(store.bytes as f64, t.user_bytes as f64),
    );
    rep.set("store.host_ns_per_call", mean_ns(store));
    rep.set(
        "store.busy_share",
        ratio(store.total_ns as f64, t.wall_ns as f64),
    );

    let flights = c("journal.flight.count");
    rep.set("journal.flights_per_kop", ratio(flights, ops / 1e3));
    rep.set(
        "journal.txns_per_flight",
        ratio(c("journal.flight.txns"), flights),
    );
    rep.set("journal.commit_retries", c("journal.commit_retry.count"));
    rep.set("base.journal_flights", flights);
    if let Some(counts) = t.counts {
        let get =
            |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed) as f64;
        rep.set("meta.checkpoints", get(&counts.checkpoints));
        rep.set("meta.takeovers", get(&counts.takeovers));
        rep.set(
            "cache.writebacks_before_close",
            get(&counts.writebacks_in_write),
        );
    }
    rep.set("meta.put_objects_per_op", ratio(c("meta.put.objects"), ops));
    let (hits, misses) = (c("cache.hit.count"), c("cache.miss.count"));
    rep.set("cache.hit_ratio", ratio(hits, hits + misses));
    rep.set("cache.misses", misses);
    rep.set("base.cache_lookups", hits + misses);
    rep.set(
        "lease.acquires_per_op",
        ratio(c("lease.acquire.count"), ops),
    );
    rep.set(
        "lease.redirects_per_op",
        ratio(c("lease.redirect.count"), ops),
    );
    rep.set("lease.retries", c("lease.retry.count"));

    rep.set("base.ops", ops);
    rep.set("base.user_mib", t.user_bytes as f64 / MIB as f64);
    rep.set("base.wall_s", t.wall_ns as f64 / 1e9);
    rep.set("trace.dropped_spans", tr.dropped as f64);
}

/// Mean self time per layer group of the `kind` ops whose duration
/// lies in the middle half, so the split describes a typical op.
fn attribution(trace: &Trace, kind: OpKind, untraced_p50_us: f64, rep: &mut Report) {
    let mut sel: Vec<_> = trace.ops.iter().filter(|o| o.kind == kind).collect();
    sel.sort_by_key(|o| o.dur_ns);
    let n = sel.len();
    let band = &sel[n / 4..(3 * n / 4).max(n / 4)];
    let name = if kind == OpKind::Create {
        "create"
    } else {
        "stat"
    };
    let mut sum = 0.0;
    for g in Group::ALL {
        let v = ratio(
            band.iter().map(|o| o.self_ns[g as usize] as f64).sum(),
            band.len() as f64,
        ) / 1e3;
        sum += v;
        rep.set(&format!("attr.{name}.{}_us", g.name()), v);
    }
    rep.set(&format!("attr.{name}.residual_us"), untraced_p50_us - sum);
}

fn write_trace(cfg: &Config, trace: &Trace, phases: &[(&str, &BTreeMap<String, u64>)]) {
    let Some(dir) = &cfg.trace_out else {
        return;
    };
    let mut spans = String::from("id\tparent\troot\tlayer\tstart_ns\tend_ns\tbytes\n");
    for s in &trace.spans {
        let _ = writeln!(
            spans,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.root,
            tracer::layer_name(s.layer),
            s.start_ns,
            s.end_ns,
            s.bytes
        );
    }
    let mut counters = String::from("phase\tcounter\tdelta\n");
    for (phase, map) in phases {
        for (k, v) in *map {
            let _ = writeln!(counters, "{phase}\t{k}\t{v}");
        }
    }
    let name = cfg.workload.name();
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(dir.join(format!("{name}.spans.tsv")), spans))
        .and_then(|_| std::fs::write(dir.join(format!("{name}.counters.tsv")), counters));
    if let Err(e) = written {
        eprintln!("could not write the trace to {}: {e}", dir.display());
    }
}

fn sum_maps<'a>(
    maps: impl IntoIterator<Item = &'a BTreeMap<String, u64>>,
) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for m in maps {
        for (k, v) in m {
            *out.entry(k.clone()).or_default() += v;
        }
    }
    out
}

/// Half the time untraced, half traced on an identical deployment with
/// every layer wrapped; the per-layer metrics come from the traced half.
fn run_traced(cfg: &Config, rep: &mut Report) {
    let half = Duration::from_secs_f64(cfg.seconds / 2.0);
    let scale = &cfg.scale;
    match cfg.workload {
        Workload::MetaShared => {
            let m = Meta::setup(false);
            let mut plain = MetaOut::new();
            let mut rng = Rng::new(cfg.seed);
            meta_warmup(&m, &mut rng, scale, &mut plain);
            meta_rounds(&m, &mut rng, scale, half, &mut plain);
            m.teardown();
            account(rep, &plain.tally, plain.correct);
            let m = Meta::setup(true);
            let mut out = MetaOut::new();
            let mut rng = Rng::new(cfg.seed);
            meta_warmup(&m, &mut rng, scale, &mut out);
            tracer::enable();
            let t = Instant::now();
            meta_rounds(&m, &mut rng, scale, half, &mut out);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let trace = tracer::take();
            account(rep, &out.tally, out.correct);
            layer_metrics(
                &Traced {
                    trace: &trace,
                    counters: sum_maps(&out.counters),
                    counts: m.d.traced_store.as_ref().map(|s| &s.counts),
                    ops: trace.ops.len() as u64,
                    user_bytes: 0,
                    wall_ns,
                },
                rep,
            );
            m.teardown();
            attribution(
                &trace,
                OpKind::Create,
                plain.round_percentile(0, 0.5) / 1e3,
                rep,
            );
            attribution(
                &trace,
                OpKind::Stat,
                plain.round_percentile(1, 0.5) / 1e3,
                rep,
            );
            let per_op = |o: &MetaOut| ratio(o.busy_ns() as f64, o.ops() as f64);
            rep.set(
                "trace.overhead_share",
                ratio(per_op(&out), per_op(&plain)) - 1.0,
            );
            let phases: Vec<_> = meta::PHASES
                .iter()
                .copied()
                .zip(out.counters.iter())
                .collect();
            write_trace(cfg, &trace, &phases);
        }
        Workload::ArchiveStream => {
            let plan = archive_plan(cfg.seed, scale);
            let d = archive::setup(false);
            let plain = archive::pass(&d, &plan);
            d.teardown();
            drop(d);
            account(rep, &plain.tally, plain.correct);
            let d = archive::setup(true);
            tracer::enable();
            let t = Instant::now();
            let out = archive::pass(&d, &plan);
            let wall_ns = t.elapsed().as_nanos() as u64;
            let trace = tracer::take();
            report_archive(&out, plan.sizes.len());
            account(rep, &out.tally, out.correct);
            layer_metrics(
                &Traced {
                    trace: &trace,
                    counters: sum_maps(&out.counters),
                    counts: d.traced_store.as_ref().map(|s| &s.counts),
                    ops: trace.ops.len() as u64,
                    user_bytes: out.total_bytes * 2,
                    wall_ns,
                },
                rep,
            );
            d.teardown();
            let io = |o: &ArchiveOut| (o.write_ns + o.read_ns) as f64;
            rep.set("trace.overhead_share", ratio(io(&out), io(&plain)) - 1.0);
            let phases = [("write", &out.counters[0]), ("read", &out.counters[1])];
            write_trace(cfg, &trace, &phases);
        }
        Workload::SimZipf => {
            let s = Sim::setup(false, scale.sim_clients);
            let plain = s.run(scale.sim_files);
            s.teardown();
            account(rep, &plain.tally, plain.correct);
            let s = Sim::setup(true, scale.sim_clients);
            tracer::enable();
            let mut out: SimOut = s.run(scale.sim_files);
            let trace = out.trace.take().unwrap_or_default();
            s.check(scale.sim_files, &mut out);
            account(rep, &out.tally, out.correct);
            layer_metrics(
                &Traced {
                    trace: &trace,
                    counters: out.counters.clone(),
                    counts: s.d.traced_store.as_ref().map(|st| &st.counts),
                    ops: out.ops,
                    user_bytes: 0,
                    wall_ns: out.host_ns,
                },
                rep,
            );
            s.teardown();
            let host = out.host_ns as f64;
            let self_share = |layers: &[Layer]| {
                ratio(
                    layers.iter().map(|&l| trace.layer(l).self_ns as f64).sum(),
                    host,
                )
            };
            let store = self_share(&[Layer::Store]);
            let bus = self_share(&[Layer::Net(Proto::Ops), Layer::Net(Proto::Lease)]);
            let lease = self_share(&[Layer::Rpc(Proto::Lease)]);
            rep.set("sim.store_host_share", store);
            rep.set("sim.bus_host_share", bus);
            rep.set("sim.lease_host_share", lease);
            rep.set("sim.client_host_share", 1.0 - store - bus - lease);
            rep.set("sim.virtual_kops_s", out.virtual_ops_s / 1e3);
            rep.set("sim.virtual_ack_p50_us", out.ack_p50_ns as f64 / 1e3);
            rep.set("sim.virtual_ack_p99_us", out.ack_p99_ns as f64 / 1e3);
            rep.set(
                "trace.overhead_share",
                ratio(host, plain.host_ns as f64) - 1.0,
            );
            write_trace(cfg, &trace, &[("create", &out.counters)]);
        }
    }
}
