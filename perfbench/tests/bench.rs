//! The benchmark's own checks, at small scale.
//!
//! The span recorder is process-global, so every test takes `SERIAL`.

use arkfs_perfbench::archive::{self, ArchivePlan, MIB};
use arkfs_perfbench::meta::{Meta, MetaOut};
use arkfs_perfbench::report::{END_TO_END, PER_LAYER};
use arkfs_perfbench::sim::Sim;
use arkfs_perfbench::{common::Rng, run, tracer, Config, Scale, Workload};
use std::sync::Mutex;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> Scale {
    Scale {
        meta_files: 40,
        meta_min_rounds: 2,
        archive_total: 6 * MIB,
        archive_small_max: 2,
        archive_big: false,
        sim_clients: 64,
        sim_files: 1024,
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    let field = |s: &str, key: &str| -> Option<(String, usize)> {
        let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let len = s[at..].find('"')?;
        Some((s[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut rest = body;
    while let Some((name, end)) = field(rest, "name") {
        rest = &rest[end..];
        let (unit, end) = field(rest, "unit").expect("every metric has a unit");
        rest = &rest[end..];
        out.push((name, unit));
    }
    out
}

fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
    c.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_catalogue() {
    assert_eq!(declared("end_to_end"), catalogue(END_TO_END));
    assert_eq!(declared("per_layer"), catalogue(PER_LAYER));
}

/// One command per workload and mode prints every catalogue metric,
/// with its unit, and the metrics a workload is named for are measured.
#[test]
fn every_metric_is_printed_with_its_unit() {
    let _g = serial();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = Config {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                scale: tiny(),
                probe: tiny(),
                setups: 2,
                trace_out: None,
            };
            let rep = run(&cfg);
            assert!(rep.correct, "{workload:?} trace={trace}");
            assert_eq!(rep.failed, 0, "{workload:?} trace={trace}");
            let line = rep.json(trace);
            for (name, unit) in if trace { PER_LAYER } else { END_TO_END } {
                let want = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&want).unwrap_or_else(|| panic!("{name} missing"));
                let tail = &line[at..];
                let unit_at = tail.find("\"unit\": ").expect("unit follows value");
                assert!(tail[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")));
            }
            if !trace {
                for (name, _) in END_TO_END {
                    assert!(rep.metrics[name] > 0.0, "{workload:?}: {name} is 0");
                }
            }
        }
    }
}

fn meta_run(traced: bool) -> (MetaOut, std::collections::BTreeMap<String, u64>) {
    let m = Meta::setup(traced);
    if traced {
        tracer::enable();
    }
    let mut out = MetaOut::new();
    let mut rng = Rng::new(11);
    for round in 0..2 {
        m.round(&mut rng, 60, round, &mut out);
    }
    let counters = m.d.counters();
    if traced {
        let t = tracer::take();
        assert!(!t.ops.is_empty(), "the traced run recorded spans");
    }
    m.teardown();
    (out, counters)
}

#[test]
fn tracing_is_transparent_on_meta_shared() {
    let _g = serial();
    let (plain, plain_counters) = meta_run(false);
    let (traced, traced_counters) = meta_run(true);
    assert!(plain.correct && traced.correct);
    assert_eq!(plain.outcomes, traced.outcomes);
    assert_eq!(plain.counters, traced.counters, "per-phase counter deltas");
    assert_eq!(plain_counters, traced_counters, "final program counters");
}

#[test]
fn tracing_is_transparent_on_sim_zipf() {
    let _g = serial();
    let run = |traced: bool| {
        let s = Sim::setup(traced, 64);
        if traced {
            tracer::enable();
        }
        let mut out = s.run(2048);
        assert_eq!(out.trace.is_some(), traced);
        s.check(2048, &mut out);
        let counters = arkfs_perfbench::deploy::counters(&s.d.cluster.telemetry().registry);
        s.teardown();
        (out, counters)
    };
    let (plain, plain_counters) = run(false);
    let (traced, traced_counters) = run(true);
    assert!(plain.correct && traced.correct);
    assert_eq!(plain.tally.failed, 0);
    assert_eq!(plain.outcomes, traced.outcomes);
    assert_eq!(plain.counters, traced.counters);
    assert_eq!(plain_counters, traced_counters);
    assert_eq!(
        (plain.ack_p50_ns, plain.ack_p99_ns),
        (traced.ack_p50_ns, traced.ack_p99_ns)
    );
}

#[test]
fn a_corrupted_expected_byte_is_reported() {
    let _g = serial();
    let mut plan = ArchivePlan::new(5, 6 * MIB, 2, false);
    let d = archive::setup(false);
    let clean = archive::pass(&d, &plan);
    d.teardown();
    assert!(clean.correct);
    assert_eq!(clean.tally.failed, 0);
    assert_eq!(clean.verified_bytes, plan.total());

    plan.corrupt = Some((1, plan.sizes[1] / 2));
    let d = archive::setup(false);
    let bad = archive::pass(&d, &plan);
    d.teardown();
    assert!(
        !bad.correct,
        "a mismatch in an acknowledged file is wrong output"
    );
    assert_eq!(bad.tally.failed, 1);
    assert_eq!(bad.verified_bytes, plan.total() - plan.sizes[1]);
}
