//! `meta_shared`: the hot-directory metadata path over loopback TCP.
//!
//! Client A (endpoint A) leads `/shared`; client B (endpoint B) runs
//! mdtest-style rounds in it — create+close N files, stat them, unlink
//! them — so every op B issues is forwarded to A as an RPC. One load
//! thread drives B, closed loop: the next op starts when the last one
//! returned.

use crate::common::{percentile, Rng, Tally};
use crate::deploy::{delta, TcpDeploy};
use crate::tracer::{span, Layer, OpKind};
use arkfs::{ArkClient, ArkConfig};
use arkfs_objstore::ClusterConfig;
use arkfs_vfs::{Credentials, FileType, Vfs};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

pub const DIR: &str = "/shared";
pub const PHASES: [&str; 3] = ["create", "stat", "unlink"];

/// Time one Vfs call on the load thread, inside a root span.
pub fn timed<T>(kind: OpKind, f: impl FnOnce() -> T) -> (T, u64) {
    let _s = span(Layer::Op(kind));
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Everything one `meta_shared` measurement produced.
#[derive(Debug, Default)]
pub struct MetaOut {
    /// Wall-clock ns per op, per phase, per round.
    pub lat: [Vec<Vec<u64>>; 3],
    pub tally: Tally,
    pub correct: bool,
    /// Per-op success, in issue order (for the transparency test).
    pub outcomes: Vec<bool>,
    /// Program counter deltas per phase, summed over rounds.
    pub counters: [BTreeMap<String, u64>; 3],
}

impl MetaOut {
    pub fn new() -> MetaOut {
        MetaOut {
            correct: true,
            ..MetaOut::default()
        }
    }

    pub fn ops(&self) -> u64 {
        self.lat.iter().flatten().map(|r| r.len() as u64).sum()
    }

    pub fn busy_ns(&self) -> u64 {
        self.lat.iter().flatten().flatten().sum()
    }

    /// The per-round `q` percentile of a phase, averaged over the
    /// rounds left after dropping the fastest and slowest quarter.
    ///
    /// On a shared host the round trip flips between speed levels that
    /// last seconds (create p50 about 33 or 52 us, round by round). A
    /// median or a pooled percentile jumps to whichever level held most
    /// of the run; the mean follows the share of time at each, and the
    /// trim drops rounds hit by a burst of outside load.
    pub fn round_percentile(&self, phase: usize, q: f64) -> f64 {
        trimmed_mean(
            self.lat[phase]
                .iter()
                .map(|r| percentile(r, q) as f64)
                .collect(),
        )
    }

    /// Ops per busy second of each round, averaged like
    /// [`MetaOut::round_percentile`].
    pub fn round_ops_s(&self) -> f64 {
        let rounds = self.lat[0].len();
        trimmed_mean(
            (0..rounds)
                .map(|r| {
                    let phases = self.lat.iter().map(|p| &p[r]);
                    let ops: usize = phases.clone().map(|l| l.len()).sum();
                    let busy: u64 = phases.flatten().sum();
                    crate::report::ratio(ops as f64, busy as f64 / 1e9)
                })
                .collect(),
        )
    }

    /// Fold in the outcome of rounds whose latencies are not kept.
    pub fn absorb(&mut self, warm: MetaOut) {
        self.tally.merge(warm.tally);
        self.correct &= warm.correct;
        self.outcomes.extend(warm.outcomes);
    }
}

/// Mean of the values left after dropping the lowest and highest
/// quarter (the interquartile mean).
fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let kept = &v[cut..v.len() - cut];
    crate::report::ratio(kept.iter().sum(), kept.len() as f64)
}

/// A set-up `meta_shared` deployment.
pub struct Meta {
    pub d: TcpDeploy,
    pub b: Arc<ArkClient>,
}

impl Meta {
    /// Two endpoints, `/shared` created and led by A (A creates and
    /// removes one entry in it, which makes A its leader), and B's
    /// client minted.
    pub fn setup(traced: bool) -> Meta {
        let config = ArkConfig::default();
        let store = ClusterConfig::rados(config.spec.clone());
        let d = TcpDeploy::new(config, store, traced);
        let ctx = Credentials::root();
        let a = d.client_a();
        a.mkdir(&ctx, DIR, 0o777).expect("mkdir /shared");
        let lead = format!("{DIR}/.lead");
        let fh = a.create(&ctx, &lead, 0o644).expect("create on A");
        a.close(&ctx, fh).expect("close on A");
        a.unlink(&ctx, &lead).expect("unlink on A");
        let b = d.client_b();
        Meta { d, b }
    }

    fn check_listing(&self, want: &BTreeSet<String>, out: &mut MetaOut) {
        match self.b.readdir(&Credentials::root(), DIR) {
            Ok(entries) => {
                let got: BTreeSet<String> = entries.into_iter().map(|e| e.name).collect();
                if &got != want {
                    eprintln!(
                        "meta_shared: readdir({DIR}) has {} entries, expected {}",
                        got.len(),
                        want.len()
                    );
                    out.correct = false;
                }
            }
            Err(e) => {
                eprintln!("meta_shared: readdir({DIR}) failed: {e:?}");
                out.correct = false;
            }
        }
    }

    /// One round: create+close, stat and unlink `files` seeded names.
    pub fn round(&self, rng: &mut Rng, files: usize, round: usize, out: &mut MetaOut) {
        let ctx = Credentials::root();
        let names: Vec<String> = (0..files)
            .map(|_| format!("r{round}-{:016x}", rng.next_u64()))
            .collect();
        let paths: Vec<String> = names.iter().map(|n| format!("{DIR}/{n}")).collect();
        // What `/shared` must list: the names whose create succeeded and
        // whose unlink has not.
        let mut listed = BTreeSet::new();
        for (phase, name) in PHASES.iter().enumerate() {
            let before = self.d.counters();
            let mut lat = Vec::with_capacity(files);
            for (file, path) in names.iter().zip(&paths) {
                let (ok, ns) = match *name {
                    "create" => timed(OpKind::Create, || {
                        self.b
                            .create(&ctx, path, 0o644)
                            .and_then(|fh| self.b.close(&ctx, fh))
                    }),
                    "stat" => timed(OpKind::Stat, || {
                        self.b.stat(&ctx, path).and_then(|s| {
                            if s.ftype == FileType::Regular && s.size == 0 {
                                Ok(())
                            } else {
                                Err(arkfs_vfs::FsError::Io(format!("bad stat {s:?}")))
                            }
                        })
                    }),
                    _ => timed(OpKind::Unlink, || self.b.unlink(&ctx, path)),
                };
                let ok = out.tally.record(&ok);
                out.outcomes.push(ok);
                lat.push(ns);
                match (*name, ok) {
                    ("create", true) => {
                        listed.insert(file.clone());
                    }
                    ("unlink", true) => {
                        listed.remove(file);
                    }
                    _ => {}
                }
            }
            let d = delta(&self.d.counters(), &before);
            for (k, v) in d {
                *out.counters[phase].entry(k).or_default() += v;
            }
            out.lat[phase].push(lat);
            if *name != "stat" {
                self.check_listing(&listed, out);
            }
        }
    }

    pub fn teardown(self) {
        self.d.teardown();
    }
}
