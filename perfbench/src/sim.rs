//! `sim_zipf`: host cost of the virtual-time simulator.
//!
//! fig9's largest point: 16 384 event-engine clients create 131 072
//! files over 256 Zipf(s=0.9) directories on the virtual `Bus`, payload
//! discarded, all on one host thread.
//!
//! The input is fig9's own Zipf stream whatever the seed: the host cost
//! of a point depends on the stream far more than on run-to-run noise
//! (five other streams took 2.8 to 12.2 s where fig9's takes about 16 s),
//! and with fig9's stream every run can check its virtual ack
//! percentiles against the committed `ArkFS-C16384` row of
//! `BENCH_fig9.json`.

use crate::common::Tally;
use crate::deploy::{counters, delta, SimDeploy};
use crate::tracer::{self, Trace};
use arkfs::ArkClient;
use arkfs_simkit::ThroughputMeter;
use arkfs_vfs::{Credentials, Vfs};
use arkfs_workloads::client::barrier;
use arkfs_workloads::{gen_iter, run_ops, Drive, Op, OpGen, SimClient, Zipf};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

pub const DIRS: usize = 256;
pub const ZIPF_S: f64 = 0.9;
/// fig9's Zipf seed.
const FIG9_SEED: u64 = 0xF19;
pub const FIG9_CLIENTS: usize = 16_384;
pub const FIG9_FILES: u64 = 131_072;
/// `create_ack_p50_ns` / `create_ack_p99_ns` of the `ArkFS-C16384` row.
pub const FIG9_ACK_P50_NS: u64 = 204_530_000;
pub const FIG9_ACK_P99_NS: u64 = 650_203_000;

/// Client `client`'s directory stream, exactly as fig9 seeds it.
fn client_zipf(client: usize) -> Zipf {
    Zipf::new(
        DIRS,
        ZIPF_S,
        FIG9_SEED ^ (client as u64).wrapping_mul(0x9E37),
    )
}

/// Everything one `sim_zipf` run produced.
#[derive(Debug, Default)]
pub struct SimOut {
    /// Host wall ns inside `run_ops`.
    pub host_ns: u64,
    pub ops: u64,
    pub tally: Tally,
    pub correct: bool,
    pub outcomes: Vec<Vec<bool>>,
    pub ack_p50_ns: u64,
    pub ack_p99_ns: u64,
    pub virtual_ops_s: f64,
    pub counters: BTreeMap<String, u64>,
    /// In a traced run: the spans of `run_ops` alone.
    pub trace: Option<Trace>,
}

/// A set-up fig9 point: the directory pool exists, its leases are
/// handed back, and the clients are minted.
pub struct Sim {
    pub d: SimDeploy,
    clients: Vec<Arc<dyn SimClient>>,
}

impl Sim {
    pub fn setup(traced: bool, n_clients: usize) -> Sim {
        let ctx = Credentials::root();
        let d = SimDeploy::new(traced);
        let admin: Arc<ArkClient> = d.cluster.client();
        admin.mkdir(&ctx, "/zipf", 0o755).expect("mkdir /zipf");
        for dir in 0..DIRS {
            admin
                .mkdir(&ctx, &format!("/zipf/d{dir}"), 0o755)
                .expect("mkdir pool dir");
        }
        admin.sync_all(&ctx).expect("admin sync");
        admin.release_all(&ctx).expect("admin release");
        let mut clients = vec![admin as Arc<dyn SimClient>];
        clients.extend((0..n_clients).map(|_| d.cluster.client() as Arc<dyn SimClient>));
        Sim { d, clients }
    }

    /// Strong-scaled creates, exactly as fig9 drives them.
    pub fn run(&self, files_total: u64) -> SimOut {
        let ctx = Credentials::root();
        let clients = &self.clients[1..];
        let n = clients.len();
        let per_client = (files_total / n as u64).max(1);
        let gens: Vec<Box<dyn OpGen>> = (0..n)
            .map(|i| {
                let mut zipf = client_zipf(i);
                gen_iter((0..per_client).map(move |j| Op::Create {
                    path: format!("/zipf/d{}/c{i}-f{j}", zipf.sample()),
                }))
            })
            .collect();
        let reg = &self.d.cluster.telemetry().registry;
        let before = counters(reg);
        let meter = ThroughputMeter::new();
        let starts: Vec<u64> = clients.iter().map(|c| c.port().now()).collect();
        let t0 = Instant::now();
        let report = run_ops(clients, gens, Drive::Engine, Some(&meter));
        let host_ns = t0.elapsed().as_nanos() as u64;
        let trace = tracer::is_on().then(tracer::take);
        let mut tally = Tally::default();
        for (c, start) in clients.iter().zip(starts) {
            let r = c.sync_all(&ctx);
            tally.record(&r);
            meter.record_span(per_client, start, c.port().now());
        }
        barrier(clients);
        let phase = meter.finish("create");
        for outcomes in &report.outcomes {
            for &ok in outcomes {
                if ok {
                    tally.ok();
                } else {
                    tally.fail("create failed".into());
                }
            }
        }
        SimOut {
            host_ns,
            ops: report.ops.iter().sum(),
            tally,
            correct: true,
            outcomes: report.outcomes,
            ack_p50_ns: phase.latency_p50,
            ack_p99_ns: phase.latency_p99,
            virtual_ops_s: phase.ops_per_sec(),
            counters: delta(&counters(reg), &before),
            trace,
        }
    }

    /// Every directory lists exactly the files the streams put there;
    /// at fig9's size the virtual ack percentiles also match the
    /// committed figure.
    pub fn check(&self, files_total: u64, out: &mut SimOut) {
        let ctx = Credentials::root();
        let n = self.clients.len() - 1;
        let per_client = (files_total / n as u64).max(1);
        let mut want: Vec<BTreeSet<String>> = vec![BTreeSet::new(); DIRS];
        for i in 0..n {
            let mut zipf = client_zipf(i);
            for j in 0..per_client {
                want[zipf.sample()].insert(format!("c{i}-f{j}"));
            }
        }
        let admin = &self.clients[0];
        for (dir, names) in want.iter().enumerate() {
            match admin.readdir(&ctx, &format!("/zipf/d{dir}")) {
                Ok(es) => {
                    let got: BTreeSet<String> = es.into_iter().map(|e| e.name).collect();
                    if &got != names {
                        eprintln!(
                            "sim_zipf: /zipf/d{dir} lists {} files, expected {}",
                            got.len(),
                            names.len()
                        );
                        out.correct = false;
                    }
                }
                Err(e) => {
                    eprintln!("sim_zipf: readdir /zipf/d{dir} failed: {e:?}");
                    out.correct = false;
                }
            }
        }
        if n == FIG9_CLIENTS && files_total == FIG9_FILES {
            let want = (FIG9_ACK_P50_NS, FIG9_ACK_P99_NS);
            if (out.ack_p50_ns, out.ack_p99_ns) != want {
                eprintln!(
                    "sim_zipf: virtual ack p50/p99 {}/{} ns differ from fig9's {}/{} ns",
                    out.ack_p50_ns, out.ack_p99_ns, want.0, want.1
                );
                out.correct = false;
            }
        }
    }

    pub fn clients(&self) -> usize {
        self.clients.len() - 1
    }

    pub fn teardown(self) {
        self.d.teardown(self.clients.len() as u32);
    }
}
