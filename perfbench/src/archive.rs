//! `archive_stream`: archive streaming onto object storage over
//! loopback TCP.
//!
//! Client B writes a seeded archive into `/archive` in 128 KiB requests
//! (fig6's request size), closes each file, then runs `sync_all` and
//! `release_all`. A freshly minted client on endpoint B, with a cold
//! cache, reads everything back in order and checks it byte for byte.
//! Every data chunk crosses the store protocol as `RemoteStore` frames.

use crate::common::{Rng, Tally};
use crate::deploy::{delta, TcpDeploy};
use crate::meta::timed;
use crate::tracer::OpKind;
use crate::wrap::set_current_op;
use arkfs::ArkConfig;
use arkfs_objstore::ClusterConfig;
use arkfs_vfs::{Credentials, OpenFlags, Vfs};
use std::collections::BTreeMap;
use std::time::Instant;

pub const DIR: &str = "/archive";
/// Bytes per write and read request (fig6).
pub const REQ: usize = 128 << 10;
pub const MIB: u64 = 1 << 20;
/// Seeded random bytes every file's content is cut from.
const POOL: usize = 4 << 20;

/// A seeded archive: file sizes and content.
pub struct ArchivePlan {
    pub sizes: Vec<u64>,
    pool: Vec<u8>,
    seed: u64,
    /// Flip the expected byte at `(file, offset)` — the check must then
    /// report that file as failed.
    pub corrupt: Option<(usize, u64)>,
}

impl ArchivePlan {
    /// Files of seeded sizes from 1 to `small_max` MiB (plus odd bytes)
    /// that add up to exactly `total` bytes. With `big`, two more files
    /// join at seeded positions: one of 64 MiB (fig6's file size) and
    /// one of 80 MiB. Their sizes are fixed so that every seed writes
    /// the same bytes, and the same share of them, into the 64 MiB+
    /// files.
    pub fn new(seed: u64, total: u64, small_max: u64, big: bool) -> ArchivePlan {
        let mut rng = Rng::new(seed);
        let mut sizes = Vec::new();
        let mut left = total;
        while left > 0 {
            let size = (rng.range(1, small_max) * MIB + rng.range(0, REQ as u64 - 1)).min(left);
            sizes.push(size);
            left -= size;
        }
        if big {
            sizes.push(64 * MIB);
            sizes.push(80 * MIB);
        }
        // Seeded order, so the big files land anywhere in the stream.
        for i in (1..sizes.len()).rev() {
            let j = rng.range(0, i as u64) as usize;
            sizes.swap(i, j);
        }
        let mut pool = vec![0u8; POOL];
        for chunk in pool.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        ArchivePlan {
            sizes,
            pool,
            seed,
            corrupt: None,
        }
    }

    pub fn total(&self) -> u64 {
        self.sizes.iter().sum()
    }

    pub fn path(file: usize) -> String {
        format!("{DIR}/f{file:04}")
    }

    /// Fill `buf` with the content of request `req` of `file`: a seeded
    /// slice of the pool, stamped with the file and request number so
    /// no two requests carry the same bytes.
    pub fn fill(&self, file: usize, req: u64, buf: &mut [u8]) {
        let mut h = Rng::new(self.seed ^ ((file as u64) << 32) ^ req);
        let off = (h.next_u64() % (POOL - REQ) as u64) as usize;
        buf.copy_from_slice(&self.pool[off..off + buf.len()]);
        let stamp = ((file as u64) << 32 | req).to_le_bytes();
        let n = stamp.len().min(buf.len());
        buf[..n].copy_from_slice(&stamp[..n]);
    }

    /// The bytes a read of request `req` of `file` must return.
    pub fn expected(&self, file: usize, req: u64, buf: &mut [u8]) {
        self.fill(file, req, buf);
        if let Some((f, at)) = self.corrupt {
            let start = req * REQ as u64;
            if f == file && (start..start + buf.len() as u64).contains(&at) {
                buf[(at - start) as usize] ^= 0xFF;
            }
        }
    }
}

/// Everything one `archive_stream` pass produced.
#[derive(Debug, Default)]
pub struct ArchiveOut {
    /// Wall ns of write+close+sync, and of the read-back.
    pub write_ns: u64,
    pub read_ns: u64,
    /// Bytes written and read back intact.
    pub verified_bytes: u64,
    /// Bytes of the files whose write or read failed.
    pub failed_bytes: u64,
    pub total_bytes: u64,
    pub tally: Tally,
    pub correct: bool,
    /// Program counter deltas of the write and read phases.
    pub counters: [BTreeMap<String, u64>; 2],
}

/// The deployment `archive_stream` runs on. Single-copy store: this is
/// a wall-clock benchmark, and a second in-memory replica would only
/// double the resident archive.
pub fn setup(traced: bool) -> TcpDeploy {
    let config = ArkConfig::default();
    let store = ClusterConfig::rados(config.spec.clone()).with_replication(1);
    TcpDeploy::new(config, store, traced)
}

/// Write the archive, then read it back on a fresh client.
pub fn pass(d: &TcpDeploy, plan: &ArchivePlan) -> ArchiveOut {
    let ctx = Credentials::root();
    let mut out = ArchiveOut {
        correct: true,
        total_bytes: plan.total(),
        ..ArchiveOut::default()
    };
    let mut buf = vec![0u8; REQ];
    let mut write_ok = vec![false; plan.sizes.len()];

    let w = d.client_b();
    w.mkdir(&ctx, DIR, 0o755).expect("mkdir /archive");
    let before = d.counters();
    let t0 = Instant::now();
    for (f, &size) in plan.sizes.iter().enumerate() {
        let r = timed(OpKind::Create, || {
            w.create(&ctx, &ArchivePlan::path(f), 0o644)
        })
        .0;
        let fh = match r {
            Ok(fh) => fh,
            Err(e) => {
                out.tally.fail(format!("create: {e:?}"));
                continue;
            }
        };
        let mut err = None;
        set_current_op(OpKind::Write);
        for (req, off) in (0..size).step_by(REQ).enumerate() {
            let len = (size - off).min(REQ as u64) as usize;
            plan.fill(f, req as u64, &mut buf[..len]);
            if let Err(e) = timed(OpKind::Write, || w.write(&ctx, fh, off, &buf[..len])).0 {
                err = Some(format!("write: {e:?}"));
                break;
            }
        }
        set_current_op(OpKind::Close);
        if let Err(e) = timed(OpKind::Close, || w.close(&ctx, fh)).0 {
            err.get_or_insert(format!("close: {e:?}"));
        }
        set_current_op(OpKind::Other);
        match err {
            Some(e) => {
                eprintln!("archive_stream: file {f} ({size} bytes) failed: {e}");
                out.tally.fail(e);
            }
            None => {
                out.tally.ok();
                write_ok[f] = true;
            }
        }
    }
    let sync = timed(OpKind::Sync, || w.sync_all(&ctx)).0;
    out.tally.record(&sync);
    out.write_ns = t0.elapsed().as_nanos() as u64;
    let released = w.release_all(&ctx);
    out.tally.record(&released);
    // The writer's cache is clean now; free it before the reader fills
    // its own.
    let dropped = w.drop_data_cache();
    out.tally.record(&dropped);
    let mid = d.counters();
    out.counters[0] = delta(&mid, &before);

    let r = d.client_b();
    let mut want = vec![0u8; REQ];
    let t1 = Instant::now();
    for (f, &size) in plan.sizes.iter().enumerate() {
        match read_back(&r, plan, f, size, &mut buf, &mut want) {
            Ok(()) => {
                out.tally.ok();
                if write_ok[f] {
                    out.verified_bytes += size;
                } else {
                    out.failed_bytes += size;
                }
            }
            Err(e) => {
                eprintln!("archive_stream: read-back of file {f} ({size} bytes) failed: {e}");
                out.tally.fail(format!("read: {e}"));
                out.failed_bytes += size;
                if write_ok[f] {
                    // The program acknowledged this file, so this is
                    // wrong output, not a reported failure.
                    out.correct = false;
                }
            }
        }
    }
    out.read_ns = t1.elapsed().as_nanos() as u64;
    out.counters[1] = delta(&d.counters(), &mid);
    let _ = r.drop_data_cache();
    out
}

fn read_back(
    r: &arkfs::ArkClient,
    plan: &ArchivePlan,
    f: usize,
    size: u64,
    buf: &mut [u8],
    want: &mut [u8],
) -> Result<(), String> {
    let ctx = Credentials::root();
    let path = ArchivePlan::path(f);
    let fh = r
        .open(&ctx, &path, OpenFlags::RDONLY)
        .map_err(|e| format!("open: {e:?}"))?;
    let mut result = Ok(());
    for (req, off) in (0..size).step_by(REQ).enumerate() {
        let len = (size - off).min(REQ as u64) as usize;
        match timed(OpKind::Read, || r.read(&ctx, fh, off, &mut buf[..len])).0 {
            Ok(n) if n == len => {}
            Ok(n) => {
                result = Err(format!("short read at {off}: {n} of {len} bytes"));
                break;
            }
            Err(e) => {
                result = Err(format!("read at {off}: {e:?}"));
                break;
            }
        }
        plan.expected(f, req as u64, &mut want[..len]);
        if buf[..len] != want[..len] {
            let i = (0..len).find(|&i| buf[i] != want[i]).unwrap_or(0);
            result = Err(format!("mismatch at byte {}", off + i as u64));
            break;
        }
    }
    let _ = r.close(&ctx, fh);
    result
}
