//! Transparent decorators at each layer's public trait, used only in
//! the traced run. Every method delegates to the wrapped value; the
//! decorators add a span around the call and nothing else, so a traced
//! run takes the same code paths as an untraced one (the benchmark's
//! own test checks outcomes and program counters match).

use crate::tracer::{span, Layer, OpKind, Proto};
use arkfs::remote::{lease_wire, ops_wire, store_wire, StoreRequest, StoreResponse};
use arkfs::rpc::{OpRequest, OpResponse};
use arkfs_lease::{LeaseRequest, LeaseResponse};
use arkfs_netsim::{NetError, NodeId, Service, Transport, WireFns};
use arkfs_objstore::{KeyKind, ObjectKey, ObjectStore, OsResult, StoreProfile};
use arkfs_simkit::{Nanos, Port};
use arkfs_telemetry::Telemetry;
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// A `Transport` that opens a `Net` span per call and wraps every
/// service registered through it in a [`TracedService`].
pub struct TracedTransport<Req, Resp> {
    inner: Arc<dyn Transport<Req, Resp>>,
    proto: Proto,
}

impl<Req, Resp> TracedTransport<Req, Resp> {
    pub fn new(inner: Arc<dyn Transport<Req, Resp>>, proto: Proto) -> Arc<Self> {
        Arc::new(TracedTransport { inner, proto })
    }
}

impl<Req: Send + 'static, Resp: Send + 'static> Transport<Req, Resp>
    for TracedTransport<Req, Resp>
{
    fn call(&self, port: &Port, to: NodeId, req: Req) -> Result<Resp, NetError> {
        let _s = span(Layer::Net(self.proto));
        self.inner.call(port, to, req)
    }

    fn notify(&self, port: &Port, to: NodeId, req: Req) -> Result<(), NetError> {
        let _s = span(Layer::Net(self.proto));
        self.inner.notify(port, to, req)
    }

    fn register(&self, node: NodeId, service: Arc<dyn Service<Req, Resp>>) {
        self.inner
            .register(node, traced_service(service, self.proto));
    }

    fn disconnect(&self, node: NodeId) {
        self.inner.disconnect(node)
    }

    fn is_connected(&self, node: NodeId) -> bool {
        self.inner.is_connected(node)
    }

    fn message_count(&self) -> u64 {
        self.inner.message_count()
    }

    fn addr_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.inner.addr_of(node)
    }

    fn backoff(&self, port: &Port, delay: Nanos) {
        self.inner.backoff(port, delay)
    }
}

/// A `Service` that opens an `Rpc` span per request served.
pub struct TracedService<Req, Resp> {
    inner: Arc<dyn Service<Req, Resp>>,
    proto: Proto,
}

pub fn traced_service<Req: 'static, Resp: 'static>(
    inner: Arc<dyn Service<Req, Resp>>,
    proto: Proto,
) -> Arc<dyn Service<Req, Resp>> {
    Arc::new(TracedService { inner, proto })
}

impl<Req, Resp> Service<Req, Resp> for TracedService<Req, Resp> {
    fn handle(&self, arrival: Nanos, req: Req) -> (Resp, Nanos) {
        let _s = span(Layer::Rpc(self.proto));
        self.inner.handle(arrival, req)
    }
}

fn encode<T>(proto: Proto, v: &T, f: fn(&T) -> Vec<u8>) -> Vec<u8> {
    let mut s = span(Layer::Enc(proto));
    let out = f(v);
    s.set_bytes(out.len() as u64);
    out
}

fn decode<T>(proto: Proto, b: &[u8], f: fn(&[u8]) -> Option<T>) -> Option<T> {
    let mut s = span(Layer::Dec(proto));
    s.set_bytes(b.len() as u64);
    f(b)
}

/// A codec table whose entries time the protocol's own table. Function
/// pointers cannot capture, so each protocol gets its own functions.
macro_rules! traced_wire {
    ($name:ident, $orig:path, $proto:expr, $req:ty, $resp:ty) => {
        pub fn $name() -> WireFns<$req, $resp> {
            fn enc_req(v: &$req) -> Vec<u8> {
                encode($proto, v, $orig().enc_req)
            }
            fn dec_req(b: &[u8]) -> Option<$req> {
                decode($proto, b, $orig().dec_req)
            }
            fn enc_resp(v: &$resp) -> Vec<u8> {
                encode($proto, v, $orig().enc_resp)
            }
            fn dec_resp(b: &[u8]) -> Option<$resp> {
                decode($proto, b, $orig().dec_resp)
            }
            WireFns {
                enc_req,
                dec_req,
                enc_resp,
                dec_resp,
            }
        }
    };
}

traced_wire!(traced_ops_wire, ops_wire, Proto::Ops, OpRequest, OpResponse);
traced_wire!(
    traced_lease_wire,
    lease_wire,
    Proto::Lease,
    LeaseRequest,
    LeaseResponse
);
traced_wire!(
    traced_store_wire,
    store_wire,
    Proto::Store,
    StoreRequest,
    StoreResponse
);

/// The benchmark op the load thread is inside, published so a store
/// call served on another thread can tell a write-back forced by cache
/// eviction (during `write`) from one at `close`.
static CURRENT_OP: AtomicU8 = AtomicU8::new(OpKind::Other as u8);

pub fn set_current_op(kind: OpKind) {
    CURRENT_OP.store(kind as u8, Ordering::Relaxed);
}

fn in_write() -> bool {
    CURRENT_OP.load(Ordering::Relaxed) == OpKind::Write as u8
}

/// Store-boundary counts the spans alone do not give.
#[derive(Debug, Default)]
pub struct StoreCounts {
    /// Batch writes of dentry-bucket objects: one per metatable
    /// checkpoint.
    pub checkpoints: AtomicU64,
    /// Journal-stream LISTs: one per leader takeover's recovery scan.
    pub takeovers: AtomicU64,
    /// Data objects written while the load thread was inside `write`.
    pub writebacks_in_write: AtomicU64,
}

/// An `ObjectStore` decorator that delegates every method, the
/// defaulted batch methods and `telemetry()` included: a default
/// `get_many` here would silently de-batch the program.
pub struct TracedStore {
    inner: Arc<dyn ObjectStore>,
    pub counts: StoreCounts,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn ObjectStore>) -> Arc<Self> {
        Arc::new(TracedStore {
            inner,
            counts: StoreCounts::default(),
        })
    }

    fn note_puts<'a>(&self, keys: impl Iterator<Item = &'a ObjectKey>) {
        let (mut dentries, mut data) = (0u64, 0u64);
        for k in keys {
            match k.kind {
                KeyKind::Dentry => dentries += 1,
                KeyKind::Data => data += 1,
                _ => {}
            }
        }
        if dentries > 0 {
            self.counts.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        if data > 0 && in_write() {
            self.counts
                .writebacks_in_write
                .fetch_add(data, Ordering::Relaxed);
        }
    }
}

fn store_span(items: usize) -> crate::tracer::Span {
    let mut s = span(Layer::Store);
    s.set_items(items as u64);
    s
}

fn ok_bytes(r: &OsResult<Bytes>) -> u64 {
    r.as_ref().map_or(0, |b| b.len() as u64)
}

impl ObjectStore for TracedStore {
    fn profile(&self) -> &StoreProfile {
        self.inner.profile()
    }

    fn usage(&self) -> (u64, u64) {
        self.inner.usage()
    }

    fn batch_stats(&self) -> (u64, u64) {
        self.inner.batch_stats()
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.inner.telemetry()
    }

    fn put(&self, port: &Port, key: ObjectKey, data: Bytes) -> OsResult<()> {
        let mut s = store_span(1);
        s.set_bytes(data.len() as u64);
        self.note_puts(std::iter::once(&key));
        self.inner.put(port, key, data)
    }

    fn get(&self, port: &Port, key: ObjectKey) -> OsResult<Bytes> {
        let mut s = store_span(1);
        let r = self.inner.get(port, key);
        s.set_bytes(ok_bytes(&r));
        r
    }

    fn get_range(&self, port: &Port, key: ObjectKey, offset: u64, len: usize) -> OsResult<Bytes> {
        let mut s = store_span(1);
        let r = self.inner.get_range(port, key, offset, len);
        s.set_bytes(ok_bytes(&r));
        r
    }

    fn put_range(&self, port: &Port, key: ObjectKey, offset: u64, data: Bytes) -> OsResult<()> {
        let mut s = store_span(1);
        s.set_bytes(data.len() as u64);
        self.note_puts(std::iter::once(&key));
        self.inner.put_range(port, key, offset, data)
    }

    fn delete(&self, port: &Port, key: ObjectKey) -> OsResult<()> {
        let _s = store_span(1);
        self.inner.delete(port, key)
    }

    fn head(&self, port: &Port, key: ObjectKey) -> OsResult<u64> {
        let _s = store_span(1);
        self.inner.head(port, key)
    }

    fn list(
        &self,
        port: &Port,
        kind: Option<KeyKind>,
        ino: Option<u128>,
    ) -> OsResult<Vec<ObjectKey>> {
        let _s = store_span(1);
        if kind == Some(KeyKind::Journal) {
            self.counts.takeovers.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.list(port, kind, ino)
    }

    fn get_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<Bytes>> {
        let mut s = store_span(keys.len());
        let r = self.inner.get_many(port, keys);
        s.set_bytes(r.iter().map(ok_bytes).sum());
        r
    }

    fn get_each(&self, arrival: u64, keys: &[ObjectKey]) -> Vec<OsResult<(Bytes, u64)>> {
        let mut s = store_span(keys.len());
        let r = self.inner.get_each(arrival, keys);
        s.set_bytes(
            r.iter()
                .map(|x| x.as_ref().map_or(0, |(b, _)| b.len() as u64))
                .sum(),
        );
        r
    }

    fn put_many(&self, port: &Port, items: Vec<(ObjectKey, Bytes)>) -> Vec<OsResult<()>> {
        let mut s = store_span(items.len());
        s.set_bytes(items.iter().map(|(_, d)| d.len() as u64).sum());
        self.note_puts(items.iter().map(|(k, _)| k));
        self.inner.put_many(port, items)
    }

    fn get_range_many(
        &self,
        port: &Port,
        reqs: &[(ObjectKey, u64, usize)],
    ) -> Vec<OsResult<Bytes>> {
        let mut s = store_span(reqs.len());
        let r = self.inner.get_range_many(port, reqs);
        s.set_bytes(r.iter().map(ok_bytes).sum());
        r
    }

    fn put_range_many(
        &self,
        port: &Port,
        items: Vec<(ObjectKey, u64, Bytes)>,
    ) -> Vec<OsResult<()>> {
        let mut s = store_span(items.len());
        s.set_bytes(items.iter().map(|(_, _, d)| d.len() as u64).sum());
        self.note_puts(items.iter().map(|(k, _, _)| k));
        self.inner.put_range_many(port, items)
    }

    fn delete_many(&self, port: &Port, keys: &[ObjectKey]) -> Vec<OsResult<()>> {
        let _s = store_span(keys.len());
        self.inner.delete_many(port, keys)
    }
}
