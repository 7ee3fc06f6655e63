//! The two deployments the workloads run on: two in-process ArkFS
//! endpoints joined by real loopback sockets, and the single-process
//! virtual-time simulator. Both are built either plain (untraced runs)
//! or with every layer wrapped (the traced run).

use crate::tracer::Proto;
use crate::wrap::{
    traced_lease_wire, traced_ops_wire, traced_service, traced_store_wire, TracedStore,
    TracedTransport,
};
use arkfs::cluster::MANAGER_BASE;
use arkfs::remote::{
    lease_wire, ops_wire, store_wire, RemoteStore, StoreRequest, StoreResponse, StoreService,
    STORE_NODE,
};
use arkfs::rpc::{OpRequest, OpResponse};
use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_lease::{LeaseRequest, LeaseResponse};
use arkfs_netsim::{Bus, NodeId, Service, TcpTransport, Transport};
use arkfs_objstore::{ClusterConfig, ObjectCluster, ObjectStore};
use arkfs_telemetry::{MetricValue, Registry};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Clients minted on endpoint B start here, clear of A's node ids.
const B_FIRST_NODE: u32 = 1000;

fn wrap<Req: Send + 'static, Resp: Send + 'static>(
    t: Arc<dyn Transport<Req, Resp>>,
    proto: Proto,
    traced: bool,
) -> Arc<dyn Transport<Req, Resp>> {
    if traced {
        TracedTransport::new(t, proto)
    } else {
        t
    }
}

/// Endpoint A hosts the object cluster, the lease managers and `/`;
/// endpoint B reaches all three through its own `TcpTransport`s and a
/// `RemoteStore`, the way `cli serve` / `cli client` split them.
pub struct TcpDeploy {
    pub a: Arc<ArkCluster>,
    pub b: Arc<ArkCluster>,
    /// The store decorator, in a traced deployment.
    pub traced_store: Option<Arc<TracedStore>>,
    a_lease: Arc<TcpTransport<LeaseRequest, LeaseResponse>>,
    a_ops: Arc<TcpTransport<OpRequest, OpResponse>>,
    a_store: Arc<TcpTransport<StoreRequest, StoreResponse>>,
    b_ops: Arc<TcpTransport<OpRequest, OpResponse>>,
    b_ops_addr: SocketAddr,
    minted: Mutex<Vec<(bool, NodeId)>>,
}

impl TcpDeploy {
    pub fn new(config: ArkConfig, store_cfg: ClusterConfig, traced: bool) -> TcpDeploy {
        let any: SocketAddr = "127.0.0.1:0".parse().expect("loopback address");
        let (lw, ow, sw) = if traced {
            (traced_lease_wire(), traced_ops_wire(), traced_store_wire())
        } else {
            (lease_wire(), ops_wire(), store_wire())
        };
        let cluster: Arc<dyn ObjectStore> = Arc::new(ObjectCluster::new(store_cfg));
        let traced_store = traced.then(|| TracedStore::new(Arc::clone(&cluster)));
        let store = match &traced_store {
            Some(t) => Arc::clone(t) as Arc<dyn ObjectStore>,
            None => cluster,
        };

        let a_lease = Arc::new(TcpTransport::new(lw));
        let a_ops = Arc::new(TcpTransport::new(ow));
        let a_store = Arc::new(TcpTransport::new(sw));
        let service: Arc<dyn Service<_, _>> = Arc::new(StoreService::new(Arc::clone(&store)));
        let service = if traced {
            traced_service(service, Proto::Store)
        } else {
            service
        };
        a_store.register(STORE_NODE, service);
        let a_lease_addr = a_lease.listen(any).expect("listen lease");
        let a_ops_addr = a_ops.listen(any).expect("listen ops");
        let a_store_addr = a_store.listen(any).expect("listen store");

        let b_lease = Arc::new(TcpTransport::new(lw));
        for k in 0..config.lease_managers.max(1) {
            b_lease.register_addr(NodeId(MANAGER_BASE - k as u32), a_lease_addr);
        }
        let b_ops = Arc::new(TcpTransport::new(ow));
        let b_ops_addr = b_ops.listen(any).expect("listen ops");
        let b_store = Arc::new(TcpTransport::new(sw));
        b_store.register_addr(STORE_NODE, a_store_addr);
        let remote = RemoteStore::connect(wrap(
            b_store as Arc<dyn Transport<_, _>>,
            Proto::Store,
            traced,
        ))
        .expect("store connect");

        let a = ArkCluster::with_transports(
            config.clone(),
            store,
            wrap(a_lease.clone(), Proto::Lease, traced),
            wrap(a_ops.clone(), Proto::Ops, traced),
            true,
        );
        let b = ArkCluster::with_transports(
            config,
            remote as Arc<dyn ObjectStore>,
            wrap(b_lease, Proto::Lease, traced),
            wrap(b_ops.clone(), Proto::Ops, traced),
            false,
        );
        b.set_first_node(B_FIRST_NODE);
        let d = TcpDeploy {
            a,
            b,
            traced_store,
            a_lease,
            a_ops,
            a_store,
            b_ops,
            b_ops_addr,
            minted: Mutex::new(Vec::new()),
        };
        d.b_ops.register_addr(NodeId(1), a_ops_addr);
        d
    }

    /// Mint a client on endpoint A (A mints exactly one: node 1).
    pub fn client_a(&self) -> Arc<ArkClient> {
        let c = self.a.client();
        self.minted.lock().push((true, c.id()));
        c
    }

    /// Mint a client on endpoint B and tell A where to forward to it.
    pub fn client_b(&self) -> Arc<ArkClient> {
        let c = self.b.client();
        self.a_ops.register_addr(c.id(), self.b_ops_addr);
        self.minted.lock().push((false, c.id()));
        c
    }

    /// Program counters of both endpoints, summed by name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let mut out = counters(&self.a.telemetry().registry);
        for (k, v) in counters(&self.b.telemetry().registry) {
            *out.entry(k).or_default() += v;
        }
        out
    }

    /// Detach every service (they hold the clients, which hold the
    /// clusters, which hold the transports) and stop the listeners, so
    /// dropping the deployment frees it and its connection threads end.
    pub fn teardown(&self) {
        for (on_a, node) in self.minted.lock().drain(..) {
            let c = if on_a { &self.a } else { &self.b };
            c.ops_net().disconnect(node);
        }
        self.a.crash_lease_manager();
        self.a_store.disconnect(STORE_NODE);
        self.a_lease.shutdown();
        self.a_ops.shutdown();
        self.a_store.shutdown();
        self.b_ops.shutdown();
    }
}

/// All counters of one registry.
pub fn counters(reg: &Registry) -> BTreeMap<String, u64> {
    reg.snapshot()
        .into_iter()
        .filter_map(|(k, v)| match v {
            MetricValue::Counter(n) => Some((k, n)),
            _ => None,
        })
        .collect()
}

/// `after - before`, per counter.
pub fn delta(
    after: &BTreeMap<String, u64>,
    before: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// The virtual-time simulator deployment fig9 runs on, with the data
/// payload discarded.
pub struct SimDeploy {
    pub cluster: Arc<ArkCluster>,
    pub traced_store: Option<Arc<TracedStore>>,
}

impl SimDeploy {
    pub fn new(traced: bool) -> SimDeploy {
        let config = ArkConfig::default();
        let store_cfg = ClusterConfig::rados(config.spec.clone()).with_discard_payload(true);
        let store = Arc::new(ObjectCluster::new(store_cfg));
        if !traced {
            return SimDeploy {
                cluster: ArkCluster::new(config, store),
                traced_store: None,
            };
        }
        // Exactly what `ArkCluster::new` builds, with each piece wrapped.
        let half_rtt = config.spec.net_half_rtt;
        let traced_store = TracedStore::new(store);
        let cluster = ArkCluster::with_transports(
            config,
            Arc::clone(&traced_store) as Arc<dyn ObjectStore>,
            TracedTransport::new(Arc::new(Bus::new(half_rtt)), Proto::Lease),
            TracedTransport::new(Arc::new(Bus::new(half_rtt)), Proto::Ops),
            true,
        );
        SimDeploy {
            cluster,
            traced_store: Some(traced_store),
        }
    }

    /// Detach the lease managers and the `clients` minted so far so the
    /// deployment can be freed.
    pub fn teardown(&self, clients: u32) {
        for n in 1..=clients {
            self.cluster.ops_net().disconnect(NodeId(n));
        }
        self.cluster.crash_lease_manager();
    }
}
