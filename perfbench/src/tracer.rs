//! Boundary span recorder for the traced run.
//!
//! The benchmark never instruments the program itself. It wraps each
//! layer at its public trait (see [`crate::wrap`]) and every wrapped call
//! opens a span here. Spans nest on the calling thread through a
//! thread-local stack. A span that starts on a thread with nothing open
//! — a TCP connection thread decoding or serving a request — is linked
//! to the innermost client call still open on the same protocol: the
//! load thread is blocked inside that call until the reply arrives, so
//! the server-side work is its child in both time and cause.
//!
//! A span's self time is its duration minus the time its children
//! cover. Children of one span never overlap (a caller blocks on each
//! call in turn), so that is the sum of the children's durations.
//!
//! Recording is off unless [`enable`] installed a fresh state; the
//! untraced runs never construct the wrappers at all.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The three wire protocols of a TCP deployment (the bus carries the
/// first two in the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Proto {
    Ops,
    Lease,
    Store,
}

impl Proto {
    pub fn name(self) -> &'static str {
        match self {
            Proto::Ops => "ops",
            Proto::Lease => "lease",
            Proto::Store => "store",
        }
    }
}

/// What the benchmark's load thread was doing when it called into the
/// program: the root of every span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Create,
    Stat,
    Unlink,
    Write,
    Close,
    Read,
    Sync,
    Other,
}

/// A layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// A Vfs call made by the benchmark (self time = client code that
    /// runs outside every wrapped boundary).
    Op(OpKind),
    /// `Transport::call`/`notify` on the calling side.
    Net(Proto),
    /// `Service::handle` on the serving side.
    Rpc(Proto),
    /// A `WireFns` encoder.
    Enc(Proto),
    /// A `WireFns` decoder.
    Dec(Proto),
    /// An `ObjectStore` method of the backing object cluster.
    Store,
}

/// Layers grouped the way an op's time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Client,
    Wire,
    Net,
    Rpc,
    Store,
}

impl Group {
    pub const ALL: [Group; 5] = [
        Group::Client,
        Group::Wire,
        Group::Net,
        Group::Rpc,
        Group::Store,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Group::Client => "client",
            Group::Wire => "wire",
            Group::Net => "net",
            Group::Rpc => "rpc",
            Group::Store => "store",
        }
    }

    fn of(layer: Layer) -> Group {
        match layer {
            Layer::Op(_) => Group::Client,
            Layer::Enc(_) | Layer::Dec(_) => Group::Wire,
            Layer::Net(_) => Group::Net,
            Layer::Rpc(_) => Group::Rpc,
            Layer::Store => Group::Store,
        }
    }
}

/// Per-layer totals.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub bytes: u64,
    /// Objects carried (store batch items).
    pub items: u64,
    /// Every span's duration, for percentiles.
    pub durations: Vec<u64>,
}

/// Self time of one benchmark op, split by layer group.
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    pub kind: OpKind,
    pub dur_ns: u64,
    pub self_ns: [u64; 5],
    /// Client calls made on behalf of this op, by [`Proto`].
    pub calls: [u32; 3],
}

/// One closed span, as written out at the end of the traced run.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub root: u64,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// Spans kept for the written-out trace; totals cover every span.
const KEEP_SPANS: usize = 1 << 16;

struct Open {
    layer: Layer,
    start_ns: u64,
    parent: u64,
    root: u64,
    child_ns: u64,
    root_self: [u64; 5],
    root_calls: [u32; 3],
}

#[derive(Default)]
struct State {
    next_id: u64,
    open: HashMap<u64, Open>,
    /// Client calls still waiting for a reply, innermost last.
    calls: HashMap<Proto, Vec<u64>>,
    agg: HashMap<Layer, Agg>,
    ops: Vec<OpBreakdown>,
    spans: Vec<SpanRec>,
    dropped: u64,
}

/// What a traced run recorded.
#[derive(Debug, Default)]
pub struct Trace {
    pub agg: HashMap<Layer, Agg>,
    pub ops: Vec<OpBreakdown>,
    pub spans: Vec<SpanRec>,
    pub dropped: u64,
}

impl Trace {
    /// Totals of one layer (all zero if it saw no span).
    pub fn layer(&self, layer: Layer) -> &Agg {
        static NONE: Agg = Agg {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            bytes: 0,
            items: 0,
            durations: Vec::new(),
        };
        self.agg.get(&layer).unwrap_or(&NONE)
    }
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// The recorder's state. Every update leaves it consistent, so a panic
/// elsewhere while it was held does not make it unusable.
fn state() -> MutexGuard<'static, Option<State>> {
    STATE.lock().unwrap_or_else(|e| e.into_inner())
}
/// Fast check for the untraced runs, which open root spans too.
static ON: AtomicBool = AtomicBool::new(false);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Start recording into a fresh, empty state.
pub fn enable() {
    epoch();
    *state() = Some(State {
        next_id: 1,
        ..State::default()
    });
    ON.store(true, Ordering::SeqCst);
}

/// Whether a traced run is recording.
pub fn is_on() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Stop recording and hand back everything recorded since [`enable`].
pub fn take() -> Trace {
    ON.store(false, Ordering::SeqCst);
    let st = state().take().unwrap_or_default();
    Trace {
        agg: st.agg,
        ops: st.ops,
        spans: st.spans,
        dropped: st.dropped,
    }
}

/// An open span; closes on drop.
pub struct Span {
    id: u64,
    bytes: u64,
    items: u64,
}

impl Span {
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    pub fn set_items(&mut self, items: u64) {
        self.items = items;
    }
}

/// Open a span at `layer`. Returns an inert span when recording is off.
pub fn span(layer: Layer) -> Span {
    if !ON.load(Ordering::Relaxed) {
        return Span {
            id: 0,
            bytes: 0,
            items: 0,
        };
    }
    let mut guard = state();
    let Some(st) = guard.as_mut() else {
        return Span {
            id: 0,
            bytes: 0,
            items: 0,
        };
    };
    let local_parent = STACK.with(|s| s.borrow().last().copied());
    let parent = match (local_parent, layer) {
        (Some(p), _) => p,
        (None, Layer::Rpc(p) | Layer::Enc(p) | Layer::Dec(p)) => st
            .calls
            .get(&p)
            .and_then(|v| v.last().copied())
            .unwrap_or(0),
        (None, _) => 0,
    };
    let root = match layer {
        Layer::Op(_) => 0,
        _ => st
            .open
            .get(&parent)
            .map_or(0, |o| if o.root == 0 { parent } else { o.root }),
    };
    let id = st.next_id;
    st.next_id += 1;
    st.open.insert(
        id,
        Open {
            layer,
            start_ns: now_ns(),
            parent,
            root,
            child_ns: 0,
            root_self: [0; 5],
            root_calls: [0; 3],
        },
    );
    if let Layer::Net(p) = layer {
        st.calls.entry(p).or_default().push(id);
    }
    drop(guard);
    STACK.with(|s| s.borrow_mut().push(id));
    Span {
        id,
        bytes: 0,
        items: 0,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        let end_ns = now_ns();
        let mut guard = state();
        let Some(st) = guard.as_mut() else {
            return;
        };
        let Some(open) = st.open.remove(&self.id) else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let self_ns = dur.saturating_sub(open.child_ns);
        if let Layer::Net(p) = open.layer {
            if let Some(v) = st.calls.get_mut(&p) {
                if let Some(pos) = v.iter().rposition(|&x| x == self.id) {
                    v.remove(pos);
                }
            }
        }
        if let Some(parent) = st.open.get_mut(&open.parent) {
            parent.child_ns += dur;
        }
        let group = Group::of(open.layer) as usize;
        if let Layer::Op(kind) = open.layer {
            let mut self_split = open.root_self;
            self_split[group] += self_ns;
            st.ops.push(OpBreakdown {
                kind,
                dur_ns: dur,
                self_ns: self_split,
                calls: open.root_calls,
            });
        } else if let Some(root) = st.open.get_mut(&open.root) {
            root.root_self[group] += self_ns;
            if let Layer::Net(p) = open.layer {
                root.root_calls[p as usize] += 1;
            }
        }
        let agg = st.agg.entry(open.layer).or_default();
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        agg.bytes += self.bytes;
        agg.items += self.items;
        agg.durations.push(dur);
        if st.spans.len() < KEEP_SPANS {
            st.spans.push(SpanRec {
                id: self.id,
                parent: open.parent,
                root: open.root,
                layer: open.layer,
                start_ns: open.start_ns,
                end_ns,
                bytes: self.bytes,
            });
        } else {
            st.dropped += 1;
        }
    }
}

/// Render a layer as the name used in metric keys and the span dump.
pub fn layer_name(layer: Layer) -> String {
    match layer {
        Layer::Op(k) => format!("op.{}", format!("{k:?}").to_lowercase()),
        Layer::Net(p) => format!("net.{}", p.name()),
        Layer::Rpc(p) => format!("rpc.{}", p.name()),
        Layer::Enc(p) => format!("wire.{}.encode", p.name()),
        Layer::Dec(p) => format!("wire.{}.decode", p.name()),
        Layer::Store => "store".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_links_remote_spans() {
        enable();
        {
            let _op = span(Layer::Op(OpKind::Stat));
            {
                let _call = span(Layer::Net(Proto::Ops));
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _h = span(Layer::Rpc(Proto::Ops));
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    });
                });
            }
        }
        let t = take();
        let op = &t.ops[0];
        let rpc = t.layer(Layer::Rpc(Proto::Ops));
        assert_eq!(rpc.calls, 1);
        assert!(rpc.total_ns >= 2_000_000);
        assert_eq!(
            op.self_ns[Group::Rpc as usize],
            rpc.self_ns,
            "remote child attributed"
        );
        assert_eq!(
            op.self_ns.iter().sum::<u64>(),
            op.dur_ns,
            "self times sum to the op"
        );
        let net = t.layer(Layer::Net(Proto::Ops));
        assert_eq!(net.self_ns, net.total_ns - rpc.total_ns);
    }
}
