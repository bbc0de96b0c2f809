//! The simulated Kademlia network: nodes + event queue + transport.
//!
//! `SimNetwork` is the PeerSim-equivalent driver. It owns every node, the
//! deterministic event queue, the transport (latency + loss) and the RPC
//! bookkeeping (pending requests, timeouts). The experiment harness applies
//! *scenario* actions — joins, silent departures, lookups, disseminations,
//! scheduled compromises — between calls to [`SimNetwork::run_until`], and
//! takes routing-table snapshots that the analysis layer turns into
//! connectivity graphs.
//!
//! Two distinct failure modes exist: a **silent departure**
//! ([`SimNetwork::remove_node`]) stops answering and is eventually evicted
//! by the staleness limit, while a **compromise**
//! ([`SimNetwork::compromise_node`], schedulable through the event kernel
//! via [`SimNetwork::schedule_compromise`]) keeps answering — so it is
//! never evicted — but is excluded from the connectivity graph, per the
//! paper's system model in which a compromised node may drop all traffic.
//! Compromised nodes additionally **withhold stored values** from
//! FIND_VALUE retrievals, the service-level face of the same model.
//!
//! What a delivered message costs the host is set by the bytes it touches,
//! not by the event count (the scheduler is ~5 % of it — see DESIGN.md,
//! *Why the scale curve is superlinear*). A request refreshes the
//! requester in the receiver's routing table and reads one or two of its
//! buckets into a `k`-capacity pooled body; a response refreshes the
//! responder — that offer *is* the RPC's success record — and merges the
//! body into a shortlist of 32-byte candidates. The table, the shortlist
//! and the body are laid out for that path ([`crate::routing`],
//! [`crate::lookup`], the private `NetScratch` pools), and none of it
//! allocates once the pools are warm.
//!
//! Service telemetry: installing a [`TelemetrySink`] via
//! [`SimNetwork::set_telemetry_sink`] makes every terminating lookup emit
//! one [`LookupRecord`] (purpose, outcome, hop depth, messages, simulated
//! latency). Without a sink the cost is one `Option` check per lookup.
//!
//! Trace trees: when the installed sink answers `true` to
//! [`TelemetrySink::wants_traces`], every lookup RPC additionally becomes
//! an [`RpcSpan`] — send instant, response-or-timeout outcome, the
//! queried node's compromise flag at completion, and a causal parent (the
//! RPC of the same lookup whose completion triggered the dispatch). The
//! finished lookup then emits a full [`TraceTree`] through
//! [`TelemetrySink::on_trace`] right after its flat record; disjoint-path
//! groups merge every member path's spans into one tree. Span recording
//! is observation only — it draws no randomness and schedules nothing, so
//! enabling it cannot change outcomes — and costs nothing when the sink
//! keeps the default `wants_traces() == false`.

use crate::config::{KademliaConfig, RefreshPolicy};
use crate::contact::{Contact, NodeAddr};
use crate::defense::{DefensePolicy, InsertDecision};
use crate::id::NodeId;
use crate::lookup::{partition_seeds, LookupId, LookupPurpose, LookupScratch, LookupState};
use crate::messages::{Message, RequestKind, ResponseBody, RpcId};
use crate::node::KademliaNode;
use crate::snapshot::RoutingSnapshot;
use dessim::event::EventId;
use dessim::metrics::{Counter, Counters};
use dessim::rng::RngFactory;
use dessim::scheduler::EventQueue;
use dessim::slab::GenSlab;
use dessim::time::SimTime;
use dessim::transport::Transport;
use kad_telemetry::{
    DefenseAction, LookupOutcome, LookupRecord, RpcSpan, SpanOutcome, TelemetrySink, TracePurpose,
    TraceTree,
};
use rand::rngs::SmallRng;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Events processed by the network driver.
#[derive(Clone, Debug)]
pub enum SimEvent {
    /// A message arrives at a node.
    Deliver {
        /// Destination address.
        to: NodeAddr,
        /// The message.
        msg: Message,
    },
    /// An RPC's response did not arrive in time.
    RpcTimeout {
        /// The request that timed out.
        rpc_id: RpcId,
    },
    /// A node's periodic bucket refresh is due.
    RefreshTick {
        /// The refreshing node.
        node: NodeAddr,
    },
    /// The attacker's scheduled compromise of a node fires (see
    /// [`SimNetwork::schedule_compromise`]).
    Compromise {
        /// The node being compromised.
        node: NodeAddr,
    },
    /// A node's periodic defense liveness-probe tick is due (only
    /// scheduled while a [`DefensePolicy`] with a probe interval is
    /// installed — see [`SimNetwork::set_defense_policy`]).
    DefenseTick {
        /// The probing node.
        node: NodeAddr,
    },
}

/// The (optional) telemetry sink. A newtype so [`SimNetwork`] can keep
/// deriving `Debug` without requiring `Debug` of sink implementations.
#[derive(Default)]
struct TelemetrySlot(Option<Box<dyn TelemetrySink>>);

impl fmt::Debug for TelemetrySlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "TelemetrySlot(installed)"
        } else {
            "TelemetrySlot(none)"
        })
    }
}

/// The (optional) defense policy. A newtype so [`SimNetwork`] can keep
/// deriving `Debug` without requiring `Debug` of policy implementations.
#[derive(Default)]
struct DefenseSlot(Option<Box<dyn DefensePolicy>>);

impl fmt::Debug for DefenseSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.as_ref() {
            Some(policy) => write!(f, "DefenseSlot({})", policy.label()),
            None => f.write_str("DefenseSlot(none)"),
        }
    }
}

/// One in-flight disjoint-path retrieval: `d` independent sub-lookups
/// over disjoint candidate sets, reported as a single
/// [`TracePurpose::RetrieveDisjoint`] record once every path terminated.
#[derive(Debug)]
struct DisjointGroup {
    /// The node running every path.
    origin: NodeAddr,
    /// The retrieved key.
    key: NodeId,
    /// Sub-lookup ids (used to early-terminate siblings on a hit).
    members: Vec<LookupId>,
    /// Paths that have not terminated yet.
    remaining: usize,
    /// Whether any path found the value.
    value_found: bool,
    /// Hop depth of the first value hit (or of the closest responder).
    hops: u32,
    /// Queries handed out across all paths.
    messages: u32,
    /// Responses received across all paths.
    responded: u32,
    /// When the group started (for the synthesized record's latency).
    started: SimTime,
    /// Node ids claimed by some path: candidates are filtered against
    /// this set when merged, which keeps the paths vertex-disjoint.
    claimed: HashSet<NodeId>,
    /// Spans of every terminated member path (populated only while the
    /// sink wants traces; the group emits them as one tree).
    trace_spans: Vec<RpcSpan>,
    /// The RPC whose completion terminated the last member — the root of
    /// the group's critical path.
    trace_final: Option<RpcId>,
}

/// Slot sentinel: this pending RPC recorded no trace span.
const NO_TRACE_SLOT: usize = usize::MAX;

/// Idle-memory budget of each buffer pool (response bodies, lookup
/// arenas). A pool retains `POOL_BYTES / buffer size` buffers and drops
/// returns beyond that, so idle memory is bounded whatever the network
/// size. The budget is sized from what steady state needs: buffers out of
/// a pool peak with the minute-start burst — every injected operation
/// holding one arena and up to `α` RPCs in flight — measured under the
/// pinned load (1.125 operations per node per minute) at 2.4 bodies and
/// 1.1 arenas per node: 23,121 and 11,352 at n = 10,000. At the paper's
/// `k = 20` a body is 480 bytes and an arena 2.5 KB, so 32 MiB retains
/// ~70k bodies and ~13k arenas: up to n = 10,000 the whole burst comes
/// back to the pool and the next one allocates nothing; beyond that the
/// excess goes through the allocator each minute.
const POOL_BYTES: usize = 32 << 20;

/// Pooled scratch buffers for the event loop's hot paths.
///
/// Body buffers cycle: one leaves the pool to carry a response body,
/// rides the event queue inside the message, and returns to the pool when
/// the response is consumed — or when the message is lost in transit or
/// delivered to a dead node. Lookup arenas cycle between
/// [`LookupState::with_scratch`] and [`LookupState::into_scratch`]. After
/// warm-up every pool sits at its high-water mark and the steady-state
/// event loop performs zero heap allocations.
#[derive(Debug)]
struct NetScratch {
    /// Recycled response-body vectors, each of capacity `body_cap`.
    body_bufs: Vec<Vec<Contact>>,
    /// Capacity every pooled body is created with, and the floor a buffer
    /// must meet to re-enter the pool: `k`, exactly what a FIND_NODE
    /// answer holds ([`RoutingTable::closest_into`] never grows its
    /// output past the requested count).
    ///
    /// [`RoutingTable::closest_into`]: crate::routing::RoutingTable::closest_into
    body_cap: usize,
    /// How many bodies / arenas [`POOL_BYTES`] retains.
    max_bodies: usize,
    max_arenas: usize,
    /// Recycled per-lookup shortlist arenas.
    lookup_arenas: Vec<LookupScratch>,
    /// The seed buffer `start_lookup_internal` borrows via `mem::take`.
    seeds: Vec<Contact>,
    /// The query buffer `drive_lookup` borrows via `mem::take`.
    queries: Vec<Contact>,
    /// The STORE-target buffer for finished disseminations.
    store_targets: Vec<Contact>,
}

impl NetScratch {
    fn new(config: &KademliaConfig) -> Self {
        let body_bytes = config.k * std::mem::size_of::<Contact>();
        NetScratch {
            body_bufs: Vec::new(),
            body_cap: config.k,
            max_bodies: POOL_BYTES / body_bytes.max(1),
            max_arenas: POOL_BYTES / LookupScratch::footprint_bytes(config).max(1),
            lookup_arenas: Vec::new(),
            seeds: Vec::new(),
            queries: Vec::new(),
            store_targets: Vec::new(),
        }
    }

    fn take_body(&mut self) -> Vec<Contact> {
        self.body_bufs
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(self.body_cap))
    }

    /// Adds up to `count` buffers to the body pool (bounded by the pool
    /// budget); called once per spawned node.
    fn pre_mint_bodies(&mut self, count: usize) {
        let target = self.max_bodies.min(self.body_bufs.len() + count);
        while self.body_bufs.len() < target {
            self.body_bufs.push(Vec::with_capacity(self.body_cap));
        }
    }

    /// Returns a body buffer to the pool. Undersized buffers — one whose
    /// storage was taken into a response body (capacity zero) — are
    /// dropped; replacements are minted by [`NetScratch::take_body`].
    fn recycle_body(&mut self, mut buf: Vec<Contact>) {
        if buf.capacity() >= self.body_cap && self.body_bufs.len() < self.max_bodies {
            buf.clear();
            self.body_bufs.push(buf);
        }
    }

    fn take_lookup(&mut self) -> LookupScratch {
        self.lookup_arenas.pop().unwrap_or_default()
    }

    fn recycle_lookup(&mut self, arena: LookupScratch) {
        if self.lookup_arenas.len() < self.max_arenas {
            self.lookup_arenas.push(arena);
        }
    }
}

/// A request awaiting its response.
#[derive(Clone, Debug)]
struct PendingRpc {
    requester: NodeAddr,
    to: Contact,
    lookup: Option<LookupId>,
    timeout_event: EventId,
    /// Index of this RPC's span in its lookup's trace buffer
    /// ([`NO_TRACE_SLOT`] when tracing was off or no buffer existed).
    /// Keeping the slot here spares a per-RPC side-table on the hot path.
    trace_slot: usize,
}

/// Span buffer of one in-progress lookup (only allocated while the sink
/// wants traces).
#[derive(Debug, Default)]
struct TraceBuffer {
    /// Spans in send order; open spans keep [`SpanOutcome::Inflight`].
    spans: Vec<RpcSpan>,
    /// Admission-queue wait annotated by the load engine, milliseconds.
    queue_wait_ms: u64,
}

/// All span-recording state, empty unless the installed sink wants
/// traces. Recording is observation only: no randomness, no scheduling.
#[derive(Debug, Default)]
struct TraceState {
    /// Per-lookup span buffers, created with the lookup.
    buffers: HashMap<LookupId, TraceBuffer>,
    /// The RPC completion currently being processed, with its lookup:
    /// queries dispatched while it is set record it as their causal
    /// parent (same lookup only — a repair lookup started from another
    /// lookup's timeout is a fresh root).
    cause: Option<(RpcId, LookupId)>,
    /// Queue wait to stamp on the next created lookup (set by
    /// [`SimNetwork::start_find_value_queued`] just before the start).
    pending_queue_wait_ms: u64,
}

/// The simulated network (see module docs).
#[derive(Debug)]
pub struct SimNetwork {
    config: KademliaConfig,
    transport: Transport,
    nodes: Vec<KademliaNode>,
    queue: EventQueue<SimEvent>,
    /// In-flight RPCs in a generation-indexed slab: the [`RpcId`] *is* the
    /// slab key (`generation << 32 | slot`), so a timeout firing after its
    /// RPC completed and its slot was reused misses cleanly.
    pending: GenSlab<PendingRpc>,
    next_lookup_id: LookupId,
    /// Pooled hot-path buffers (see [`NetScratch`]).
    scratch: NetScratch,
    transport_rng: SmallRng,
    refresh_rng: SmallRng,
    id_rng: SmallRng,
    counters: Counters,
    alive_count: usize,
    compromised_count: usize,
    /// Telemetry sink; `None` (the default) costs one discriminant check
    /// per lookup completion.
    sink: TelemetrySlot,
    /// Start instants of in-progress lookups, tracked only while a sink is
    /// installed (the trace record needs the simulated latency).
    lookup_started: HashMap<LookupId, SimTime>,
    /// Whether the installed sink wants trace trees (asked once at
    /// install time); gates all span recording behind one bool check.
    traces_on: bool,
    /// Span-recording state, empty unless `traces_on`.
    trace: TraceState,
    /// Defense policy; `None` (the default) costs one discriminant check
    /// per routing-table insert.
    defense: DefenseSlot,
    /// Sub-lookup → disjoint-group membership.
    disjoint: HashMap<LookupId, u64>,
    /// In-flight disjoint-path retrieval groups by group id.
    groups: HashMap<u64, DisjointGroup>,
    next_group_id: u64,
}

impl SimNetwork {
    /// Creates an empty network.
    ///
    /// `seed` drives every random decision (ids, latencies, loss, refresh
    /// targets) through independent labelled streams, so identical seeds
    /// reproduce identical runs.
    pub fn new(config: KademliaConfig, transport: Transport, seed: u64) -> Self {
        let factory = RngFactory::new(seed);
        let scratch = NetScratch::new(&config);
        SimNetwork {
            config,
            transport,
            nodes: Vec::new(),
            queue: EventQueue::new(),
            pending: GenSlab::new(),
            next_lookup_id: 0,
            scratch,
            transport_rng: factory.stream("transport"),
            refresh_rng: factory.stream("refresh"),
            id_rng: factory.stream("node-ids"),
            counters: Counters::new(),
            alive_count: 0,
            compromised_count: 0,
            sink: TelemetrySlot(None),
            lookup_started: HashMap::new(),
            traces_on: false,
            trace: TraceState::default(),
            defense: DefenseSlot(None),
            disjoint: HashMap::new(),
            groups: HashMap::new(),
            next_group_id: 0,
        }
    }

    /// Installs a telemetry sink: every lookup that terminates from now on
    /// emits one [`LookupRecord`] through it. Install the sink *before*
    /// starting the traffic to be measured — lookups already in flight
    /// have no tracked start instant and report a zero start time.
    pub fn set_telemetry_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.traces_on = sink.wants_traces();
        self.trace = TraceState::default();
        self.sink = TelemetrySlot(Some(sink));
    }

    /// Removes the telemetry sink, returning to no-op accounting.
    pub fn clear_telemetry_sink(&mut self) {
        self.sink = TelemetrySlot(None);
        self.lookup_started.clear();
        self.traces_on = false;
        self.trace = TraceState::default();
    }

    /// Installs a defense policy. Every node of the network shares the
    /// instance: new routing-table inserts run through
    /// [`DefensePolicy::decide_insert`], evictions consult
    /// [`DefensePolicy::repair_target`], and — when the policy declares a
    /// [`DefensePolicy::probe_interval`] — each alive node gets a
    /// periodic [`SimEvent::DefenseTick`] sending liveness PINGs at the
    /// contacts the policy picks. Nodes spawned later are scheduled at
    /// spawn time, so installing before or after building the overlay
    /// both work.
    pub fn set_defense_policy(&mut self, policy: Box<dyn DefensePolicy>) {
        let interval = policy.probe_interval();
        self.defense = DefenseSlot(Some(policy));
        if let Some(iv) = interval {
            for addr in self.alive_addrs() {
                self.queue
                    .schedule_after(iv, SimEvent::DefenseTick { node: addr });
            }
        }
    }

    /// Label of the installed defense policy, if any.
    pub fn defense_label(&self) -> Option<&'static str> {
        self.defense.0.as_ref().map(|p| p.label())
    }

    /// The protocol configuration.
    pub fn config(&self) -> &KademliaConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Event counters (messages sent/lost, lookups, timeouts, …).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of alive nodes (compromised nodes are alive on the wire and
    /// therefore included — see [`SimNetwork::honest_count`]).
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Number of alive **compromised** nodes.
    pub fn compromised_count(&self) -> usize {
        self.compromised_count
    }

    /// Number of honest alive nodes — the vertex count of the connectivity
    /// graph the next [`SimNetwork::snapshot`] captures.
    pub fn honest_count(&self) -> usize {
        self.alive_count - self.compromised_count
    }

    /// Total nodes ever spawned (alive and departed).
    pub fn spawned_count(&self) -> usize {
        self.nodes.len()
    }

    /// Borrow a node by address.
    ///
    /// # Panics
    ///
    /// Panics if the address was never spawned.
    pub fn node(&self, addr: NodeAddr) -> &KademliaNode {
        &self.nodes[addr.index()]
    }

    /// Addresses of all currently alive nodes, ascending (compromised nodes
    /// included — they are alive on the wire).
    pub fn alive_addrs(&self) -> Vec<NodeAddr> {
        self.nodes
            .iter()
            .filter(|n| n.alive)
            .map(|n| n.contact.addr)
            .collect()
    }

    /// Addresses of the honest alive nodes, ascending — the attack surface
    /// an adversary picks fresh victims from, and the vertex set of the
    /// next snapshot.
    pub fn honest_addrs(&self) -> Vec<NodeAddr> {
        self.nodes
            .iter()
            .filter(|n| n.participates())
            .map(|n| n.contact.addr)
            .collect()
    }

    /// Creates a new node with a fresh random id. The node is alive (it
    /// answers requests) but knows nobody until [`SimNetwork::join`].
    pub fn spawn_node(&mut self) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len() as u32);
        let id = NodeId::random(&mut self.id_rng, self.config.bits);
        let contact = Contact::new(id, addr);
        self.nodes
            .push(KademliaNode::new(contact, &self.config, self.now()));
        self.alive_count += 1;
        self.counters.incr(Counter::NodeSpawned);
        // Pre-mint pooled response buffers in proportion to network size:
        // peak buffers-in-flight tracks the minute-start lookup burst
        // (every node firing α queries at once), and minting here — in
        // the topology phase — keeps that growth off the event loop.
        self.scratch.pre_mint_bodies(self.config.alpha);
        // A node's defense-tick chain starts exactly once: here for nodes
        // spawned after the policy was installed, in `set_defense_policy`
        // for nodes alive at install time.
        if let Some(iv) = self.defense.0.as_ref().and_then(|p| p.probe_interval()) {
            self.queue
                .schedule_after(iv, SimEvent::DefenseTick { node: addr });
        }
        addr
    }

    /// Joins the network: seeds the routing table with the bootstrap
    /// contact, looks up the node's own id (which advertises the joiner to
    /// the nodes it queries), and schedules the periodic bucket refresh.
    ///
    /// # Panics
    ///
    /// Panics if `addr` or the bootstrap address was never spawned.
    pub fn join(&mut self, addr: NodeAddr, bootstrap: Option<NodeAddr>) {
        if let Some(b) = bootstrap {
            let bc = self.nodes[b.index()].contact;
            self.offer_contact(addr, bc);
            self.nodes[addr.index()].bootstrap = Some(bc);
        }
        let own_id = self.nodes[addr.index()].id();
        self.start_lookup_internal(addr, own_id, LookupPurpose::Bootstrap);
        self.queue.schedule_after(
            self.config.refresh_interval,
            SimEvent::RefreshTick { node: addr },
        );
        self.counters.incr(Counter::NodeJoined);
    }

    /// Removes a node silently (churn / failure): it stops answering but
    /// remains in other nodes' routing tables until the staleness limit
    /// evicts it.
    ///
    /// Returns `false` if the node was already gone.
    pub fn remove_node(&mut self, addr: NodeAddr) -> bool {
        let node = &mut self.nodes[addr.index()];
        if !node.alive {
            return false;
        }
        node.alive = false;
        let compromised = node.compromised;
        // Drain the dying node's lookups in insertion order (LookupTable
        // guarantees deterministic traversal) and reclaim their arenas.
        let mut lookups = std::mem::take(&mut node.lookups);
        for (id, state) in lookups.drain() {
            self.lookup_started.remove(&id);
            self.trace.buffers.remove(&id);
            // Disjoint-path groups die with their origin: drop the group
            // (all members run at the same node) without emitting.
            if let Some(gid) = self.disjoint.remove(&id) {
                self.groups.remove(&gid);
            }
            self.scratch.recycle_lookup(state.into_scratch());
        }
        // Hand the (empty) table back so its capacity survives.
        self.nodes[addr.index()].lookups = lookups;
        self.alive_count -= 1;
        if compromised {
            // A compromised machine can still churn away; it stops counting
            // against the attacker's live foothold.
            self.compromised_count -= 1;
        }
        self.counters.incr(Counter::NodeRemoved);
        true
    }

    /// Compromises a node immediately (the attack equivalent of
    /// [`SimNetwork::remove_node`], but with different semantics): the node
    /// **keeps answering** requests — mimicking honest behavior so it is
    /// never evicted and keeps occupying routing-table slots — yet it is
    /// excluded from snapshots and all `κ` accounting, because the paper's
    /// system model lets a compromised node drop all traffic at will.
    ///
    /// Returns `false` if the node is dead or already compromised.
    pub fn compromise_node(&mut self, addr: NodeAddr) -> bool {
        let node = &mut self.nodes[addr.index()];
        if !node.alive || node.compromised {
            return false;
        }
        node.compromised = true;
        self.compromised_count += 1;
        self.counters.incr(Counter::NodeCompromised);
        true
    }

    /// Schedules a compromise of `addr` at simulated time `at` through the
    /// event queue — the hook attack campaigns use to interleave compromises
    /// with protocol traffic and churn at exact instants. The event is a
    /// no-op if the node departs (or is compromised) before it fires.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in the past of the simulation clock.
    pub fn schedule_compromise(&mut self, at: SimTime, addr: NodeAddr) -> EventId {
        self.counters.incr(Counter::CompromiseScheduled);
        self.queue
            .schedule_at(at, SimEvent::Compromise { node: addr })
    }

    /// Whether `addr` is currently alive and compromised.
    pub fn is_compromised(&self, addr: NodeAddr) -> bool {
        let node = &self.nodes[addr.index()];
        node.alive && node.compromised
    }

    /// Starts a lookup for `target` at `addr` (the paper's "lookup
    /// procedure"). Returns the lookup id, or `None` if the node is dead.
    pub fn start_lookup(&mut self, addr: NodeAddr, target: NodeId) -> Option<LookupId> {
        if !self.nodes[addr.index()].alive {
            return None;
        }
        self.counters.incr(Counter::LookupStarted);
        Some(self.start_lookup_internal(addr, target, LookupPurpose::Locate))
    }

    /// Starts a dissemination of `key` at `addr`: locate the `k` closest
    /// nodes, then STORE the object on them.
    pub fn start_store(&mut self, addr: NodeAddr, key: NodeId) -> Option<LookupId> {
        if !self.nodes[addr.index()].alive {
            return None;
        }
        self.counters.incr(Counter::StoreStarted);
        Some(self.start_lookup_internal(addr, key, LookupPurpose::Disseminate))
    }

    /// Starts a retrieval of `key` at `addr` (FIND_VALUE): an iterative
    /// lookup that ends as soon as a queried node serves the value. The
    /// dissemination-durability probe drives this to measure whether
    /// stored objects are still reachable. Returns the lookup id, or
    /// `None` if the node is dead.
    pub fn start_find_value(&mut self, addr: NodeAddr, key: NodeId) -> Option<LookupId> {
        self.start_find_value_queued(addr, key, 0)
    }

    /// [`SimNetwork::start_find_value`] with an admission-queue wait
    /// annotation: the load engine passes the simulated milliseconds the
    /// request spent queued before being issued, and the value is stamped
    /// on the lookup's [`TraceTree`] (prepended to its critical path).
    /// Pure observation — with tracing off (or a zero wait) this is
    /// exactly `start_find_value`.
    pub fn start_find_value_queued(
        &mut self,
        addr: NodeAddr,
        key: NodeId,
        queue_wait_ms: u64,
    ) -> Option<LookupId> {
        if !self.nodes[addr.index()].alive {
            return None;
        }
        self.counters.incr(Counter::RetrieveStarted);
        if self.traces_on {
            self.trace.pending_queue_wait_ms = queue_wait_ms;
        }
        let id = self.start_lookup_internal(addr, key, LookupPurpose::Retrieve);
        if self.traces_on {
            self.trace.pending_queue_wait_ms = 0;
        }
        Some(id)
    }

    /// Starts a **disjoint-path** retrieval of `key` at `addr`: up to `d`
    /// independent α-lookups over disjoint first-hop sets (seeds dealt
    /// round-robin in distance order; merged candidates are filtered
    /// against the contacts claimed by sibling paths, keeping the paths
    /// vertex-disjoint). The retrieval succeeds if **any** path reaches
    /// an honest holder — the S/Kademlia countermeasure against
    /// value-withholding compromised nodes sitting on the single best
    /// path. One [`TracePurpose::RetrieveDisjoint`] record is emitted
    /// when the last path terminates; sub-lookups stay silent.
    ///
    /// `d <= 1` degrades to a plain [`SimNetwork::start_find_value`].
    /// Returns the id carried by the emitted record (`d > 1`: the first
    /// sub-lookup's), or `None` if the node is dead.
    pub fn start_find_value_disjoint(
        &mut self,
        addr: NodeAddr,
        key: NodeId,
        d: usize,
    ) -> Option<LookupId> {
        if d <= 1 {
            return self.start_find_value(addr, key);
        }
        if !self.nodes[addr.index()].alive {
            return None;
        }
        self.counters.incr(Counter::RetrieveDisjointStarted);
        let node = &mut self.nodes[addr.index()];
        let mut seeds = node.routing.closest(&key, self.config.shortlist_capacity());
        if seeds.is_empty() {
            if let Some(b) = node.bootstrap {
                seeds.push(b);
                self.counters.incr(Counter::BootstrapReseed);
            }
        }
        let mut paths = partition_seeds(seeds, d);
        if paths.is_empty() {
            // Not a single seed: run one empty path so the group still
            // terminates (immediately, as ValueMissing).
            paths.push(Vec::new());
        }
        let mut claimed: HashSet<NodeId> = HashSet::new();
        for path in &paths {
            claimed.extend(path.iter().map(|c| c.id));
        }
        let remaining = paths.len();
        let members: Vec<LookupId> = paths
            .into_iter()
            .map(|path| self.create_lookup(addr, key, LookupPurpose::Retrieve, &path, false))
            .collect();
        let gid = self.next_group_id;
        self.next_group_id += 1;
        for &id in &members {
            self.disjoint.insert(id, gid);
        }
        let first = members[0];
        self.groups.insert(
            gid,
            DisjointGroup {
                origin: addr,
                key,
                members: members.clone(),
                remaining,
                value_found: false,
                hops: 0,
                messages: 0,
                responded: 0,
                started: self.queue.now(),
                claimed,
                trace_spans: Vec::new(),
                trace_final: None,
            },
        );
        for id in members {
            self.drive_lookup(addr, id);
        }
        Some(first)
    }

    /// Runs the event loop until simulated time `t`, then advances the
    /// clock to exactly `t` (convenient for aligning snapshots).
    pub fn run_until(&mut self, t: SimTime) {
        while let Some((_, event)) = self.queue.pop_before(t) {
            self.dispatch(event);
        }
        self.queue.advance_to(t);
    }

    /// Drains every pending event. Only sensible in tests and small
    /// examples; scenario runs always bound time with `run_until`.
    pub fn run_to_quiescence(&mut self) {
        while let Some((_, event)) = self.queue.pop_before(SimTime::MAX) {
            self.dispatch(event);
        }
    }

    /// Captures the connectivity snapshot: every honest alive node and one
    /// edge per routing-table entry pointing at another honest alive node
    /// (compromised nodes are excluded from `κ` accounting — see
    /// [`SimNetwork::compromise_node`]).
    pub fn snapshot(&self) -> RoutingSnapshot {
        RoutingSnapshot::capture(self.now(), &self.nodes)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn start_lookup_internal(
        &mut self,
        addr: NodeAddr,
        target: NodeId,
        purpose: LookupPurpose,
    ) -> LookupId {
        let mut seeds = std::mem::take(&mut self.scratch.seeds);
        let node = &self.nodes[addr.index()];
        node.routing
            .closest_into(&target, self.config.shortlist_capacity(), &mut seeds);
        let bootstrap = node.bootstrap;
        if seeds.is_empty() {
            // Empty routing table (join request lost, or heavy loss evicted
            // everything): fall back to the remembered bootstrap contact so
            // the node keeps retrying instead of staying isolated forever.
            if let Some(b) = bootstrap {
                seeds.push(b);
                self.counters.incr(Counter::BootstrapReseed);
            }
        }
        let id = self.create_lookup(addr, target, purpose, &seeds, true);
        self.scratch.seeds = seeds;
        self.drive_lookup(addr, id);
        id
    }

    /// Registers a lookup without driving it (disjoint-path groups must
    /// register every member before the first one makes progress).
    /// `track_start` records the start instant for the telemetry record;
    /// sub-lookups pass `false` (their group tracks its own start).
    fn create_lookup(
        &mut self,
        addr: NodeAddr,
        target: NodeId,
        purpose: LookupPurpose,
        seeds: &[Contact],
        track_start: bool,
    ) -> LookupId {
        let id = self.next_lookup_id;
        self.next_lookup_id += 1;
        let arena = self.scratch.take_lookup();
        let node = &mut self.nodes[addr.index()];
        let state =
            LookupState::with_scratch(id, target, purpose, node.id(), seeds, &self.config, arena);
        node.lookups.insert(state);
        if track_start && self.sink.0.is_some() {
            self.lookup_started.insert(id, self.queue.now());
        }
        if self.traces_on {
            self.trace.buffers.insert(
                id,
                TraceBuffer {
                    spans: Vec::with_capacity(8),
                    queue_wait_ms: self.trace.pending_queue_wait_ms,
                },
            );
        }
        id
    }

    /// Advances a lookup: sends fresh queries or finalizes it.
    ///
    /// Uses the pooled query buffer via `mem::take` (dispatching queries
    /// re-enters `send_request`, never `drive_lookup` itself, so one
    /// buffer suffices) and recycles the finished lookup's arena.
    fn drive_lookup(&mut self, addr: NodeAddr, lookup_id: LookupId) {
        let _span = kad_telemetry::span::span("lookup-dispatch");
        let mut queries = std::mem::take(&mut self.scratch.queries);
        let finished = {
            let node = &mut self.nodes[addr.index()];
            match node.lookups.get_mut(lookup_id) {
                Some(state) => {
                    state.next_queries_into(&mut queries);
                    state.is_finished()
                }
                None => {
                    self.scratch.queries = queries;
                    return;
                }
            }
        };
        if finished {
            let state = self.nodes[addr.index()]
                .lookups
                .remove(lookup_id)
                .expect("finished lookup present");
            self.counters.incr(Counter::LookupFinished);
            self.finalize_lookup(&state);
            if state.purpose() == LookupPurpose::Disseminate {
                let key = state.target();
                let mut targets = std::mem::take(&mut self.scratch.store_targets);
                state.closest_responded_into(self.config.k, &mut targets);
                for &c in &targets {
                    self.send_request(addr, c, RequestKind::Store(key), None);
                    self.counters.incr(Counter::StoreRpcSent);
                }
                targets.clear();
                self.scratch.store_targets = targets;
            }
            self.scratch.recycle_lookup(state.into_scratch());
            self.scratch.queries = queries;
            return;
        }
        let (target, purpose) = {
            let node = &self.nodes[addr.index()];
            match node.lookups.get(lookup_id) {
                Some(s) => (s.target(), s.purpose()),
                None => {
                    self.scratch.queries = queries;
                    return;
                }
            }
        };
        let kind = if purpose == LookupPurpose::Retrieve {
            RequestKind::FindValue(target)
        } else {
            RequestKind::FindNode(target)
        };
        for &c in &queries {
            self.send_request(addr, c, kind, Some(lookup_id));
        }
        queries.clear();
        self.scratch.queries = queries;
    }

    /// Routes a terminated lookup to its accounting: disjoint-path
    /// members are absorbed into their group, everything else emits its
    /// own trace record.
    fn finalize_lookup(&mut self, state: &LookupState) {
        if let Some(gid) = self.disjoint.remove(&state.id()) {
            self.absorb_into_group(gid, state);
        } else {
            self.emit_lookup_record(state);
        }
    }

    /// Folds a terminated disjoint-path member into its group; the last
    /// member to terminate emits the group's single synthesized record.
    /// The first value hit marks every sibling found, terminating them
    /// early ("any path returns the value" semantics).
    fn absorb_into_group(&mut self, gid: u64, state: &LookupState) {
        let Some(group) = self.groups.get_mut(&gid) else {
            return;
        };
        if self.traces_on {
            if let Some(buf) = self.trace.buffers.remove(&state.id()) {
                group.trace_spans.extend(buf.spans);
            }
        }
        group.remaining -= 1;
        group.messages += state.messages_sent();
        group.responded += state.responded() as u32;
        let newly_found = state.value_found() && !group.value_found;
        if newly_found {
            group.value_found = true;
            group.hops = state.result_hops();
            self.counters.incr(Counter::DisjointValueHit);
        } else if !group.value_found {
            let hops = state.result_hops();
            if hops > 0 && (group.hops == 0 || hops < group.hops) {
                group.hops = hops;
            }
        }
        let done = group.remaining == 0;
        if newly_found {
            let origin = group.origin;
            let members = group.members.clone();
            let finished_id = state.id();
            for member in members {
                if member != finished_id {
                    if let Some(sibling) = self.nodes[origin.index()].lookups.get_mut(member) {
                        sibling.mark_value_found();
                    }
                }
            }
        }
        if done {
            let mut group = self.groups.remove(&gid).expect("group still registered");
            if self.traces_on {
                // The critical path of the group is the dependency chain
                // of the member whose termination completed it.
                group.trace_final = self
                    .trace
                    .cause
                    .and_then(|(rpc, owner)| (owner == state.id()).then_some(rpc));
            }
            self.emit_group_record(group);
        }
    }

    /// Emits the synthesized record of a completed disjoint-path group,
    /// if a telemetry sink is installed.
    fn emit_group_record(&mut self, group: DisjointGroup) {
        let Some(sink) = self.sink.0.as_mut() else {
            return;
        };
        let record = LookupRecord {
            lookup_id: group.members[0],
            target: *group.key.as_bytes(),
            purpose: TracePurpose::RetrieveDisjoint,
            outcome: if group.value_found {
                LookupOutcome::ValueFound
            } else {
                LookupOutcome::ValueMissing
            },
            hops: group.hops,
            messages: group.messages,
            responded: group.responded,
            started_ms: group.started.as_millis(),
            completed_ms: self.queue.now().as_millis(),
        };
        sink.on_lookup(&record);
        if self.traces_on {
            let tree = build_trace_tree(record, 0, group.trace_spans, group.trace_final);
            sink.on_trace(&tree);
        }
    }

    /// Builds and emits the trace record of a terminated lookup, if a
    /// telemetry sink is installed.
    fn emit_lookup_record(&mut self, state: &LookupState) {
        let Some(sink) = self.sink.0.as_mut() else {
            return;
        };
        let started = self
            .lookup_started
            .remove(&state.id())
            .unwrap_or(SimTime::ZERO);
        let purpose = match state.purpose() {
            LookupPurpose::Locate => TracePurpose::Locate,
            LookupPurpose::Disseminate => TracePurpose::Disseminate,
            LookupPurpose::Retrieve => TracePurpose::Retrieve,
            LookupPurpose::Refresh => TracePurpose::Refresh,
            LookupPurpose::Bootstrap => TracePurpose::Bootstrap,
            LookupPurpose::Repair => TracePurpose::Repair,
        };
        let outcome = if state.purpose() == LookupPurpose::Retrieve {
            if state.value_found() {
                LookupOutcome::ValueFound
            } else {
                LookupOutcome::ValueMissing
            }
        } else if state.responded() >= self.config.k {
            LookupOutcome::Converged
        } else if state.responded() > 0 {
            LookupOutcome::Partial
        } else {
            LookupOutcome::Failed
        };
        let record = LookupRecord {
            lookup_id: state.id(),
            target: *state.target().as_bytes(),
            purpose,
            outcome,
            hops: state.result_hops(),
            messages: state.messages_sent(),
            responded: state.responded() as u32,
            started_ms: started.as_millis(),
            completed_ms: self.queue.now().as_millis(),
        };
        sink.on_lookup(&record);
        if self.traces_on {
            if let Some(buf) = self.trace.buffers.remove(&state.id()) {
                let final_rpc = self
                    .trace
                    .cause
                    .and_then(|(rpc, owner)| (owner == state.id()).then_some(rpc));
                let tree = build_trace_tree(record, buf.queue_wait_ms, buf.spans, final_rpc);
                if let Some(sink) = self.sink.0.as_mut() {
                    sink.on_trace(&tree);
                }
            }
        }
    }

    /// Offers a learned contact to `addr`'s routing table, with the
    /// installed defense policy vetting inserts of contacts not already
    /// stored (refreshes of known contacts always pass). Without a policy
    /// this is exactly `routing.offer` plus one `Option` check.
    fn offer_contact(&mut self, addr: NodeAddr, contact: Contact) {
        let now = self.queue.now();
        let node = &mut self.nodes[addr.index()];
        if let Some(policy) = self.defense.0.as_mut() {
            if !node.routing.contains(&contact.id) {
                if let Some(idx) = node.routing.bucket_index(&contact.id) {
                    let own = node.routing.own_id();
                    match policy.decide_insert(&own, &node.routing.bucket(idx), idx, &contact) {
                        InsertDecision::Admit => {}
                        InsertDecision::Reject => {
                            self.counters.incr(Counter::DefenseDiversityReject);
                            if let Some(sink) = self.sink.0.as_mut() {
                                sink.on_defense(DefenseAction::DiversityReject);
                            }
                            return;
                        }
                        InsertDecision::Replace(old) => {
                            node.routing.remove(&old);
                            self.counters.incr(Counter::DefenseDiversityReplace);
                            if let Some(sink) = self.sink.0.as_mut() {
                                sink.on_defense(DefenseAction::DiversityReplace);
                            }
                        }
                    }
                }
            }
        }
        node.routing.offer(contact, now);
    }

    /// A node's defense liveness-probe tick: the policy picks stale
    /// contacts, each gets a PING (whose timeout feeds the staleness
    /// limit and so evicts silently-departed contacts), and the chain
    /// reschedules itself while the node stays alive.
    fn on_defense_tick(&mut self, addr: NodeAddr) {
        if !self.nodes[addr.index()].alive {
            return; // the chain ends with the node
        }
        let now = self.queue.now();
        let (interval, targets) = {
            let Some(policy) = self.defense.0.as_mut() else {
                return;
            };
            let Some(interval) = policy.probe_interval() else {
                return;
            };
            let targets = policy.probe_targets(&self.nodes[addr.index()].routing, now);
            (interval, targets)
        };
        self.counters.incr(Counter::DefenseTick);
        for contact in targets {
            self.counters.incr(Counter::DefenseProbe);
            if let Some(sink) = self.sink.0.as_mut() {
                sink.on_defense(DefenseAction::Probe);
            }
            self.send_request(addr, contact, RequestKind::Ping, None);
        }
        self.queue
            .schedule_after(interval, SimEvent::DefenseTick { node: addr });
    }

    fn send_request(
        &mut self,
        from: NodeAddr,
        to: Contact,
        kind: RequestKind,
        lookup: Option<LookupId>,
    ) {
        // The slab key doubles as the RpcId; `next_key` lets the timeout
        // event and trace span carry it before the insert happens.
        let rpc_id = self.pending.next_key();
        let timeout_event = self
            .queue
            .schedule_after(self.config.rpc_timeout, SimEvent::RpcTimeout { rpc_id });
        let mut trace_slot = NO_TRACE_SLOT;
        if self.traces_on {
            if let Some(lookup_id) = lookup {
                if let Some(buf) = self.trace.buffers.get_mut(&lookup_id) {
                    let caused_by = self
                        .trace
                        .cause
                        .and_then(|(rpc, owner)| (owner == lookup_id).then_some(rpc));
                    trace_slot = buf.spans.len();
                    buf.spans.push(RpcSpan {
                        rpc_id,
                        to_node: to.addr.index() as u32,
                        to_compromised: false,
                        sent_ms: self.queue.now().as_millis(),
                        completed_ms: 0,
                        outcome: SpanOutcome::Inflight,
                        caused_by,
                    });
                }
            }
        }
        let assigned = self.pending.insert(PendingRpc {
            requester: from,
            to,
            lookup,
            timeout_event,
            trace_slot,
        });
        debug_assert_eq!(assigned, rpc_id, "next_key predicted the slab key");
        self.counters.incr(Counter::RpcSent);
        let msg = Message::Request {
            rpc_id,
            from: self.nodes[from.index()].contact,
            kind,
        };
        self.send_message(to.addr, msg);
    }

    fn send_message(&mut self, to: NodeAddr, msg: Message) {
        let now = self.now();
        let dt = self.transport.delivery_time(&mut self.transport_rng, now);
        match dt {
            Some(at) => {
                self.queue.schedule_at(at, SimEvent::Deliver { to, msg });
                self.counters.incr(Counter::MsgSent);
            }
            None => {
                self.counters.incr(Counter::MsgLost);
                self.reclaim_message(msg);
            }
        }
    }

    /// Recovers the pooled contact buffer riding inside a dropped message
    /// (lost in transit, or delivered to a dead node).
    fn reclaim_message(&mut self, msg: Message) {
        if let Message::Response { body, .. } = msg {
            self.reclaim_body(body);
        }
    }

    /// Recovers the pooled contact buffer inside a response body that will
    /// not be consumed by a lookup.
    fn reclaim_body(&mut self, body: ResponseBody) {
        match body {
            ResponseBody::Nodes(nodes) | ResponseBody::Value { nodes, .. } => {
                self.scratch.recycle_body(nodes);
            }
            _ => {}
        }
    }

    fn dispatch(&mut self, event: SimEvent) {
        match event {
            SimEvent::Deliver { to, msg } => self.on_deliver(to, msg),
            SimEvent::RpcTimeout { rpc_id } => self.on_timeout(rpc_id),
            SimEvent::RefreshTick { node } => self.on_refresh(node),
            SimEvent::Compromise { node } => {
                self.compromise_node(node);
            }
            SimEvent::DefenseTick { node } => self.on_defense_tick(node),
        }
    }

    fn on_deliver(&mut self, to: NodeAddr, msg: Message) {
        if !self.nodes[to.index()].alive {
            self.counters.incr(Counter::MsgToDead);
            self.reclaim_message(msg);
            return;
        }
        match msg {
            Message::Request { rpc_id, from, kind } => {
                // "The nodes in Kademlia attempt to add each other to
                // their respective routing tables": requests advertise
                // the requester.
                self.offer_contact(to, from);
                let mut buf = self.scratch.take_body();
                let (response, responder) = {
                    let node = &mut self.nodes[to.index()];
                    (
                        node.handle_request_with(&kind, self.config.k, &mut buf),
                        node.contact,
                    )
                };
                // If the response body took the buffer, `buf` is now empty
                // (capacity travels inside the message and comes back on
                // the consumption side); otherwise it returns to the pool.
                self.scratch.recycle_body(buf);
                self.counters.incr(Counter::RequestHandled);
                self.send_message(
                    from.addr,
                    Message::Response {
                        rpc_id,
                        from: responder,
                        body: response,
                    },
                );
            }
            Message::Response { rpc_id, from, body } => {
                let Some(pending) = self.pending.remove(rpc_id) else {
                    // The timeout already declared this RPC failed.
                    self.counters.incr(Counter::LateResponse);
                    self.reclaim_body(body);
                    return;
                };
                self.queue.cancel(pending.timeout_event);
                debug_assert_eq!(pending.requester, to, "response routed to requester");
                // The offer is also the RPC's success record: a stored
                // responder moves to its bucket's most-recently-seen end
                // with failures reset; one the table dropped has no entry
                // to update.
                self.offer_contact(to, from);
                self.counters.incr(Counter::ResponseReceived);
                if let Some(lookup_id) = pending.lookup {
                    if self.traces_on {
                        self.close_trace_span(&pending, lookup_id, SpanOutcome::Responded);
                        self.trace.cause = Some((rpc_id, lookup_id));
                    }
                    let (mut contacts, value_found) = match body {
                        ResponseBody::Nodes(nodes) => (nodes, false),
                        ResponseBody::Value { found, nodes } => (nodes, found),
                        _ => (Vec::new(), false),
                    };
                    // Disjoint-path members only merge candidates no
                    // sibling path has claimed (vertex-disjointness).
                    if let Some(gid) = self.disjoint.get(&lookup_id) {
                        if let Some(group) = self.groups.get_mut(gid) {
                            contacts.retain(|c| group.claimed.insert(c.id));
                        }
                    }
                    if let Some(state) = self.nodes[to.index()].lookups.get_mut(lookup_id) {
                        state.on_response(&from.id, &contacts);
                        if value_found {
                            self.counters.incr(Counter::ValueHit);
                            state.mark_value_found();
                        }
                    }
                    self.scratch.recycle_body(contacts);
                    self.drive_lookup(to, lookup_id);
                    self.trace.cause = None;
                } else {
                    self.reclaim_body(body);
                }
            }
        }
    }

    fn on_timeout(&mut self, rpc_id: RpcId) {
        let Some(pending) = self.pending.remove(rpc_id) else {
            return; // response arrived first
        };
        self.counters.incr(Counter::RpcTimeout);
        let requester = pending.requester;
        if !self.nodes[requester.index()].alive {
            return;
        }
        let evicted = self.nodes[requester.index()]
            .routing
            .record_failure(&pending.to.id);
        if evicted {
            self.counters.incr(Counter::ContactEvicted);
            if let Some(sink) = self.sink.0.as_mut() {
                sink.on_defense(DefenseAction::Eviction);
            }
            // Self-healing: the policy may turn the loss into a repair
            // lookup toward the lost id's region, pulling replacement
            // contacts from surviving neighbors' closest sets.
            let repair = {
                let own = self.nodes[requester.index()].id();
                self.defense
                    .0
                    .as_mut()
                    .and_then(|p| p.repair_target(&own, &pending.to))
            };
            if let Some(target) = repair {
                self.counters.incr(Counter::DefenseRepair);
                if let Some(sink) = self.sink.0.as_mut() {
                    sink.on_defense(DefenseAction::Repair);
                }
                self.start_lookup_internal(requester, target, LookupPurpose::Repair);
            }
        }
        if let Some(lookup_id) = pending.lookup {
            if self.traces_on {
                self.close_trace_span(&pending, lookup_id, SpanOutcome::TimedOut);
                self.trace.cause = Some((rpc_id, lookup_id));
            }
            if let Some(state) = self.nodes[requester.index()].lookups.get_mut(lookup_id) {
                state.on_failure(&pending.to.id);
            }
            self.drive_lookup(requester, lookup_id);
            self.trace.cause = None;
        }
    }

    /// Closes an RPC span: stamps the completion instant, the outcome and
    /// the queried node's compromise flag. A no-op when the RPC recorded
    /// no span or the owning lookup's buffer is gone (the lookup
    /// finalized while this RPC was still in flight).
    fn close_trace_span(
        &mut self,
        pending: &PendingRpc,
        lookup_id: LookupId,
        outcome: SpanOutcome,
    ) {
        if pending.trace_slot == NO_TRACE_SLOT {
            return;
        }
        let compromised = self.is_compromised(pending.to.addr);
        let now = self.queue.now().as_millis();
        if let Some(buf) = self.trace.buffers.get_mut(&lookup_id) {
            if let Some(span) = buf.spans.get_mut(pending.trace_slot) {
                span.completed_ms = now;
                span.outcome = outcome;
                span.to_compromised = compromised;
            }
        }
    }

    fn on_refresh(&mut self, addr: NodeAddr) {
        if !self.nodes[addr.index()].alive {
            return;
        }
        self.counters.incr(Counter::RefreshTick);
        let bits = self.config.bits as usize;
        let first_bucket = match self.config.refresh_policy {
            RefreshPolicy::AllBuckets => 0,
            RefreshPolicy::OccupiedWithMargin(margin) => {
                let lowest_occupied = self.nodes[addr.index()]
                    .routing
                    .lowest_occupied()
                    .unwrap_or(bits.saturating_sub(1));
                lowest_occupied.saturating_sub(margin)
            }
        };
        for i in first_bucket..bits {
            let target = self.nodes[addr.index()]
                .routing
                .random_id_in_bucket(&mut self.refresh_rng, i);
            self.counters.incr(Counter::RefreshLookup);
            self.start_lookup_internal(addr, target, LookupPurpose::Refresh);
        }
        self.queue.schedule_after(
            self.config.refresh_interval,
            SimEvent::RefreshTick { node: addr },
        );
    }
}

/// Assembles a [`TraceTree`] from a finished lookup's buffer: stragglers
/// still in flight get their open span capped at the lookup's completion
/// instant (they never sit on the critical path).
fn build_trace_tree(
    record: LookupRecord,
    queue_wait_ms: u64,
    mut spans: Vec<RpcSpan>,
    final_rpc: Option<RpcId>,
) -> TraceTree {
    for span in &mut spans {
        if span.outcome == SpanOutcome::Inflight {
            span.completed_ms = record.completed_ms;
        }
    }
    TraceTree {
        record,
        queue_wait_ms,
        spans,
        final_rpc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::latency::LatencyModel;
    use dessim::loss::LossModel;
    use dessim::time::SimDuration;
    use rand::SeedableRng;

    fn test_config(k: usize) -> KademliaConfig {
        KademliaConfig::builder()
            .bits(32)
            .k(k)
            .staleness_limit(1)
            .build()
            .expect("valid")
    }

    fn lossless() -> Transport {
        Transport::lossless(LatencyModel::Constant(SimDuration::from_millis(10)))
    }

    /// Builds a network of `n` joined nodes, each bootstrapping off a
    /// random earlier node, and lets it settle.
    fn build_network(n: usize, k: usize, seed: u64) -> SimNetwork {
        let mut net = SimNetwork::new(test_config(k), lossless(), seed);
        let mut prev: Option<NodeAddr> = None;
        for i in 0..n {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(SimTime::from_secs((i as u64 + 1) * 10));
        }
        net.run_until(SimTime::from_minutes(30));
        net
    }

    #[test]
    fn two_nodes_learn_each_other() {
        let mut net = SimNetwork::new(test_config(4), lossless(), 1);
        let a = net.spawn_node();
        net.join(a, None);
        let b = net.spawn_node();
        net.join(b, Some(a));
        net.run_until(SimTime::from_secs(10));
        let (ida, idb) = (net.node(a).id(), net.node(b).id());
        assert!(net.node(b).routing.contains(&ida), "b bootstrapped off a");
        assert!(
            net.node(a).routing.contains(&idb),
            "a learned b from its lookup"
        );
    }

    #[test]
    fn network_becomes_mutually_known() {
        let net = build_network(12, 8, 2);
        // Every node should know a decent number of others.
        for addr in net.alive_addrs() {
            assert!(
                net.node(addr).routing.contact_count() >= 4,
                "node {addr} knows only {}",
                net.node(addr).routing.contact_count()
            );
        }
    }

    #[test]
    fn snapshot_edges_reference_alive_nodes() {
        let mut net = build_network(10, 4, 3);
        let victim = net.alive_addrs()[3];
        net.remove_node(victim);
        let snap = net.snapshot();
        assert_eq!(snap.node_count(), 9);
        for &(u, v) in snap.edges() {
            assert!(u != v);
            assert!((u as usize) < 9 && (v as usize) < 9);
        }
    }

    #[test]
    fn removed_node_stops_answering_and_gets_evicted() {
        let mut net = build_network(8, 4, 4);
        let victim = net.alive_addrs()[0];
        let victim_id = net.node(victim).id();
        net.remove_node(victim);
        // Someone still knows the victim.
        let knowers: Vec<NodeAddr> = net
            .alive_addrs()
            .into_iter()
            .filter(|&a| net.node(a).routing.contains(&victim_id))
            .collect();
        assert!(!knowers.is_empty(), "victim should still be referenced");
        // Pinging the victim times out and (s=1) evicts it.
        let knower = knowers[0];
        net.send_request(
            knower,
            Contact::new(victim_id, victim),
            RequestKind::Ping,
            None,
        );
        net.run_until(net.now() + SimDuration::from_secs(5));
        assert!(
            !net.node(knower).routing.contains(&victim_id),
            "stale contact evicted after failed ping"
        );
        assert!(net.counters().get("contact_evicted") >= 1);
    }

    #[test]
    fn store_disseminates_to_k_closest() {
        let mut net = build_network(10, 4, 5);
        let origin = net.alive_addrs()[0];
        let key = NodeId::from_u64(0x1234_5678, 32);
        net.start_store(origin, key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let holders = net
            .alive_addrs()
            .into_iter()
            .filter(|&a| net.node(a).storage.contains(&key))
            .count();
        assert!(
            holders >= 2,
            "key should be stored on several nodes, got {holders}"
        );
        assert!(holders <= 4, "no more than k holders, got {holders}");
    }

    #[test]
    fn lookups_finish() {
        let mut net = build_network(10, 4, 6);
        let origin = net.alive_addrs()[1];
        let started = net.counters().get("lookup_started");
        net.start_lookup(origin, NodeId::from_u64(99, 32));
        net.run_until(net.now() + SimDuration::from_secs(30));
        assert!(net.counters().get("lookup_started") == started + 1);
        assert!(
            net.node(origin).lookups.is_empty(),
            "lookup state cleaned up"
        );
    }

    #[test]
    fn dead_nodes_cannot_start_operations() {
        let mut net = build_network(6, 4, 7);
        let victim = net.alive_addrs()[0];
        net.remove_node(victim);
        assert!(net.start_lookup(victim, NodeId::from_u64(1, 32)).is_none());
        assert!(net.start_store(victim, NodeId::from_u64(1, 32)).is_none());
        assert!(!net.remove_node(victim), "double removal reports false");
    }

    #[test]
    fn compromised_nodes_answer_but_vanish_from_snapshots() {
        let mut net = build_network(10, 4, 21);
        let victim = net.alive_addrs()[2];
        let victim_id = net.node(victim).id();
        assert!(net.compromise_node(victim));
        assert!(!net.compromise_node(victim), "double compromise is a no-op");
        assert!(net.is_compromised(victim));
        assert_eq!(net.alive_count(), 10, "still alive on the wire");
        assert_eq!(net.compromised_count(), 1);
        assert_eq!(net.honest_count(), 9);
        assert_eq!(net.honest_addrs().len(), 9);
        // Excluded from κ accounting…
        let snap = net.snapshot();
        assert_eq!(snap.node_count(), 9);
        // …but unlike a departed node it keeps answering: pinging it
        // succeeds, so it is never evicted.
        let knowers: Vec<NodeAddr> = net
            .alive_addrs()
            .into_iter()
            .filter(|&a| a != victim && net.node(a).routing.contains(&victim_id))
            .collect();
        assert!(!knowers.is_empty());
        let knower = knowers[0];
        net.send_request(
            knower,
            Contact::new(victim_id, victim),
            RequestKind::Ping,
            None,
        );
        net.run_until(net.now() + SimDuration::from_secs(5));
        assert!(
            net.node(knower).routing.contains(&victim_id),
            "compromised node answered the ping and stays in the table"
        );
        assert!(net.counters().get("node_compromised") == 1);
    }

    #[test]
    fn scheduled_compromise_fires_through_the_event_queue() {
        let mut net = build_network(8, 4, 22);
        let victim = net.alive_addrs()[1];
        let at = net.now() + SimDuration::from_secs(90);
        net.schedule_compromise(at, victim);
        assert!(!net.is_compromised(victim), "not yet fired");
        net.run_until(at + SimDuration::from_secs(1));
        assert!(net.is_compromised(victim));
        assert_eq!(net.counters().get("compromise_scheduled"), 1);
        assert_eq!(net.counters().get("node_compromised"), 1);
    }

    #[test]
    fn churned_compromised_node_leaves_both_counts() {
        let mut net = build_network(6, 4, 23);
        let victim = net.alive_addrs()[0];
        net.compromise_node(victim);
        assert_eq!(net.compromised_count(), 1);
        assert!(net.remove_node(victim), "compromised nodes can still churn");
        assert_eq!(net.alive_count(), 5);
        assert_eq!(net.compromised_count(), 0);
        assert_eq!(net.honest_count(), 5);
        assert!(
            !net.is_compromised(victim),
            "gone nodes are not compromised"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let a = build_network(15, 4, 42);
        let b = build_network(15, 4, 42);
        let snap_a = a.snapshot();
        let snap_b = b.snapshot();
        assert_eq!(snap_a.edges(), snap_b.edges());
        assert_eq!(a.counters().get("msg_sent"), b.counters().get("msg_sent"));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = build_network(15, 4, 1);
        let b = build_network(15, 4, 2);
        // Ids differ, so snapshots almost surely differ.
        assert_ne!(a.snapshot().ids(), b.snapshot().ids());
    }

    #[test]
    fn message_loss_is_counted() {
        let config = test_config(4);
        let transport = Transport::new(
            LatencyModel::Constant(SimDuration::from_millis(10)),
            LossModel::Bernoulli(0.5),
        );
        let mut net = SimNetwork::new(config, transport, 8);
        let mut prev = None;
        for _ in 0..10 {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(net.now() + SimDuration::from_secs(10));
        }
        net.run_until(SimTime::from_minutes(10));
        assert!(net.counters().get("msg_lost") > 0, "loss should occur");
        assert!(
            net.counters().get("rpc_timeout") > 0,
            "loss causes timeouts"
        );
    }

    #[test]
    fn telemetry_records_traffic_lookups() {
        use kad_telemetry::{LookupOutcome, TracePurpose, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(12, 4, 33);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let origin = net.alive_addrs()[0];
        let target = NodeId::from_u64(0x77, 32);
        let started_at = net.now();
        net.start_lookup(origin, target);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let records = sink.borrow();
        let r = records
            .records
            .iter()
            .find(|r| r.purpose == TracePurpose::Locate)
            .expect("traffic lookup recorded");
        assert_eq!(r.target, *target.as_bytes());
        assert_eq!(r.outcome, LookupOutcome::Converged, "k=4 out of 11 peers");
        assert!(r.hops >= 1, "at least the seed hop");
        assert!(r.responded >= 4);
        assert!(r.messages >= r.responded, "every response cost a query");
        assert_eq!(r.started_ms, started_at.as_millis());
        assert!(r.completed_ms > r.started_ms, "lookups take simulated time");
    }

    #[test]
    fn maintenance_lookups_carry_their_own_purposes() {
        use kad_telemetry::{TracePurpose, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = SimNetwork::new(test_config(4), lossless(), 34);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let a = net.spawn_node();
        net.join(a, None);
        let b = net.spawn_node();
        net.join(b, Some(a));
        // Past one refresh interval: bootstrap and refresh lookups ran.
        net.run_until(SimTime::from_minutes(70));
        let records = sink.borrow();
        let purposes: Vec<TracePurpose> = records.records.iter().map(|r| r.purpose).collect();
        assert!(purposes.contains(&TracePurpose::Bootstrap));
        assert!(purposes.contains(&TracePurpose::Refresh));
        assert!(!purposes.contains(&TracePurpose::Locate));
    }

    #[test]
    fn without_a_sink_no_start_times_are_tracked() {
        let mut net = build_network(10, 4, 35);
        let origin = net.alive_addrs()[0];
        net.start_lookup(origin, NodeId::from_u64(5, 32));
        assert!(
            net.lookup_started.is_empty(),
            "no sink, no per-lookup tracking overhead"
        );
        net.run_until(net.now() + SimDuration::from_secs(30));
        assert!(net.lookup_started.is_empty());
    }

    #[test]
    fn flat_sinks_allocate_no_span_buffers() {
        use kad_telemetry::NoopSink;

        let mut net = build_network(10, 4, 35);
        net.set_telemetry_sink(Box::new(NoopSink));
        assert!(!net.traces_on, "NoopSink keeps the default wants_traces");
        let origin = net.alive_addrs()[0];
        net.start_lookup(origin, NodeId::from_u64(5, 32));
        assert!(
            net.trace.buffers.is_empty(),
            "a flat-record sink must not pay for span recording"
        );
        net.run_until(net.now() + SimDuration::from_secs(30));
        assert!(net.trace.buffers.is_empty());
    }

    /// Every tree emitted under loss (timeouts), compromise (flagged
    /// spans) and plain traffic must conserve: critical-path rtt +
    /// timeout + queue time equals the end-to-end latency exactly.
    #[test]
    fn trace_trees_conserve_latency_attribution() {
        use kad_telemetry::{SpanOutcome, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let transport = Transport::new(
            LatencyModel::Uniform {
                min: SimDuration::from_millis(20),
                max: SimDuration::from_millis(80),
            },
            LossModel::Bernoulli(0.2),
        );
        let mut net = SimNetwork::new(test_config(4), transport, 91);
        let mut prev: Option<NodeAddr> = None;
        for i in 0..14 {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            net.run_until(SimTime::from_secs((i as u64 + 1) * 10));
        }
        net.run_until(SimTime::from_minutes(20));
        let key = NodeId::from_u64(0xF00D, 32);
        net.start_store(net.alive_addrs()[0], key);
        net.run_until(net.now() + SimDuration::from_secs(60));

        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        assert!(net.traces_on, "VecSink wants traces");
        // A compromised node near the key forces flagged spans onto some
        // critical paths.
        let victim = *net.alive_addrs().last().expect("nodes alive");
        net.compromise_node(victim);
        for i in 0..6 {
            let origin = net.alive_addrs()[i];
            net.start_lookup(origin, NodeId::from_u64(0x1000 + i as u64, 32));
            net.start_find_value(origin, key);
        }
        net.run_until(net.now() + SimDuration::from_minutes(5));

        let traces = sink.borrow();
        assert!(
            traces.traces.len() >= traces.records.len(),
            "every record has a tree (refreshes included): {} trees, {} records",
            traces.traces.len(),
            traces.records.len()
        );
        let mut timeouts = 0;
        for tree in &traces.traces {
            assert!(
                tree.conserves(),
                "attribution must sum to latency: {:?} vs end-to-end {}",
                tree.critical_path().attribution,
                tree.end_to_end_ms()
            );
            let cp = tree.critical_path();
            timeouts += cp.attribution.timeout_ms;
            for pair in cp.rpc_ids.windows(2) {
                let parent = tree.spans.iter().find(|s| s.rpc_id == pair[0]).unwrap();
                let child = tree.spans.iter().find(|s| s.rpc_id == pair[1]).unwrap();
                assert_eq!(
                    child.sent_ms, parent.completed_ms,
                    "a triggered RPC departs the instant its cause completes"
                );
                assert_ne!(parent.outcome, SpanOutcome::Inflight);
            }
        }
        assert!(timeouts > 0, "20% loss must put timeouts on some path");
    }

    #[test]
    fn queue_wait_rides_the_trace_and_its_critical_path() {
        use kad_telemetry::VecSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(12, 4, 92);
        let key = NodeId::from_u64(0xCAFE, 32);
        net.start_store(net.alive_addrs()[0], key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let origin = net.alive_addrs()[3];
        net.start_find_value_queued(origin, key, 750);
        net.run_until(net.now() + SimDuration::from_secs(60));
        let traces = sink.borrow();
        let tree = traces
            .traces
            .iter()
            .find(|t| t.record.purpose == TracePurpose::Retrieve)
            .expect("retrieval traced");
        assert_eq!(tree.queue_wait_ms, 750);
        assert_eq!(
            tree.critical_path().attribution.queue_ms,
            750,
            "queue wait is prepended to the critical path"
        );
        assert!(tree.conserves());
        assert_eq!(tree.end_to_end_ms(), 750 + tree.record.latency_ms());
    }

    #[test]
    fn disjoint_group_trace_merges_member_paths() {
        use kad_telemetry::VecSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(14, 4, 93);
        let key = NodeId::from_u64(0xABCD, 32);
        net.start_store(net.alive_addrs()[0], key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let retriever = net.alive_addrs()[7];
        net.start_find_value_disjoint(retriever, key, 3);
        net.run_until(net.now() + SimDuration::from_secs(60));
        let traces = sink.borrow();
        assert_eq!(traces.traces.len(), 1, "one tree per group");
        let tree = &traces.traces[0];
        assert_eq!(tree.record.purpose, TracePurpose::RetrieveDisjoint);
        assert_eq!(
            tree.spans.len() as u32,
            tree.record.messages,
            "the group tree carries every member path's spans"
        );
        assert!(tree.conserves(), "group attribution conserves too");
        assert!(
            !tree.critical_path().rpc_ids.is_empty(),
            "the finalizing member's chain is the group's critical path"
        );
        assert!(
            net.trace.buffers.is_empty(),
            "member buffers are folded into the group and freed"
        );
    }

    #[test]
    fn find_value_round_trips_through_the_overlay() {
        let mut net = build_network(12, 4, 36);
        let origin = net.alive_addrs()[0];
        let key = NodeId::from_u64(0xBEEF, 32);
        net.start_store(origin, key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let retriever = net.alive_addrs()[5];
        net.start_find_value(retriever, key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        assert!(net.counters().get("retrieve_started") == 1);
        assert!(
            net.counters().get("value_hit") >= 1,
            "a holder served the value"
        );
    }

    /// Test policy: rejects every new insert.
    struct RejectAll;

    impl crate::defense::DefensePolicy for RejectAll {
        fn label(&self) -> &'static str {
            "reject-all"
        }

        fn decide_insert(
            &mut self,
            _own: &NodeId,
            _bucket: &crate::bucket::KBucket,
            _index: usize,
            _candidate: &Contact,
        ) -> crate::defense::InsertDecision {
            crate::defense::InsertDecision::Reject
        }
    }

    /// Test policy: probes every stored contact each tick and repairs
    /// every eviction with a lookup toward the lost id.
    struct ProbeAndHeal;

    impl crate::defense::DefensePolicy for ProbeAndHeal {
        fn label(&self) -> &'static str {
            "probe-and-heal"
        }

        fn probe_interval(&self) -> Option<SimDuration> {
            Some(SimDuration::from_secs(30))
        }

        fn probe_targets(
            &mut self,
            table: &crate::routing::RoutingTable,
            _now: SimTime,
        ) -> Vec<Contact> {
            table.contacts().copied().collect()
        }

        fn repair_target(&mut self, _own: &NodeId, lost: &Contact) -> Option<NodeId> {
            Some(lost.id)
        }
    }

    /// Test policy: a full bucket admits the newcomer in place of its
    /// least-recently-seen contact.
    struct ReplaceOldest;

    impl crate::defense::DefensePolicy for ReplaceOldest {
        fn label(&self) -> &'static str {
            "replace-oldest"
        }

        fn decide_insert(
            &mut self,
            _own: &NodeId,
            bucket: &crate::bucket::KBucket,
            _index: usize,
            _candidate: &Contact,
        ) -> crate::defense::InsertDecision {
            match bucket.iter().next() {
                Some(oldest) if bucket.is_full() => {
                    crate::defense::InsertDecision::Replace(oldest.contact.id)
                }
                _ => crate::defense::InsertDecision::Admit,
            }
        }
    }

    /// The Response arm records the RPC's success through
    /// `offer_contact(to, from)` alone. That is only sound if the table a
    /// response leaves behind is a fixed point of
    /// `routing.record_success(&from.id, now)` — under every policy
    /// verdict, for a responder that is stored, new with room, or new to
    /// a full bucket.
    #[test]
    fn a_response_leaves_nothing_for_record_success_to_do() {
        type Policy = Option<Box<dyn crate::defense::DefensePolicy>>;
        let policies: [fn() -> Policy; 3] = [
            || None,
            || Some(Box::new(RejectAll)),
            || Some(Box::new(ReplaceOldest)),
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            let config = KademliaConfig::builder()
                .bits(32)
                .k(2)
                .staleness_limit(3)
                .build()
                .expect("valid");
            let mut net = SimNetwork::new(config, lossless(), 77);
            let a = net.spawn_node();
            let mut rng = SmallRng::seed_from_u64(5);
            // Three peers in one bucket of a's table (k = 2: the third
            // finds it full) and one alone in another.
            let mut peer = |net: &SimNetwork, bucket: usize, addr: u32| {
                let id = net.node(a).routing.random_id_in_bucket(&mut rng, bucket);
                Contact::new(id, NodeAddr(addr))
            };
            let peers = [
                peer(&net, 20, 100),
                peer(&net, 20, 101),
                peer(&net, 20, 102),
                peer(&net, 9, 103),
            ];
            // Stored before the policy is installed, with a failure on
            // record so a refresh has something to reset.
            for c in &peers[..2] {
                net.nodes[a.index()].routing.offer(*c, SimTime::ZERO);
                net.nodes[a.index()].routing.record_failure(&c.id);
            }
            if let Some(policy) = policy() {
                net.set_defense_policy(policy);
            }
            net.run_until(SimTime::from_secs(30));
            for from in [peers[0], peers[3], peers[2], peers[1], peers[2]] {
                let rpc_id = net.pending.next_key();
                net.send_request(a, from, RequestKind::Ping, None);
                net.on_deliver(
                    a,
                    Message::Response {
                        rpc_id,
                        from,
                        body: ResponseBody::Pong,
                    },
                );
                let after_response: Vec<_> = net.node(a).routing.entries().collect();
                let now = net.now();
                net.nodes[a.index()].routing.record_success(&from.id, now);
                assert_eq!(
                    net.node(a).routing.entries().collect::<Vec<_>>(),
                    after_response,
                    "policy {p}: record_success changed the table after {from}'s response"
                );
            }
            let stored = |c: &Contact| net.node(a).routing.contains(&c.id);
            match p {
                // No policy: the full bucket dropped the third peer.
                0 => assert!(stored(&peers[0]) && stored(&peers[1]) && !stored(&peers[2])),
                // Reject: only what was stored beforehand.
                1 => assert!(!stored(&peers[2]) && !stored(&peers[3])),
                // Replace: the third peer took a slot.
                _ => assert!(stored(&peers[2]) && stored(&peers[3])),
            }
            let refreshed = net
                .node(a)
                .routing
                .entries()
                .find(|e| e.contact == peers[0]);
            if let Some(entry) = refreshed {
                assert_eq!((entry.failures, entry.last_seen), (0, net.now()));
            }
        }
    }

    #[test]
    fn reject_all_policy_blocks_every_insert() {
        let mut net = SimNetwork::new(test_config(4), lossless(), 51);
        net.set_defense_policy(Box::new(RejectAll));
        assert_eq!(net.defense_label(), Some("reject-all"));
        let a = net.spawn_node();
        net.join(a, None);
        let b = net.spawn_node();
        net.join(b, Some(a));
        net.run_until(SimTime::from_minutes(5));
        assert_eq!(
            net.node(b).routing.contact_count(),
            0,
            "even the bootstrap contact was vetted and rejected"
        );
        assert!(net.counters().get("defense_diversity_reject") >= 1);
    }

    #[test]
    fn probe_ticks_evict_departed_contacts_without_traffic() {
        use kad_telemetry::{DefenseAction, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(10, 4, 52);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        net.set_defense_policy(Box::new(ProbeAndHeal));
        let victim = net.alive_addrs()[2];
        let victim_id = net.node(victim).id();
        net.remove_node(victim);
        // No lookups, no stores: only the defense ticks talk. One probe
        // round (30 s) plus the RPC timeout is enough at s = 1.
        net.run_until(net.now() + SimDuration::from_secs(120));
        assert!(net.counters().get("defense_tick") >= 1);
        assert!(net.counters().get("defense_probe") >= 1);
        for addr in net.alive_addrs() {
            assert!(
                !net.node(addr).routing.contains(&victim_id),
                "{addr} still references the departed victim"
            );
        }
        let events = sink.borrow();
        assert!(events.defense.contains(&DefenseAction::Probe));
        assert!(events.defense.contains(&DefenseAction::Eviction));
        assert!(
            events.defense.contains(&DefenseAction::Repair),
            "evictions triggered repairs: {:?}",
            events.defense
        );
        assert!(net.counters().get("defense_repair") >= 1);
    }

    #[test]
    fn repair_lookups_carry_their_own_trace_purpose() {
        use kad_telemetry::{TracePurpose, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(8, 4, 53);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        net.set_defense_policy(Box::new(ProbeAndHeal));
        let victim = net.alive_addrs()[1];
        net.remove_node(victim);
        net.run_until(net.now() + SimDuration::from_secs(120));
        let records = sink.borrow();
        assert!(
            records
                .records
                .iter()
                .any(|r| r.purpose == TracePurpose::Repair),
            "repair lookup emitted a Repair-purpose record"
        );
    }

    #[test]
    fn disjoint_retrieval_emits_one_group_record() {
        use kad_telemetry::{LookupOutcome, TracePurpose, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut net = build_network(14, 4, 54);
        let origin = net.alive_addrs()[0];
        let key = NodeId::from_u64(0xABCD, 32);
        net.start_store(origin, key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let retriever = net.alive_addrs()[7];
        let id = net.start_find_value_disjoint(retriever, key, 3);
        assert!(id.is_some());
        net.run_until(net.now() + SimDuration::from_secs(60));
        assert_eq!(net.counters().get("retrieve_disjoint_started"), 1);
        let records = sink.borrow();
        let groups: Vec<_> = records
            .records
            .iter()
            .filter(|r| r.purpose == TracePurpose::RetrieveDisjoint)
            .collect();
        assert_eq!(groups.len(), 1, "exactly one synthesized group record");
        assert_eq!(groups[0].outcome, LookupOutcome::ValueFound);
        assert!(groups[0].hops >= 1);
        assert!(groups[0].messages >= 1);
        assert!(
            !records
                .records
                .iter()
                .any(|r| r.purpose == TracePurpose::Retrieve),
            "sub-lookups stay silent"
        );
        assert!(net.node(retriever).lookups.is_empty(), "state cleaned up");
    }

    #[test]
    fn disjoint_retrieval_beats_a_compromised_primary_path() {
        use kad_telemetry::{LookupOutcome, TracePurpose, VecSink};
        use std::cell::RefCell;
        use std::rc::Rc;

        // d = 1 routes every query through the closest seeds; d = 3 has
        // two more first-hop sets. Degenerate check: with no seeds at all
        // the group still terminates as ValueMissing.
        let config = test_config(4);
        let mut net = SimNetwork::new(config, lossless(), 55);
        let a = net.spawn_node();
        net.join(a, None);
        let sink = Rc::new(RefCell::new(VecSink::default()));
        net.set_telemetry_sink(Box::new(Rc::clone(&sink)));
        let key = NodeId::from_u64(0x99, 32);
        net.start_find_value_disjoint(a, key, 3);
        net.run_until(net.now() + SimDuration::from_secs(60));
        let records = sink.borrow();
        let group = records
            .records
            .iter()
            .find(|r| r.purpose == TracePurpose::RetrieveDisjoint)
            .expect("group record emitted even without seeds");
        assert_eq!(group.outcome, LookupOutcome::ValueMissing);
    }

    #[test]
    fn disjoint_retrieval_degrades_to_plain_find_value_at_d1() {
        let mut net = build_network(10, 4, 56);
        let origin = net.alive_addrs()[0];
        let key = NodeId::from_u64(0x42, 32);
        net.start_store(origin, key);
        net.run_until(net.now() + SimDuration::from_secs(30));
        let retriever = net.alive_addrs()[3];
        assert!(net.start_find_value_disjoint(retriever, key, 1).is_some());
        assert_eq!(net.counters().get("retrieve_started"), 1);
        assert_eq!(net.counters().get("retrieve_disjoint_started"), 0);
        // Dead origins cannot start disjoint retrievals either.
        net.remove_node(retriever);
        assert!(net.start_find_value_disjoint(retriever, key, 3).is_none());
    }

    #[test]
    fn refresh_ticks_fire_periodically() {
        let mut net = build_network(5, 4, 9);
        net.run_until(SimTime::from_minutes(185));
        // 5 nodes, refresh every 60 min, joined within the first 30 min:
        // by minute 185 every node has refreshed at least twice.
        assert!(
            net.counters().get("refresh_tick") >= 10,
            "got {}",
            net.counters().get("refresh_tick")
        );
    }
}
