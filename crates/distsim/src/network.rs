//! The synchronous executor state: one [`NodeAlgorithm`] instance per vertex,
//! the communication model, the delivery buffers and the statistics.
//!
//! A [`Network`] holds *state*; the loop that drives it lives in
//! [`crate::engine`] ([`crate::engine::Engine::run`]). The split matters:
//! every algorithm in the workspace — the order phase, weak reachability, the
//! election, the connected-set flooding — used to hand-roll its own
//! `init`/`step` loop; they now all go through the one engine entry point,
//! and the execution strategy (sequential vs `std::thread` chunks, see
//! [`bedom_par::ExecutionStrategy`]) is a *value*, not a code path: there is
//! exactly one implementation of a round, used by both modes, so sequential
//! and parallel runs are bit-identical by construction.
//!
//! ## Flat, double-buffered delivery
//!
//! Per round the executor
//!
//! 1. charges the current outboxes to the statistics,
//! 2. prepares delivery: in broadcast-only rounds (all of CONGEST_BC)
//!    receivers read straight off the precomputed id-sorted neighbour CSR —
//!    zero per-round work; in rounds with unicasts it rebuilds the flat
//!    inbox arena, a CSR-style `offsets` array (one slot per receiver) plus
//!    one 16-byte [`Packet`] per delivery, pointing into the sender's
//!    outbox — either way **no payload is ever cloned**, receivers read
//!    messages by reference through [`Inbox`],
//! 3. evaluates every vertex's transition, writing the next outbox into a
//!    second pre-allocated outbox buffer, and
//! 4. swaps the two outbox buffers.
//!
//! The offsets, arena and both outbox buffers are reused across rounds, so
//! the executor performs no per-round heap allocation of its own once the
//! buffers have grown to their steady-state size (payload allocations made by
//! the algorithms themselves are, of course, theirs). The seed implementation
//! allocated a fresh `Vec` per receiver per round and cloned every payload
//! per delivery; on a 100k-vertex planar triangulation the flat engine ran
//! 5.4× faster with 6.4× fewer allocations (recorded in `CHANGES.md`).

use crate::fault::{DeliveryFilter, FaultPlan};
use crate::ids::IdAssignment;
use crate::message::MessageSize;
use crate::model::{Model, ModelViolation};
use crate::node::{Inbox, InboxSource, NodeAlgorithm, NodeContext, Outgoing, Packet};
use crate::trace::{RoundStats, RunStats};
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// A configured network: the input graph, a communication model, an id
/// assignment, one algorithm instance per vertex, and the reusable delivery
/// buffers. Drive it with [`crate::engine::Engine`].
pub struct Network<'g, A: NodeAlgorithm> {
    graph: &'g Graph,
    model: Model,
    ids: Vec<u64>,
    contexts: Vec<NodeContext>,
    nodes: Vec<A>,
    /// Outboxes produced by the last evaluated round (to be delivered next).
    outboxes: Vec<Outgoing<A::Message>>,
    /// Double buffer the next round's outboxes are written into.
    next_outboxes: Vec<Outgoing<A::Message>>,
    /// CSR offsets into [`Network::inbox_arena`]; length `n + 1`.
    inbox_offsets: Vec<u32>,
    /// Flat delivery arena, rebuilt (in place) every round.
    inbox_arena: Vec<Packet>,
    /// CSR offsets into [`Network::delivery_order`]; length `n + 1`.
    nbr_offsets: Vec<u32>,
    /// Every vertex's neighbours sorted by network id — the deterministic
    /// delivery order, precomputed once.
    delivery_order: Vec<Vertex>,
    /// Inverse of `ids` (ids are always a dense permutation of `0..n`), used
    /// to resolve unicast targets back to graph vertices for fault checks.
    vertex_of: Vec<Vertex>,
    /// The installed fault schedule, if any. Configuration, not execution
    /// state: snapshots do not capture it and restores do not touch it.
    fault: Option<FaultPlan>,
    stats: RunStats,
    strategy: ExecutionStrategy,
    initialized: bool,
}

impl<A: NodeAlgorithm> std::fmt::Debug for Network<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("num_vertices", &self.ids.len())
            .field("model", &self.model)
            .field("strategy", &self.strategy)
            .field("initialized", &self.initialized)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'g, A: NodeAlgorithm> Network<'g, A> {
    /// Builds a network over `graph` where vertex `v` runs the instance
    /// produced by `factory(v, &context_of_v)`.
    pub fn new(
        graph: &'g Graph,
        model: Model,
        assignment: IdAssignment,
        mut factory: impl FnMut(Vertex, &NodeContext) -> A,
    ) -> Self {
        let n = graph.num_vertices();
        let ids = assignment.assign(graph);
        let contexts: Vec<NodeContext> = (0..n)
            .map(|v| {
                let mut neighbor_ids: Vec<u64> = graph
                    .neighbors(v as Vertex)
                    .iter()
                    .map(|&w| ids[w as usize])
                    .collect();
                neighbor_ids.sort_unstable();
                NodeContext {
                    id: ids[v],
                    n,
                    neighbor_ids,
                }
            })
            .collect();
        let nodes: Vec<A> = (0..n).map(|v| factory(v as Vertex, &contexts[v])).collect();

        // Precompute the deterministic delivery order: each vertex's
        // neighbours sorted by their network id.
        let mut nbr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut delivery_order: Vec<Vertex> = Vec::with_capacity(2 * graph.num_edges());
        nbr_offsets.push(0);
        for v in 0..n {
            let start = delivery_order.len();
            delivery_order.extend_from_slice(graph.neighbors(v as Vertex));
            delivery_order[start..].sort_unstable_by_key(|&u| ids[u as usize]);
            nbr_offsets
                .push(u32::try_from(delivery_order.len()).expect(
                    "delivery CSR exceeds u32 offsets — graph too large for the simulator",
                ));
        }

        let mut vertex_of: Vec<Vertex> = vec![0; n];
        for (v, &id) in ids.iter().enumerate() {
            debug_assert!((id as usize) < n, "id assignments are dense permutations");
            vertex_of[id as usize] = v as Vertex;
        }

        Network {
            graph,
            model,
            ids,
            contexts,
            nodes,
            outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            next_outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            inbox_offsets: vec![0; n + 1],
            inbox_arena: Vec::new(),
            nbr_offsets,
            delivery_order,
            vertex_of,
            fault: None,
            stats: RunStats::default(),
            strategy: ExecutionStrategy::Sequential,
            initialized: false,
        }
    }

    /// Selects the execution strategy for round evaluation. Sequential and
    /// parallel execution produce bit-identical results.
    pub fn set_strategy(&mut self, strategy: ExecutionStrategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// The strategy rounds are evaluated with.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The communication model in force.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Installs a fault schedule. All subsequent [`Network::step`]s honour
    /// it: drops and outages suppress individual deliveries (tracked in
    /// [`RoundStats::dropped_deliveries`]), crashed vertices neither send,
    /// receive nor transition for their windows
    /// ([`RoundStats::crashed`]). Round 0 is never faulted.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault = Some(plan);
        self
    }

    /// Removes the installed fault schedule — the crash-restore step of the
    /// recovery supervisor ([`crate::engine::run_with_recovery`]). Returns
    /// the removed plan, if any.
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The network id assigned to graph vertex `v`.
    pub fn id_of(&self, v: Vertex) -> u64 {
        self.ids[v as usize]
    }

    /// Statistics of the execution so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Whether no vertex has anything pending to send (the engine's
    /// quiescence test).
    pub fn is_quiet(&self) -> bool {
        self.outboxes.iter().all(Outgoing::is_silent)
    }

    /// Runs the initialisation step (round 0) if it has not run yet. Called
    /// automatically by the engine.
    pub fn init(&mut self) -> Result<(), ModelViolation> {
        if self.initialized {
            return Ok(());
        }
        let contexts = &self.contexts;
        self.strategy
            .zip_apply(&mut self.nodes, &mut self.outboxes, |v, node, slot| {
                *slot = node.init(&contexts[v]);
            });
        Self::validate(
            self.model,
            self.graph.num_vertices(),
            &self.ids,
            &self.contexts,
            &self.outboxes,
            0,
        )?;
        self.initialized = true;
        Ok(())
    }

    /// Executes a single communication round — delivers the current outboxes
    /// through the flat arena and computes the next ones — and returns its
    /// statistics. This is the engine's single-round primitive; use
    /// [`crate::engine::Engine::run`] for whole executions.
    pub fn step(&mut self) -> Result<RoundStats, ModelViolation> {
        self.init()?;
        let n = self.graph.num_vertices();
        let round_index = self.stats.rounds + 1;

        // Fault preamble. Crashed senders lose whatever they queued last
        // round: silencing their outboxes up front keeps the accounting and
        // both delivery paths consistent without per-path special cases.
        // `active_at` gates all of this, so fault-free rounds (and fault-free
        // networks) pay nothing.
        let fault_active = self
            .fault
            .as_ref()
            .is_some_and(|plan| plan.active_at(round_index));
        let mut crashed = 0usize;
        if fault_active {
            let plan = self.fault.as_ref().expect("fault_active implies a plan");
            for v in 0..n {
                if plan.is_crashed(round_index, v as Vertex) {
                    crashed += 1;
                    self.outboxes[v] = Outgoing::Silent;
                }
            }
        }

        // Account for what is about to be delivered, and detect whether any
        // sender unicast (broadcast-only rounds — all of CONGEST_BC — take a
        // delivery fast path that needs no arena at all). Under a fault plan
        // the sender still pays the wire cost of every message it offers
        // (`bits_sent`), but suppressed deliveries move from `deliveries`
        // to `dropped_deliveries`.
        let mut round_stats = RoundStats {
            round: round_index,
            crashed,
            ..RoundStats::default()
        };
        let mut any_unicast = false;
        let graph = self.graph;
        let fault = if fault_active {
            self.fault.as_ref()
        } else {
            None
        };
        for (v, out) in self.outboxes.iter().enumerate() {
            match out {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    let bits = m.size_bits();
                    round_stats.senders += 1;
                    let degree = graph.degree(v as Vertex);
                    let delivered = match fault {
                        Some(plan) => graph
                            .neighbors(v as Vertex)
                            .iter()
                            .filter(|&&w| plan.delivers(round_index, v as Vertex, w))
                            .count(),
                        None => degree,
                    };
                    round_stats.deliveries += delivered;
                    round_stats.dropped_deliveries += degree - delivered;
                    round_stats.bits_sent += bits;
                    // The per-round maximum is frame-granular: payloads that
                    // model a framing layer report their largest frame, so a
                    // hub's split broadcast no longer dominates the statistic
                    // while its full (framed) cost still lands in bits_sent.
                    round_stats.max_message_bits =
                        round_stats.max_message_bits.max(m.max_frame_bits());
                    self.stats.max_vertex_round_bits = self.stats.max_vertex_round_bits.max(bits);
                }
                Outgoing::Unicast(messages) => {
                    any_unicast = true;
                    if !messages.is_empty() {
                        round_stats.senders += 1;
                    }
                    let mut vertex_bits = 0;
                    for (target, m) in messages {
                        let bits = m.size_bits();
                        let delivered = match fault {
                            // Targets passed validation last round, so the
                            // inverse id map resolves them to real vertices.
                            Some(plan) => plan.delivers(
                                round_index,
                                v as Vertex,
                                self.vertex_of[*target as usize],
                            ),
                            None => true,
                        };
                        if delivered {
                            round_stats.deliveries += 1;
                        } else {
                            round_stats.dropped_deliveries += 1;
                        }
                        round_stats.bits_sent += bits;
                        vertex_bits += bits;
                        round_stats.max_message_bits =
                            round_stats.max_message_bits.max(m.max_frame_bits());
                    }
                    self.stats.max_vertex_round_bits =
                        self.stats.max_vertex_round_bits.max(vertex_bits);
                }
            }
        }

        if any_unicast {
            self.build_inboxes(fault_active.then_some(round_index));
        }
        let fault = if fault_active {
            self.fault.as_ref()
        } else {
            None
        };

        // Evaluate every vertex's transition through the one execution path;
        // results land in the second outbox buffer by index. Broadcast-only
        // rounds read straight off the pre-sorted neighbour CSR; rounds with
        // unicasts go through the freshly built packet arena. Both sources
        // deliver in the same deterministic order; under a fault plan the
        // arena was built pre-filtered and the fast path filters on read.
        {
            let contexts = &self.contexts;
            let outboxes = &self.outboxes;
            let ids = &self.ids;
            let offsets = &self.inbox_offsets;
            let arena = &self.inbox_arena;
            let nbr_offsets = &self.nbr_offsets;
            let delivery_order = &self.delivery_order;
            self.strategy
                .zip_apply(&mut self.nodes, &mut self.next_outboxes, |w, node, slot| {
                    if let Some(plan) = fault {
                        if plan.is_crashed(round_index, w as Vertex) {
                            // A crashed vertex neither receives nor
                            // transitions; its state freezes until restore.
                            *slot = Outgoing::Silent;
                            return;
                        }
                    }
                    let source = if any_unicast {
                        InboxSource::Packets(&arena[offsets[w] as usize..offsets[w + 1] as usize])
                    } else {
                        InboxSource::Broadcasts(
                            &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize],
                            ids,
                            fault.map(|plan| DeliveryFilter {
                                plan,
                                round: round_index,
                                receiver: w as Vertex,
                            }),
                        )
                    };
                    let inbox = Inbox { source, outboxes };
                    *slot = node.round(&contexts[w], round_index, inbox);
                });
        }
        Self::validate(
            self.model,
            n,
            &self.ids,
            &self.contexts,
            &self.next_outboxes,
            round_index,
        )?;
        std::mem::swap(&mut self.outboxes, &mut self.next_outboxes);
        self.stats.push_round(round_stats);
        Ok(round_stats)
    }

    /// Rebuilds the flat inbox arena from the current outboxes: counts per
    /// receiver, prefix sums, then a fill pass over disjoint arena segments.
    /// With `fault_round` set, deliveries the installed fault plan suppresses
    /// in that round are excluded at build time, so the arena only ever
    /// contains surviving packets.
    fn build_inboxes(&mut self, fault_round: Option<usize>) {
        let n = self.graph.num_vertices();
        let ids = &self.ids;
        let outboxes = &self.outboxes;
        let nbr_offsets = &self.nbr_offsets;
        let delivery_order = &self.delivery_order;
        let fault = fault_round.and_then(|round| self.fault.as_ref().map(|plan| (plan, round)));
        let delivers = move |u: Vertex, w: usize| -> bool {
            match fault {
                Some((plan, round)) => plan.delivers(round, u, w as Vertex),
                None => true,
            }
        };

        // How many messages does receiver `w` get this round?
        let count_for = |w: usize| -> u32 {
            let mut count = 0u32;
            for &u in &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize] {
                match &outboxes[u as usize] {
                    Outgoing::Silent => {}
                    Outgoing::Broadcast(_) => {
                        if delivers(u, w) {
                            count += 1;
                        }
                    }
                    Outgoing::Unicast(messages) => {
                        if delivers(u, w) {
                            count += bedom_graph::cast::u32_from_usize(
                                messages.iter().filter(|(t, _)| *t == ids[w]).count(),
                            );
                        }
                    }
                }
            }
            count
        };
        // Fill counts shifted by one, then prefix-sum in place: offsets[w] /
        // offsets[w + 1] end up delimiting receiver w's arena segment.
        self.inbox_offsets[0] = 0;
        self.strategy
            .apply(&mut self.inbox_offsets[1..], |w, slot| *slot = count_for(w));
        for w in 0..n {
            self.inbox_offsets[w + 1] += self.inbox_offsets[w];
        }
        let total = self.inbox_offsets[n] as usize;
        self.inbox_arena.clear();
        self.inbox_arena.resize(total, Packet::default());

        // Fill receiver segments; contiguous receiver chunks own disjoint
        // arena slices, so the fill parallelises without synchronisation.
        let offsets = &self.inbox_offsets;
        let fill_receiver = |w: usize, segment: &mut [Packet]| {
            let mut cursor = 0;
            for &u in &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize] {
                match &outboxes[u as usize] {
                    Outgoing::Silent => {}
                    Outgoing::Broadcast(_) => {
                        if delivers(u, w) {
                            segment[cursor] = Packet {
                                from: ids[u as usize],
                                sender: u,
                                unicast_idx: 0,
                            };
                            cursor += 1;
                        }
                    }
                    Outgoing::Unicast(messages) => {
                        if delivers(u, w) {
                            for (k, (target, _)) in messages.iter().enumerate() {
                                if *target == ids[w] {
                                    segment[cursor] = Packet {
                                        from: ids[u as usize],
                                        sender: u,
                                        unicast_idx: bedom_graph::cast::u32_from_usize(k),
                                    };
                                    cursor += 1;
                                }
                            }
                        }
                    }
                }
            }
            debug_assert_eq!(cursor, segment.len());
        };
        let threads = self.strategy.threads_for(n);
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let mut jobs: Vec<(usize, &mut [Packet])> = Vec::with_capacity(threads);
        let mut rest: &mut [Packet] = &mut self.inbox_arena;
        let mut consumed = 0usize;
        let mut w = 0usize;
        while w < n {
            let end = (w + chunk).min(n);
            let slice_end = offsets[end] as usize;
            let (head, tail) = rest.split_at_mut(slice_end - consumed);
            jobs.push((w, head));
            rest = tail;
            consumed = slice_end;
            w = end;
        }
        self.strategy.run_jobs(jobs, |(start_w, mut slice)| {
            let mut w = start_w;
            while !slice.is_empty() {
                let len = (offsets[w + 1] - offsets[w]) as usize;
                let (segment, tail) = slice.split_at_mut(len);
                fill_receiver(w, segment);
                slice = tail;
                w += 1;
            }
        });
    }

    /// Captures the complete execution state — node state machines, pending
    /// outboxes, statistics — as a [`NetworkSnapshot`]. Restoring it into a
    /// network built over the same graph (same factory, model, ids and
    /// strategy) resumes the run **bit-identically**: the delivery buffers
    /// are rebuilt from the restored outboxes, so nothing observable depends
    /// on when the snapshot was taken. This is the checkpoint primitive
    /// behind [`crate::engine::SnapshotObserver`].
    pub fn snapshot(&self) -> NetworkSnapshot<A>
    where
        A: Clone,
        A::Message: Clone,
    {
        NetworkSnapshot {
            nodes: self.nodes.clone(),
            outboxes: self.outboxes.clone(),
            stats: self.stats.clone(),
            initialized: self.initialized,
        }
    }

    /// Restores the execution state captured by [`Network::snapshot`].
    /// The network must be built over a graph of the same size (the intended
    /// use is an identically-constructed network; nothing else is meaningful).
    ///
    /// # Panics
    /// Panics if the snapshot's vertex count differs from this network's.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot<A>)
    where
        A: Clone,
        A::Message: Clone,
    {
        assert_eq!(
            snapshot.nodes.len(),
            self.graph.num_vertices(),
            "snapshot is for a {}-vertex network, this one has {}",
            snapshot.nodes.len(),
            self.graph.num_vertices()
        );
        self.nodes = snapshot.nodes.clone();
        self.outboxes = snapshot.outboxes.clone();
        for slot in &mut self.next_outboxes {
            *slot = Outgoing::Silent;
        }
        self.inbox_arena.clear();
        self.stats = snapshot.stats.clone();
        self.initialized = snapshot.initialized;
    }

    /// Collects every vertex's output, indexed by graph vertex.
    pub fn outputs(&self) -> Vec<A::Output> {
        self.nodes
            .iter()
            .zip(self.contexts.iter())
            .map(|(node, ctx)| node.output(ctx))
            .collect()
    }

    /// Immutable access to a vertex's algorithm instance (for white-box
    /// assertions in tests).
    pub fn node(&self, v: Vertex) -> &A {
        &self.nodes[v as usize]
    }

    /// Checks every outbox against the communication model.
    fn validate(
        model: Model,
        n: usize,
        ids: &[u64],
        contexts: &[NodeContext],
        outboxes: &[Outgoing<A::Message>],
        round: usize,
    ) -> Result<(), ModelViolation> {
        let limit = model.max_message_bits(n);
        for (v, out) in outboxes.iter().enumerate() {
            let vertex = ids[v];
            match out {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    if let Some(limit) = limit {
                        let bits = m.size_bits();
                        if bits > limit {
                            return Err(ModelViolation::MessageTooLarge {
                                vertex,
                                round,
                                bits,
                                limit,
                            });
                        }
                    }
                }
                Outgoing::Unicast(messages) => {
                    if model.broadcast_only() {
                        return Err(ModelViolation::UnicastInBroadcastModel { vertex, round });
                    }
                    for (target, m) in messages {
                        if !contexts[v].is_neighbor(*target) {
                            return Err(ModelViolation::NotANeighbor {
                                vertex,
                                target: *target,
                                round,
                            });
                        }
                        if let Some(limit) = limit {
                            let bits = m.size_bits();
                            if bits > limit {
                                return Err(ModelViolation::MessageTooLarge {
                                    vertex,
                                    round,
                                    bits,
                                    limit,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// A checkpoint of a [`Network`]'s execution state, captured by
/// [`Network::snapshot`] and consumed by [`Network::restore`]. Holds the node
/// state machines, the outboxes pending delivery, and the accumulated
/// statistics (including the global round counter); the engine-side delivery
/// buffers are derived state and are rebuilt on resume.
pub struct NetworkSnapshot<A: NodeAlgorithm> {
    pub(crate) nodes: Vec<A>,
    pub(crate) outboxes: Vec<Outgoing<A::Message>>,
    pub(crate) stats: RunStats,
    pub(crate) initialized: bool,
}

impl<A: NodeAlgorithm> NetworkSnapshot<A> {
    /// The global round index at which the snapshot was taken.
    pub fn rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Number of vertices of the snapshotted network.
    pub fn num_vertices(&self) -> usize {
        self.nodes.len()
    }
}

// Manual impl: summarises the snapshot without requiring `A: Debug`.
impl<A: NodeAlgorithm> std::fmt::Debug for NetworkSnapshot<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSnapshot")
            .field("rounds", &self.stats.rounds)
            .field("num_vertices", &self.nodes.len())
            .field("initialized", &self.initialized)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunPolicy, StopReason};
    use crate::model::Model;
    use crate::node::Incoming;
    use bedom_graph::generators::{cycle, grid, path, star};

    /// Flood the maximum id through the network: each vertex repeatedly
    /// broadcasts the largest id it has heard of. After `diameter` rounds
    /// every vertex knows the global maximum — a classic smoke-test protocol.
    pub(crate) struct MaxIdFlood {
        pub best: u64,
        pub changed: bool,
    }

    impl NodeAlgorithm for MaxIdFlood {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.best = ctx.id;
            self.changed = true;
            Outgoing::Broadcast(self.best)
        }

        fn round(
            &mut self,
            _ctx: &NodeContext,
            _round: usize,
            inbox: Inbox<'_, u64>,
        ) -> Outgoing<u64> {
            let incoming_best = inbox.iter().map(|m| *m.payload).max().unwrap_or(0);
            if incoming_best > self.best {
                self.best = incoming_best;
                self.changed = true;
            } else {
                self.changed = false;
            }
            if self.changed {
                Outgoing::Broadcast(self.best)
            } else {
                Outgoing::Silent
            }
        }

        fn output(&self, _ctx: &NodeContext) -> u64 {
            self.best
        }
    }

    fn new_flood(graph: &Graph, model: Model) -> Network<'_, MaxIdFlood> {
        Network::new(graph, model, IdAssignment::Natural, |_, _| MaxIdFlood {
            best: 0,
            changed: false,
        })
    }

    fn run_fixed<A: NodeAlgorithm>(
        net: &mut Network<'_, A>,
        rounds: usize,
    ) -> Result<(), ModelViolation> {
        Engine::new(net).run(RunPolicy::fixed(rounds)).map(|_| ())
    }

    #[test]
    fn max_id_flood_converges_in_diameter_rounds() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 9).unwrap();
        let outputs = net.outputs();
        assert!(outputs.iter().all(|&b| b == 9));
        assert_eq!(net.stats().rounds, 9);
    }

    #[test]
    fn insufficient_rounds_leave_far_vertices_unaware() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 3).unwrap();
        let outputs = net.outputs();
        assert_eq!(outputs[0], 3); // vertex 0 has only heard up to id 3
        assert_eq!(outputs[9], 9);
    }

    #[test]
    fn until_quiet_stops_early() {
        let g = star(20);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        let outcome = Engine::new(&mut net)
            .run(RunPolicy::until_quiet(100))
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Quiet);
        assert!(
            outcome.rounds <= 4,
            "star should converge fast, took {}",
            outcome.rounds
        );
        assert!(net.outputs().iter().all(|&b| b == 19));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = grid(12, 12);
        let mut seq = new_flood(&g, Model::congest_bc_scaled(32));
        seq.set_strategy(ExecutionStrategy::Sequential);
        run_fixed(&mut seq, 30).unwrap();
        let mut par = new_flood(&g, Model::congest_bc_scaled(32));
        par.set_strategy(ExecutionStrategy::Parallel);
        run_fixed(&mut par, 30).unwrap();
        assert_eq!(seq.outputs(), par.outputs());
        assert_eq!(seq.stats().total_bits, par.stats().total_bits);
        assert_eq!(seq.stats().total_deliveries, par.stats().total_deliveries);
    }

    #[test]
    fn stats_account_broadcasts() {
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 1).unwrap();
        let stats = net.stats();
        assert_eq!(stats.rounds, 1);
        // Round 1 delivers the init-round broadcasts of all 6 vertices.
        assert_eq!(stats.per_round[0].senders, 6);
        assert_eq!(stats.per_round[0].deliveries, 12);
        assert_eq!(stats.max_message_bits, 64);
    }

    /// An algorithm that records its whole inbox, to pin down delivery order.
    struct InboxRecorder {
        seen: Vec<(u64, u64)>,
    }

    impl NodeAlgorithm for InboxRecorder {
        type Message = u64;
        type Output = Vec<(u64, u64)>;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            Outgoing::Broadcast(ctx.id * 100)
        }

        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            for Incoming { from, payload } in inbox {
                self.seen.push((from, *payload));
            }
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) -> Vec<(u64, u64)> {
            self.seen.clone()
        }
    }

    #[test]
    fn delivery_order_is_sorted_by_sender_id_even_with_shuffled_ids() {
        let g = star(8);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Shuffled(3), |_, _| {
            InboxRecorder { seen: Vec::new() }
        });
        run_fixed(&mut net, 1).unwrap();
        for (v, seen) in net.outputs().into_iter().enumerate() {
            let froms: Vec<u64> = seen.iter().map(|&(f, _)| f).collect();
            let mut sorted = froms.clone();
            sorted.sort_unstable();
            assert_eq!(froms, sorted, "vertex {v} saw unsorted inbox");
            for (from, payload) in seen {
                assert_eq!(payload, from * 100);
            }
        }
    }

    /// An algorithm that (incorrectly) unicasts, to exercise model checking.
    struct BadUnicaster;

    impl NodeAlgorithm for BadUnicaster {
        type Message = u64;
        type Output = ();

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            match ctx.neighbor_ids.first() {
                Some(&t) => Outgoing::Unicast(vec![(t, ctx.id)]),
                None => Outgoing::Silent,
            }
        }

        fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) {}
    }

    #[test]
    fn unicast_rejected_in_broadcast_model_but_allowed_in_congest() {
        let g = path(5);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| {
            BadUnicaster
        });
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::UnicastInBroadcastModel { .. }
        ));

        let mut net = Network::new(
            &g,
            Model::Congest { bandwidth_logs: 64 },
            IdAssignment::Natural,
            |_, _| BadUnicaster,
        );
        run_fixed(&mut net, 1).unwrap();
    }

    /// An algorithm whose message grows past any bandwidth limit.
    struct Bloater;

    impl NodeAlgorithm for Bloater {
        type Message = Vec<u64>;
        type Output = ();

        fn init(&mut self, _ctx: &NodeContext) -> Outgoing<Vec<u64>> {
            Outgoing::Broadcast(vec![0; 64])
        }

        fn round(
            &mut self,
            _: &NodeContext,
            _: usize,
            _: Inbox<'_, Vec<u64>>,
        ) -> Outgoing<Vec<u64>> {
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) {}
    }

    #[test]
    fn oversized_message_rejected_in_congest_but_fine_in_local() {
        let g = path(8);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| {
            Bloater
        });
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(err, ModelViolation::MessageTooLarge { .. }));

        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| Bloater);
        run_fixed(&mut net, 1).unwrap();
    }

    #[test]
    fn addressing_non_neighbor_is_rejected() {
        struct WrongTarget;
        impl NodeAlgorithm for WrongTarget {
            type Message = u64;
            type Output = ();
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                // Vertex 0 addresses id 4, which is not adjacent on a path of 5.
                if ctx.id == 0 {
                    Outgoing::Unicast(vec![(4, 1)])
                } else {
                    Outgoing::Silent
                }
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) {}
        }
        let g = path(5);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| WrongTarget);
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::NotANeighbor { target: 4, .. }
        ));
    }

    #[test]
    fn shuffled_ids_still_converge_to_global_max() {
        let g = grid(8, 8);
        let mut net = Network::new(
            &g,
            Model::congest_bc_scaled(32),
            IdAssignment::Shuffled(5),
            |_, _| MaxIdFlood {
                best: 0,
                changed: false,
            },
        );
        run_fixed(&mut net, 20).unwrap();
        assert!(net.outputs().iter().all(|&b| b == 63));
    }

    #[test]
    fn dropped_broadcasts_move_from_deliveries_to_dropped() {
        use crate::fault::FaultPlan;
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.set_fault_plan(FaultPlan::seeded(1).drop_messages(1.0).during(1, 2));
        run_fixed(&mut net, 2).unwrap();
        let stats = net.stats();
        // Round 1: every init broadcast offered, none delivered.
        assert_eq!(stats.per_round[0].senders, 6);
        assert_eq!(stats.per_round[0].deliveries, 0);
        assert_eq!(stats.per_round[0].dropped_deliveries, 12);
        assert!(
            stats.per_round[0].bits_sent > 0,
            "senders still pay the wire"
        );
        // Round 2 is outside the fault window; nobody heard anything in
        // round 1, so nobody has news to flood and the round is silent.
        assert_eq!(stats.per_round[1].dropped_deliveries, 0);
        assert_eq!(stats.dropped_deliveries, 12);
    }

    #[test]
    fn crashed_vertex_freezes_and_blocks_the_flood() {
        use crate::fault::FaultPlan;
        let g = path(10);
        // Vertex 5 is down for the whole run: the max id 9 cannot cross it.
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.set_fault_plan(FaultPlan::seeded(0).crash(5, 1, 100));
        run_fixed(&mut net, 9).unwrap();
        let outputs = net.outputs();
        assert!(
            outputs[..5].iter().all(|&b| b <= 4),
            "flood crossed a crashed vertex"
        );
        assert_eq!(outputs[5], 5, "crashed vertex keeps its frozen init state");
        assert!(outputs[6..].iter().all(|&b| b == 9));
        assert_eq!(net.stats().crashed_vertex_rounds, 9);
        assert!(net.stats().dropped_deliveries > 0);
    }

    #[test]
    fn crash_window_end_restores_the_vertex() {
        use crate::fault::FaultPlan;
        // A flood that re-broadcasts its best every round: unlike the
        // event-driven `MaxIdFlood` (whose neighbours fall silent and never
        // retransmit), it keeps offering state to a restored vertex.
        struct ChattyFlood(u64);
        impl NodeAlgorithm for ChattyFlood {
            type Message = u64;
            type Output = u64;
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                self.0 = ctx.id;
                Outgoing::Broadcast(self.0)
            }
            fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
                self.0 = inbox.iter().map(|m| *m.payload).fold(self.0, u64::max);
                Outgoing::Broadcast(self.0)
            }
            fn output(&self, _: &NodeContext) -> u64 {
                self.0
            }
        }
        let g = path(5);
        let mut net = Network::new(
            &g,
            Model::congest_bc_scaled(32),
            IdAssignment::Natural,
            |_, _| ChattyFlood(0),
        );
        net.set_fault_plan(FaultPlan::seeded(0).crash(2, 1, 3));
        run_fixed(&mut net, 10).unwrap();
        // After the restore round the flood crosses the revived vertex and
        // still converges everywhere.
        assert!(net.outputs().iter().all(|&b| b == 4));
        assert_eq!(net.stats().crashed_vertex_rounds, 2);
    }

    #[test]
    fn unicast_arena_honours_the_fault_plan() {
        use crate::fault::FaultPlan;
        struct UniFloodState(usize);
        impl NodeAlgorithm for UniFloodState {
            type Message = u64;
            type Output = usize;
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                Outgoing::Unicast(ctx.neighbor_ids.iter().map(|&t| (t, ctx.id)).collect())
            }
            fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
                self.0 = inbox.len();
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) -> usize {
                self.0
            }
        }
        let g = cycle(6);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| {
            UniFloodState(usize::MAX)
        });
        net.set_fault_plan(FaultPlan::seeded(0).crash(3, 1, 2));
        run_fixed(&mut net, 1).unwrap();
        let outputs = net.outputs();
        // Vertex 3 crashed: it received nothing (state frozen at MAX) and
        // its two unicasts were lost, so its neighbours got one message.
        assert_eq!(outputs[3], usize::MAX);
        assert_eq!(outputs[2], 1);
        assert_eq!(outputs[4], 1);
        assert_eq!(outputs[0], 2);
        let stats = net.stats();
        // The crashed sender's queued unicasts are silenced before they
        // reach the wire (a dead vertex offers nothing), so only the two
        // messages inbound to the crashed vertex count as dropped.
        assert_eq!(stats.per_round[0].dropped_deliveries, 2);
        assert_eq!(stats.per_round[0].senders, 5);
        assert_eq!(stats.per_round[0].deliveries, 8);
        assert_eq!(stats.per_round[0].crashed, 1);
    }

    #[test]
    fn faulty_runs_are_bit_identical_across_strategies() {
        use crate::fault::FaultPlan;
        let g = grid(10, 10);
        let plan = FaultPlan::seeded(0xfa57)
            .drop_messages(0.2)
            .link_outages(0.05)
            .crash(17, 2, 5);
        let run = |strategy: ExecutionStrategy| {
            let mut net = new_flood(&g, Model::congest_bc_scaled(32));
            net.set_strategy(strategy);
            net.set_fault_plan(plan.clone());
            run_fixed(&mut net, 25).unwrap();
            (net.outputs(), net.stats().clone())
        };
        let seq = run(ExecutionStrategy::Sequential);
        let par = run(ExecutionStrategy::Parallel);
        assert_eq!(seq, par);
        assert!(seq.1.dropped_deliveries > 0, "the plan should bite");
    }

    #[test]
    fn multiple_unicasts_to_same_receiver_arrive_in_send_order() {
        struct DoubleSender;
        impl NodeAlgorithm for DoubleSender {
            type Message = u64;
            type Output = Vec<u64>;
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                if ctx.id == 0 {
                    Outgoing::Unicast(vec![(1, 10), (1, 20)])
                } else {
                    Outgoing::Silent
                }
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) -> Vec<u64> {
                Vec::new()
            }
        }
        let g = path(3);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| DoubleSender);
        net.init().unwrap();
        let stats = net.step().unwrap();
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.senders, 1);
    }
}
