//! The shared flat weak-reachability index — **one** ball sweep per
//! `(graph, order, radius)` serving every consumer of weak reachability.
//!
//! Theorem 5's linear-time claim rests on computing the clusters
//! `X_u = { w : u ∈ WReach_r[G, L, w] }` once and reusing them. The seed code
//! instead re-ran all `n` restricted BFSes (each with a fresh `vec![false; n]`
//! visited array — `Θ(n²)` memory traffic) in every consumer, and
//! `domset_via_min_wreach` ran the whole sweep twice per call. The
//! [`WReachIndex`] fixes both structurally:
//!
//! * **Epoch-stamped scratch.** The sweep runs one restricted BFS per source
//!   and reuses one [`BfsScratch`](bedom_graph::bfs::BfsScratch) per worker
//!   thread (`bedom_par::ExecutionStrategy::chunk_collect_with`): a `u32`
//!   stamp array reset by bumping an epoch, never re-allocated or re-zeroed
//!   per ball, so the parallel path allocates `O(threads · n)` once instead
//!   of `O(n²)` over the sweep.
//! * **Flat CSR storage.** All restricted balls and their inversion (the
//!   `WReach_r` sets) live in `offsets + data` arrays — no per-vertex `Vec` —
//!   with the restricted-BFS depth stored per entry.
//! * **Compute-once reuse.** `wcol`, `min_wreach`, cover clusters and homes
//!   are all `O(1)`/`O(size)` reads of the same index. Because depths are
//!   stored, an index built at radius `2r` also answers every radius-`r`
//!   query (`WReach_r[w]` is exactly the entries at depth ≤ `r`), which is
//!   how `domset_via_min_wreach` elects dominators *and* measures the
//!   witnessed constant from a single sweep.
//!
//! The sweep is scalar on purpose: a 64-lane word-parallel variant ran at
//! 0.42–0.53× its speed on bounded-expansion instances, because the order
//! restriction leaves few sources sharing a lane word (`BENCH_bitset.json`).

use crate::order::LinearOrder;
use bedom_graph::bfs::BfsScratch;
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;
use std::cell::Cell;

thread_local! {
    static BALL_SWEEPS: Cell<u64> = const { Cell::new(0) };
}

/// Number of full ball sweeps ([`WReachIndex`] builds) performed **on the
/// calling thread** since it started. Used by regression tests to assert
/// that a pipeline performs exactly one sweep per `(graph, order, radius)`;
/// thread-local so concurrently running tests cannot disturb each other.
pub fn ball_sweeps_on_this_thread() -> u64 {
    BALL_SWEEPS.with(Cell::get)
}

/// Depth-`r` BFS from `u` restricted to vertices `≥_L u` (the paper's
/// Algorithm 3), driven through a reusable [`BfsScratch`]. Afterwards
/// `scratch.entries()` holds the ball — the cluster `X_u` for parameter `r` —
/// sorted by vertex id, each entry paired with its restricted-BFS depth
/// (= the restricted distance from `u`). Always contains `(u, 0)`.
pub fn restricted_ball_into(
    graph: &Graph,
    order: &LinearOrder,
    u: Vertex,
    r: u32,
    scratch: &mut BfsScratch,
) {
    scratch.begin();
    scratch.try_visit(u, 0);
    let mut head = 0;
    while let Some(&(x, d)) = scratch.entries().get(head) {
        head += 1;
        if d >= r {
            continue;
        }
        for &w in graph.neighbors(x) {
            if order.less(u, w) {
                scratch.try_visit(w, d + 1);
            }
        }
    }
    scratch.sort_entries_by_vertex();
}

/// Per-chunk output of the scalar ball sweep: the ragged ball lengths plus
/// the concatenated entries, appended in source-id order.
struct BallChunk {
    lens: Vec<u32>,
    vertices: Vec<Vertex>,
    depths: Vec<u32>,
}

/// The flat weak-reachability index for one `(graph, order, radius)` triple.
///
/// Both directions of the weak-reachability relation are stored in CSR form
/// (`offsets: Vec<usize>` + flat data arrays, no per-vertex `Vec`):
///
/// * `ball(u)` — the cluster `X_u = { w : u ∈ WReach_radius[w] }`, sorted by
///   vertex id;
/// * `wreach(v)` — the set `WReach_radius[G, L, v]`, sorted by vertex id
///   (the inversion is filled by a counting sort over sources in increasing
///   id, so the sortedness is free).
///
/// Every entry carries its restricted-BFS depth, so all radius-`r'` views
/// with `r' ≤ radius` are answered from the same sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WReachIndex {
    radius: u32,
    /// `rank[v]` = position of `v` in the order (copied so the index is
    /// self-contained for `L`-minimum queries).
    rank: Vec<u32>,
    ball_offsets: Vec<usize>,
    ball_vertices: Vec<Vertex>,
    ball_depths: Vec<u32>,
    wreach_offsets: Vec<usize>,
    wreach_vertices: Vec<Vertex>,
    wreach_depths: Vec<u32>,
    /// `min_wreach[w]` = the `L`-minimum of `WReach_radius[w]` (Equation (2)).
    min_wreach: Vec<Vertex>,
}

impl WReachIndex {
    /// Builds the index with the size-gated automatic execution strategy.
    pub fn build(graph: &Graph, order: &LinearOrder, radius: u32) -> Self {
        Self::build_with(
            graph,
            order,
            radius,
            ExecutionStrategy::auto_for(graph.num_vertices()),
        )
    }

    /// Builds the index with one restricted BFS per source
    /// ([`restricted_ball_into`]), chunked across workers with one
    /// epoch-stamped scratch per worker. The balls are concatenated in
    /// source-id order, so every strategy yields the same index. The
    /// inversion is a counting sort: `u ∈ WReach[w]` iff `w ∈ ball(u)`, and
    /// scanning sources in increasing id appends each `WReach` list already
    /// sorted; the `L`-minimum of each list is folded in on the way.
    pub fn build_with(
        graph: &Graph,
        order: &LinearOrder,
        radius: u32,
        strategy: ExecutionStrategy,
    ) -> Self {
        let n = graph.num_vertices();
        assert_eq!(order.len(), n, "order and graph sizes differ");
        BALL_SWEEPS.with(|c| c.set(c.get() + 1));

        let chunks: Vec<BallChunk> = strategy.chunk_collect_with(
            n,
            || BfsScratch::new(n),
            |scratch, range| {
                let mut chunk = BallChunk {
                    lens: Vec::with_capacity(range.len()),
                    vertices: Vec::new(),
                    depths: Vec::new(),
                };
                for u in range {
                    restricted_ball_into(graph, order, u as Vertex, radius, scratch);
                    chunk.lens.push(scratch.entries().len() as u32);
                    chunk
                        .vertices
                        .extend(scratch.entries().iter().map(|&(w, _)| w));
                    chunk
                        .depths
                        .extend(scratch.entries().iter().map(|&(_, d)| d));
                }
                chunk
            },
        );

        let total: usize = chunks.iter().map(|c| c.vertices.len()).sum();
        let mut ball_offsets = Vec::with_capacity(n + 1);
        ball_offsets.push(0usize);
        let mut ball_vertices = Vec::with_capacity(total);
        let mut ball_depths = Vec::with_capacity(total);
        for chunk in chunks {
            for len in chunk.lens {
                ball_offsets.push(ball_offsets.last().unwrap() + len as usize);
            }
            ball_vertices.extend_from_slice(&chunk.vertices);
            ball_depths.extend_from_slice(&chunk.depths);
        }

        let rank: Vec<u32> = (0..n).map(|v| order.rank(v as Vertex)).collect();
        let mut wreach_offsets = vec![0usize; n + 1];
        for &w in &ball_vertices {
            wreach_offsets[w as usize + 1] += 1;
        }
        for i in 0..n {
            wreach_offsets[i + 1] += wreach_offsets[i];
        }
        let mut cursor: Vec<usize> = wreach_offsets[..n].to_vec();
        let mut wreach_vertices = vec![0 as Vertex; total];
        let mut wreach_depths = vec![0u32; total];
        let mut min_wreach: Vec<Vertex> = (0..n as Vertex).collect();
        for u in 0..n {
            for i in ball_offsets[u]..ball_offsets[u + 1] {
                let w = ball_vertices[i] as usize;
                let slot = cursor[w];
                cursor[w] = slot + 1;
                wreach_vertices[slot] = u as Vertex;
                wreach_depths[slot] = ball_depths[i];
                if rank[u] < rank[min_wreach[w] as usize] {
                    min_wreach[w] = u as Vertex;
                }
            }
        }

        WReachIndex {
            radius,
            rank,
            ball_offsets,
            ball_vertices,
            ball_depths,
            wreach_offsets,
            wreach_vertices,
            wreach_depths,
            min_wreach,
        }
    }

    /// The radius the sweep was run at. Every `*_at(r)` query with
    /// `r ≤ radius` is answered from the stored depths.
    #[inline]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.ball_offsets.len() - 1
    }

    /// Total number of stored (ball, member) incidences — the `Σ_v |X_v|`
    /// that bounds the index memory and equals `Σ_v |WReach[v]|`.
    #[inline]
    pub fn total_entries(&self) -> usize {
        self.ball_vertices.len()
    }

    /// The cluster `X_u` (the restricted ball of `u` at the build radius),
    /// sorted by vertex id. `O(1)`.
    #[inline]
    pub fn ball(&self, u: Vertex) -> &[Vertex] {
        let u = u as usize;
        &self.ball_vertices[self.ball_offsets[u]..self.ball_offsets[u + 1]]
    }

    /// Restricted-BFS depths aligned with [`WReachIndex::ball`].
    #[inline]
    pub fn ball_depths(&self, u: Vertex) -> &[u32] {
        let u = u as usize;
        &self.ball_depths[self.ball_offsets[u]..self.ball_offsets[u + 1]]
    }

    /// Borrowed iterator over the cluster `X_u` for `r ≤ radius`, in
    /// ascending vertex id — the allocation-free form of
    /// [`WReachIndex::ball_at`] for hot query paths (depth filtering
    /// preserves the stored order).
    pub fn ball_iter_at(&self, u: Vertex, r: u32) -> impl Iterator<Item = Vertex> + '_ {
        self.assert_radius(r);
        self.ball(u)
            .iter()
            .zip(self.ball_depths(u))
            .filter(move |&(_, &d)| d <= r)
            .map(|(&w, _)| w)
    }

    /// Fills `out` (cleared first) with the cluster `X_u` for `r ≤ radius`,
    /// sorted by vertex id — the caller-buffer form of
    /// [`WReachIndex::ball_at`] for loops that reuse one buffer.
    pub fn ball_at_into(&self, u: Vertex, r: u32, out: &mut Vec<Vertex>) {
        out.clear();
        out.extend(self.ball_iter_at(u, r));
    }

    /// The cluster `X_u` for a smaller radius `r ≤ radius`, materialised
    /// sorted by vertex id (at the full radius this is a straight copy of
    /// the CSR slice). Allocates the result; query loops should use
    /// [`WReachIndex::ball_iter_at`] or [`WReachIndex::ball_at_into`].
    pub fn ball_at(&self, u: Vertex, r: u32) -> Vec<Vertex> {
        self.assert_radius(r);
        if r >= self.radius {
            return self.ball(u).to_vec();
        }
        self.ball_iter_at(u, r).collect()
    }

    /// `WReach_radius[G, L, v]`, sorted by vertex id. `O(1)`.
    #[inline]
    pub fn wreach(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.wreach_vertices[self.wreach_offsets[v]..self.wreach_offsets[v + 1]]
    }

    /// Restricted-BFS depths aligned with [`WReachIndex::wreach`]: the entry
    /// for `u ∈ WReach[v]` holds the restricted distance from `u` to `v`.
    #[inline]
    pub fn wreach_depths(&self, v: Vertex) -> &[u32] {
        let v = v as usize;
        &self.wreach_depths[self.wreach_offsets[v]..self.wreach_offsets[v + 1]]
    }

    /// `|WReach_radius[v]|`. `O(1)`.
    #[inline]
    pub fn wreach_size(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.wreach_offsets[v + 1] - self.wreach_offsets[v]
    }

    /// Borrowed iterator over `WReach_r[G, L, v]` for `r ≤ radius`, in
    /// ascending vertex id — the allocation-free form of
    /// [`WReachIndex::wreach_at`] for hot verification paths.
    pub fn wreach_iter_at(&self, v: Vertex, r: u32) -> impl Iterator<Item = Vertex> + '_ {
        self.assert_radius(r);
        self.wreach(v)
            .iter()
            .zip(self.wreach_depths(v))
            .filter(move |&(_, &d)| d <= r)
            .map(|(&u, _)| u)
    }

    /// Fills `out` (cleared first) with `WReach_r[G, L, v]` for
    /// `r ≤ radius`, sorted by vertex id — the caller-buffer form of
    /// [`WReachIndex::wreach_at`].
    pub fn wreach_at_into(&self, v: Vertex, r: u32, out: &mut Vec<Vertex>) {
        out.clear();
        out.extend(self.wreach_iter_at(v, r));
    }

    /// `WReach_r[G, L, v]` for `r ≤ radius`, materialised sorted by vertex
    /// id. Allocates the result; query loops should use
    /// [`WReachIndex::wreach_iter_at`] or [`WReachIndex::wreach_at_into`].
    pub fn wreach_at(&self, v: Vertex, r: u32) -> Vec<Vertex> {
        self.assert_radius(r);
        if r >= self.radius {
            return self.wreach(v).to_vec();
        }
        self.wreach_iter_at(v, r).collect()
    }

    /// The weak colouring number witnessed by the order at the build radius:
    /// `max_v |WReach_radius[v]|` (0 for the empty graph). `O(n)`.
    pub fn wcol(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.wreach_size(v as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// `max_v |WReach_r[v]|` for `r ≤ radius`, by scanning the stored depths.
    pub fn wcol_at(&self, r: u32) -> usize {
        self.assert_radius(r);
        if r >= self.radius {
            return self.wcol();
        }
        (0..self.num_vertices())
            .map(|v| {
                self.wreach_depths(v as Vertex)
                    .iter()
                    .filter(|&&d| d <= r)
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// `(max, mean)` of the `|WReach_radius[v]|` distribution.
    pub fn wcol_profile(&self) -> (usize, f64) {
        let n = self.num_vertices();
        if n == 0 {
            return (0, 0.0);
        }
        (self.wcol(), self.total_entries() as f64 / n as f64)
    }

    /// `min WReach_radius[G, L, w]` for every `w` — the dominator each vertex
    /// elects in the paper's construction (Equation (2)). `O(1)`.
    #[inline]
    pub fn min_wreach(&self) -> &[Vertex] {
        &self.min_wreach
    }

    /// Consumes the index, returning the precomputed elected dominators.
    pub fn into_min_wreach(self) -> Vec<Vertex> {
        self.min_wreach
    }

    /// `min WReach_r[G, L, w]` for every `w`, for `r ≤ radius` — how an index
    /// built at `2r` serves the Theorem 5 election at radius `r`.
    pub fn min_wreach_at(&self, r: u32) -> Vec<Vertex> {
        self.assert_radius(r);
        if r >= self.radius {
            return self.min_wreach.clone();
        }
        (0..self.num_vertices() as Vertex)
            .map(|w| {
                let mut best = w;
                for (&u, &d) in self.wreach(w).iter().zip(self.wreach_depths(w)) {
                    if d <= r && self.rank[u as usize] < self.rank[best as usize] {
                        best = u;
                    }
                }
                best
            })
            .collect()
    }

    /// One-sided distance-`r` domination certificates from the index, for
    /// `r ≤ radius`: entry `v` is `true` when some member of the set provably
    /// lies within distance `r` of `v` — `v` itself is a member, or a member
    /// `u ∈ WReach_r[v]` (the stored restricted `u → v` path has `≤ r`
    /// edges), or `v ∈ WReach_r[u]` for a member `u` (the stored `v → u`
    /// path certifies the same distance). `false` is *inconclusive*, not a
    /// refutation: restricted paths only upper-bound true distances, so a
    /// dominator connected to `v` exclusively through unrestricted paths
    /// leaves `v` uncertified. An `O(total_entries)` read, no sweep — the
    /// cheap simulation-side verification the distributed pipelines use
    /// before falling back to a full BFS check for the uncertified rest.
    ///
    /// # Panics
    /// Panics if `in_set.len()` differs from the vertex count or if
    /// `r > radius` (an oversized query would silently certify from
    /// truncated balls).
    pub fn certified_dominated(&self, r: u32, in_set: &[bool]) -> Vec<bool> {
        self.assert_radius(r);
        let n = self.num_vertices();
        assert_eq!(in_set.len(), n, "membership slice and graph sizes differ");
        let mut certified: Vec<bool> = in_set.to_vec();
        // Direction 1: a set member weakly reaches v within r (the stored
        // path runs member → v).
        for (v, cert) in certified.iter_mut().enumerate() {
            if *cert {
                continue;
            }
            let hit = self
                .wreach(v as Vertex)
                .iter()
                .zip(self.wreach_depths(v as Vertex))
                .any(|(&u, &d)| d <= r && in_set[u as usize]);
            if hit {
                *cert = true;
            }
        }
        // Direction 2: v weakly reaches a set member within r (the stored
        // path runs v → member) — every w ∈ WReach_r[u] of a member u sits
        // within distance r of u. One walk over members' WReach lists.
        for (u, _) in in_set.iter().enumerate().filter(|&(_, &member)| member) {
            for (&w, &d) in self
                .wreach(u as Vertex)
                .iter()
                .zip(self.wreach_depths(u as Vertex))
            {
                if d <= r {
                    certified[w as usize] = true;
                }
            }
        }
        certified
    }

    /// Whether the index certifies `in_set` as a full distance-`r`
    /// dominating set (every vertex certified — see
    /// [`WReachIndex::certified_dominated`]; one-sided: `false` means
    /// *inconclusive*).
    pub fn certifies_domination(&self, r: u32, in_set: &[bool]) -> bool {
        self.certified_dominated(r, in_set).into_iter().all(|c| c)
    }

    /// Number of vertices whose distance-`r` domination by `in_set` the
    /// index certifies (see [`WReachIndex::certified_dominated`]; one-sided,
    /// no sweep). Equal to the vertex count exactly when
    /// [`WReachIndex::certifies_domination`] holds — the count the
    /// simulation-side reports expose.
    pub fn certified_count(&self, r: u32, in_set: &[bool]) -> usize {
        self.certified_dominated(r, in_set)
            .into_iter()
            .filter(|&c| c)
            .count()
    }

    /// Materialises all `WReach_radius` sets as ragged `Vec`s — the
    /// compatibility view behind the legacy
    /// [`weak_reachability_sets`](crate::wreach::weak_reachability_sets)
    /// entry point. New code should read the CSR slices directly.
    pub fn wreach_sets(&self) -> Vec<Vec<Vertex>> {
        (0..self.num_vertices() as Vertex)
            .map(|v| self.wreach(v).to_vec())
            .collect()
    }

    #[inline]
    fn assert_radius(&self, r: u32) {
        assert!(
            r <= self.radius,
            "radius-{r} query on a WReachIndex built at radius {}",
            self.radius
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::{cycle, path, stacked_triangulation};
    use bedom_graph::graph_from_edges;

    fn reverse_order(n: usize) -> LinearOrder {
        LinearOrder::from_order((0..n as Vertex).rev().collect())
    }

    #[test]
    fn index_on_path_with_identity_order() {
        let g = path(5);
        let order = LinearOrder::identity(5);
        let index = WReachIndex::build(&g, &order, 2);
        assert_eq!(index.wreach(0), &[0]);
        assert_eq!(index.wreach(2), &[0, 1, 2]);
        assert_eq!(index.wreach(4), &[2, 3, 4]);
        assert_eq!(index.wcol(), 3);
        assert_eq!(index.ball(2), &[2, 3, 4]);
        assert_eq!(index.ball_depths(2), &[0, 1, 2]);
        assert_eq!(index.min_wreach(), &[0, 0, 0, 1, 2]);
    }

    #[test]
    fn depth_filtered_views_match_smaller_radius_builds() {
        let g = stacked_triangulation(60, 9);
        let order = crate::heuristics::degeneracy_based_order(&g);
        let big = WReachIndex::build(&g, &order, 4);
        for r in 0..=4u32 {
            let small = WReachIndex::build(&g, &order, r);
            assert_eq!(big.wcol_at(r), small.wcol(), "r = {r}");
            assert_eq!(big.min_wreach_at(r), small.min_wreach(), "r = {r}");
            for v in g.vertices() {
                assert_eq!(big.wreach_at(v, r), small.wreach(v), "r = {r}, v = {v}");
                assert_eq!(big.ball_at(v, r), small.ball(v), "r = {r}, v = {v}");
            }
        }
    }

    #[test]
    fn ball_respects_order_restriction() {
        let g = path(6);
        let order = reverse_order(6);
        // From 3, only vertices ≥_L 3 (= ids ≤ 3) are usable.
        let index = WReachIndex::build(&g, &order, 2);
        assert_eq!(index.ball(3), &[1, 2, 3]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Graph::empty(0);
        let index = WReachIndex::build(&empty, &LinearOrder::identity(0), 3);
        assert_eq!(index.num_vertices(), 0);
        assert_eq!(index.wcol(), 0);
        assert_eq!(index.wcol_profile(), (0, 0.0));
        assert!(index.min_wreach().is_empty());

        let single = Graph::empty(1);
        let index = WReachIndex::build(&single, &LinearOrder::identity(1), 2);
        assert_eq!(index.wreach(0), &[0]);
        assert_eq!(index.wcol(), 1);
    }

    #[test]
    fn radius_zero_is_self_only() {
        let g = cycle(7);
        let order = reverse_order(7);
        let index = WReachIndex::build(&g, &order, 0);
        for v in g.vertices() {
            assert_eq!(index.wreach(v), &[v]);
            assert_eq!(index.ball(v), &[v]);
        }
        assert_eq!(index.wcol(), 1);
    }

    #[test]
    #[should_panic(expected = "built at radius")]
    fn querying_beyond_the_build_radius_panics() {
        let g = path(4);
        let index = WReachIndex::build(&g, &LinearOrder::identity(4), 1);
        index.wcol_at(2);
    }

    #[test]
    fn sweep_counter_increments_once_per_build() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let order = LinearOrder::identity(4);
        let before = ball_sweeps_on_this_thread();
        let _ = WReachIndex::build(&g, &order, 2);
        let _ = WReachIndex::build(&g, &order, 1);
        assert_eq!(ball_sweeps_on_this_thread() - before, 2);
    }

    #[test]
    fn domination_certificates_are_sound_and_certify_the_min_wreach_set() {
        let g = stacked_triangulation(80, 7);
        let order = crate::heuristics::degeneracy_based_order(&g);
        for r in 1..=2u32 {
            let index = WReachIndex::build(&g, &order, 2 * r);
            // The paper's own construction D = { min WReach_r[w] } is fully
            // certified via direction 1 (each w elects from WReach_r[w]).
            let elected = index.min_wreach_at(r);
            let mut in_set = vec![false; g.num_vertices()];
            for &d in &elected {
                in_set[d as usize] = true;
            }
            assert!(index.certifies_domination(r, &in_set), "r = {r}");
            // Soundness: every certified vertex really is within distance r
            // of the set (checked against plain BFS distances).
            let members: Vec<Vertex> = g.vertices().filter(|&v| in_set[v as usize]).collect();
            let dist = bedom_graph::bfs::multi_source_distances(&g, &members);
            let certified = index.certified_dominated(r, &in_set);
            for v in g.vertices() {
                if certified[v as usize] {
                    assert!(dist[v as usize] <= r, "r = {r}, v = {v}");
                }
            }
        }
        // The empty set certifies nothing on a non-empty graph.
        let index = WReachIndex::build(&g, &order, 2);
        assert!(!index.certifies_domination(1, &vec![false; g.num_vertices()]));
    }

    #[test]
    fn certificates_are_one_sided() {
        // A dominating set reachable only through unrestricted paths stays
        // uncertified: on a path with the identity order, vertex 0 dominates
        // vertex 1 but 0 ∉ WReach as seen from… pick the reverse order so the
        // certificate must fail somewhere while domination holds.
        let g = path(3);
        let order = LinearOrder::identity(3);
        let index = WReachIndex::build(&g, &order, 1);
        // {1} dominates the whole path at r = 1 and is fully certified
        // (1 ∈ WReach_1[2] and 0 ∈ WReach_1[1]).
        let in_set = vec![false, true, false];
        assert!(index.certifies_domination(1, &in_set));
        // {2} dominates vertex 1 but the certificate sees it only via
        // 1 ∈ WReach_1[2]; vertex 0 is genuinely undominated, so the
        // certificate correctly refuses the full set.
        let in_set = vec![false, false, true];
        let certified = index.certified_dominated(1, &in_set);
        assert_eq!(certified, vec![false, true, true]);
    }

    #[test]
    #[should_panic(expected = "built at radius")]
    fn oversized_certificate_query_panics() {
        let g = path(4);
        let index = WReachIndex::build(&g, &LinearOrder::identity(4), 1);
        let _ = index.certified_dominated(2, &[true, false, false, false]);
    }

    #[test]
    fn sequential_and_parallel_builds_are_identical() {
        let g = stacked_triangulation(300, 5);
        let order = crate::heuristics::degeneracy_based_order(&g);
        let seq = WReachIndex::build_with(&g, &order, 3, ExecutionStrategy::Sequential);
        for strategy in [
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Perturbed(0xfeed),
        ] {
            let other = WReachIndex::build_with(&g, &order, 3, strategy);
            assert_eq!(seq, other, "{strategy:?}");
        }
    }

    #[test]
    fn query_iterators_match_the_materialising_queries() {
        let g = stacked_triangulation(120, 11);
        let order = crate::heuristics::degeneracy_based_order(&g);
        let index = WReachIndex::build(&g, &order, 4);
        let mut buf = Vec::new();
        for r in 0..=4u32 {
            for v in g.vertices() {
                assert_eq!(
                    index.ball_iter_at(v, r).collect::<Vec<_>>(),
                    index.ball_at(v, r),
                    "ball r={r}, v={v}"
                );
                index.wreach_at_into(v, r, &mut buf);
                assert_eq!(buf, index.wreach_at(v, r), "wreach r={r}, v={v}");
                index.ball_at_into(v, r, &mut buf);
                assert_eq!(buf, index.ball_at(v, r), "ball_into r={r}, v={v}");
            }
        }
    }
}
