//! Word-parallel bitset frontier kernel: `u64`-packed multi-source BFS.
//!
//! The scalar traversals in [`bfs`](crate::bfs) advance one source at a time;
//! on a 1-core box the only remaining headroom is doing more work per
//! instruction. This module packs up to 64 sources into the bits of one
//! `u64` *lane word* per vertex and advances all of them across an edge with
//! a handful of word ops — the saturation-style set-valued iteration of
//! symbolic reachability engines, specialised to unrestricted, unweighted
//! BFS:
//!
//! * [`BitMatrix`] — a flat `Vec<u64>` bit-matrix with row stride, the
//!   storage form for reachability rows (`N_r[·]` as bitsets).
//! * [`FrontierSweep`] — the batch kernel. `cur[v]` holds the lanes whose
//!   frontier currently contains `v`; one [`advance`](FrontierSweep::advance)
//!   round performs `next[w] |= cur[x] & ~reached[w]` for every edge
//!   `(x, w)` incident to the frontier, so 64 sources cross an edge per word
//!   op. All per-vertex state is reset in `O(touched)` via a touch list — no
//!   full zeroing between batches.
//! * [`reach_words64`] / [`ReachMatrix`] — closed-`r`-neighbourhood rows
//!   `N_r[v]` built through the kernel; the coverage test of a candidate
//!   dominating set becomes `O(k·n/64)` word ORs against these rows, which
//!   is what lets the exact bitmask oracle and the brute-force validator
//!   ride the same machinery.

use crate::graph::{Graph, Vertex};

/// Bits per lane word.
pub const WORD_BITS: usize = 64;

/// A flat bit-matrix: `rows` rows of `columns` bits each, stored as
/// `stride = ⌈columns/64⌉` little-endian `u64` words per row in one
/// contiguous `Vec<u64>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitMatrix {
    rows: usize,
    columns: usize,
    stride: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero matrix of `rows × columns` bits.
    pub fn zero(rows: usize, columns: usize) -> Self {
        let stride = columns.div_ceil(WORD_BITS);
        BitMatrix {
            rows,
            columns,
            stride,
            data: vec![0u64; rows * stride],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bits per row).
    #[inline]
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Words per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sets bit `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.rows && col < self.columns);
        self.data[row * self.stride + col / WORD_BITS] |= 1u64 << (col % WORD_BITS);
    }

    /// Reads bit `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.columns);
        (self.data[row * self.stride + col / WORD_BITS] >> (col % WORD_BITS)) & 1 == 1
    }

    /// The words of one row.
    #[inline]
    pub fn row(&self, row: usize) -> &[u64] {
        &self.data[row * self.stride..(row + 1) * self.stride]
    }

    /// Mutable words of one row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [u64] {
        &mut self.data[row * self.stride..(row + 1) * self.stride]
    }

    /// `row(dst) |= words` (slice lengths must match the stride).
    #[inline]
    pub fn or_row(&mut self, dst: usize, words: &[u64]) {
        let r = self.row_mut(dst);
        for (a, &b) in r.iter_mut().zip(words) {
            *a |= b;
        }
    }

    /// Popcount of one row.
    pub fn count_row(&self, row: usize) -> usize {
        self.row(row).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set column indices of one row, ascending.
    pub fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(row).iter().enumerate().flat_map(|(j, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(j * WORD_BITS + b)
            })
        })
    }
}

/// Words of per-vertex kernel state: `cur`, `next`, `reached`.
const BLOCK: usize = 3;

/// The word-parallel frontier kernel: up to 64 BFS sources advanced
/// together, one bit lane per source.
///
/// Lifecycle: [`new`](FrontierSweep::new) once per graph size, then per
/// batch [`begin`](FrontierSweep::begin) with the batch's sources and
/// [`run`](FrontierSweep::run) (or explicit
/// [`advance`](FrontierSweep::advance) rounds), then read results through
/// [`touched`](FrontierSweep::touched) and
/// [`reached`](FrontierSweep::reached). All per-vertex state is reset by the
/// next `begin` in `O(touched)` — running many batches through one sweep
/// touches `O(Σ reached)` memory, not `Θ(batches · n)`.
#[derive(Clone, Debug)]
pub struct FrontierSweep {
    /// All per-vertex state, **interleaved** into one [`BLOCK`] per vertex
    /// (`[cur, next, reached]`) so an edge touch costs a single random
    /// memory access instead of three scattered array probes.
    data: Vec<u64>,
    cur_list: Vec<Vertex>,
    next_list: Vec<Vertex>,
    touched: Vec<Vertex>,
}

impl FrontierSweep {
    /// A sweep over graphs of `n` vertices.
    pub fn new(n: usize) -> Self {
        FrontierSweep {
            data: vec![0; n * BLOCK],
            cur_list: Vec::new(),
            next_list: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Starts a new batch: lane `i` is seeded at `sources[i]`. Sources must
    /// be distinct and at most 64. Resets all state of the previous batch in
    /// `O(touched)` via the touch list.
    pub fn begin(&mut self, sources: &[Vertex]) {
        assert!(
            sources.len() <= WORD_BITS,
            "batch of {} sources exceeds the {WORD_BITS}-lane sweep",
            sources.len()
        );
        for &v in &self.touched {
            let base = v as usize * BLOCK;
            self.data[base..base + BLOCK].fill(0);
        }
        self.touched.clear();
        self.cur_list.clear();
        self.next_list.clear();
        for (lane, &u) in sources.iter().enumerate() {
            let base = u as usize * BLOCK;
            let bit = 1u64 << lane;
            debug_assert_eq!(self.data[base + 2] & bit, 0, "duplicate source {u}");
            if self.data[base + 2] == 0 {
                self.touched.push(u);
                self.cur_list.push(u);
            }
            self.data[base] |= bit; // cur
            self.data[base + 2] |= bit; // reached
        }
    }

    /// One synchronous frontier round: for every edge `(x, w)` with `x` on
    /// the frontier, `next[w] |= cur[x] & ~reached[w]` — all lanes cross the
    /// edge per word op. Returns whether the new frontier is non-empty.
    pub fn advance(&mut self, graph: &Graph) -> bool {
        for ci in 0..self.cur_list.len() {
            let x = self.cur_list[ci];
            let f = self.data[x as usize * BLOCK];
            for &y in graph.neighbors(x) {
                let base = y as usize * BLOCK;
                let nx = self.data[base + 1];
                let rc = self.data[base + 2];
                let add = f & !(nx | rc);
                if add != 0 {
                    self.data[base + 1] = nx | add;
                    // List membership is read off the words themselves: y
                    // joins the next frontier on its first new lane, and
                    // the touch list when nothing had reached it before.
                    if nx == 0 {
                        self.next_list.push(y);
                        if rc == 0 {
                            self.touched.push(y);
                        }
                    }
                }
            }
        }
        // Retire the old frontier, then merge the new one into `reached`
        // and promote `next` to `cur`.
        for &x in &self.cur_list {
            self.data[x as usize * BLOCK] = 0;
        }
        for &y in &self.next_list {
            let base = y as usize * BLOCK;
            let nx = self.data[base + 1];
            self.data[base] = nx;
            self.data[base + 1] = 0;
            self.data[base + 2] |= nx;
        }
        std::mem::swap(&mut self.cur_list, &mut self.next_list);
        self.next_list.clear();
        !self.cur_list.is_empty()
    }

    /// Runs `r` bounded rounds, stopping early once the frontier empties.
    pub fn run(&mut self, graph: &Graph, r: u32) {
        for _ in 0..r {
            if !self.advance(graph) {
                break;
            }
        }
    }

    /// The vertices reached by any lane this batch, in touch order.
    #[inline]
    pub fn touched(&self) -> &[Vertex] {
        &self.touched
    }

    /// The lanes that reached `v`, as a bit word (bit `i` = lane `i`).
    #[inline]
    pub fn reached(&self, v: Vertex) -> u64 {
        self.data[v as usize * BLOCK + 2]
    }
}

/// Closed-`r`-neighbourhood rows for graphs with `n ≤ 64`: `row[v]` has bit
/// `u` set iff `dist(u, v) ≤ r`. By distance symmetry the same word read as
/// "vertices covered by `v`" *is* `N_r[v]` — one `u64` per vertex, built by
/// a single unrestricted kernel batch. This is the substrate of the exact
/// bitmask domination oracle: the coverage of a candidate set is the OR of
/// its members' rows.
pub fn reach_words64(graph: &Graph, r: u32) -> Vec<u64> {
    let n = graph.num_vertices();
    assert!(n <= WORD_BITS, "reach_words64 needs n ≤ 64, got {n}");
    if n == 0 {
        return Vec::new();
    }
    let sources: Vec<Vertex> = (0..n as Vertex).collect();
    let mut sweep = FrontierSweep::new(n);
    sweep.begin(&sources);
    sweep.run(graph, r);
    (0..n as Vertex).map(|v| sweep.reached(v)).collect()
}

/// Closed-`r`-neighbourhood rows as a [`BitMatrix`] for arbitrary `n`:
/// `row(v)` bit `u` iff `dist(u, v) ≤ r` (a symmetric relation, so the row
/// is also the bitset form of `N_r[v]`). Built in 64-source kernel batches;
/// memory is `n²/8` bytes, so this is for validator-sized graphs, not the
/// 100k instances.
#[derive(Clone, Debug)]
pub struct ReachMatrix {
    r: u32,
    bits: BitMatrix,
}

impl ReachMatrix {
    /// Builds the distance-`r` reachability rows through the frontier kernel.
    pub fn build(graph: &Graph, r: u32) -> Self {
        let n = graph.num_vertices();
        let mut bits = BitMatrix::zero(n, n);
        if n == 0 {
            return ReachMatrix { r, bits };
        }
        let mut sweep = FrontierSweep::new(n);
        let mut batch: Vec<Vertex> = Vec::with_capacity(WORD_BITS);
        for (b, start) in (0..n).step_by(WORD_BITS).enumerate() {
            let end = (start + WORD_BITS).min(n);
            batch.clear();
            batch.extend(start as Vertex..end as Vertex);
            sweep.begin(&batch);
            sweep.run(graph, r);
            for &v in sweep.touched() {
                bits.row_mut(v as usize)[b] = sweep.reached(v);
            }
        }
        ReachMatrix { r, bits }
    }

    /// The radius the rows were built at.
    #[inline]
    pub fn radius(&self) -> u32 {
        self.r
    }

    /// `N_r[v]` as row words.
    #[inline]
    pub fn row(&self, v: Vertex) -> &[u64] {
        self.bits.row(v as usize)
    }

    /// Whether `set` distance-`r` dominates the graph: `O(|set|·n/64)` word
    /// ORs of the members' rows against the all-ones row. The empty set
    /// dominates only the empty graph.
    pub fn covers(&self, set: &[Vertex]) -> bool {
        self.uncovered_words(set)
            .into_iter()
            .all(|missing| missing == 0)
    }

    /// The vertices *not* distance-`r` dominated by `set`, ascending.
    pub fn uncovered(&self, set: &[Vertex]) -> Vec<Vertex> {
        let mut out = Vec::new();
        for (j, mut missing) in self.uncovered_words(set).into_iter().enumerate() {
            while missing != 0 {
                let b = missing.trailing_zeros() as usize;
                out.push((j * WORD_BITS + b) as Vertex);
                missing &= missing - 1;
            }
        }
        out
    }

    /// One word per column group: bits of vertices left uncovered by `set`.
    fn uncovered_words(&self, set: &[Vertex]) -> Vec<u64> {
        let n = self.bits.rows();
        let stride = self.bits.stride();
        let mut acc = vec![0u64; stride];
        for &u in set {
            for (a, &b) in acc.iter_mut().zip(self.bits.row(u as usize)) {
                *a |= b;
            }
        }
        // Complement within the valid column range.
        for (j, word) in acc.iter_mut().enumerate() {
            let valid = n - j * WORD_BITS;
            let full = if valid >= WORD_BITS {
                !0u64
            } else {
                (1u64 << valid) - 1
            };
            *word = !*word & full;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{all_pairs_distances, multi_source_distances};
    use crate::domset::is_distance_dominating_set;
    use crate::generators::{cycle, gnp, grid, path, stacked_triangulation, star};
    use crate::graph::graph_from_edges;

    #[test]
    fn bit_matrix_basics() {
        let mut m = BitMatrix::zero(3, 130);
        assert_eq!(m.stride(), 3);
        m.set(0, 0);
        m.set(0, 129);
        m.set(2, 64);
        assert!(m.get(0, 0) && m.get(0, 129) && m.get(2, 64));
        assert!(!m.get(1, 0));
        assert_eq!(m.count_row(0), 2);
        assert_eq!(m.iter_row(0).collect::<Vec<_>>(), vec![0, 129]);
        let row0 = m.row(0).to_vec();
        m.or_row(1, &row0);
        assert_eq!(m.iter_row(1).collect::<Vec<_>>(), vec![0, 129]);
    }

    /// Each lane must reach exactly the scalar BFS ball of its source —
    /// including across reuse of one sweep for many batches.
    #[test]
    fn sweep_lanes_match_scalar_bfs_balls() {
        for g in [
            path(9),
            cycle(17),
            star(12),
            grid(7, 11),
            stacked_triangulation(90, 4),
            gnp(70, 0.07, 11),
            graph_from_edges(5, &[]),
        ] {
            let n = g.num_vertices();
            let mut sweep = FrontierSweep::new(n);
            let sources: Vec<Vertex> = (0..n as Vertex).collect();
            for r in [0u32, 1, 2, 5, 8] {
                for batch in sources.chunks(WORD_BITS) {
                    sweep.begin(batch);
                    sweep.run(&g, r);
                    for (lane, &u) in batch.iter().enumerate() {
                        let dist = multi_source_distances(&g, &[u]);
                        for v in 0..n as Vertex {
                            let got = (sweep.reached(v) >> lane) & 1 == 1;
                            assert_eq!(got, dist[v as usize] <= r, "n={n}, r={r}, {u} -> {v}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reach_words64_matches_all_pairs_distances() {
        for g in [path(7), cycle(12), grid(4, 5), stacked_triangulation(26, 3)] {
            let d = all_pairs_distances(&g);
            for r in [0u32, 1, 2, 4] {
                let rows = reach_words64(&g, r);
                for v in 0..g.num_vertices() {
                    for (u, du) in d.iter().enumerate() {
                        assert_eq!((rows[v] >> u) & 1 == 1, du[v] <= r, "r={r}, u={u}, v={v}");
                    }
                }
            }
        }
    }

    #[test]
    fn reach_matrix_coverage_agrees_with_the_scalar_validator() {
        for g in [
            path(10),
            grid(9, 9), // n = 81 > 64: exercises multi-word rows
            graph_from_edges(7, &[(0, 1), (2, 3), (3, 4)]),
            Graph::empty(0),
            Graph::empty(3),
        ] {
            for r in [1u32, 2] {
                let rows = ReachMatrix::build(&g, r);
                assert_eq!(rows.radius(), r);
                let n = g.num_vertices() as Vertex;
                let candidates: Vec<Vec<Vertex>> = vec![
                    vec![],
                    (0..n).collect(),
                    (0..n).step_by(3).collect(),
                    (0..n).filter(|v| v % 5 == 1).collect(),
                ];
                for set in candidates {
                    assert_eq!(
                        rows.covers(&set),
                        is_distance_dominating_set(&g, &set, r) && !(set.is_empty() && n > 0),
                        "r={r}, set={set:?}"
                    );
                    let unc = rows.uncovered(&set);
                    assert!(unc.windows(2).all(|w| w[0] < w[1]));
                    for v in 0..n {
                        let dominated = set
                            .iter()
                            .any(|&u| (rows.row(v)[u as usize / 64] >> (u % 64)) & 1 == 1);
                        assert_eq!(unc.contains(&v), !dominated, "r={r}, v={v}");
                    }
                }
            }
        }
    }
}
