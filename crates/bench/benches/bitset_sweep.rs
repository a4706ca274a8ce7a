//! The word-parallel bitset frontier kernel versus its scalar counterparts,
//! measured on the two places it is wired in.
//!
//! **Oracle leg** (n = 24). The exact bitmask oracle before this kernel
//! existed: enumerate all 2ⁿ subsets in numeric order over scalar-built u32
//! coverage masks. After: closed-neighbourhood rows from one
//! [`reach_words64`] batch, subsets enumerated in **size order** (Gosper's
//! hack), stopping at the first covering size. This is what paid for raising
//! `BITMASK_ORACLE_MAX_N` from 20 to 26.
//!
//! **Validator leg** (n = 512, a stream of coverage queries). Before: one
//! scalar multi-source BFS per candidate set. After: [`ReachMatrix`] rows
//! built once through the kernel, each query `O(|set|·n/64)` word ORs —
//! build cost included in the measured time.
//!
//! Run with `BEDOM_BENCH_JSON=BENCH_bitset.json` to commit the numbers.

use bedom_graph::bfs::{multi_source_distances, UNREACHABLE};
use bedom_graph::bitset::{reach_words64, ReachMatrix};
use bedom_graph::domset::{bitmask_minimum_domination_number, greedy_distance_dominating_set};
use bedom_graph::generators::{cycle, stacked_triangulation};
use bedom_graph::power::all_closed_neighborhoods;
use bedom_graph::{Graph, Vertex};
use criterion::{criterion_group, criterion_main, record_metric, Criterion};
use std::hint::black_box;
use std::time::Instant;

fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The exact oracle as it stood before the kernel (seed version, verbatim
/// algorithm): scalar closed neighbourhoods folded into u32 masks, then every
/// subset of `0..2ⁿ` scanned in numeric order with a popcount gate. Kept here
/// as the baseline the size-ordered Gosper enumeration is measured against.
fn full_enumeration_oracle(graph: &Graph, r: u32) -> usize {
    let n = graph.num_vertices();
    assert!(0 < n && n <= 32);
    let full: u32 = if n == 32 { !0 } else { (1u32 << n) - 1 };
    let cover: Vec<u32> = all_closed_neighborhoods(graph, r)
        .into_iter()
        .map(|nb| nb.into_iter().fold(0u32, |m, w| m | (1u32 << w)))
        .collect();
    let mut best = n;
    for subset in 0u32..=full {
        let size = subset.count_ones() as usize;
        if size >= best {
            continue;
        }
        let mut covered = 0u32;
        let mut bits = subset;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            covered |= cover[v];
            bits &= bits - 1;
        }
        if covered == full {
            best = size;
        }
    }
    best
}

fn bench_oracle_leg(_c: &mut Criterion) {
    // C_24 at r = 2 has gamma = ceil(24/5) = 5 — the size-ordered oracle must
    // genuinely scan every subset of size <= 4 before it can answer, so this
    // is its worst case relative to gamma, not a lucky early exit.
    let n = 24usize;
    let graph = cycle(n);
    let r = 2u32;

    let want = full_enumeration_oracle(&graph, r);
    let got = bitmask_minimum_domination_number(&graph, r);
    assert_eq!(got, Some(want), "oracle leg: enumerations disagree");

    let full_secs = timed(|| {
        black_box(full_enumeration_oracle(&graph, r));
    });
    // The size-ordered oracle terminates in well under a second; average a
    // few runs for a stable number.
    let reps = 20u32;
    let gosper_total = timed(|| {
        for _ in 0..reps {
            black_box(bitmask_minimum_domination_number(&graph, r));
        }
    });
    let gosper_secs = gosper_total / reps as f64;
    println!(
        "oracle leg, cycle (n = {n}, r = {r}, gamma = {want}): full-2^n = {full_secs:.3} s, \
         size-ordered = {gosper_secs:.6} s ({:.0}x)",
        full_secs / gosper_secs
    );
    record_metric("oracle_n", n as f64);
    record_metric("oracle_gamma", want as f64);
    record_metric("oracle_full_enumeration_seconds", full_secs);
    record_metric("oracle_size_ordered_seconds", gosper_secs);
    record_metric("oracle_speedup", full_secs / gosper_secs);
    // The raised gate exists because the rows come from one kernel batch and
    // the enumeration stops at the first covering size.
    let _ = reach_words64(&graph, r);
}

fn bench_validator_leg(_c: &mut Criterion) {
    let n = 512usize;
    let graph = stacked_triangulation(n, 4);
    let r = 2u32;
    // A deterministic stream of candidate sets of varying size and verdict —
    // the query pattern of a search loop asking "does this set dominate?".
    // Every fourth query extends a known dominating set (greedy), so both
    // verdicts occur; the rest are pseudo-random near-covers.
    let base = greedy_distance_dominating_set(&graph, r);
    let queries: Vec<Vec<Vertex>> = (0..512u64)
        .map(|i| {
            let mut set: Vec<Vertex> = (0..n as u64)
                .filter(|&v| {
                    (v.wrapping_mul(2654435761).wrapping_add(i * 40503)) % 512 < 24 + i % 48
                })
                .map(|v| v as Vertex)
                .collect();
            if i % 4 == 0 {
                set.extend_from_slice(&base);
            }
            set
        })
        .collect();

    let scalar_verdicts: Vec<bool> = queries
        .iter()
        .map(|set| {
            let dist = multi_source_distances(&graph, set);
            dist.iter().all(|&d| d != UNREACHABLE && d <= r)
        })
        .collect();
    let matrix = ReachMatrix::build(&graph, r);
    let matrix_verdicts: Vec<bool> = queries.iter().map(|set| matrix.covers(set)).collect();
    assert_eq!(
        scalar_verdicts, matrix_verdicts,
        "validator leg: verdicts disagree"
    );
    let positives = scalar_verdicts.iter().filter(|&&v| v).count();
    drop(matrix);

    let q = queries.len();
    let scalar_secs = timed(|| {
        for set in &queries {
            let dist = multi_source_distances(&graph, set);
            black_box(dist.iter().all(|&d| d != UNREACHABLE && d <= r));
        }
    });
    // Row build included: the matrix is paid for once per (graph, r), then
    // every query is a handful of word ORs.
    let matrix_secs = timed(|| {
        let matrix = ReachMatrix::build(&graph, r);
        for set in &queries {
            black_box(matrix.covers(set));
        }
    });
    println!(
        "validator leg, planar-tri (n = {n}, r = {r}, {q} queries, {positives} dominating): \
         scalar-bfs = {scalar_secs:.3} s, bitset-rows = {matrix_secs:.3} s ({:.1}x)",
        scalar_secs / matrix_secs
    );
    record_metric("validator_n", n as f64);
    record_metric("validator_queries", q as f64);
    record_metric("validator_scalar_seconds", scalar_secs);
    record_metric("validator_bitset_seconds", matrix_secs);
    record_metric("validator_speedup", scalar_secs / matrix_secs);
}

criterion_group!(benches, bench_oracle_leg, bench_validator_leg);
criterion_main!(benches);
