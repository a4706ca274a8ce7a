//! The validator leg of the word-parallel bitset kernel: every row of the
//! `N_r` bit-matrix ([`ReachMatrix`]) must be exactly the scalar closed
//! `r`-neighbourhood, on every corpus instance.
//!
//! The corpus mirrors `tests/conformance.rs` — the paper's structured
//! families, the degenerate shapes, and the n ∈ (20, 26] band — plus two
//! bounded-expansion instances with more than 64 vertices, so the rows come
//! from more than one 64-source batch.

use bedom::graph::bitset::ReachMatrix;
use bedom::graph::generators::{
    configuration_model_power_law, cycle, grid, path, stacked_triangulation, star,
};
use bedom::graph::{graph_from_edges, Graph, Vertex};

fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", Graph::empty(0)),
        ("single-vertex", Graph::empty(1)),
        ("two-isolated", Graph::empty(2)),
        ("path-16", path(16)),
        ("path-26", path(26)),
        ("cycle-24", cycle(24)),
        ("star-21", star(20)),
        ("grid-5x5", grid(5, 5)),
        ("planar-tri-26", stacked_triangulation(26, 5)),
        (
            "disconnected",
            graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]),
        ),
        // Large enough for two 64-lane batches.
        ("planar-tri-90", stacked_triangulation(90, 7)),
        (
            "config-model-96",
            configuration_model_power_law(96, 2.5, 1, 9, 13),
        ),
    ]
}

#[test]
fn reach_matrix_rows_match_scalar_neighborhoods_on_the_corpus() {
    use bedom::graph::bfs::closed_neighborhood;
    for (name, g) in corpus() {
        for r in [0u32, 1, 3] {
            let matrix = ReachMatrix::build(&g, r);
            for v in g.vertices() {
                let want = closed_neighborhood(&g, v, r);
                let row = matrix.row(v);
                let got: Vec<Vertex> = g
                    .vertices()
                    .filter(|&u| (row[u as usize / 64] >> (u % 64)) & 1 == 1)
                    .collect();
                assert_eq!(got, want, "{name}, r = {r}, v = {v}");
            }
        }
    }
}
