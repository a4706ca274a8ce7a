//! Shared utilities for the bedom benchmark harness and the table/figure
//! generator binary (`experiments`).
//!
//! Everything the experiment tables need — instance construction per family,
//! uniform algorithm wrappers, ratio bookkeeping — lives here so that the
//! Criterion benches and the `experiments` binary stay thin and consistent
//! with each other.

use bedom_graph::components::largest_component;
use bedom_graph::generators::Family;
use bedom_graph::{Graph, Vertex};

/// Builds a connected instance of roughly `n` vertices from `family`
/// (restricted to the largest component, since the connected-domination
/// results require connectivity and the random models may leave stragglers).
pub fn connected_instance(family: Family, n: usize, seed: u64) -> Graph {
    let raw = family.generate(n, seed);
    let members = largest_component(&raw);
    let (graph, _) = raw.induced_subgraph(&members);
    graph
}

/// A single measurement row of the quality tables (T1/T6).
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Graph family name.
    pub family: &'static str,
    /// Number of vertices of the instance.
    pub n: usize,
    /// Domination radius.
    pub r: u32,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Size of the produced dominating set.
    pub size: usize,
    /// Reference value (exact OPT or a packing lower bound).
    pub reference: usize,
    /// Whether the reference is exact.
    pub reference_exact: bool,
    /// size / reference.
    pub ratio: f64,
}

impl QualityRow {
    /// Builds a row, guarding against a zero reference.
    pub fn new(
        family: &'static str,
        n: usize,
        r: u32,
        algorithm: &'static str,
        size: usize,
        reference: usize,
        reference_exact: bool,
    ) -> Self {
        QualityRow {
            family,
            n,
            r,
            algorithm,
            size,
            reference,
            reference_exact,
            ratio: size as f64 / reference.max(1) as f64,
        }
    }
}

/// Formats a table of [`QualityRow`]s for terminal output.
pub fn format_quality_table(rows: &[QualityRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>7} {:>3} {:<14} {:>8} {:>9} {:>6} {:>7}\n",
        "family", "n", "r", "algorithm", "size", "reference", "exact", "ratio"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:>7} {:>3} {:<14} {:>8} {:>9} {:>6} {:>7.2}\n",
            row.family,
            row.n,
            row.r,
            row.algorithm,
            row.size,
            row.reference,
            if row.reference_exact { "yes" } else { "lb" },
            row.ratio
        ));
    }
    out
}

/// The uniform `(graph, r) -> dominating set` signature every compared
/// algorithm is wrapped into for the quality tables.
pub type DomSetAlgorithm = fn(&Graph, u32) -> Vec<Vertex>;

/// The algorithms compared in T1/T6, as (name, function) pairs.
pub fn compared_algorithms() -> Vec<(&'static str, DomSetAlgorithm)> {
    vec![
        ("ours-thm5", |g, r| {
            bedom_core::approximate_distance_domination(g, r).dominating_set
        }),
        ("ours-thm9", |g, r| {
            bedom_core::distributed_distance_domination(g, bedom_core::DistDomSetConfig::new(r))
                .expect("model violation")
                .dominating_set
        }),
        ("greedy", |g, r| {
            bedom_graph::domset::greedy_distance_dominating_set(g, r)
        }),
        ("dvorak-c2", |g, r| {
            bedom_baselines::dvorak_style_domination_default(g, r)
        }),
        ("kutten-peleg", |g, r| {
            bedom_baselines::kutten_peleg_dominating_set(g, r)
        }),
        ("bucket-greedy", |g, r| {
            bedom_baselines::bucketed_greedy_dominating_set(g, r)
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::domset::is_distance_dominating_set;

    #[test]
    fn connected_instances_are_connected() {
        for family in [Family::ConfigurationModel, Family::ChungLu, Family::Gnp] {
            let g = connected_instance(family, 400, 3);
            assert!(bedom_graph::components::is_connected(&g));
            assert!(g.num_vertices() >= 100);
        }
    }

    #[test]
    fn all_compared_algorithms_dominate() {
        let g = connected_instance(Family::PlanarTriangulation, 200, 1);
        for (name, algorithm) in compared_algorithms() {
            let d = algorithm(&g, 1);
            assert!(is_distance_dominating_set(&g, &d, 1), "{name} failed");
        }
    }

    #[test]
    fn quality_rows_format() {
        let rows = vec![QualityRow::new("grid", 100, 1, "greedy", 30, 20, true)];
        let table = format_quality_table(&rows);
        assert!(table.contains("grid"));
        assert!(table.contains("1.50"));
    }
}
