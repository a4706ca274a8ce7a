//! The `batch-mixed` workload: one op is one `solve_scenario_resumable` call
//! under `ExecutionStrategy::Pooled` into a fresh `Deferred` journal. The
//! shards are small instances of every family × radius × solver kind, so the
//! op measures pooled scheduling, per-solve fixed costs and journal writes
//! rather than one large protocol run.

use crate::measure::timed;
use crate::{connected_instance, derive_seed, Layers, Outcome};
use bedom_core::{
    solve_scenario, solve_scenario_resumable, Algorithm, DominationPipeline, DominationReport, Mode,
};
use bedom_distsim::{DurabilityMode, ExecutionStrategy, ScenarioReport};
use bedom_graph::components::is_induced_connected;
use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom_graph::generators::Family;
use bedom_graph::Graph;
use std::path::Path;

/// Vertices requested per shard instance.
const SHARD_N: usize = 2_000;
const FAMILIES: [Family; 4] = [
    Family::PlanarTriangulation,
    Family::ConfigurationModel,
    Family::TwoTree,
    Family::Grid,
];
const RADII: [u32; 2] = [1, 2];
/// Instance seeds per (family, radius, kind).
const INSTANCES_PER_KIND: u64 = 2;

/// The solver a shard runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Theorem 9, distributed, order-based.
    Order,
    /// The KSV constant-round protocol.
    Ksv,
    /// Theorem 5, sequential.
    Seq,
    /// Theorem 10, distributed connected domination.
    Connected,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Order, Kind::Ksv, Kind::Seq, Kind::Connected];

    fn pipeline(self, r: u32, id_seed: u64) -> DominationPipeline {
        let base = DominationPipeline::new(r).seed(id_seed);
        match self {
            Kind::Order => base.mode(Mode::Distributed),
            Kind::Ksv => base.algorithm(Algorithm::KsvConstantRound),
            Kind::Seq => base,
            Kind::Connected => base.mode(Mode::Distributed).connected(true),
        }
    }

    /// The per-layer metric this kind's serial solve time is reported under.
    fn layer(self) -> &'static str {
        match self {
            Kind::Order => "pipeline.order_s",
            Kind::Ksv => "pipeline.ksv_s",
            Kind::Seq => "pipeline.seq_s",
            Kind::Connected => "pipeline.connected_s",
        }
    }
}

/// The shard lists of a run, one per id-seed variant. Variants share their
/// graphs and differ only in the pipelines' id seeds.
#[derive(Debug)]
pub struct Batch {
    kinds: Vec<Kind>,
    radii: Vec<u32>,
    pub variants: Vec<Vec<(Graph, DominationPipeline)>>,
}

impl Batch {
    pub fn num_shards(&self) -> usize {
        self.kinds.len()
    }

    /// Whether two set-ups built the same shards (pipelines compare by their
    /// debug form, as `DominationPipeline` has no equality).
    pub fn same_inputs(a: &Batch, b: &Batch) -> bool {
        let key = |batch: &Batch| -> Vec<(Graph, String)> {
            batch
                .variants
                .iter()
                .flatten()
                .map(|(graph, pipeline)| (graph.clone(), format!("{pipeline:?}")))
                .collect()
        };
        a.kinds == b.kinds && a.radii == b.radii && key(a) == key(b)
    }
}

/// Generates the shard instances and builds one shard list per id seed.
pub fn setup(graph_seed: u64, id_seeds: &[u64]) -> Batch {
    let mut kinds = Vec::new();
    let mut radii = Vec::new();
    let mut graphs = Vec::new();
    for family in FAMILIES {
        for r in RADII {
            for kind in Kind::ALL {
                for _ in 0..INSTANCES_PER_KIND {
                    let seed = derive_seed(graph_seed, graphs.len() as u64);
                    graphs.push(connected_instance(family, SHARD_N, seed));
                    kinds.push(kind);
                    radii.push(r);
                }
            }
        }
    }
    let variants = id_seeds
        .iter()
        .map(|&id_seed| {
            graphs
                .iter()
                .zip(kinds.iter().zip(&radii))
                .enumerate()
                .map(|(shard, (graph, (kind, &r)))| {
                    let pipeline = kind.pipeline(r, derive_seed(id_seed, shard as u64));
                    (graph.clone(), pipeline)
                })
                .collect()
        })
        .collect();
    Batch {
        kinds,
        radii,
        variants,
    }
}

/// One untraced op: the pooled, journaled batch call, timed; then the
/// per-shard gate (untimed). Returns the shard outcomes and the call's wall
/// time.
pub fn batch_op(
    shards: &[(Graph, DominationPipeline)],
    pool_seed: u64,
    journal: &Path,
) -> Result<(Vec<Outcome>, f64), String> {
    remove_journal(journal)?;
    let (report, wall) = timed(|| {
        solve_scenario_resumable(
            shards,
            ExecutionStrategy::Pooled(pool_seed),
            journal,
            DurabilityMode::Deferred,
        )
    });
    let report = report.map_err(|e| format!("batch failed: {e}"))?;
    Ok((check(shards, &report)?, wall))
}

/// One traced op, run after [`batch_op`] left a complete journal at
/// `journal`: replays the batch from it (the read path), then solves every
/// shard serially on this thread with the solve and the validation timed
/// per shard, then solves the same shards through one `Sequential`
/// `solve_scenario` call, the untraced counterpart of that pass, for
/// `trace.overhead`. All must reproduce `expected`.
pub fn traced_op(
    batch: &Batch,
    variant: usize,
    pool_seed: u64,
    journal: &Path,
    pooled_wall: f64,
    expected: &[Outcome],
) -> Result<Layers, String> {
    let shards = &batch.variants[variant];
    let mut layers = Layers::default();
    let journal_bytes = std::fs::metadata(journal)
        .map_err(|e| format!("journal unreadable: {e}"))?
        .len();
    layers.add("journal.bytes", journal_bytes as f64);
    let (replayed, replay_s) = timed(|| {
        solve_scenario_resumable(
            shards,
            ExecutionStrategy::Pooled(pool_seed),
            journal,
            DurabilityMode::Deferred,
        )
    });
    let replayed = replayed.map_err(|e| format!("journal replay failed: {e}"))?;
    if check(shards, &replayed)? != expected {
        return Err("the journal replay differs from the batch it recorded".to_string());
    }
    layers.add("journal.replay_s", replay_s);

    let mut serial = Vec::with_capacity(shards.len());
    let ((), pass_s) = timed(|| {
        for ((graph, pipeline), kind) in shards.iter().zip(&batch.kinds) {
            let pipeline = pipeline.execution(ExecutionStrategy::Sequential);
            let (solved, solve_s) = timed(|| pipeline.solve(graph));
            layers.add(kind.layer(), solve_s);
            layers.add("pipeline.solve_s", solve_s);
            if let Ok(report) = &solved {
                let (_, validate_s) =
                    timed(|| is_distance_dominating_set(graph, &report.dominating_set, report.r));
                layers.add("graph.validate_s", validate_s);
            }
            serial.push(solved);
        }
    });
    let serial: Vec<Outcome> = serial
        .into_iter()
        .map(|solved| {
            solved
                .map(outcome_of)
                .map_err(|v| format!("serial solve failed: {v}"))
        })
        .collect::<Result<_, _>>()?;
    if serial != expected {
        return Err("the serial solves differ from the pooled batch".to_string());
    }
    let (untraced, untraced_s) = timed(|| solve_scenario(shards, ExecutionStrategy::Sequential));
    let untraced = untraced.map_err(|v| format!("serial batch failed: {v}"))?;
    if check(shards, &untraced)? != expected {
        return Err("the serial batch differs from the pooled batch".to_string());
    }
    layers.add(
        "wcol.ball_sweeps",
        untraced.total_ball_sweeps() as f64 / shards.len() as f64,
    );

    let solve_s = layers.get("pipeline.solve_s");
    layers.add(
        "trace.coverage",
        (solve_s + layers.get("graph.validate_s")) / pass_s,
    );
    layers.add("trace.overhead", pass_s / untraced_s);
    let threads = ExecutionStrategy::Pooled(pool_seed).threads_for(shards.len());
    layers.add("par.efficiency", solve_s / (threads as f64 * pooled_wall));

    // The packing bound is part of every solve above; it is timed alone
    // here so the traced pass stays the same work as the untraced batch.
    let (_, lb_s) = timed(|| {
        shards
            .iter()
            .zip(&batch.radii)
            .map(|((graph, _), &r)| packing_lower_bound(graph, r))
            .sum::<usize>()
    });
    layers.add("graph.packing_lb_s", lb_s);
    Ok(layers)
}

/// The per-shard gate: every shard solved, BFS-valid, election verified,
/// connected where requested, and exactly one ball sweep.
fn check(
    shards: &[(Graph, DominationPipeline)],
    report: &ScenarioReport<DominationReport>,
) -> Result<Vec<Outcome>, String> {
    if report.shards.len() != shards.len() {
        return Err(format!(
            "{} of {} shards reported",
            report.shards.len(),
            shards.len()
        ));
    }
    report
        .shards
        .iter()
        .zip(shards)
        .map(|(shard, (graph, _))| {
            let solved = &shard.output;
            let i = shard.shard;
            if !is_distance_dominating_set(graph, &solved.dominating_set, solved.r) {
                return Err(format!("shard {i}: the set does not dominate"));
            }
            if !solved.election_verified {
                return Err(format!("shard {i}: election_verified is false"));
            }
            if let Some(connected) = &solved.connected_dominating_set {
                if !is_distance_dominating_set(graph, connected, solved.r)
                    || !is_induced_connected(graph, connected)
                {
                    return Err(format!("shard {i}: the connected set is invalid"));
                }
            }
            match shard.metrics {
                Some(m) if m.ball_sweeps == 1 => Ok(outcome_of(solved.clone())),
                Some(m) => Err(format!(
                    "shard {i}: {} ball sweeps, expected 1",
                    m.ball_sweeps
                )),
                None => Err(format!("shard {i}: no metrics")),
            }
        })
        .collect()
}

fn outcome_of(report: DominationReport) -> Outcome {
    Outcome {
        rounds: report.rounds,
        bits: report.total_message_bits,
        max_msg_bits: report.max_message_bits,
        lower_bound: report.optimum_lower_bound,
        set: report.dominating_set,
        connected_set: report.connected_dominating_set,
    }
}

/// Deletes a journal left by an earlier op, so each op writes a fresh one.
pub fn remove_journal(journal: &Path) -> Result<(), String> {
    match std::fs::remove_file(journal) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove {}: {e}", journal.display()))
        }
        _ => Ok(()),
    }
}
