//! The single-instance workloads `t9-planar-r2` and `ksv-planar-r2`: one op
//! is one distributed solve at r = 2 of the largest component of a
//! 50 000-vertex planar triangulation, followed by BFS validation of the set.
//! A run cycles through several such instances, each with its own id seed.
//!
//! The untraced op is `DominationPipeline::solve`. The traced op makes the
//! same library calls one layer at a time, in the order `solve` makes them,
//! and must reproduce the untraced op's rounds, bits and set exactly.

use crate::measure::timed;
use crate::{connected_instance, derive_seed, Layers, Outcome};
use bedom_core::{
    distributed_distance_domination_in, distributed_ksv_domination_r, Algorithm, DistContext,
    DistContextConfig, DominationPipeline, KsvConfig, Mode,
};
use bedom_distsim::{ExecutionStrategy, IdAssignment};
use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom_graph::generators::Family;
use bedom_graph::Graph;
use bedom_wcol::ball_sweeps_on_this_thread;
use std::time::Instant;

/// Vertices requested from the generator (the largest component is kept).
const N: usize = 50_000;
/// Domination radius.
const R: u32 = 2;

/// The instances of a run, one per variant.
pub fn setup(graph_seed: u64, variants: usize) -> Vec<Graph> {
    (0..variants as u64)
        .map(|k| connected_instance(Family::PlanarTriangulation, N, derive_seed(graph_seed, k)))
        .collect()
}

/// One untraced op: the pipeline's solve plus validation, with the ball
/// sweeps it paid on this thread.
pub fn solve_op(graph: &Graph, algorithm: Algorithm, id_seed: u64) -> Result<Outcome, String> {
    let sweeps = ball_sweeps_on_this_thread();
    let report = DominationPipeline::new(R)
        .mode(Mode::Distributed)
        .algorithm(algorithm)
        .seed(id_seed)
        .solve(graph)
        .map_err(|v| format!("solve failed: {v}"))?;
    let outcome = Outcome {
        rounds: report.rounds,
        bits: report.total_message_bits,
        max_msg_bits: report.max_message_bits,
        lower_bound: report.optimum_lower_bound,
        set: report.dominating_set,
        connected_set: None,
    };
    check(
        graph,
        &outcome,
        report.election_verified,
        ball_sweeps_on_this_thread() - sweeps,
    )?;
    Ok(outcome)
}

/// One traced op: the untraced op's library calls, each timed on its own.
/// Returns the outcome and the layer values of this op.
pub fn traced_op(
    graph: &Graph,
    algorithm: Algorithm,
    id_seed: u64,
) -> Result<(Outcome, Layers), String> {
    let start = Instant::now();
    let sweeps = ball_sweeps_on_this_thread();
    let mut layers = Layers::default();
    let (lower_bound, lb_s) = timed(|| packing_lower_bound(graph, R));
    layers.add("graph.packing_lb_s", lb_s);
    let (ctx, order_s) = timed(|| {
        DistContext::elect(
            graph,
            DistContextConfig {
                assignment: IdAssignment::Shuffled(id_seed),
                strategy: ExecutionStrategy::Auto,
                ..DistContextConfig::for_domination(R)
            },
        )
    });
    let ctx = ctx.map_err(|v| format!("order phase failed: {v}"))?;
    layers.add("wcol.order_s", order_s);
    layers.add("wcol.order_rounds", ctx.order_rounds() as f64);
    layers.add("wcol.order_bits", ctx.order_stats().total_bits as f64);

    let (outcome, verified) = match algorithm {
        Algorithm::OrderBased => order_based_layers(&ctx, lower_bound, &mut layers)?,
        Algorithm::KsvConstantRound => ksv_layers(&ctx, lower_bound, &mut layers)?,
    };
    // The pipeline frees its context inside the solve; so does the traced op.
    let ((), teardown_s) = timed(|| drop(ctx));
    layers.add("context.teardown_s", teardown_s);
    let sweeps = ball_sweeps_on_this_thread() - sweeps;
    let (checked, validate_s) = timed(|| check(graph, &outcome, verified, sweeps));
    checked?;
    layers.add("graph.validate_s", validate_s);
    layers.add("wcol.ball_sweeps", sweeps as f64);
    let op_s = start.elapsed().as_secs_f64();
    layers.add("trace.coverage", layers.span_total() / op_s);
    layers.add("op_s", op_s);
    Ok((outcome, layers))
}

/// Lemma 7, the Theorem 9 election, the index sweep and the context reads,
/// as `DominationPipeline::solve` runs them in distributed mode.
fn order_based_layers(
    ctx: &DistContext<'_>,
    lower_bound: usize,
    layers: &mut Layers,
) -> Result<(Outcome, bool), String> {
    let (wreach, wreach_s) = timed(|| ctx.wreach());
    let wreach = wreach.map_err(|v| format!("weak reachability failed: {v}"))?;
    layers.add("dist_wreach.protocol_s", wreach_s);
    layers.add("dist_wreach.rounds", wreach.rounds as f64);
    layers.add("dist_wreach.bits", wreach.stats.total_bits as f64);
    layers.add(
        "dist_wreach.max_msg_bits",
        wreach.stats.max_message_bits as f64,
    );

    let (domset, election_s) = timed(|| distributed_distance_domination_in(ctx, R));
    let domset = domset.map_err(|v| format!("election failed: {v}"))?;
    layers.add("dist_domset.election_s", election_s);
    let election_bits = domset.phase_stats.last().map_or(0, |s| s.total_bits);
    layers.add("dist_domset.bits", election_bits as f64);

    let ((), index_s) = timed(|| {
        ctx.index();
    });
    layers.add("wcol.index_s", index_s);

    let (verified, reads_s) = timed(|| -> Result<bool, String> {
        ctx.witnessed_constant(2 * R)
            .and_then(|_| ctx.expected_election(R))
            .map(|expected| domset.dominator_of == expected)
            .map_err(|v| format!("context read failed: {v}"))
    });
    layers.add("context.reads_s", reads_s);

    let outcome = Outcome {
        rounds: domset.total_rounds(),
        bits: domset.phase_stats.iter().map(|s| s.total_bits).sum(),
        max_msg_bits: domset.max_message_bits(),
        lower_bound,
        set: domset.dominating_set,
        connected_set: None,
    };
    Ok((outcome, verified?))
}

/// The KSV protocol, the index sweep and the certificate reads, as
/// `distributed_ksv_domination_r_in_with` runs them for the pipeline.
fn ksv_layers(
    ctx: &DistContext<'_>,
    lower_bound: usize,
    layers: &mut Layers,
) -> Result<(Outcome, bool), String> {
    let config = KsvConfig {
        assignment: ctx.assignment(),
        strategy: ctx.strategy(),
        threshold: 1,
        ..KsvConfig::new()
    };
    let (result, ksv_s) = timed(|| distributed_ksv_domination_r(ctx.graph(), R, config));
    let result = result.map_err(|v| format!("KSV protocol failed: {v}"))?;
    layers.add("dist_ksv.protocol_s", ksv_s);
    layers.add("dist_ksv.flood_bits", result.phase_bits.flood as f64);
    layers.add(
        "dist_ksv.hard_core_announce_bits",
        result.phase_bits.hard_core_announce as f64,
    );
    layers.add("dist_ksv.election_bits", result.phase_bits.election as f64);
    layers.add(
        "dist_ksv.cover_announce_bits",
        result.phase_bits.cover_announce as f64,
    );
    layers.add("dist_ksv.hard_core", result.hard_core.len() as f64);
    layers.add(
        "dist_ksv.cover_dominators",
        result.cover_dominators.len() as f64,
    );
    layers.add("dist_ksv.self_elected", result.self_elected.len() as f64);
    layers.add("dist_ksv.hubs", result.high_degree.len() as f64);

    let ((), index_s) = timed(|| {
        ctx.index();
    });
    layers.add("wcol.index_s", index_s);

    let n = ctx.num_vertices();
    let (reads, reads_s) = timed(|| -> Result<(usize, bool), String> {
        ctx.witnessed_constant(2 * R)
            .map_err(|v| format!("context read failed: {v}"))?;
        let mut in_set = vec![false; n];
        for &v in &result.dominating_set {
            in_set[v as usize] = true;
        }
        let certified = ctx.index().certified_count(R, &in_set);
        let verified =
            certified == n || is_distance_dominating_set(ctx.graph(), &result.dominating_set, R);
        Ok((certified, verified))
    });
    let (certified, verified) = reads?;
    layers.add("context.reads_s", reads_s);
    layers.add(
        "context.certified_ratio",
        certified as f64 / n.max(1) as f64,
    );

    let outcome = Outcome {
        rounds: result.rounds,
        bits: result.stats.total_bits,
        max_msg_bits: result.stats.max_message_bits,
        lower_bound,
        set: result.dominating_set,
        connected_set: None,
    };
    Ok((outcome, verified))
}

/// The per-op correctness gate: a BFS-valid set, a verified election, and
/// exactly one ball sweep for the whole distributed solve.
fn check(graph: &Graph, outcome: &Outcome, verified: bool, sweeps: u64) -> Result<(), String> {
    if !is_distance_dominating_set(graph, &outcome.set, R) {
        return Err("the set does not distance-dominate the graph".to_string());
    }
    if !verified {
        return Err("election_verified is false".to_string());
    }
    if sweeps != 1 {
        return Err(format!("{sweeps} ball sweeps in one solve, expected 1"));
    }
    Ok(())
}
