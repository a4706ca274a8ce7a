//! The bedom benchmark: certified-solve latency of the Theorem 9 and KSV
//! pipelines on one 50 000-vertex planar instance, and a mixed sharded batch,
//! measured end to end (`--trace 0`) or layer by layer (`--trace 1`) through
//! the public library API. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload t9-planar-r2 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; the line before it
//! records provenance. The process exits non-zero if any op fails its gate.

mod batch;
mod measure;
mod single;

use bedom_core::Algorithm;
use bedom_graph::components::largest_component;
use bedom_graph::generators::Family;
use bedom_graph::{Graph, Vertex};
use measure::{json_string, median, metric, result_line, tail, timed, Metric};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Variants per run of the single-instance workloads: each is its own
/// 50 000-vertex instance with its own id seed, because per-op work varies
/// with both, and one instance per run spread `set_ratio` by ±20 % across
/// seeds.
const SINGLE_VARIANTS: usize = 8;
/// Id-seed variants per run of the batch workload (each covers 64 shards).
const BATCH_VARIANTS: usize = 4;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

const WORKLOADS: [&str; 3] = ["t9-planar-r2", "ksv-planar-r2", "batch-mixed"];

/// The per-layer metrics, in output order, with their units. A layer a
/// workload does not enter reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("dist_wreach.protocol_s", "s"),
    ("dist_wreach.rounds", "count"),
    ("dist_wreach.bits", "bits"),
    ("dist_wreach.max_msg_bits", "bits"),
    ("dist_ksv.protocol_s", "s"),
    ("dist_ksv.flood_bits", "bits"),
    ("dist_ksv.hard_core_announce_bits", "bits"),
    ("dist_ksv.election_bits", "bits"),
    ("dist_ksv.cover_announce_bits", "bits"),
    ("dist_ksv.hard_core", "count"),
    ("dist_ksv.cover_dominators", "count"),
    ("dist_ksv.self_elected", "count"),
    ("dist_ksv.hubs", "count"),
    ("dist_domset.election_s", "s"),
    ("dist_domset.bits", "bits"),
    ("wcol.order_s", "s"),
    ("wcol.order_rounds", "count"),
    ("wcol.order_bits", "bits"),
    ("wcol.index_s", "s"),
    ("wcol.ball_sweeps", "count"),
    ("context.reads_s", "s"),
    ("context.certified_ratio", "ratio"),
    ("context.teardown_s", "s"),
    ("graph.packing_lb_s", "s"),
    ("graph.validate_s", "s"),
    ("pipeline.order_s", "s"),
    ("pipeline.ksv_s", "s"),
    ("pipeline.seq_s", "s"),
    ("pipeline.connected_s", "s"),
    ("par.efficiency", "ratio"),
    ("journal.bytes", "bytes"),
    ("journal.replay_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// What an op must reproduce exactly on every repeat of its id seed, traced
/// or not.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    pub rounds: usize,
    pub bits: usize,
    pub max_msg_bits: usize,
    pub lower_bound: usize,
    pub set: Vec<Vertex>,
    pub connected_set: Option<Vec<Vertex>>,
}

/// Named values one traced op measured; values added under one name sum.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the recorded layer times (the values named `*_s`).
    pub fn span_total(&self) -> f64 {
        self.0
            .iter()
            .filter(|(name, _)| name.ends_with("_s"))
            .map(|(_, s)| s)
            .sum()
    }
}

/// The largest component of a generated instance (the connected-domination
/// solvers need a connected graph, and the random models leave stragglers).
pub fn connected_instance(family: Family, n: usize, seed: u64) -> Graph {
    let raw = family.generate(n, seed);
    let (graph, _) = raw.induced_subgraph(&largest_component(&raw));
    graph
}

/// Stream `stream` of the seed sequence rooted at `seed` (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a u64")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds takes a number in (0, 600]")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `f`, turning a panic into an error so the op counts as failed.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {message}"))
    })
}

/// Counts ops and failures, and checks that every op of an id seed
/// reproduces the first op of that seed exactly.
#[derive(Debug)]
struct Gate<O> {
    first: Vec<Option<O>>,
    attempted: usize,
    failed: usize,
}

impl<O: PartialEq> Gate<O> {
    fn new(variants: usize) -> Self {
        Gate {
            first: (0..variants).map(|_| None).collect(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one op of id seed `variant`; returns whether it passed.
    fn record(&mut self, variant: usize, what: &str, result: Result<O, String>) -> bool {
        self.attempted += 1;
        let error = match result {
            Err(e) => Some(e),
            Ok(outcome) => match &self.first[variant] {
                None => {
                    self.first[variant] = Some(outcome);
                    None
                }
                Some(first) if *first == outcome => None,
                Some(_) => Some("differs from an earlier op with the same seed".to_string()),
            },
        };
        if let Some(e) = &error {
            self.failed += 1;
            eprintln!("FAILED {what} (id seed #{variant}): {e}");
        }
        error.is_none()
    }

    /// The first outcome of every id seed, if every id seed has one.
    fn outcomes(&self) -> Option<Vec<&O>> {
        self.first.iter().map(Option::as_ref).collect()
    }
}

/// Runs whole cycles of `body(variant)` over every id seed, as many as come
/// closest to `seconds` (at least one), so every id seed weighs the same in
/// every statistic. Returns the number of cycles.
fn cycles(variants: usize, seconds: f64, mut body: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut done = 0;
    loop {
        (0..variants).for_each(&mut body);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / done as f64 / 2.0 >= seconds {
            return done;
        }
    }
}

/// Repeats the set-up `SETUP_REPEATS` times; returns the first result and
/// the median time. Every repeat must build the `same` input.
fn setup<T>(build: impl Fn() -> T, same: impl Fn(&T, &T) -> bool) -> Result<(T, f64), String> {
    let (first, first_s) = timed(&build);
    let mut times = vec![first_s];
    for _ in 1..SETUP_REPEATS {
        let (again, s) = timed(&build);
        if !same(&again, &first) {
            return Err("set-up is not deterministic for a fixed seed".to_string());
        }
        times.push(s);
    }
    Ok((first, median(&times)))
}

/// What a run reports besides its metrics.
#[derive(Debug)]
struct Run {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    provenance: Vec<(&'static str, String)>,
}

/// The timing metrics of an untraced run.
fn timing_metrics(
    op_s: &[f64],
    rss_mb: &[f64],
    cpu_s: f64,
    units_per_op: f64,
    setup_s: f64,
    provenance: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let (tail_s, tail_pct) = tail(op_s);
    provenance.push(("samples", op_s.len().to_string()));
    provenance.push(("solve_tail_percentile", format!("{tail_pct:?}")));
    let total: f64 = op_s.iter().sum();
    vec![
        metric("solve_p50_s", median(op_s), "s"),
        metric("solve_tail_s", tail_s, "s"),
        metric(
            "throughput_per_s",
            units_per_op * op_s.len() as f64 / total,
            "1/s",
        ),
        metric("cpu_per_op_s", cpu_s / op_s.len() as f64, "s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", median(rss_mb), "MiB"),
    ]
}

/// Rounds, bits and largest message per op (each summed over the shards of a
/// batch op) as means over the id seeds, and `set_ratio` = Σ|D| / ΣLB, from
/// each id seed's outcomes.
fn deterministic_metrics(per_seed: &[&[Outcome]]) -> Vec<Metric> {
    let k = per_seed.len().max(1) as f64;
    let per_op = |f: fn(&Outcome) -> usize| {
        per_seed
            .iter()
            .flat_map(|outcomes| outcomes.iter().map(f))
            .sum::<usize>() as f64
            / k
    };
    vec![
        metric("rounds", per_op(|o| o.rounds), "count"),
        metric("wire_bits", per_op(|o| o.bits), "bits"),
        metric("max_msg_bits", per_op(|o| o.max_msg_bits), "bits"),
        metric(
            "set_ratio",
            per_op(|o| o.set.len()) / per_op(|o| o.lower_bound).max(1.0),
            "ratio",
        ),
    ]
}

/// The per-layer metrics: the median over traced ops of each layer value,
/// in `PER_LAYER` order, 0 for a layer the workload does not enter.
fn layer_metrics(samples: &BTreeMap<&'static str, Vec<f64>>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = samples.get(name).map_or(0.0, |xs| median(xs));
            metric(name, value, unit)
        })
        .collect()
}

fn collect(samples: &mut BTreeMap<&'static str, Vec<f64>>, layers: &Layers) {
    for (&name, &value) in &layers.0 {
        samples.entry(name).or_default().push(value);
    }
}

fn run_single(args: &Args, algorithm: Algorithm, id_seeds: &[u64]) -> Result<Run, String> {
    let graph_seed = derive_seed(args.seed, 0);
    let (graphs, setup_s) = setup(|| single::setup(graph_seed, id_seeds.len()), |a, b| a == b)?;
    let list = |f: fn(&Graph) -> usize| {
        graphs
            .iter()
            .map(|g| f(g).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let mut provenance = vec![
        ("n", list(Graph::num_vertices)),
        ("m", list(Graph::num_edges)),
    ];
    let mut gate = Gate::new(id_seeds.len());
    // One untimed op first, so allocator and page-cache warm-up is not
    // charged to the first timed op; it still passes through the gate.
    let warmup = guarded(|| single::solve_op(&graphs[0], algorithm, id_seeds[0]));
    gate.record(0, "warm-up solve", warmup);
    let metrics = if args.trace {
        let mut samples = BTreeMap::new();
        let mut untraced_s = Vec::new();
        let mut traced_s = Vec::new();
        // Which of the pair runs first alternates, so memory left warm by
        // the op before does not favour one side of `trace.overhead`.
        let done = cycles(id_seeds.len(), args.seconds, |k| {
            for traced in [k % 2 == 1, k % 2 == 0] {
                if traced {
                    let result = guarded(|| single::traced_op(&graphs[k], algorithm, id_seeds[k]));
                    let (outcome, layers) = match result {
                        Ok((outcome, layers)) => (Ok(outcome), Some(layers)),
                        Err(e) => (Err(e), None),
                    };
                    if let (true, Some(layers)) = (gate.record(k, "traced solve", outcome), layers)
                    {
                        traced_s.push(layers.get("op_s"));
                        collect(&mut samples, &layers);
                    }
                } else {
                    let (untraced, s) =
                        timed(|| guarded(|| single::solve_op(&graphs[k], algorithm, id_seeds[k])));
                    if gate.record(k, "untraced solve", untraced) {
                        untraced_s.push(s);
                    }
                }
            }
        });
        provenance.push(("cycles", done.to_string()));
        samples.insert(
            "trace.overhead",
            vec![median(&traced_s) / median(&untraced_s)],
        );
        layer_metrics(&samples)
    } else {
        let (mut op_s, mut rss_mb) = (Vec::new(), Vec::new());
        let cpu = measure::process_cpu_s();
        let done = cycles(id_seeds.len(), args.seconds, |k| {
            measure::reset_peak_rss();
            let (result, s) =
                timed(|| guarded(|| single::solve_op(&graphs[k], algorithm, id_seeds[k])));
            if gate.record(k, "solve", result) {
                op_s.push(s);
                rss_mb.push(measure::peak_rss_mb());
            }
        });
        let cpu_s = measure::process_cpu_s() - cpu;
        provenance.push(("cycles", done.to_string()));
        let mut metrics = timing_metrics(&op_s, &rss_mb, cpu_s, 1.0, setup_s, &mut provenance);
        let outcomes = gate.outcomes().unwrap_or_default();
        let per_seed: Vec<&[Outcome]> = outcomes.into_iter().map(std::slice::from_ref).collect();
        metrics.extend(deterministic_metrics(&per_seed));
        metrics
    };
    Ok(Run {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        provenance,
    })
}

fn run_batch(args: &Args, id_seeds: &[u64], journal: &Path) -> Result<Run, String> {
    let graph_seed = derive_seed(args.seed, 0);
    let pool_seed = derive_seed(args.seed, 1);
    let (batch, setup_s) = setup(
        || batch::setup(graph_seed, id_seeds),
        batch::Batch::same_inputs,
    )?;
    let shards = batch.num_shards();
    let mut provenance = vec![
        ("shards", shards.to_string()),
        (
            "threads",
            bedom_distsim::ExecutionStrategy::Pooled(pool_seed)
                .threads_for(shards)
                .to_string(),
        ),
    ];
    let mut gate = Gate::new(id_seeds.len());
    let warmup = guarded(|| batch::batch_op(&batch.variants[0], pool_seed, journal));
    gate.record(0, "warm-up batch", warmup.map(|(outcomes, _)| outcomes));
    let (mut op_s, mut rss_mb) = (Vec::new(), Vec::new());
    let mut samples = BTreeMap::new();
    let cpu = measure::process_cpu_s();
    let done = cycles(id_seeds.len(), args.seconds, |k| {
        measure::reset_peak_rss();
        let result = guarded(|| batch::batch_op(&batch.variants[k], pool_seed, journal));
        let rss = measure::peak_rss_mb();
        let (outcome, wall) = match result {
            Ok((outcome, wall)) => (Ok(outcome), Some(wall)),
            Err(e) => (Err(e), None),
        };
        let expected = outcome.clone().ok();
        if !gate.record(k, "batch", outcome) {
            return;
        }
        let (Some(wall), Some(expected)) = (wall, expected) else {
            return;
        };
        op_s.push(wall);
        rss_mb.push(rss);
        if args.trace {
            let traced =
                guarded(|| batch::traced_op(&batch, k, pool_seed, journal, wall, &expected)).map(
                    |layers| {
                        collect(&mut samples, &layers);
                        expected
                    },
                );
            gate.record(k, "traced batch", traced);
        }
    });
    let cpu_s = measure::process_cpu_s() - cpu;
    provenance.push(("cycles", done.to_string()));
    let metrics = if args.trace {
        layer_metrics(&samples)
    } else {
        let mut metrics = timing_metrics(
            &op_s,
            &rss_mb,
            cpu_s,
            shards as f64,
            setup_s,
            &mut provenance,
        );
        let outcomes = gate.outcomes().unwrap_or_default();
        let per_seed: Vec<&[Outcome]> = outcomes.into_iter().map(Vec::as_slice).collect();
        metrics.extend(deterministic_metrics(&per_seed));
        metrics
    };
    Ok(Run {
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
        provenance,
    })
}

/// The commit of the checkout, read from `.git` in the working directory
/// without leaving it; `unknown` when the checkout is not a repository.
fn commit() -> String {
    let git = Path::new(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs")).and_then(|packed| {
                packed.lines().find_map(|line| {
                    line.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let variants = if args.workload == "batch-mixed" {
        BATCH_VARIANTS
    } else {
        SINGLE_VARIANTS
    };
    let id_seeds: Vec<u64> = (0..variants as u64)
        .map(|i| derive_seed(args.seed, 100 + i))
        .collect();
    let tmp_dir = PathBuf::from(".perfbench_tmp");
    let journal = tmp_dir.join(format!("batch-{}.journal", std::process::id()));
    let run = match args.workload.as_str() {
        "t9-planar-r2" => run_single(&args, Algorithm::OrderBased, &id_seeds),
        "ksv-planar-r2" => run_single(&args, Algorithm::KsvConstantRound, &id_seeds),
        _ => std::fs::create_dir_all(&tmp_dir)
            .map_err(|e| format!("cannot create {}: {e}", tmp_dir.display()))
            .and_then(|()| run_batch(&args, &id_seeds, &journal)),
    };
    // Leave nothing behind: the journal, then the directory if it is empty.
    let _ = batch::remove_journal(&journal);
    let _ = std::fs::remove_dir(&tmp_dir);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut provenance = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", u8::from(args.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        ("commit", commit()),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        (
            "id_seeds",
            id_seeds
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    provenance.extend(run.provenance);
    for m in &run.metrics {
        println!(
            "{:<34} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    let fields: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    let correct = run.failed == 0 && run.metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{}",
        result_line(correct, run.attempted, run.failed, &run.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
