//! # bedom-par
//!
//! A tiny deterministic fork-join layer used everywhere the bedom workspace
//! evaluates an embarrassingly parallel loop: the superstep engine of
//! `bedom-distsim`, the `WReachIndex` ball sweep of `bedom-wcol` and the
//! power-graph construction of `bedom-graph`.
//!
//! The crate exists so that there is exactly **one** execution path per loop:
//! callers write `strategy.map_collect(n, f)` (or one of the other
//! combinators) and the [`ExecutionStrategy`] value decides whether the body
//! runs on the current thread or is split into contiguous chunks across
//! `std::thread::scope` workers. Results are always written back by index, so
//! sequential and parallel execution are bit-identical by construction — a
//! property the determinism test suite asserts end to end.
//!
//! Two scheduling shapes, both bit-identical by construction:
//!
//! * The **static split** (`map_collect`, `chunk_collect_with`, …): every
//!   combinator splits its index range into `threads()` contiguous chunks up
//!   front. For the uniform per-element costs of superstep simulation this
//!   is within noise of a work-stealing scheduler.
//! * The **work queue** (`queue_collect_with`, `queue_stream_with`): a pool
//!   of persistent workers claims indices dynamically off one shared atomic
//!   counter — the shape for *imbalanced* loops like multi-graph scenario
//!   batches, where one heavy shard must not serialise a whole chunk behind
//!   it. Results are still placed (or streamed) strictly by index, so the
//!   claim order never leaks into the output.

use std::num::NonZeroUsize;

#[cfg(debug_assertions)]
pub mod sanitizer;

/// How an embarrassingly parallel loop is executed.
///
/// All variants produce bit-identical results; `Parallel` merely spreads
/// the index range over OS threads. `Parallel` on a single-core machine
/// degrades to sequential execution without spawning.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// Run the loop body on the calling thread.
    Sequential,
    /// Split the index range into contiguous chunks, one per available core.
    Parallel,
    /// Decide per loop: parallel only when the loop is large enough
    /// (`n > 4096`) to amortise thread handoff, sequential otherwise. The
    /// right default for configs built before the instance size is known.
    Auto,
    /// `Parallel` with a seeded schedule perturbation: each worker yields a
    /// seed-derived number of times before touching its chunk, and the
    /// fork-join primitives harvest worker results in a seed-shuffled order
    /// (still *placing* them by index). Output must be bit-identical to
    /// `Sequential` — any divergence means a combinator's result depends on
    /// scheduling, which is exactly the bug class the determinism suite runs
    /// this mode to flush out.
    Perturbed(u64),
    /// A persistent worker pool with a **dynamic work queue**: in the
    /// `queue_*` combinators, workers claim indices one at a time off a
    /// shared counter instead of receiving a static contiguous chunk, so a
    /// batch with one heavy element keeps every core busy. The seed
    /// perturbs worker start-up and join order exactly like
    /// [`ExecutionStrategy::Perturbed`] (which this mode degrades to in the
    /// chunk-based combinators, whose contract is a static split), varying
    /// the *claim schedule* across seeds; results are placed by index, so
    /// the output is bit-identical to `Sequential` for any seed.
    Pooled(u64),
}

impl ExecutionStrategy {
    /// `Parallel` when the machine has more than one core, else `Sequential`.
    pub fn auto() -> Self {
        if available_threads() > 1 {
            ExecutionStrategy::Parallel
        } else {
            ExecutionStrategy::Sequential
        }
    }

    /// Heuristic used by round-based simulations: parallelism only pays off
    /// once the per-round work is large enough to amortise thread handoff.
    pub fn auto_for(n: usize) -> Self {
        if n > 4096 {
            ExecutionStrategy::auto()
        } else {
            ExecutionStrategy::Sequential
        }
    }

    /// Whether this strategy may use more than one thread.
    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            ExecutionStrategy::Parallel
                | ExecutionStrategy::Auto
                | ExecutionStrategy::Perturbed(_)
                | ExecutionStrategy::Pooled(_)
        )
    }

    /// [`ExecutionStrategy::Perturbed`] seeded from the `BEDOM_PERTURB_SEED`
    /// environment variable, if set to an integer. The determinism suite uses
    /// this to re-run its cross-strategy assertions under a perturbed
    /// schedule without a dedicated binary.
    pub fn perturbed_from_env() -> Option<ExecutionStrategy> {
        std::env::var("BEDOM_PERTURB_SEED")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .map(ExecutionStrategy::Perturbed)
    }

    /// The perturbation seed, if this strategy carries one.
    fn perturb_seed(self) -> Option<u64> {
        match self {
            ExecutionStrategy::Perturbed(seed) | ExecutionStrategy::Pooled(seed) => Some(seed),
            _ => None,
        }
    }

    /// Seed-derived busy-yield executed by worker `worker` before it starts
    /// its chunk; a no-op for unperturbed strategies.
    fn stagger(self, worker: usize) {
        if let Some(seed) = self.perturb_seed() {
            let yields = splitmix64(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 8;
            for _ in 0..yields {
                std::thread::yield_now();
            }
        }
    }

    /// The strategy for loops running *inside* one unit of work of this
    /// strategy (e.g. the superstep engine inside one shard of a sharded
    /// batch run). Always [`ExecutionStrategy::Sequential`]: a parallel outer
    /// fan-out that also forked per shard would oversubscribe the machine
    /// with `threads²` workers, and pinning the nested level makes batch
    /// reports identical across outer strategies *by construction* rather
    /// than by the (asserted, but subtler) cross-strategy determinism of the
    /// nested loop itself.
    pub fn nested(self) -> ExecutionStrategy {
        ExecutionStrategy::Sequential
    }

    /// Number of worker threads this strategy will use for a loop of `n`
    /// elements (at most one per element). `Parallel` always uses at least
    /// two workers when `n ≥ 2`, even on a single-core machine: parallel
    /// means the fork-join path actually runs, so it is exercised (and its
    /// determinism asserted) everywhere instead of silently degrading to the
    /// sequential loop on small hosts. `Auto` only goes wide when both the
    /// loop and the machine make it worthwhile.
    pub fn threads_for(self, n: usize) -> usize {
        match self {
            ExecutionStrategy::Sequential => 1,
            ExecutionStrategy::Parallel
            | ExecutionStrategy::Perturbed(_)
            | ExecutionStrategy::Pooled(_) => available_threads().max(2).min(n.max(1)),
            ExecutionStrategy::Auto => {
                if n > 4096 {
                    available_threads().min(n)
                } else {
                    1
                }
            }
        }
    }

    /// `(0..n).map(f).collect()`, possibly evaluated in parallel chunks.
    ///
    /// `f` runs exactly once per index; results are placed by index, so the
    /// output is independent of the strategy.
    pub fn map_collect<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let parts =
            self.chunk_collect_with(n, || (), |(), range| range.map(&f).collect::<Vec<T>>());
        concat_parts(n, parts)
    }

    /// `(0..n).map(f).collect()` with a **worker-local scratch**: every worker
    /// thread builds one scratch value via `init` and reuses it for all the
    /// indices it processes, so a loop of `n` BFS sweeps allocates `O(threads)`
    /// scratch buffers instead of `O(n)`. The sequential path builds exactly
    /// one scratch. Results are placed by index; as long as `f`'s result for
    /// an index does not depend on residual scratch state (the scratch must be
    /// reset by `f` itself, e.g. by bumping an epoch), the output is
    /// bit-identical across strategies.
    pub fn map_collect_with<S, T, I, F>(self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let parts = self.chunk_collect_with(n, init, |scratch, range| {
            range.map(|i| f(scratch, i)).collect::<Vec<T>>()
        });
        concat_parts(n, parts)
    }

    /// Splits `0..n` into one contiguous chunk per worker thread and calls
    /// `f(&mut scratch, chunk_range)` once per chunk, each worker reusing a
    /// single scratch built by `init`. Returns the per-chunk results with
    /// ranges in ascending order; `Sequential` produces exactly one chunk
    /// `0..n`. This is the primitive behind flat (CSR) builders: each chunk
    /// appends per-index records to its own buffers and the caller
    /// concatenates, which is strategy-independent as long as the per-index
    /// records do not depend on the chunk boundaries.
    pub fn chunk_collect_with<S, T, I, F>(self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<usize>) -> T + Sync,
    {
        let threads = self.threads_for(n);
        if threads <= 1 || n == 0 {
            let mut scratch = init();
            #[cfg(debug_assertions)]
            let _guard = sanitizer::ScratchGuard::acquire(&scratch);
            return vec![f(&mut scratch, 0..n)];
        }
        let chunk = n.div_ceil(threads);
        let num_chunks = n.div_ceil(chunk);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(num_chunks);
        slots.resize_with(num_chunks, || None);
        std::thread::scope(|scope| {
            let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, T>>> = (0..n)
                .step_by(chunk)
                .enumerate()
                .map(|(worker, start)| {
                    let end = (start + chunk).min(n);
                    let init = &init;
                    let f = &f;
                    Some(scope.spawn(move || {
                        self.stagger(worker);
                        let mut scratch = init();
                        #[cfg(debug_assertions)]
                        let _guard = sanitizer::ScratchGuard::acquire(&scratch);
                        f(&mut scratch, start..end)
                    }))
                })
                .collect();
            // Harvest in (possibly seed-shuffled) order, but place by index:
            // completion order must never leak into the result.
            for idx in join_permutation(self.perturb_seed(), handles.len()) {
                if let Some(handle) = handles[idx].take() {
                    slots[idx] = Some(join_worker(handle));
                }
            }
        });
        let parts: Vec<T> = slots.into_iter().flatten().collect();
        assert_eq!(
            parts.len(),
            num_chunks,
            "bedom-par: a worker chunk produced no result"
        );
        parts
    }

    /// `(0..n).map(f).collect()` through a **dynamic work queue**: a pool of
    /// persistent workers (one scratch each, built by `init`) claims indices
    /// one at a time off a shared counter, so imbalanced per-index costs
    /// spread across the pool instead of serialising behind a static chunk
    /// boundary. Results are placed by index after the joins — the claim
    /// order (which *does* vary with scheduling and with a
    /// [`ExecutionStrategy::Pooled`] seed) never reaches the output, so
    /// every strategy is bit-identical to `Sequential` as long as `f`'s
    /// result for an index does not depend on residual scratch state.
    pub fn queue_collect_with<S, T, I, F>(self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let threads = self.threads_for(n);
        if threads <= 1 || n == 0 {
            let mut scratch = init();
            #[cfg(debug_assertions)]
            let _guard = sanitizer::ScratchGuard::acquire(&scratch);
            return (0..n).map(|i| f(&mut scratch, i)).collect();
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            // Each worker hands back its claimed `(index, result)` pairs.
            let mut handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let init = &init;
                    let f = &f;
                    let next = &next;
                    Some(scope.spawn(move || {
                        self.stagger(worker);
                        let mut scratch = init();
                        #[cfg(debug_assertions)]
                        let _guard = sanitizer::ScratchGuard::acquire(&scratch);
                        let mut claimed = Vec::new();
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            claimed.push((i, f(&mut scratch, i)));
                        }
                        claimed
                    }))
                })
                .collect();
            // Harvest in (possibly seed-shuffled) order, but place by index:
            // neither claim order nor completion order may leak.
            for idx in join_permutation(self.perturb_seed(), handles.len()) {
                if let Some(handle) = handles[idx].take() {
                    for (i, value) in join_worker(handle) {
                        slots[i] = Some(value);
                    }
                }
            }
        });
        let out: Vec<T> = slots.into_iter().flatten().collect();
        assert_eq!(out.len(), n, "bedom-par: the work queue lost a result");
        out
    }

    /// The streaming variant of [`ExecutionStrategy::queue_collect_with`]:
    /// instead of materialising a `Vec<T>` of all `n` results, each result is
    /// handed to `consume(i, result)` on the **calling thread** and can be
    /// folded away immediately — the combinator behind streaming report
    /// sinks, where a million-element batch must never hold a million
    /// results at once.
    ///
    /// `consume` is invoked **strictly in index order** (a reorder buffer
    /// holds out-of-order completions, so its worst-case footprint is the
    /// pool's completion skew, not `n`), which makes any fold — even an
    /// order-sensitive one — strategy-independent by construction.
    pub fn queue_stream_with<S, T, I, F, C>(self, n: usize, init: I, f: F, mut consume: C)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        let threads = self.threads_for(n);
        if threads <= 1 || n == 0 {
            let mut scratch = init();
            #[cfg(debug_assertions)]
            let _guard = sanitizer::ScratchGuard::acquire(&scratch);
            for i in 0..n {
                let value = f(&mut scratch, i);
                consume(i, value);
            }
            return;
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
            let mut handles: Vec<Option<std::thread::ScopedJoinHandle<'_, ()>>> = (0..threads)
                .map(|worker| {
                    let init = &init;
                    let f = &f;
                    let next = &next;
                    let tx = tx.clone();
                    Some(scope.spawn(move || {
                        self.stagger(worker);
                        let mut scratch = init();
                        #[cfg(debug_assertions)]
                        let _guard = sanitizer::ScratchGuard::acquire(&scratch);
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let value = f(&mut scratch, i);
                            if tx.send((i, value)).is_err() {
                                break;
                            }
                        }
                    }))
                })
                .collect();
            drop(tx);
            // Reorder buffer: completions arrive in schedule order but are
            // released strictly by index.
            let mut buffered: std::collections::BTreeMap<usize, T> =
                std::collections::BTreeMap::new();
            let mut release = 0usize;
            let mut received = 0usize;
            while received < n {
                match rx.recv() {
                    Ok((i, value)) => {
                        received += 1;
                        buffered.insert(i, value);
                        while let Some(value) = buffered.remove(&release) {
                            consume(release, value);
                            release += 1;
                        }
                    }
                    // Every sender hung up early: a worker died mid-queue.
                    // Fall through to the joins, which re-raise its panic
                    // with the original payload.
                    Err(_) => break,
                }
            }
            for idx in join_permutation(self.perturb_seed(), handles.len()) {
                if let Some(handle) = handles[idx].take() {
                    join_worker(handle);
                }
            }
            assert!(
                buffered.is_empty() && release == n,
                "bedom-par: the stream queue lost a result"
            );
        });
    }

    /// Calls `f(i, &mut out[i])` for every index, possibly in parallel
    /// chunks — the in-place variant of [`ExecutionStrategy::map_collect`]
    /// for pre-allocated buffers.
    pub fn apply<B, F>(self, out: &mut [B], f: F)
    where
        B: Send,
        F: Fn(usize, &mut B) + Sync,
    {
        let n = out.len();
        let threads = self.threads_for(n);
        if threads <= 1 || n == 0 {
            for (i, slot) in out.iter_mut().enumerate() {
                f(i, slot);
            }
            return;
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (idx, part) in out.chunks_mut(chunk).enumerate() {
                let base = idx * chunk;
                let f = &f;
                scope.spawn(move || {
                    self.stagger(idx);
                    for (i, slot) in part.iter_mut().enumerate() {
                        f(base + i, slot);
                    }
                });
            }
        });
    }

    /// Calls `f(i, &mut a[i], &mut b[i])` for every index, possibly in
    /// parallel chunks. This is the allocation-free primitive behind the
    /// superstep engine's round evaluation: `a` holds the mutable per-vertex
    /// state machines and `b` the pre-allocated output slots.
    ///
    /// Panics if the slices have different lengths.
    pub fn zip_apply<A, B, F>(self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut A, &mut B) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zip_apply requires equal-length slices");
        let n = a.len();
        let threads = self.threads_for(n);
        if threads <= 1 || n == 0 {
            for (i, (x, y)) in a.iter_mut().zip(b.iter_mut()).enumerate() {
                f(i, x, y);
            }
            return;
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (idx, (ca, cb)) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).enumerate() {
                let base = idx * chunk;
                let f = &f;
                scope.spawn(move || {
                    self.stagger(idx);
                    for (i, (x, y)) in ca.iter_mut().zip(cb.iter_mut()).enumerate() {
                        f(base + i, x, y);
                    }
                });
            }
        });
    }

    /// Runs `f` once per job, possibly spreading jobs across threads. Jobs
    /// carry their own disjoint `&mut` state (e.g. one arena slice each), so
    /// no synchronisation is needed; with `Sequential` (or a single job)
    /// they simply run in order on the calling thread.
    pub fn run_jobs<J, F>(self, jobs: Vec<J>, f: F)
    where
        J: Send,
        F: Fn(J) + Sync,
    {
        if jobs.len() <= 1 || !self.is_parallel() {
            for job in jobs {
                f(job);
            }
            return;
        }
        std::thread::scope(|scope| {
            for (idx, job) in jobs.into_iter().enumerate() {
                let f = &f;
                scope.spawn(move || {
                    self.stagger(idx);
                    f(job)
                });
            }
        });
    }
}

/// Number of hardware threads the parallel strategy can use.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// SplitMix64 step — the crate stays dependency-free, so the schedule
/// perturbation derives its yield counts and join shuffle from this inline
/// mixer instead of pulling in `bedom-rng` (which sits *above* this crate).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which worker handles are joined: identity without a seed,
/// a seeded Fisher–Yates shuffle with one.
fn join_permutation(seed: Option<u64>, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if let Some(seed) = seed {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        for i in (1..len).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// Joins a worker, re-raising its panic payload on the calling thread so a
/// panicking loop body surfaces with its original message.
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Concatenates per-chunk vectors into one `n`-element result, skipping the
/// copy when a single chunk already holds everything (the sequential path).
fn concat_parts<T>(n: usize, mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        if let Some(only) = parts.pop() {
            return only;
        }
    }
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_agree_on_map_collect() {
        let f = |i: usize| i * i + 1;
        for n in [0usize, 1, 7, 1000, 4099] {
            let seq = ExecutionStrategy::Sequential.map_collect(n, f);
            let par = ExecutionStrategy::Parallel.map_collect(n, f);
            let auto = ExecutionStrategy::Auto.map_collect(n, f);
            assert_eq!(seq, par);
            assert_eq!(seq, auto);
            assert_eq!(seq.len(), n);
        }
    }

    #[test]
    fn strategies_agree_on_map_collect_with() {
        // The scratch is a reusable buffer; the per-index result must not
        // depend on residual state, which the closure guarantees by clearing.
        let f = |scratch: &mut Vec<usize>, i: usize| {
            scratch.clear();
            scratch.extend(0..i % 7);
            scratch.iter().sum::<usize>() + i
        };
        for n in [0usize, 1, 13, 1000, 4099] {
            let seq = ExecutionStrategy::Sequential.map_collect_with(n, Vec::new, f);
            let par = ExecutionStrategy::Parallel.map_collect_with(n, Vec::new, f);
            assert_eq!(seq, par);
            assert_eq!(seq.len(), n);
        }
    }

    #[test]
    fn chunk_collect_with_covers_every_index_once() {
        for strategy in [ExecutionStrategy::Sequential, ExecutionStrategy::Parallel] {
            for n in [0usize, 1, 9, 4099] {
                let chunks = strategy.chunk_collect_with(n, || (), |(), range| range);
                let mut expected_start = 0;
                for range in &chunks {
                    assert_eq!(range.start, expected_start, "{strategy:?}, n = {n}");
                    expected_start = range.end;
                }
                assert_eq!(expected_start, n, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn map_collect_with_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let n = 5000;
        let out = ExecutionStrategy::Parallel.map_collect_with(
            n,
            || builds.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(out.len(), n);
        assert!(builds.load(Ordering::Relaxed) <= ExecutionStrategy::Parallel.threads_for(n));
    }

    #[test]
    fn strategies_agree_on_apply() {
        for n in [0usize, 1, 9, 5000] {
            let run = |strategy: ExecutionStrategy| {
                let mut out = vec![0usize; n];
                strategy.apply(&mut out, |i, slot| *slot = i * 3 + 1);
                out
            };
            assert_eq!(
                run(ExecutionStrategy::Sequential),
                run(ExecutionStrategy::Parallel)
            );
        }
    }

    #[test]
    fn strategies_agree_on_zip_apply() {
        for n in [0usize, 1, 5, 997] {
            let run = |strategy: ExecutionStrategy| {
                let mut state: Vec<u64> = (0..n as u64).collect();
                let mut out = vec![0u64; n];
                strategy.zip_apply(&mut state, &mut out, |i, s, o| {
                    *s += 1;
                    *o = *s * 10 + i as u64;
                });
                (state, out)
            };
            assert_eq!(
                run(ExecutionStrategy::Sequential),
                run(ExecutionStrategy::Parallel)
            );
        }
    }

    #[test]
    fn run_jobs_touches_every_job() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for strategy in [ExecutionStrategy::Sequential, ExecutionStrategy::Parallel] {
            let hits = AtomicUsize::new(0);
            let jobs: Vec<usize> = (0..37).collect();
            strategy.run_jobs(jobs, |j| {
                hits.fetch_add(j + 1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), (1..=37).sum::<usize>());
        }
    }

    #[test]
    fn nested_loops_are_always_sequential() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Auto,
            ExecutionStrategy::Perturbed(7),
            ExecutionStrategy::Pooled(7),
        ] {
            assert_eq!(strategy.nested(), ExecutionStrategy::Sequential);
        }
    }

    #[test]
    fn queue_collect_with_agrees_with_sequential_for_every_strategy_and_seed() {
        // Imbalanced per-index cost (quadratic in i % 97) so dynamic claims
        // genuinely interleave across workers.
        let f = |scratch: &mut Vec<u64>, i: usize| {
            scratch.clear();
            scratch.extend((0..(i % 97) as u64).map(|x| x * x));
            scratch.iter().sum::<u64>() + i as u64
        };
        for n in [0usize, 1, 2, 13, 1000, 4099] {
            let seq = ExecutionStrategy::Sequential.queue_collect_with(n, Vec::new, f);
            assert_eq!(seq.len(), n);
            for strategy in [
                ExecutionStrategy::Parallel,
                ExecutionStrategy::Auto,
                ExecutionStrategy::Pooled(0),
                ExecutionStrategy::Pooled(0xDEAD_BEEF),
                ExecutionStrategy::Perturbed(42),
            ] {
                let got = strategy.queue_collect_with(n, Vec::new, f);
                assert_eq!(seq, got, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn queue_collect_with_runs_each_index_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Pooled(3),
            ExecutionStrategy::Parallel,
        ] {
            let n = 4099;
            let calls = AtomicUsize::new(0);
            let out = strategy.queue_collect_with(
                n,
                || (),
                |(), i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "{strategy:?}");
            assert_eq!(calls.load(Ordering::Relaxed), n, "{strategy:?}");
        }
    }

    #[test]
    fn queue_collect_with_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let n = 5000;
        let strategy = ExecutionStrategy::Pooled(1);
        let out =
            strategy.queue_collect_with(n, || builds.fetch_add(1, Ordering::Relaxed), |_, i| i);
        assert_eq!(out.len(), n);
        assert!(builds.load(Ordering::Relaxed) <= strategy.threads_for(n));
    }

    #[test]
    fn queue_stream_with_consumes_in_index_order_under_every_strategy() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Pooled(0),
            ExecutionStrategy::Pooled(99),
            ExecutionStrategy::Perturbed(5),
        ] {
            for n in [0usize, 1, 7, 1000] {
                let mut seen = Vec::new();
                strategy.queue_stream_with(
                    n,
                    || (),
                    |(), i| i * 3 + 1,
                    |i, value| seen.push((i, value)),
                );
                let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3 + 1)).collect();
                assert_eq!(seen, expected, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn queue_worker_panics_propagate_with_their_payload() {
        for strategy in [ExecutionStrategy::Pooled(0), ExecutionStrategy::Parallel] {
            let collected = std::panic::catch_unwind(|| {
                strategy.queue_collect_with(
                    5000,
                    || (),
                    |(), i| {
                        assert!(i != 2500, "queue boom at {i}");
                        i
                    },
                );
            });
            assert!(collected.is_err(), "{strategy:?}");
            let streamed = std::panic::catch_unwind(|| {
                let mut sink = 0usize;
                strategy.queue_stream_with(
                    5000,
                    || (),
                    |(), i| {
                        assert!(i != 2500, "stream boom at {i}");
                        i
                    },
                    |_, v| sink += v,
                );
            });
            assert!(streamed.is_err(), "{strategy:?}");
        }
    }

    #[test]
    fn pooled_agrees_with_sequential_on_the_chunk_combinators_too() {
        // In the chunk-based combinators Pooled degrades to a perturbed
        // static split; outputs stay bit-identical.
        let n = 4099;
        let pooled = ExecutionStrategy::Pooled(0xfeed);
        assert!(pooled.is_parallel());
        assert!(pooled.threads_for(n) >= 2);
        let seq_map = ExecutionStrategy::Sequential.map_collect(n, |i| i * 31 + 7);
        assert_eq!(seq_map, pooled.map_collect(n, |i| i * 31 + 7));
        let apply = |strategy: ExecutionStrategy| {
            let mut out = vec![0usize; n];
            strategy.apply(&mut out, |i, slot| *slot = i ^ 0x5555);
            out
        };
        assert_eq!(apply(ExecutionStrategy::Sequential), apply(pooled));
    }

    #[test]
    fn perturbed_agrees_with_sequential_on_every_combinator() {
        let n = 4099;
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let perturbed = ExecutionStrategy::Perturbed(seed);
            assert!(perturbed.is_parallel());
            assert!(perturbed.threads_for(n) >= 2);

            let seq_map = ExecutionStrategy::Sequential.map_collect(n, |i| i * 31 + 7);
            assert_eq!(seq_map, perturbed.map_collect(n, |i| i * 31 + 7));

            let with = |strategy: ExecutionStrategy| {
                strategy.map_collect_with(n, Vec::new, |scratch: &mut Vec<usize>, i| {
                    scratch.clear();
                    scratch.extend(0..i % 5);
                    scratch.iter().sum::<usize>() + i
                })
            };
            assert_eq!(with(ExecutionStrategy::Sequential), with(perturbed));

            let apply = |strategy: ExecutionStrategy| {
                let mut out = vec![0usize; n];
                strategy.apply(&mut out, |i, slot| *slot = i ^ 0x5555);
                out
            };
            assert_eq!(apply(ExecutionStrategy::Sequential), apply(perturbed));

            let chunks = perturbed.chunk_collect_with(n, || (), |(), range| range);
            let mut expected_start = 0;
            for range in &chunks {
                assert_eq!(range.start, expected_start, "seed {seed}");
                expected_start = range.end;
            }
            assert_eq!(expected_start, n, "seed {seed}");
        }
    }

    #[test]
    fn perturbed_from_env_parses_the_seed() {
        // Avoid mutating the process environment (other tests run in
        // parallel); the parse path is covered via the public constructor
        // plus the env read returning None when unset here.
        match ExecutionStrategy::perturbed_from_env() {
            None => {}
            Some(ExecutionStrategy::Perturbed(_)) => {}
            Some(other) => panic!("unexpected strategy {other:?}"),
        }
    }

    #[test]
    fn join_permutation_is_a_permutation() {
        for len in [0usize, 1, 2, 13] {
            for seed in [None, Some(0u64), Some(42)] {
                let mut order = join_permutation(seed, len);
                order.sort_unstable();
                assert_eq!(order, (0..len).collect::<Vec<_>>());
            }
        }
        assert_eq!(join_permutation(None, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            ExecutionStrategy::Parallel.map_collect(5000, |i| {
                assert!(i != 2500, "boom at {i}");
                i
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn thread_counts() {
        assert_eq!(ExecutionStrategy::Sequential.threads_for(100), 1);
        assert!(ExecutionStrategy::Parallel.threads_for(100) >= 1);
        assert_eq!(ExecutionStrategy::Parallel.threads_for(1), 1);
        assert!(!ExecutionStrategy::auto_for(10).is_parallel());
        assert_eq!(ExecutionStrategy::Auto.threads_for(10), 1);
        assert_eq!(
            ExecutionStrategy::Auto.threads_for(10_000),
            available_threads()
        );
        assert!(available_threads() >= 1);
    }
}
