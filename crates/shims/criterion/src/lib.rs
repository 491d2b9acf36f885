//! Offline stand-in for [criterion](https://crates.io/crates/criterion).
//!
//! No network, no registry cache — so the real crate can't be resolved.
//! This shim keeps the workspace's benches compiling and running with
//! the same API (`criterion_group!`, `criterion_main!`, `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`) and reports a
//! simple mean wall-clock time per iteration. No statistics, plots, or
//! baselines — it exists so `cargo bench` produces honest numbers
//! offline, not to replace criterion's analysis.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);

/// Per-iteration timer handed to bench closures.
pub struct Bencher {
    reported: Option<(u64, Duration)>,
}

impl Bencher {
    /// Time the routine: one warm-up call sizes the batch, then the
    /// batch is timed and the mean recorded.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
        let t1 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(routine());
        }
        self.reported = Some((iters, t1.elapsed()));
    }
}

/// Work done per iteration, for a per-element time beside the
/// per-iteration one.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Iterations each process this many elements.
    Elements(u64),
}

/// Identifies a parameterized benchmark.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter`.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes batches itself.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Set the work per iteration of the benchmarks that follow; each
    /// then also reports its time per element.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    fn run(&mut self, id: &str, b: &mut Bencher) {
        if let Some((iters, total)) = b.reported.take() {
            let per = total.as_nanos() as f64 / iters as f64;
            let per_elem = match self.throughput {
                Some(Throughput::Elements(n)) => format!("  {:>10.2} ns/elem", per / n as f64),
                None => String::new(),
            };
            println!(
                "bench {:<48} {:>14.1} ns/iter ({} iters){per_elem}",
                format!("{}/{}", self.name, id),
                per,
                iters
            );
        }
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { reported: None };
        f(&mut b);
        self.run(&id.to_string(), &mut b);
        self
    }

    /// Benchmark a closure against an input.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { reported: None };
        f(&mut b, input);
        self.run(&id.id, &mut b);
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            _criterion: self,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { reported: None };
        f(&mut b);
        if let Some((iters, total)) = b.reported.take() {
            let per = total.as_nanos() as f64 / iters as f64;
            println!(
                "bench {:<48} {:>14.1} ns/iter ({} iters)",
                id.to_string(),
                per,
                iters
            );
        }
        self
    }
}

/// Collect benchmark functions into a runner.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Entry point running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Re-export for code importing `criterion::black_box`.
pub use std::hint::black_box;
