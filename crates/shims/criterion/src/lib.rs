//! Offline stand-in for [criterion](https://crates.io/crates/criterion).
//!
//! No network, no registry cache — so the real crate can't be resolved.
//! This shim keeps the workspace's benches compiling and running with
//! the same API (`criterion_group!`, `criterion_main!`, `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Bencher::iter`) and reports a
//! simple mean wall-clock time per iteration. No statistics, plots, or
//! baselines — it exists so `cargo bench` produces honest numbers
//! offline, not to replace criterion's analysis. Like criterion, it
//! takes the first positional argument as a name filter: `cargo bench
//! -- fitness_eval` runs only the benchmarks whose `group/id` name
//! contains `fitness_eval` (a plain substring, not a regex).

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
    criterion: &'a mut Criterion,
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

    /// Run `f` as benchmark `group/id` unless the name filter skips it,
    /// and print its time.
    fn run(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) {
        let name = format!("{}/{}", self.name, id);
        if let Some((per, iters)) = self.criterion.measure(&name, f) {
            let per_elem = match self.throughput {
                Some(Throughput::Elements(n)) => format!("  {:>10.2} ns/elem", per / n as f64),
                None => String::new(),
            };
            println!("bench {name:<48} {per:>14.1} ns/iter ({iters} iters){per_elem}");
        }
    }

    /// Benchmark a closure.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        self.run(&id.to_string(), |b| f(b));
        self
    }

    /// Benchmark a closure against an input.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.run(&id.id, |b| f(b, input));
        self
    }

    /// End the group.
    pub fn finish(self) {}
}

/// The benchmark driver.
pub struct Criterion {
    /// Only benchmarks whose full name contains this run.
    filter: Option<String>,
}

impl Default for Criterion {
    /// A driver filtered by the first command-line argument that is not
    /// a flag (`cargo bench` itself passes `--bench`).
    fn default() -> Self {
        Criterion {
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Time `f` as benchmark `name`: nanoseconds per iteration and the
    /// iteration count, or `None` when the filter skips it (then `f` is
    /// never called) or `f` timed nothing.
    fn measure(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> Option<(f64, u64)> {
        if self
            .filter
            .as_ref()
            .is_some_and(|want| !name.contains(want))
        {
            return None;
        }
        let mut b = Bencher { reported: None };
        f(&mut b);
        let (iters, total) = b.reported?;
        Some((total.as_nanos() as f64 / iters as f64, iters))
    }

    /// Open a named group.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            criterion: self,
        }
    }

    /// Benchmark a closure outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let name = id.to_string();
        if let Some((per, iters)) = self.measure(&name, |b| f(b)) {
            println!("bench {name:<48} {per:>14.1} ns/iter ({iters} iters)");
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_name_filter_skips_benchmarks_it_does_not_match() {
        let mut c = Criterion {
            filter: Some("fitness_eval".into()),
        };
        let mut ran = Vec::new();
        for name in ["rng/ca_1000_draws", "fitness_eval/BF6"] {
            let timed = c.measure(name, |b| {
                ran.push(name);
                b.iter(|| 1 + 1);
            });
            assert_eq!(timed.is_some(), name.starts_with("fitness_eval"));
        }
        assert_eq!(ran, ["fitness_eval/BF6"]);
    }
}
