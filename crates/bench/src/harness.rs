//! A minimal, dependency-free stand-in for the Criterion benchmark API.
//!
//! The build environment is hermetic (no crates.io access), so the bench
//! targets cannot link the real `criterion` crate. This module implements
//! the tiny slice of its API the benches use — `Criterion`,
//! `benchmark_group`, `sample_size` / `measurement_time` / `warm_up_time`
//! / `throughput`, `bench_function`, `Bencher::iter` and the
//! `criterion_group!` / `criterion_main!` macros — with plain wall-clock
//! timing, so `cargo bench --features bench` runs offline and prints
//! median/min/max per-iteration times (and the median per element when
//! the group declares a throughput).
//!
//! The numbers are honest but unsophisticated: no outlier rejection, no
//! bootstrap confidence intervals. For cross-run comparisons on a quiet
//! machine that is enough to spot ×2-and-bigger kernel effects.

use std::hint::black_box;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

pub mod measurement {
    //! Measurement marker types (API compatibility with Criterion).

    /// Wall-clock time measurement — the only measurement supported.
    #[derive(Debug, Default, Clone, Copy)]
    pub struct WallTime;
}

/// Work one iteration does (API compatibility with Criterion): a group
/// that declares it also prints its median per unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (cycles, pairs, …) processed per iteration.
    Elements(u64),
}

/// Entry point handed to every benchmark function.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            measurement: Duration::from_secs(1),
            warm_up: Duration::from_millis(300),
            throughput: None,
            _criterion: PhantomData,
        }
    }
}

/// A group of benchmarks sharing sampling settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a, M = measurement::WallTime> {
    name: String,
    sample_size: usize,
    measurement: Duration,
    warm_up: Duration,
    throughput: Option<Throughput>,
    _criterion: PhantomData<(&'a mut Criterion, M)>,
}

impl<M> BenchmarkGroup<'_, M> {
    /// Number of timed samples collected per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement = d;
        self
    }

    /// Untimed warm-up budget before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up = d;
        self
    }

    /// Work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark and print its per-iteration timing summary.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            iters: 1,
            elapsed: Duration::ZERO,
        };

        // Warm-up: repeat single iterations until the budget elapses, and
        // use the fastest observation to calibrate the per-sample count.
        let warm_start = Instant::now();
        let mut best = Duration::MAX;
        loop {
            b.iters = 1;
            f(&mut b);
            best = best.min(b.elapsed.max(Duration::from_nanos(1)));
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }
        let per_sample = self.measurement.as_nanos() / self.sample_size.max(1) as u128;
        let iters = (per_sample / best.as_nanos().max(1)).clamp(1, 1_000_000_000) as u64;

        let mut samples: Vec<f64> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            b.iters = iters;
            f(&mut b);
            samples.push(b.elapsed.as_secs_f64() / iters as f64);
        }
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let fmt = |s: f64| {
            if s >= 1.0 {
                format!("{s:.3} s")
            } else if s >= 1e-3 {
                format!("{:.3} ms", s * 1e3)
            } else if s >= 1e-6 {
                format!("{:.3} µs", s * 1e6)
            } else {
                format!("{:.1} ns", s * 1e9)
            }
        };
        let per_element = match self.throughput {
            Some(Throughput::Elements(n)) => format!("  {} per element", fmt(median / n as f64)),
            None => String::new(),
        };
        println!(
            "{}/{:<28} median {:>12}   [{} .. {}]  ({} samples × {} iters){}",
            self.name,
            id,
            fmt(median),
            fmt(samples[0]),
            fmt(*samples.last().expect("nonempty samples")),
            samples.len(),
            iters,
            per_element,
        );
        self
    }

    /// End the group (printing is per-function; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Timer handle passed to the closure of [`BenchmarkGroup::bench_function`].
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Time `f` over this sample's iteration count.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }
}

/// Build a function running a list of benchmark functions (Criterion-macro
/// compatible).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Build the bench `main` from one or more groups (Criterion-macro
/// compatible).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() { $( $group(); )+ }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3)
            .measurement_time(Duration::from_millis(5))
            .warm_up_time(Duration::from_millis(1));
        let mut calls = 0u64;
        g.throughput(Throughput::Elements(4));
        g.bench_function("noop", |b| b.iter(|| calls += 1));
        g.finish();
        assert!(calls > 0, "the closure must actually run");
    }
}
