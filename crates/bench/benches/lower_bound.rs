//! Early-termination micro-benchmarks: the per-comparison cost of
//! bound-refining evaluation, one case per kernel path.
//!
//! Each iteration evaluates 64 comparisons through `evaluate_with` (one
//! reused scratch, as every hot caller does). The cases cover each
//! dtype × metric × vector-format path of the kernel:
//!
//! * `sift` (U8, L2) and `gist` (F32, L2) under the simple heuristic;
//! * the same two shapes under the bit-serial schedule (one line per bit);
//! * `glove` (F32, IP) under the simple heuristic;
//! * `spacev` (I8, L2) with common-prefix elimination, whose chosen
//!   prefix leaves both normal and outlier vectors.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ansmet_core::{EtConfig, EtEngine, EtScratch, FetchSchedule, PrefixSpec};
use ansmet_vecdata::{Dataset, SynthSpec};

/// One benchmark case: a shape and how to build its ET config.
type Case = (&'static str, SynthSpec, fn(&Dataset) -> EtConfig);

fn simple(data: &Dataset) -> EtConfig {
    EtConfig::new(FetchSchedule::simple_heuristic(data.dtype()))
}

fn bit_serial(data: &Dataset) -> EtConfig {
    EtConfig::new(FetchSchedule::bit_serial(data.dtype()))
}

fn prefix_with_outliers(data: &Dataset) -> EtConfig {
    let ids: Vec<usize> = (0..100).collect();
    let spec = PrefixSpec::choose(data, &ids, 0.01);
    let schedule = FetchSchedule::uniform_after_prefix(data.dtype(), spec.len(), 4);
    EtConfig::with_prefix(schedule, spec)
}

fn bench_lower_bound(c: &mut Criterion) {
    let mut group = c.benchmark_group("et-evaluate");
    let cases: [Case; 6] = [
        ("sift", SynthSpec::sift(), simple),
        ("gist", SynthSpec::gist(), simple),
        ("sift-bitserial", SynthSpec::sift(), bit_serial),
        ("gist-bitserial", SynthSpec::gist(), bit_serial),
        ("glove-ip", SynthSpec::glove(), simple),
        ("spacev-prefix", SynthSpec::spacev(), prefix_with_outliers),
    ];
    for (name, spec, config) in cases {
        let (data, queries) = spec.scaled(256, 4).generate();
        let engine = EtEngine::new(&data, config(&data));
        let q = queries[0].clone();
        // A tight threshold exercises the early-exit path; a loose one the
        // full refinement path.
        let d0 = data.distance_to(0, &q);
        let tight = if d0 >= 0.0 { d0 * 0.2 } else { d0 * 1.2 };
        for (mode, thr) in [("tight", tight), ("loose", f32::INFINITY)] {
            let mut scratch = EtScratch::new();
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-{mode}"), data.dim()),
                &engine,
                |b, engine| {
                    b.iter(|| {
                        let mut lines = 0usize;
                        for id in 0..64 {
                            lines += engine
                                .evaluate_with(
                                    black_box(id),
                                    black_box(&q),
                                    black_box(thr),
                                    &mut scratch,
                                )
                                .lines;
                        }
                        lines
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lower_bound);
criterion_main!(benches);
