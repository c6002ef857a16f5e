//! Criterion: end-to-end collapsed execution across recovery
//! strategies (the §V ablation, microbenchmark form) and the warp
//! executor (§VI.B).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nrl_core::{reducer, CollapseSpec, ParamPlan, Recovery, RunToken, Schedule, ThreadPool};
use nrl_kernels::kernels::Correlation;
use nrl_plan::{PlanCache, PlanContext};
use nrl_polyhedra::NestSpec;
use nrl_serve::{CollapseService, RunRequest, RunWork, ServeConfig, Tenant};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

fn bench_recoveries(c: &mut Criterion) {
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let sink = AtomicU64::new(0);
    let mut group = c.benchmark_group("collapsed_recovery");
    group.sample_size(20);
    for (label, recovery) in [
        ("once_per_chunk", Recovery::OncePerChunk),
        ("naive", Recovery::Naive),
        ("binary_search", Recovery::BinarySearch),
        ("reference", Recovery::Reference),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &recovery,
            |b, &recovery| {
                b.iter(|| {
                    collapsed.runner(&pool).recovery(recovery).run(|_t, p| {
                        sink.fetch_add(p[1] as u64, Ordering::Relaxed);
                    })
                });
            },
        );
    }
    group.finish();
    // Recovery-bound regime: small dynamic chunks force one recovery
    // per 32 iterations, so the compiled-vs-reference engine difference
    // shows up end-to-end in `Runner::run` (not just in microbenches).
    let mut group = c.benchmark_group("collapsed_recovery_bound");
    group.sample_size(20);
    for (label, recovery) in [
        ("once_per_chunk", Recovery::OncePerChunk),
        ("reference", Recovery::Reference),
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &recovery,
            |b, &recovery| {
                b.iter(|| {
                    collapsed
                        .runner(&pool)
                        .schedule(Schedule::Dynamic(32))
                        .recovery(recovery)
                        .run(|_t, p| {
                            sink.fetch_add(p[1] as u64, Ordering::Relaxed);
                        })
                });
            },
        );
    }
    group.finish();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_cancellation_overhead(c: &mut Criterion) {
    // The token-wired executor with a live token that never fires:
    // exactly the per-segment `should_stop` poll (one relaxed load) and
    // the chunk-local done counter on top of the plain ids. The CI gate
    // holds each id within 25% (or 30 ns) of its unwired
    // `collapsed_recovery` twin — cancellation support must stay free
    // for runs that never cancel.
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let sink = AtomicU64::new(0);
    let token = RunToken::new();
    let mut group = c.benchmark_group("cancellation_overhead");
    group.sample_size(20);
    group.bench_function("once_per_chunk", |b| {
        b.iter(|| {
            collapsed.runner(&pool).token(&token).run(|_t, p| {
                sink.fetch_add(p[1] as u64, Ordering::Relaxed);
            })
        });
    });
    group.finish();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_warp_sim(c: &mut Criterion) {
    // §VI.B lane executor end-to-end: one scalar anchor recovery per
    // lane + strided odometer walks.
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let sink = AtomicU64::new(0);
    // One width only: the sim's strided odometer walk is O(W·total),
    // so wide warps are too slow (and too noisy) for the CI gate.
    let warp = 32usize;
    let mut group = c.benchmark_group("warp_sim");
    group.sample_size(20);
    group.bench_with_input(BenchmarkId::from_parameter(warp), &warp, |b, &warp| {
        b.iter(|| {
            collapsed.runner(&pool).warp(warp, |_t, p| {
                sink.fetch_add(p[1] as u64, Ordering::Relaxed);
            })
        });
    });
    group.finish();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_spec_construction(c: &mut Criterion) {
    // Full symbolic preparation (ranking + all level equations).
    c.bench_function("collapse_spec_figure6", |b| {
        let nest = NestSpec::figure6();
        b.iter(|| CollapseSpec::new(black_box(&nest)).unwrap());
    });
    c.bench_function("bind_figure6_n1000", |b| {
        let spec = CollapseSpec::new(&NestSpec::figure6()).unwrap();
        b.iter(|| spec.bind_unchecked(black_box(&[1000])));
    });
}

fn bench_guarded(c: &mut Criterion) {
    // The guarded-nest executor (imperfect correlation: a level-0
    // prologue/epilogue pair sunk into the innermost loop). `segmented`
    // runs the row-segmented executor — guards derived from odometer
    // carry depths, one `NestPosition::of` per chunk — while
    // `per_point_scan` reconstructs the pre-segmentation scheme (an
    // O(depth) bounds rescan at every iteration on top of
    // `Runner::run`) as the ablation baseline. The acceptance target:
    // `segmented` within 10% of the unguarded
    // `collapsed_recovery/once_per_chunk` id.
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let sink = AtomicU64::new(0);
    // The imperfect-program shape: prologue folds the row index, body
    // accumulates, epilogue publishes.
    let guarded_body = |p: &[i64], pos: nrl_core::NestPosition| {
        let mut acc = p[1] as u64;
        if pos.fires_prologue(0) {
            acc = acc.wrapping_add(p[0] as u64);
        }
        if pos.fires_epilogue(0) {
            acc = acc.wrapping_mul(3);
        }
        sink.fetch_add(acc, Ordering::Relaxed);
    };
    let mut group = c.benchmark_group("collapsed_guarded");
    group.sample_size(20);
    group.bench_function("segmented", |b| {
        b.iter(|| {
            collapsed
                .runner(&pool)
                .run_guarded(|_t, p, pos| guarded_body(p, pos))
        });
    });
    group.bench_function("per_point_scan", |b| {
        let bound = nest.bind(&[800]);
        b.iter(|| {
            collapsed.runner(&pool).run(|_t, p| {
                let pos = nrl_core::NestPosition::of(&bound, p);
                guarded_body(p, pos);
            })
        });
    });
    group.finish();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_serve_overhead(c: &mut Criterion) {
    // The serving front's per-request tax over a direct token-wired
    // `Runner::run` of the same work (correlation N=800,
    // once-per-chunk recovery) through `submit_bound`: admission
    // bookkeeping and the ticket in the line for the pool; the caller
    // then runs the same work on the service pool itself.
    // The acceptance target holds `served` within 10% of `direct`
    // (both ids sit inside the standing 25%/30 ns CI gate).
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let service = CollapseService::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let sink = AtomicU64::new(0);
    let token = RunToken::new();
    let mut group = c.benchmark_group("serve_overhead");
    group.sample_size(20);
    group.bench_function("direct", |b| {
        b.iter(|| {
            collapsed.runner(&pool).token(&token).run(|_t, p| {
                sink.fetch_add(p[1] as u64, Ordering::Relaxed);
            })
        });
    });
    group.bench_function("served", |b| {
        let body = |_t: usize, p: &[i64]| {
            sink.fetch_add(p[1] as u64, Ordering::Relaxed);
        };
        b.iter(|| {
            service
                .submit_bound(&collapsed, RunRequest::new(Tenant(0), RunWork::Body(&body)))
                .unwrap()
        });
    });
    group.finish();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The tracing tax on the hottest instrumented end-to-end path
    // (correlation N=800, once-per-chunk recovery, the
    // `collapsed_recovery/once_per_chunk` twin): `off` runs with the
    // probes compiled in but recording disabled — one relaxed load per
    // chunk — and `on` records a span per chunk into the per-worker
    // rings (steady-state: the rings wrap and drop-oldest, which is
    // exactly the unattended-recording cost). The CI gate holds `on`
    // within the standing 25%/30 ns bar of its committed baseline;
    // the design target is ≤5% over `off`. Built without
    // `--features obs-trace` both ids measure the same un-instrumented
    // loop (the probes don't exist), which trivially passes.
    let nest = NestSpec::correlation();
    let spec = CollapseSpec::new(&nest).unwrap();
    let collapsed = spec.bind(&[800]).unwrap();
    let pool = ThreadPool::new(4);
    let sink = AtomicU64::new(0);
    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);
    for (label, enabled) in [("off", false), ("on", true)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &enabled, |b, &on| {
            nrl_obs::TraceConfig::set_enabled(on);
            b.iter(|| {
                collapsed.runner(&pool).run(|_t, p| {
                    sink.fetch_add(p[1] as u64, Ordering::Relaxed);
                })
            });
            nrl_obs::TraceConfig::set_enabled(false);
        });
    }
    group.finish();
    // Leave no buffered spans behind for anything run after us.
    let _ = nrl_obs::drain();
    black_box(sink.load(Ordering::Relaxed));
}

fn bench_reduce(c: &mut Criterion) {
    // Deterministic reduction vs the hand-rolled outer-parallel
    // baseline, both folding the real correlation update aggregate
    // (N=800, pool 4). `runner_collapsed` buys bit-reproducibility
    // across schedules/pool sizes with the fixed-grid join;
    // `outer_parallel_baseline` is what a programmer writes by hand
    // (per-worker partials, thread-id-order join) and is only
    // reproducible up to FP reassociation. The acceptance target holds
    // `runner_collapsed` at parity or better — the collapsed schedule
    // balances the triangle where the outer rows cannot.
    let kernel = Correlation::new(800);
    let pool = ThreadPool::new(4);
    let mut group = c.benchmark_group("reduce");
    group.sample_size(20);
    group.bench_function("runner_collapsed", |b| {
        b.iter(|| {
            black_box(kernel.update_aggregate(&pool, Schedule::Static, Recovery::OncePerChunk))
        });
    });
    group.bench_function("outer_parallel_baseline", |b| {
        b.iter(|| black_box(kernel.update_aggregate_outer(&pool, Schedule::Static)));
    });
    group.finish();
}

fn bench_row_walk(c: &mut Criterion) {
    // The row-walk layer: a one-thread `reduce` (no pool parallelism,
    // one anchor per schedule chunk) whose body hashes the point's
    // coordinates (xor, then a wrapping multiply, per coordinate) and
    // sums the hashes. The hash is not affine in the innermost index,
    // so the compiler cannot fold a row into a closed form: the time
    // is the innermost loop plus a fixed per-point cost. The JSON
    // gates the whole reduce; the printed `ns/elem` is the time per
    // point.
    let pool = ThreadPool::new(1);
    let sum = reducer(
        || 0i64,
        |_t, p: &[i64], acc: &mut i64| {
            let h = p.iter().fold(0i64, |h, &x| {
                (h ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)
            });
            *acc = acc.wrapping_add(h);
        },
        i64::wrapping_add,
    );
    let mut group = c.benchmark_group("layer/row_walk");
    group.sample_size(20);
    for (label, nest, n) in [
        ("correlation800", NestSpec::correlation(), 800),
        ("figure6_160", NestSpec::figure6(), 160),
    ] {
        let collapsed = CollapseSpec::new(&nest).unwrap().bind(&[n]).unwrap();
        group.throughput(Throughput::Elements(collapsed.total() as u64));
        group.bench_function(label, |b| {
            b.iter(|| collapsed.runner(&pool).reduce(&sum).value);
        });
    }
    group.finish();
}

fn bench_plan(c: &mut Criterion) {
    // The analyze/instantiate split on two shipped kernel shapes
    // (correlation is the registry's motivating kernel, figure6 the
    // 3-deep cubic): a cold request pays the full symbolic pipeline +
    // bind; a plan-served request pays one coefficient fold. The
    // committed per-shape ratio between the cold and instantiate ids
    // is the acceptance proof for the ≥ 20× amortization target
    // (~28× / ~30× at commit time).
    let shapes: [(&str, NestSpec, i64); 2] = [
        ("correlation800", NestSpec::correlation(), 800),
        ("figure6_1000", NestSpec::figure6(), 1000),
    ];
    let mut group = c.benchmark_group("plan");
    for (label, nest, n) in &shapes {
        let params = [*n];
        group.bench_with_input(
            BenchmarkId::new("cold_analyze_bind", label),
            nest,
            |b, nest| {
                b.iter(|| {
                    let spec = CollapseSpec::new(black_box(nest)).unwrap();
                    spec.bind(black_box(&params)).unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("instantiate_cached", label),
            nest,
            |b, nest| {
                let plan = ParamPlan::analyze(nest).unwrap();
                b.iter(|| plan.instantiate(black_box(&params)).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cache_hit_collapse", label),
            nest,
            |b, nest| {
                // The full service path: fingerprint + shard probe +
                // instantiate.
                let cache = PlanCache::new(4, 8);
                cache
                    .collapse(nest, PlanContext::default(), &params)
                    .unwrap();
                b.iter(|| {
                    cache
                        .collapse(black_box(nest), PlanContext::default(), black_box(&params))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// Shared Criterion settings: short measurement windows so the full
/// suite stays CI-friendly.
fn config() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}
criterion_group! { name = benches; config = config(); targets = bench_recoveries, bench_cancellation_overhead, bench_warp_sim, bench_spec_construction, bench_guarded, bench_serve_overhead, bench_obs_overhead, bench_reduce, bench_row_walk, bench_plan }
criterion_main!(benches);
