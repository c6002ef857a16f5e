//! `serve`: a closed loop of client threads against one
//! `CollapseService`. Each client replays a seeded stream of `run`,
//! `reduce` and `bind` requests from two tenants over ten 2–3-deep
//! shapes: per block of ten requests two large (≥ 240k points), one
//! bind, five small default runs, one small run pinned to a `Dynamic`
//! grain and one small reduce (small: 1–3k points). Every reply is
//! checked against sums this file computes by enumerating the shapes
//! itself.

use crate::pace::Pace;
use crate::shapes::{self, Nest};
use crate::trace::{SpanBuf, Trace};
use crate::util::{
    geomean, median, micros, nproc, quantile, report_failure, windows, Metrics, Padded, Rng,
    WindowLog, Windowed, WINDOW_S,
};
use crate::{Phase, Workload};
use nrl_core::{Collapsed, NestSpec, Schedule, ThreadPool};
use nrl_plan::{PlanCache, PlanContext};
use nrl_serve::{CollapseRequest, CollapseService, ServeConfig, ServeReducer, Tenant};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Service pool threads. One: the process runs on one CPU (see
/// README.md), so a second worker could only time-share it.
const SERVICE_WORKERS: usize = 1;
/// Requests generated per client; the stream is replayed in a loop.
const STREAM_LEN: usize = 2000;
/// How strongly the median small-request latency follows the pace: it
/// is almost all service overhead (heap, queue, locks), like the
/// reference work, where large requests, the waits behind them and
/// throughput follow it with the workload's `PACE_EXPONENT` (see
/// README.md).
const SMALL_PACE_EXPONENT: f64 = 1.0;
/// Each client takes a pace sample (see `crate::pace`) after every
/// `PACE_EVERY`-th request, outside the timed call.
const PACE_EVERY: usize = 20;
/// The grain pinned by the recovery-bound share of requests.
const PINNED_GRAIN: u64 = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Run,
    Reduce,
    Bind,
}

/// One request of a client's stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    pub verb: Verb,
    pub shape: usize,
    /// `0..3`: one of the shape's small parameter vectors; `3`: large.
    pub variant: usize,
    /// Pins `Schedule::Dynamic(PINNED_GRAIN)` in the request context.
    pub pinned: bool,
    pub tenant: u32,
}

const LARGE: usize = 3;

impl Req {
    fn large(&self) -> bool {
        self.variant == LARGE
    }

    fn class(&self) -> Class {
        match (self.verb, self.large(), self.pinned) {
            (Verb::Bind, _, _) => Class::Bind,
            (_, true, _) => Class::Large,
            (_, false, true) => Class::SmallPinned,
            (Verb::Reduce, false, false) => Class::SmallReduce,
            (Verb::Run, false, false) => Class::Small,
        }
    }

    /// Index of the request this one sends in [`Serve::requests`]
    /// (the verb is not part of it).
    fn key(&self) -> usize {
        ((self.shape * (LARGE + 1) + self.variant) * 2 + self.pinned as usize) * 2
            + (self.tenant - 1) as usize
    }
}

struct Shape {
    spec: NestSpec,
    /// Three small parameter vectors, then the large one.
    params: Vec<Vec<i64>>,
    /// Per variant: (points, Σ value) by enumeration.
    reference: Vec<(u64, u64)>,
}

/// The served shapes and their parameters: small ones from a seeded
/// set (so plan-cache and tuner slots mostly hit), large ones fixed at
/// about 250k points.
fn catalogue(rng: &mut Rng) -> Vec<(Nest, Vec<Vec<i64>>)> {
    // Three small vectors (`base` with its last parameter raised by up
    // to `spread`), then the large one.
    let mut params = |base: &[i64], spread: i64, large: &[i64]| -> Vec<Vec<i64>> {
        let mut v: Vec<Vec<i64>> = (0..3)
            .map(|_| {
                let mut p = base.to_vec();
                *p.last_mut().expect("a parameter") += rng.range(0, spread);
                p
            })
            .collect();
        v.push(large.to_vec());
        v
    };
    vec![
        (shapes::correlation(), params(&[62], 3, &[708])),
        (shapes::upper(), params(&[62], 3, &[707])),
        (shapes::lower(), params(&[62], 3, &[707])),
        (shapes::figure6(), params(&[23], 1, &[115])),
        (shapes::tetra(), params(&[21], 1, &[113])),
        (shapes::trapezoid(), params(&[30, 40], 4, &[400, 425])),
        (shapes::band(), params(&[8, 250], 12, &[8, 31_250])),
        (shapes::prism(), params(&[12, 25], 2, &[100, 50])),
        (shapes::skew(), params(&[46], 2, &[500])),
        (shapes::sheared(), params(&[5, 20, 20], 2, &[10, 100, 250])),
    ]
}

/// One client's request stream, in blocks of ten in seeded order:
/// two large requests, one bind, five small runs, one small run pinned
/// to a `Dynamic` grain and one small reduce. Large requests visit the
/// shapes in a seeded order, alternate run and reduce, and every fifth
/// visit to a shape is pinned, so every seed gives the same mix.
pub fn stream(seed: u64, client: usize, nshapes: usize) -> Vec<Req> {
    let mut rng = Rng::derive(seed, 0x5E87 + client as u64);
    let mut order: Vec<usize> = (0..nshapes).collect();
    rng.shuffle(&mut order);
    let mut out = Vec::with_capacity(STREAM_LEN);
    let mut larges = 0usize;
    while out.len() < STREAM_LEN {
        // (verb, pinned, large) of the ten requests of a block.
        let mut block = [(Verb::Run, false, false); 10];
        block[0] = (Verb::Run, false, true);
        block[1] = (Verb::Run, false, true);
        block[2] = (Verb::Bind, false, false);
        block[3] = (Verb::Run, true, false);
        block[4] = (Verb::Reduce, false, false);
        rng.shuffle(&mut block);
        for (verb, pinned, large) in block {
            let tenant = 1 + rng.below(2) as u32;
            let req = if large {
                let (shape, visit) = (order[larges % nshapes], larges / nshapes);
                larges += 1;
                Req {
                    verb: if larges.is_multiple_of(2) {
                        Verb::Run
                    } else {
                        Verb::Reduce
                    },
                    shape,
                    variant: LARGE,
                    pinned: visit % 5 == 4,
                    tenant,
                }
            } else {
                Req {
                    verb,
                    shape: rng.below(nshapes),
                    variant: rng.below(3),
                    pinned,
                    tenant,
                }
            };
            out.push(req);
        }
    }
    out
}

/// The integer each point contributes: exact in `f64` for every
/// domain here (sums stay far below 2^53).
fn value(coef: &[u64; 3], p: &[i64]) -> u64 {
    1 + p.iter().zip(coef).map(|(x, c)| *x as u64 * c).sum::<u64>()
}

struct SumReducer([u64; 3]);

impl ServeReducer for SumReducer {
    fn identity(&self) -> f64 {
        0.0
    }
    fn accum(&self, _tid: usize, point: &[i64], acc: &mut f64) {
        *acc += value(&self.0, point) as f64;
    }
    fn join(&self, left: f64, right: f64) -> f64 {
        left + right
    }
}

pub struct Serve {
    service: CollapseService,
    shapes: Vec<Shape>,
    /// Every distinct request, built once (indexed by [`Req::key`]):
    /// the clients time the service, not request construction.
    requests: Vec<CollapseRequest>,
    streams: Vec<Vec<Req>>,
    coef: [u64; 3],
    clients: usize,
}

fn request(shape: &Shape, variant: usize, pinned: bool, tenant: u32) -> CollapseRequest {
    let ctx = PlanContext {
        schedule: pinned.then_some(Schedule::Dynamic(PINNED_GRAIN)),
        recovery: None,
    };
    CollapseRequest::new(
        shape.spec.clone(),
        shape.params[variant].clone(),
        Tenant(tenant),
    )
    .with_ctx(ctx)
}

/// The latency class of a request; each latency metric is taken over
/// one class.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Small runs with the default (tuned) strategy.
    Small,
    /// Small reduces: the fixed reduction grid makes them several
    /// times costlier than small runs.
    SmallReduce,
    /// Small runs pinned to `Dynamic(PINNED_GRAIN)`: throughput only.
    SmallPinned,
    Large,
    Bind,
}

/// One completed request as its client saw it.
struct Sample {
    class: Class,
    shape: usize,
    us: f64,
}

/// What the clients completed in one window, and its length.
struct Round {
    done: u64,
    points: u64,
    seconds: f64,
}

/// A client's place in its stream and what it counted, kept from one
/// window to the next.
struct ClientState {
    next: usize,
    log: ClientLog,
    spans: SpanBuf,
    pace: Pace,
}

/// What a client counted.
#[derive(Default)]
struct ClientLog {
    attempted: u64,
    failed: u64,
    small: u64,
    small_behind_large: u64,
}

impl Serve {
    /// Sends one request and checks the reply; returns whether it was
    /// correct.
    fn send(&self, r: &Req, slots: &[Padded]) -> bool {
        let req = &self.requests[r.key()];
        let shape = &self.shapes[r.shape];
        let (points, sum) = shape.reference[r.variant];
        match r.verb {
            Verb::Bind => matches!(self.service.bind(req), Ok(c) if c.total() == points as i128),
            Verb::Run => {
                slots.iter().for_each(Padded::reset);
                let coef = self.coef;
                let body = |tid: usize, p: &[i64]| slots[tid].bump(value(&coef, p));
                match self.service.run(req, &body) {
                    Ok(reply) => {
                        reply.outcome.is_completed()
                            && slots.iter().map(Padded::get).sum::<u64>() == sum
                    }
                    Err(_) => false,
                }
            }
            Verb::Reduce => match self.service.reduce(req, &SumReducer(self.coef)) {
                Ok(reply) => reply.outcome.is_completed() && reply.reduced == Some(sum as f64),
                Err(_) => false,
            },
        }
    }

    /// Runs client `c` until `end`, from where it stopped in its
    /// stream; returns the requests it completed correctly in this
    /// window and their points.
    fn client(
        &self,
        c: usize,
        end: Instant,
        busy: &[AtomicBool],
        samples: &Mutex<WindowLog<'_, Sample>>,
        st: &mut ClientState,
    ) -> (u64, u64) {
        let (mut done, mut done_points) = (0, 0);
        let slots: Vec<Padded> = (0..SERVICE_WORKERS).map(|_| Padded::default()).collect();
        let stream = &self.streams[c];
        while Instant::now() < end {
            let n = st.next;
            st.next += 1;
            let r = &stream[n % stream.len()];
            let log = &mut st.log;
            let class = r.class();
            if r.large() {
                busy[c].store(true, Ordering::Relaxed);
            } else if class == Class::Small {
                log.small += 1;
            }
            if class == Class::Small
                && busy
                    .iter()
                    .enumerate()
                    .any(|(o, b)| o != c && b.load(Ordering::Relaxed))
            {
                log.small_behind_large += 1;
            }
            let name = match class {
                Class::Bind => "serve.bind",
                Class::Large => "serve.large",
                Class::Small => "serve.small",
                Class::SmallReduce => "serve.small_reduce",
                Class::SmallPinned => "serve.small_pinned",
            };
            let span = st.spans.begin(name, ((c as u64) << 32) | n as u64);
            let t0 = Instant::now();
            let ok = self.send(r, &slots);
            let us = micros(t0);
            st.spans.end(span);
            if !ok {
                report_failure(|| format!("serve: wrong or missing reply to {r:?}"));
            }
            busy[c].store(false, Ordering::Relaxed);
            log.attempted += 1;
            log.failed += !ok as u64;
            let points = match r.verb {
                Verb::Bind => 0,
                _ => self.shapes[r.shape].reference[r.variant].0,
            };
            if ok {
                done += 1;
                done_points += points;
            }
            samples.lock().expect("sample log lock").push(Sample {
                class,
                shape: r.shape,
                us,
            });
            if n.is_multiple_of(PACE_EVERY) {
                st.pace.sample();
            }
        }
        (done, done_points)
    }

    /// The shared sample log of a phase; its end-to-end metrics are
    /// computed per window (see [`Windowed`]).
    fn samples(&self) -> WindowLog<'_, Sample> {
        WindowLog::new(Self::PACE_EXPONENT, |w: &[Sample], m: &mut Windowed| {
            let lat = |c: Class, shape: Option<usize>| -> Vec<f64> {
                w.iter()
                    .filter(|x| x.class == c && shape.is_none_or(|s| s == x.shape))
                    .map(|x| x.us)
                    .collect()
            };
            let small = lat(Class::Small, None);
            m.push_paced("small_p50_us", median(&small), "us", SMALL_PACE_EXPONENT);
            // The p90 is a wait behind a large request: it follows the
            // pace as large requests do.
            m.push("small_p90_us", quantile(&small, 0.9), "us");
            m.push("large_p50_us", median(&lat(Class::Large, None)), "us");
            m.push("op_p50_us", median(&lat(Class::SmallReduce, None)), "us");
            let per_shape: Vec<f64> = (0..self.shapes.len())
                .map(|s| median(&lat(Class::Large, Some(s))) / 1e3)
                .collect();
            m.push("kernel_geomean_ms", geomean(&per_shape), "ms");
        })
    }

    /// Per-layer probes: the same domains and body without the
    /// service, and the plan and strategy calls the service makes.
    fn probes(&self, spans: &mut SpanBuf) {
        let cache = PlanCache::new(8, 16);
        let pool = ThreadPool::new(SERVICE_WORKERS);
        let slots: Vec<Padded> = (0..SERVICE_WORKERS).map(|_| Padded::default()).collect();
        let coef = self.coef;
        let body = |tid: usize, p: &[i64]| slots[tid].bump(value(&coef, p));
        for (s, shape) in self.shapes.iter().enumerate() {
            let op = s as u64;
            let small = &shape.params[0];
            let warm = cache
                .collapse_coalesced(&shape.spec, PlanContext::default(), small)
                .expect("probe shape resolves");
            black_box(warm.total());
            for _ in 0..50 {
                let c = spans.scope("plan.resolve", op, || {
                    cache.collapse_coalesced(&shape.spec, PlanContext::default(), small)
                });
                black_box(c.expect("warm shape resolves").total());
            }
            let large: Collapsed = cache
                .collapse_coalesced(&shape.spec, PlanContext::default(), &shape.params[LARGE])
                .expect("probe shape resolves");
            for _ in 0..50 {
                let runner = spans.scope("strategy.auto", op, || warm.runner(&pool).auto());
                black_box(runner.strategy());
                spans.scope("serve.direct_small", op, || warm.runner(&pool).run(body));
            }
            for _ in 0..3 {
                spans.scope("serve.direct_large", op, || large.runner(&pool).run(body));
            }
        }
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";
    const ONE_CPU: bool = true;
    const PACE_EXPONENT: f64 = 0.75;
    const PRIMARY: &'static str = "ops_per_s";

    fn setup(seed: u64, corrupt: bool) -> Serve {
        let service = CollapseService::new(ServeConfig {
            workers: SERVICE_WORKERS,
            queue_capacity: 64,
            tenant_quota: 16,
            cache_shards: 8,
            cache_plans_per_shard: 16,
        });
        let mut rng = Rng::derive(seed, 0x5E);
        let coef = [
            rng.range(1, 9) as u64,
            rng.range(1, 9) as u64,
            rng.range(1, 9) as u64,
        ];
        let mut shapes: Vec<Shape> = catalogue(&mut rng)
            .into_iter()
            .map(|(nest, params)| {
                let spec = nrl_dsl::parse(&nest.source())
                    .expect("served source parses")
                    .to_nest()
                    .expect("served source lowers");
                let reference = params
                    .iter()
                    .map(|p| {
                        let (mut n, mut sum) = (0u64, 0u64);
                        nest.for_each(p, |q| {
                            n += 1;
                            sum += value(&coef, q);
                        });
                        (n, sum)
                    })
                    .collect();
                Shape {
                    spec,
                    params,
                    reference,
                }
            })
            .collect();
        if corrupt {
            shapes[0].reference[0].1 += 1;
        }
        let clients = nproc().min(2);
        let streams = (0..clients)
            .map(|c| stream(seed, c, shapes.len()))
            .collect();
        let mut requests = Vec::new();
        for shape in &shapes {
            for variant in 0..=LARGE {
                for pinned in [false, true] {
                    for tenant in [1, 2] {
                        requests.push(request(shape, variant, pinned, tenant));
                    }
                }
            }
        }
        let serve = Serve {
            service,
            shapes,
            requests,
            streams,
            coef,
            clients,
        };
        // Cold analysis of every (shape, context) and tuner warm-up,
        // then one execution of each request kind.
        let slots: Vec<Padded> = (0..SERVICE_WORKERS).map(|_| Padded::default()).collect();
        for s in 0..serve.shapes.len() {
            for variant in 0..=LARGE {
                for pinned in [false, true] {
                    for verb in [Verb::Bind, Verb::Run, Verb::Reduce] {
                        let r = Req {
                            verb,
                            shape: s,
                            variant,
                            pinned,
                            tenant: 1,
                        };
                        serve.send(&r, &slots);
                    }
                }
            }
        }
        serve
    }

    fn threads(&self) -> String {
        format!(
            "\"pool\": {SERVICE_WORKERS}, \"workers\": {SERVICE_WORKERS}, \"clients\": {}",
            self.clients
        )
    }

    fn measure(&mut self, seconds: f64, traced: bool) -> Phase {
        let busy: Vec<AtomicBool> = (0..self.clients).map(|_| AtomicBool::new(false)).collect();
        let before = self.service.metrics().cache;
        let this = &*self;
        let samples = Mutex::new(this.samples());
        let mut rounds = WindowLog::new(Self::PACE_EXPONENT, |w: &[Round], m: &mut Windowed| {
            let seconds: f64 = w.iter().map(|r| r.seconds).sum();
            let done: u64 = w.iter().map(|r| r.done).sum();
            let points: u64 = w.iter().map(|r| r.points).sum();
            m.push("ops_per_s", done as f64 / seconds, "1/s");
            m.push("points_per_s", points as f64 / seconds, "1/s");
        });
        let mut clients: Vec<ClientState> = (0..this.clients)
            .map(|c| ClientState {
                next: 0,
                log: ClientLog::default(),
                spans: SpanBuf::new(traced, c as u32 + 1),
                pace: Pace::default(),
            })
            .collect();
        // One window at a time: the clients run until the window ends
        // and finish their requests; the window's pace comes from the
        // reference samples they took between requests.
        for _ in 0..windows(seconds) {
            let t0 = Instant::now();
            let end = t0 + Duration::from_secs_f64(WINDOW_S);
            let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, st)| {
                        let (busy, samples) = (&busy, &samples);
                        s.spawn(move || this.client(c, end, busy, samples, st))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            let seconds = t0.elapsed().as_secs_f64();
            let mut pace = Pace::default();
            clients.iter_mut().for_each(|st| pace.absorb(&mut st.pace));
            let pace = pace.take();
            rounds.push(Round {
                done: counts.iter().map(|c| c.0).sum(),
                points: counts.iter().map(|c| c.1).sum(),
                seconds,
            });
            rounds.close(pace);
            samples.lock().expect("sample log lock").close(pace);
        }
        let after = self.service.metrics();
        let mut m = samples.into_inner().expect("sample log lock").finish();
        m.extend(rounds.finish());
        let mut trace = Trace::default();
        let mut all = ClientLog::default();
        for st in clients {
            trace.absorb(st.spans);
            all.attempted += st.log.attempted;
            all.failed += st.log.failed;
            all.small += st.log.small;
            all.small_behind_large += st.log.small_behind_large;
        }
        let mut layers = Metrics::default();
        if traced {
            let mut probe_spans = SpanBuf::new(true, 0);
            self.probes(&mut probe_spans);
            trace.absorb(probe_spans);
            let hits = (after.cache.hits - before.hits) as f64;
            let misses = (after.cache.misses - before.misses) as f64;
            layers.set("plan.hit_ratio", hits / (hits + misses), "ratio");
            layers.set("plan.resolve_us", trace.median_us("plan.resolve"), "us");
            layers.set("strategy.auto_us", trace.median_us("strategy.auto"), "us");
            layers.set("serve.bind_us", trace.median_us("serve.bind"), "us");
            layers.set(
                "serve.direct_small_us",
                trace.median_us("serve.direct_small"),
                "us",
            );
            layers.set(
                "serve.direct_large_us",
                trace.median_us("serve.direct_large"),
                "us",
            );
            layers.set(
                "serve.hop_us",
                trace.median_us("serve.small")
                    - trace.median_us("plan.resolve")
                    - trace.median_us("serve.direct_small"),
                "us",
            );
            layers.set(
                "serve.hol_share",
                all.small_behind_large as f64 / all.small as f64,
                "ratio",
            );
            layers.set(
                "serve.queue_depth_max",
                after.queue_depth_max as f64,
                "count",
            );
        }
        Phase {
            attempted: all.attempted,
            failed: all.failed,
            metrics: m,
            layers,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_follow_the_seed() {
        assert_eq!(stream(11, 0, 10), stream(11, 0, 10));
        assert_ne!(stream(11, 0, 10), stream(12, 0, 10));
        assert_ne!(stream(11, 0, 10), stream(11, 1, 10));
    }

    #[test]
    fn every_block_has_two_large_and_one_bind() {
        let s = stream(3, 0, 10);
        for block in s.chunks(10) {
            assert_eq!(block.iter().filter(|r| r.large()).count(), 2);
            assert_eq!(block.iter().filter(|r| r.verb == Verb::Bind).count(), 1);
        }
        for block in s.chunks(10) {
            assert_eq!(
                block.iter().filter(|r| r.class() == Class::Small).count(),
                5
            );
        }
        let larges: Vec<&Req> = s.iter().filter(|r| r.large()).collect();
        for shape in 0..10 {
            let visits: Vec<&&Req> = larges.iter().filter(|r| r.shape == shape).collect();
            let pinned = visits.iter().filter(|r| r.pinned).count();
            assert_eq!(pinned, visits.len() / 5, "shape {shape}");
        }
    }

    #[test]
    fn sizes_fall_in_their_classes() {
        let mut rng = Rng::new(1);
        for (nest, params) in catalogue(&mut rng) {
            for p in &params[..LARGE] {
                let n = nest.count(p);
                assert!((1000..=3500).contains(&n), "{} small {p:?}: {n}", nest.name);
            }
            let n = nest.count(&params[LARGE]);
            assert!((240_000..=260_000).contains(&n), "{} large: {n}", nest.name);
        }
    }
}
