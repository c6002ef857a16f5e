//! CI serve-layer stress smoke: mixed-tenant load against a
//! [`CollapseService`] with a deliberately undersized plan cache and
//! line for the pool, so admission rejections, LRU churn, coalesced
//! analyses, deadline expirations, and body-panic containment all
//! happen in one run — then asserts the counter-consistency invariants from
//! `docs/COUNTERS.md`:
//!
//! * per tenant: `accepted == completed + cancelled + deadline_expired
//!   + body_panicked` once `inflight == 0`,
//! * per tenant: every submission landed in exactly one bucket
//!   (`accepted`/`bound`/`rejected_*`/`plan_failed`),
//! * service: `runs_executed == Σ accepted` — every admitted caller ran
//!   its own work on the pool exactly once,
//! * cache: `hits + misses + coalesced + quarantined` accounts for
//!   every lookup, residency within capacity, evictions ≤ misses.
//!
//! Exit code 1 with a `::error` annotation on any violation.

use nrl_polyhedra::{NestSpec, Space};
use nrl_serve::{CollapseRequest, CollapseService, ServeConfig, ServeError, Tenant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const PANIC_MSG: &str = "injected stress body fault";
const TENANTS: u32 = 4;
const THREADS_PER_TENANT: usize = 3;
const REQUESTS_PER_THREAD: usize = 60;
const PARAM: i64 = 60;

/// Eight shapes against a 1×4 cache: the LRU churns while requests
/// race, and herds re-analyzing an evicted shape coalesce.
fn shapes() -> Vec<NestSpec> {
    let mut out = vec![NestSpec::correlation(), NestSpec::figure6()];
    for c in 0..6i64 {
        let s = Space::new(&["i", "j"], &["N"]);
        out.push(
            NestSpec::new(
                s.clone(),
                vec![(s.cst(0), s.var("N") - 1), (s.cst(0), s.var("i") + c)],
            )
            .expect("stress shape is well-formed"),
        );
    }
    out
}

fn main() {
    // Keep the log readable: swallow the expected injected panics,
    // let anything else print as usual.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            == Some(PANIC_MSG);
        if !injected {
            default_hook(info);
        }
    }));
    let service = Arc::new(CollapseService::new(ServeConfig {
        workers: 4,
        queue_capacity: 4,
        tenant_quota: 4,
        cache_shards: 1,
        cache_plans_per_shard: 4,
    }));
    let shapes = Arc::new(shapes());
    let submitted = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            for worker in 0..THREADS_PER_TENANT {
                let service = Arc::clone(&service);
                let shapes = Arc::clone(&shapes);
                let submitted = &submitted;
                let failures = &failures;
                scope.spawn(move || {
                    let mut state = u64::from(tenant) * 31 + worker as u64 + 0x9E37_79B9;
                    for i in 0..REQUESTS_PER_THREAD {
                        // xorshift: deterministic per-thread mix.
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let idx = (state % shapes.len() as u64) as usize;
                        let mut request =
                            CollapseRequest::new(shapes[idx].clone(), vec![PARAM], Tenant(tenant));
                        // Every 10th request carries a hopeless
                        // deadline; every 15th, a panicking body.
                        if i % 10 == 9 {
                            request = request.with_deadline(Duration::ZERO);
                        }
                        let panics = i % 15 == 14;
                        submitted.fetch_add(1, Ordering::Relaxed);
                        let result = service.run(&request, &move |_t, p| {
                            if panics && p[0] == PARAM / 2 {
                                panic!("{PANIC_MSG}");
                            }
                            std::hint::black_box(p[0] + p[1]);
                        });
                        match result {
                            Ok(_) | Err(ServeError::Rejected { .. }) => {}
                            Err(ServeError::BodyPanicked) if panics => {}
                            Err(e) => {
                                println!(
                                    "::error title=serve stress::tenant {tenant} worker {worker} \
                                     request {i}: unexpected error {e}"
                                );
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        }
    });
    let metrics = service.metrics();
    println!("{}", metrics.report());
    let mut bad = failures.load(Ordering::Relaxed);
    let mut accounted = 0u64;
    for (tenant, t) in &metrics.tenants {
        if t.inflight != 0 {
            println!(
                "::error title=serve stress::{tenant}: {} still in flight at quiescence",
                t.inflight
            );
            bad += 1;
        }
        if t.accepted != t.completed + t.cancelled + t.deadline_expired + t.body_panicked {
            println!(
                "::error title=serve stress::{tenant}: accepted {} != completed {} + cancelled {} \
                 + deadline_expired {} + body_panicked {}",
                t.accepted, t.completed, t.cancelled, t.deadline_expired, t.body_panicked
            );
            bad += 1;
        }
        accounted +=
            t.accepted + t.bound + t.rejected_queue_full + t.rejected_quota + t.plan_failed;
    }
    let accepted: u64 = metrics.tenants.iter().map(|(_, t)| t.accepted).sum();
    if service.runs_executed() != accepted {
        println!(
            "::error title=serve stress::{} runs executed, {accepted} accepted",
            service.runs_executed()
        );
        bad += 1;
    }
    if accounted != submitted.load(Ordering::Relaxed) {
        println!(
            "::error title=serve stress::{accounted} requests accounted for, {} submitted",
            submitted.load(Ordering::Relaxed)
        );
        bad += 1;
    }
    let c = &metrics.cache;
    if c.entries > 4 {
        println!(
            "::error title=serve stress::residency {} exceeds capacity 4",
            c.entries
        );
        bad += 1;
    }
    if c.evictions > c.misses {
        println!(
            "::error title=serve stress::{} evictions exceed {} misses",
            c.evictions, c.misses
        );
        bad += 1;
    }
    if c.evictions == 0 {
        println!(
            "::error title=serve stress::no evictions — the cache was not undersized, the churn under test never ran"
        );
        bad += 1;
    }
    let rejected: u64 = metrics
        .tenants
        .iter()
        .map(|(_, t)| t.rejected_queue_full + t.rejected_quota)
        .sum();
    println!(
        "serve stress: {} submitted, {} rejected (backpressure), cache {} hits / {} misses / {} \
         coalesced / {} evictions",
        submitted.load(Ordering::Relaxed),
        rejected,
        c.hits,
        c.misses,
        c.coalesced,
        c.evictions
    );
    if bad > 0 {
        eprintln!("serve stress FAILED: {bad} violation(s)");
        std::process::exit(1);
    }
    println!("serve stress OK");
}
