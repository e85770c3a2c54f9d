//! Tests that count trace events through a scoped `Collector`.
//!
//! `trace::counter` and spans write to the process-global sink, so any
//! test running at the same time in the same binary adds its own events
//! to a `Collector` installed by another. These tests live in a binary of
//! their own: cargo runs test binaries one at a time, and `with_sink`
//! serializes the scopes within this one.

use std::sync::Arc;

use maestro::estimator::pipeline::DEFAULT_PARALLEL_NET_THRESHOLD;
use maestro::netlist::{generate, library_circuits, StatsCache};
use maestro::prelude::*;
use maestro::trace;

#[test]
fn batch_resolves_each_module_and_style_exactly_once() {
    let modules = library_circuits::table1_suite();
    let cache = Arc::new(StatsCache::new());
    let pipeline = Pipeline::new(builtin::nmos25())
        .with_stats_cache(Arc::clone(&cache))
        .with_parallel_threshold(0);
    // Cold batch: every (module, style) pair misses once — the SC probe
    // of these transistor-level modules fails, and the failure is itself
    // memoized — and nothing hits.
    let cold = Arc::new(trace::Collector::new());
    trace::with_sink(Arc::clone(&cold) as Arc<dyn trace::Sink>, || {
        pipeline.run_all(modules.iter()).expect("estimates");
    });
    let per_batch = 2 * modules.len() as u64;
    assert_eq!(cold.counter_total("netlist.resolve.misses"), per_batch);
    assert_eq!(cold.counter_total("netlist.resolve.hits"), 0);
    // Warm batch (parallel this time): all hits, not one new resolve.
    let warm = Arc::new(trace::Collector::new());
    trace::with_sink(Arc::clone(&warm) as Arc<dyn trace::Sink>, || {
        pipeline
            .run_all_parallel(modules.iter(), 4)
            .expect("estimates");
    });
    assert_eq!(warm.counter_total("netlist.resolve.misses"), 0);
    assert_eq!(warm.counter_total("netlist.resolve.hits"), per_batch);
    let stats = cache.stats();
    assert_eq!(stats.misses, per_batch);
    assert_eq!(stats.entries as u64, per_batch);
}

#[test]
fn sharded_dispatch_groups_tiny_modules() {
    // 16 tiny modules, jobs=4: the old dispatch took the counter 16
    // times; net-budget shards group them 4-and-4 so the batch spans
    // report 4 shards and 4 workers.
    let collector = Arc::new(trace::Collector::new());
    let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
    let modules: Vec<_> = (0..16).map(|_| generate::counter(2)).collect();
    trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, || {
        p.run_all_parallel(modules.iter(), 4).expect("estimates");
    });
    let spans = collector.spans();
    let batch = spans
        .iter()
        .find(|s| s.name == "pipeline.run_all")
        .expect("batch span present");
    assert!(
        batch.detail.contains("shards=4"),
        "16×7 nets / 4 jobs -> 4 shards, got {:?}",
        batch.detail
    );
    assert_eq!(
        spans.iter().filter(|s| s.name == "pipeline.worker").count(),
        4
    );
}

#[test]
fn small_batch_falls_back_to_serial_path() {
    let collector = Arc::new(trace::Collector::new());
    let p = Pipeline::new(builtin::nmos25());
    let modules = [generate::counter(2), generate::counter(3)];
    let total_nets: usize = modules.iter().map(|m| m.net_count()).sum();
    assert!(
        total_nets < DEFAULT_PARALLEL_NET_THRESHOLD,
        "fixture must stay under the threshold, has {total_nets} nets"
    );
    trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, || {
        p.run_all_parallel(modules.iter(), 8).expect("estimates");
    });
    let spans = collector.spans();
    let batch = spans
        .iter()
        .find(|s| s.name == "pipeline.run_all")
        .expect("batch span present");
    assert!(
        batch.detail.starts_with("serial"),
        "expected serial fallback, got detail {:?}",
        batch.detail
    );
    assert!(
        !spans.iter().any(|s| s.name == "pipeline.worker"),
        "serial fallback must not spawn workers"
    );
}

#[test]
fn threshold_zero_forces_the_parallel_path() {
    let collector = Arc::new(trace::Collector::new());
    let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
    let modules = [generate::counter(2), generate::counter(3)];
    trace::with_sink(Arc::clone(&collector) as Arc<dyn trace::Sink>, || {
        p.run_all_parallel(modules.iter(), 2).expect("estimates");
    });
    let spans = collector.spans();
    assert_eq!(
        spans.iter().filter(|s| s.name == "pipeline.worker").count(),
        2,
        "threshold 0 must fan out even for tiny batches"
    );
}
