//! Differential suite for the batch estimation engine: the memoized
//! Eq. 2–3 kernel must be bit-identical to the uncached path and to the
//! exact rational oracle, and parallel `run_all` must serialize to the
//! same bytes as the serial run.

use std::path::PathBuf;
use std::sync::Arc;

use maestro::estimator::multi_aspect::{
    sc_candidates, sc_candidates_uncached, sc_candidates_using,
};
use maestro::estimator::prob::{self, ProbTable, RowOccupancy};
use maestro::estimator::standard_cell::{
    estimate_with_rows, estimate_with_rows_uncached, total_tracks_uncached, total_tracks_using,
};
use maestro::netlist::{generate, library_circuits, mnl, StatsCache};
use maestro::prelude::*;

fn asset(name: &str) -> PathBuf {
    // Tests run from the package dir (crates/maestro); assets live at the
    // workspace root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../assets");
    p.push(name);
    p
}

fn asset_modules() -> Vec<Module> {
    let mut modules = Vec::new();
    for file in ["counter4.mnl", "full_adder.mnl"] {
        let source = std::fs::read_to_string(asset(file)).expect("asset readable");
        modules.extend(mnl::parse_design(&source).expect("asset parses"));
    }
    modules
}

fn sc_stats(module: &Module) -> NetlistStats {
    NetlistStats::resolve(module, &builtin::nmos25(), LayoutStyle::StandardCell)
        .expect("gate-level module resolves")
}

/// A spread of row counts covering the supported domain's corners.
const ROW_SWEEP: [u32; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 64];

#[test]
fn cached_estimates_are_bit_identical_to_uncached() {
    let tech = builtin::nmos25();
    let modules = [
        generate::counter(6),
        generate::ripple_adder(4),
        generate::shift_register(16),
    ];
    for module in &modules {
        let stats = sc_stats(module);
        for rows in ROW_SWEEP {
            let cached = estimate_with_rows(&stats, &tech, rows);
            let uncached = estimate_with_rows_uncached(&stats, &tech, rows);
            // ScEstimate's PartialEq covers every field, including the
            // f64-backed aspect ratio.
            assert_eq!(cached, uncached, "{} rows={rows}", module.name());
        }
    }
}

#[test]
fn fresh_table_total_tracks_match_uncached() {
    let module = generate::ripple_adder(5);
    let stats = sc_stats(&module);
    let table = ProbTable::new();
    for rows in ROW_SWEEP {
        assert_eq!(
            total_tracks_using(&stats, rows, &table),
            total_tracks_uncached(&stats, rows),
            "rows={rows}"
        );
    }
    let cache = table.stats();
    assert!(cache.misses > 0, "sweep must populate the table");
}

#[test]
fn table_matches_exact_oracle_on_small_domain() {
    // The u128 rational oracle is representable up to n ≤ 8, D ≤ 16.
    let table = ProbTable::new();
    for n in 1..=8u32 {
        for d in 1..=16u32 {
            let occ = table.occupancy(n, d);
            for i in 1..=n.min(d) {
                let exact = prob::exact::probability(n, d, i).as_f64();
                let fast = occ.probability(i);
                assert!(
                    (exact - fast).abs() < 1e-10,
                    "n={n} d={d} i={i}: exact={exact} fast={fast}"
                );
            }
        }
    }
}

#[test]
fn candidate_sweep_is_bit_identical_to_uncached() {
    let tech = builtin::nmos25();
    for module in [generate::counter(6), generate::shift_register(24)] {
        let stats = sc_stats(&module);
        for count in [1usize, 3, 5, 9] {
            assert_eq!(
                sc_candidates(&stats, &tech, count),
                sc_candidates_uncached(&stats, &tech, count),
                "{} count={count}",
                module.name()
            );
        }
    }
}

#[test]
fn aspect_sweep_shares_one_cache() {
    let module = generate::counter(6);
    let stats = sc_stats(&module);
    let tech = builtin::nmos25();
    let table = ProbTable::new();
    let isolated = sc_candidates_using(&stats, &tech, 5, &ScParams::default(), &table);
    assert_eq!(isolated, sc_candidates(&stats, &tech, 5));
    let first = table.stats();
    assert!(first.misses > 0, "first sweep must populate the table");
    // A repeated sweep over the same module must be served entirely from
    // the shared cache: same results, zero new distribution computations.
    let again = sc_candidates_using(&stats, &tech, 5, &ScParams::default(), &table);
    assert_eq!(again, isolated);
    let second = table.stats();
    assert_eq!(
        second.misses, first.misses,
        "warm sweep recomputed: {second:?}"
    );
    assert!(second.hits > first.hits, "warm sweep bypassed the cache");
}

#[test]
fn parallel_run_all_is_byte_identical_to_serial_on_assets() {
    let modules = asset_modules();
    assert!(modules.len() >= 2, "both assets must contribute modules");
    let pipeline = Pipeline::new(builtin::nmos25());
    let serial = pipeline.run_all(modules.iter()).expect("serial estimates");
    let serial_json = serial.to_json().expect("serializes");
    for jobs in [1, 2, 8] {
        let parallel = pipeline
            .run_all_parallel(modules.iter(), jobs)
            .expect("parallel estimates");
        assert_eq!(
            serial_json,
            parallel.to_json().expect("serializes"),
            "jobs={jobs}"
        );
    }
}

#[test]
fn parallel_run_with_isolated_table_matches_shared() {
    let modules = asset_modules();
    let shared = Pipeline::new(builtin::nmos25());
    let isolated = Pipeline::new(builtin::nmos25()).with_prob_table(Arc::new(ProbTable::new()));
    let a = shared.run_all(modules.iter()).expect("estimates");
    let b = isolated
        .run_all_parallel(modules.iter(), 4)
        .expect("estimates");
    assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
}

#[test]
fn results_db_json_round_trips_after_parallel_run() {
    let modules = asset_modules();
    let pipeline = Pipeline::new(builtin::nmos25());
    let db = pipeline
        .run_all_parallel(modules.iter(), 8)
        .expect("estimates");
    let json = db.to_json().expect("serializes");
    let back = ResultsDb::from_json(&json).expect("parses back");
    assert_eq!(json, back.to_json().expect("re-serializes"));
}

#[test]
fn cached_and_uncached_runs_are_byte_identical_over_table1() {
    // The headline differential: the resolve-once cache must be invisible
    // in the output. Reference = uncached serial run over the paper's
    // Table 1 suite (plus the Table 2 standard-cell modules for SC
    // coverage); every cached run, serial and parallel, must serialize to
    // the same bytes.
    let mut modules = library_circuits::table1_suite();
    modules.extend(library_circuits::table2_suite());
    let uncached = Pipeline::new(builtin::nmos25())
        .without_stats_cache()
        .with_parallel_threshold(0);
    let reference = uncached
        .run_all(modules.iter())
        .expect("uncached serial estimates")
        .to_json()
        .expect("serializes");
    let cached = Pipeline::new(builtin::nmos25())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_parallel_threshold(0);
    let cached_serial = cached
        .run_all(modules.iter())
        .expect("cached serial estimates");
    assert_eq!(cached_serial.to_json().unwrap(), reference, "serial");
    for jobs in [1, 2, 8] {
        let warm_cached = cached
            .run_all_parallel(modules.iter(), jobs)
            .expect("cached parallel estimates");
        assert_eq!(
            warm_cached.to_json().unwrap(),
            reference,
            "cached jobs={jobs}"
        );
        let uncached_parallel = uncached
            .run_all_parallel(modules.iter(), jobs)
            .expect("uncached parallel estimates");
        assert_eq!(
            uncached_parallel.to_json().unwrap(),
            reference,
            "uncached jobs={jobs}"
        );
    }
}

#[test]
fn streaming_is_byte_identical_to_in_memory_over_the_paper_suites() {
    // The streaming differential the scaling work is gated on: emitting
    // per-module results through a sink, wave by wave, must serialize to
    // the exact bytes of the in-memory batch — over the paper's Table 1
    // and Table 2 suites, at every fan-out, with small wave budgets so a
    // single run crosses many wave boundaries.
    let mut modules = library_circuits::table1_suite();
    modules.extend(library_circuits::table2_suite());
    let pipeline = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
    let reference = pipeline
        .run_all(modules.iter())
        .expect("in-memory estimates")
        .to_json()
        .expect("serializes");
    for (jobs, budget) in [(1, 4096), (2, 64), (8, 16)] {
        let streamer = Pipeline::new(builtin::nmos25())
            .with_parallel_threshold(0)
            .with_shard_net_budget(budget);
        let mut db = ResultsDb::new();
        let summary = streamer
            .run_all_streaming(modules.iter().cloned(), jobs, |rec| {
                db.insert(rec);
                Ok(())
            })
            .expect("streaming estimates");
        assert_eq!(summary.modules, modules.len(), "jobs={jobs}");
        assert_eq!(
            db.to_json().expect("serializes"),
            reference,
            "jobs={jobs} budget={budget}"
        );
    }
}

#[test]
fn streaming_is_byte_identical_to_in_memory_over_a_generated_family() {
    // Same differential over a generated chip family: modules the library
    // suites never exercise (renamed instances, mixed datapath/memory/tree
    // units), streamed lazily from the spec on one side and collected
    // up front on the other.
    let spec = maestro::netlist::chip::ChipSpec::parse("mixed:20k").expect("valid spec");
    let collected: Vec<Module> = spec.modules().collect();
    assert_eq!(
        collected.iter().map(Module::device_count).sum::<usize>(),
        spec.device_count(),
        "spec device accounting matches the built modules"
    );
    let pipeline = Pipeline::new(builtin::nmos25());
    let reference = pipeline
        .run_all(collected.iter())
        .expect("in-memory estimates")
        .to_json()
        .expect("serializes");
    for jobs in [1, 4] {
        let mut db = ResultsDb::new();
        let summary = pipeline
            .run_all_streaming(spec.modules(), jobs, |rec| {
                db.insert(rec);
                Ok(())
            })
            .expect("streaming estimates");
        assert_eq!(summary.devices, spec.device_count(), "jobs={jobs}");
        assert_eq!(db.to_json().expect("serializes"), reference, "jobs={jobs}");
    }
}

#[test]
fn replica_parameterized_pipeline_is_jobs_invariant() {
    // The estimator is closed-form, so a replica-parameterized pipeline
    // must serialize the exact bytes of the plain one — at every fan-out.
    let mut modules = library_circuits::table1_suite();
    modules.extend(library_circuits::table2_suite());
    let reference = Pipeline::new(builtin::nmos25())
        .run_all(modules.iter())
        .expect("estimates")
        .to_json()
        .expect("serializes");
    let pipeline = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
    for jobs in [1, 2, 8] {
        let db = pipeline
            .run_all_parallel(modules.iter(), jobs)
            .expect("estimates");
        assert_eq!(db.to_json().unwrap(), reference, "jobs={jobs}");
    }
}

#[test]
fn replica_layouts_are_deterministic_over_the_table_suites() {
    let tech = builtin::nmos25();
    // Full-custom synthesis over Table 1: replicas=1 must be byte-identical
    // to the pre-replica (default) path, and replicas=4 must reproduce the
    // same layout run over run — thread scheduling must not leak into it.
    for module in library_circuits::table1_suite() {
        let quick = SynthesisParams::quick();
        let base = synthesize(&module, &tech, &quick).expect("synthesizes");
        let one = synthesize(
            &module,
            &tech,
            &SynthesisParams {
                replicas: 1,
                ..quick.clone()
            },
        )
        .expect("synthesizes");
        assert_eq!(base, one, "{}: replicas=1 must match", module.name());
        let four = SynthesisParams {
            replicas: 4,
            ..quick
        };
        let a = synthesize(&module, &tech, &four).expect("synthesizes");
        let b = synthesize(&module, &tech, &four).expect("synthesizes");
        assert_eq!(a, b, "{}: replicas=4 must reproduce", module.name());
    }
    // Standard-cell place & route over the Table 2 modules: the rendered
    // layout (geometry, tracks, feed-throughs) must be byte-identical.
    for module in library_circuits::table2_suite() {
        if NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).is_err() {
            continue;
        }
        let params = |replicas| PlaceParams {
            rows: 2,
            replicas,
            schedule: maestro::place::AnnealSchedule::quick(),
            ..PlaceParams::default()
        };
        let render = |p: &PlaceParams| {
            let placed = place(&module, &tech, p).expect("places");
            let routed = route(&placed);
            maestro::route::assemble::render_svg(&placed, &routed)
        };
        assert_eq!(
            render(&params(1)),
            render(&PlaceParams {
                rows: 2,
                schedule: maestro::place::AnnealSchedule::quick(),
                ..PlaceParams::default()
            }),
            "{}: replicas=1 must match",
            module.name()
        );
        assert_eq!(
            render(&params(4)),
            render(&params(4)),
            "{}: replicas=4 must reproduce",
            module.name()
        );
    }
}

#[test]
fn shared_occupancy_matches_fresh_on_asset_net_sizes() {
    // Every (rows, D) pair the asset batch actually queries must come
    // back digit-for-digit equal to a fresh computation.
    let table = ProbTable::shared();
    for module in asset_modules() {
        let Ok(stats) =
            NetlistStats::resolve(&module, &builtin::nmos25(), LayoutStyle::StandardCell)
        else {
            continue;
        };
        for rows in ROW_SWEEP {
            for (d, _) in stats.net_sizes().iter() {
                let d = (d as u32).clamp(1, prob::MAX_COMPONENTS);
                let cached = table.occupancy(rows, d);
                let fresh = RowOccupancy::new(rows, d);
                let cached_bits: Vec<u64> =
                    cached.probabilities().iter().map(|p| p.to_bits()).collect();
                let fresh_bits: Vec<u64> =
                    fresh.probabilities().iter().map(|p| p.to_bits()).collect();
                assert_eq!(cached_bits, fresh_bits, "rows={rows} d={d}");
            }
        }
    }
}
