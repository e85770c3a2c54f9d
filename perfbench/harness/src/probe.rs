//! The traced per-layer probes, one per workload.
//!
//! Each probe replays its workload's inputs in-process, calling each
//! crate's public functions under the benchmark's own spans
//! ([`Recorder`]), and reads the counters the crates already emit through
//! a `maestro::trace::Collector`. Layers are named after the crates. A
//! metric whose layer the workload never reaches is reported as 0.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use maestro::estimator::pipeline::Pipeline;
use maestro::estimator::prob::ProbTable;
use maestro::estimator::request::{Request, RequestCall};
use maestro::estimator::standard_cell::ScParams;
use maestro::estimator::{full_custom, multi_aspect, standard_cell};
use maestro::floorplan::{backend, Block, PlanParams};
use maestro::fullcustom::{synthesize, SynthesisParams};
use maestro::netlist::{
    diff, mnl, LayoutStyle, Module, ModuleFingerprint, NetlistStats, RevisionManifest, StatsCache,
};
use maestro::ops;
use maestro::place::{place, PlaceParams};
use maestro::route::route;
use maestro::serve::Session;
use maestro::tech::ProcessDb;
use maestro::trace::{self, Collector};

use crate::json_object;
use crate::spans::{median, ratio, Recorder};

type Metrics = BTreeMap<String, f64>;

/// Vertical constraints the channel router may drop on one module's
/// layout. It drops one when a dogleg cannot break a constraint cycle,
/// and its own `violations_are_rare_on_real_modules` test accepts up to
/// this many per module; a layout with more is a failed op.
const MAX_ROUTE_VIOLATIONS: u32 = 2;

fn set(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_owned(), value);
}

/// Runs `f` with `collector` installed as the trace sink.
fn collect<T>(collector: &Arc<Collector>, f: impl FnOnce() -> T) -> T {
    trace::with_sink(Arc::clone(collector) as Arc<dyn trace::Sink>, f)
}

fn anneal_moves(c: &Collector) -> (f64, f64) {
    let accepted = c.counter_total("anneal.accepted") as f64;
    let moves = accepted + c.counter_total("anneal.rejected") as f64;
    (moves, ratio(accepted, moves))
}

/// Reads `"<group>":{…"<field>":N` out of a `cache-stats` payload (one
/// flat, fixed-order JSON object of counters).
fn cache_stat(payload: &str, group: &str, field: &str) -> f64 {
    let Some(at) = payload.find(&format!("\"{group}\":")) else {
        return 0.0;
    };
    let rest = &payload[at..];
    let Some(f) = rest.find(&format!("\"{field}\":")) else {
        return 0.0;
    };
    let digits: String = rest[f + field.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap_or(0.0)
}

fn cache_stats_payload(session: &Session) -> String {
    let req = Request {
        id: "stats".to_owned(),
        call: RequestCall::CacheStats,
    };
    session.handle(&req).result.unwrap_or_default()
}

/// The session-cache ratios both serve probes report.
fn session_layers(m: &mut Metrics, session: &Session, prob: &ProbTable) {
    let resolve = session.stats_cache().stats();
    let calls = (resolve.hits + resolve.misses) as f64;
    set(m, "netlist.resolve.calls", calls);
    set(
        m,
        "netlist.resolve.hit_ratio",
        ratio(resolve.hits as f64, calls),
    );
    set(m, "netlist.resolve.evictions", resolve.evictions as f64);
    let p = prob.stats();
    set(
        m,
        "estimator.prob.hit_ratio",
        ratio(p.hits as f64, (p.hits + p.misses) as f64),
    );
    let payload = cache_stats_payload(session);
    let hits = cache_stat(&payload, "parse", "hits");
    let misses = cache_stat(&payload, "parse", "misses");
    set(m, "serve.parse.hit_ratio", ratio(hits, hits + misses));
    set(m, "serve.tech_reuse", session.tech_reuses() as f64);
}

/// Times the estimator kernels over resolved statistics.
fn estimator_kernels(
    rec: &mut Recorder,
    tech: &ProcessDb,
    sc: &[Arc<NetlistStats>],
    fc: &[Arc<NetlistStats>],
) {
    let table = ProbTable::new();
    let params = ScParams::default();
    for (i, s) in sc.iter().enumerate() {
        rec.time("estimator.standard_cell", i as u64, || {
            standard_cell::estimate_using(s, tech, &params, &table)
        });
        rec.time("estimator.candidates", i as u64, || {
            multi_aspect::sc_candidates_using(
                s,
                tech,
                multi_aspect::DEFAULT_CANDIDATES,
                &params,
                &table,
            )
        });
    }
    for (i, s) in fc.iter().enumerate() {
        rec.time("estimator.full_custom", i as u64, || {
            full_custom::estimate(s, tech)
        });
    }
}

/// Resolves one module under both styles through `cache`, timing each
/// call, and keeps the non-empty statistics for the kernel passes.
fn resolve_both(
    rec: &mut Recorder,
    cache: &StatsCache,
    tech: &ProcessDb,
    module: &Module,
    op: u64,
    sc: &mut Vec<Arc<NetlistStats>>,
    fc: &mut Vec<Arc<NetlistStats>>,
) {
    for (style, out) in [
        (LayoutStyle::StandardCell, &mut *sc),
        (LayoutStyle::FullCustom, &mut *fc),
    ] {
        if let Ok(stats) = rec.time("netlist.resolve", op, || cache.resolve(module, tech, style)) {
            if stats.device_count() > 0 {
                out.push(stats);
            }
        }
    }
}

fn finish(rec: Recorder, mut m: Metrics, aux: Metrics) -> (String, Recorder) {
    for (metric, span) in [
        ("netlist.parse.busy_ms", "netlist.parse"),
        ("netlist.split.busy_ms", "netlist.split"),
        ("netlist.fingerprint.busy_ms", "netlist.fingerprint"),
        ("netlist.diff.busy_ms", "netlist.diff"),
        ("netlist.resolve.busy_ms", "netlist.resolve"),
        ("estimator.standard_cell.busy_ms", "estimator.standard_cell"),
        ("estimator.candidates.busy_ms", "estimator.candidates"),
        ("estimator.full_custom.busy_ms", "estimator.full_custom"),
        ("estimator.pipeline.busy_ms", "estimator.pipeline"),
        ("estimator.incremental.busy_ms", "estimator.incremental"),
        ("ops.render.busy_ms", "ops.render"),
        ("ops.load_tech_ms", "ops.load_tech"),
        ("place.busy_ms", "place"),
        ("route.busy_ms", "route"),
        ("fullcustom.busy_ms", "fullcustom"),
        ("floorplan.busy_ms", "floorplan"),
    ] {
        m.entry(metric.to_owned())
            .or_insert_with(|| rec.busy_ms(span));
    }
    let decode = rec.durations_us("estimator.codec.decode");
    let encode = rec.durations_us("estimator.codec.encode");
    set(&mut m, "estimator.codec.decode_us", median(&decode));
    set(&mut m, "estimator.codec.encode_us", median(&encode));
    for kind in ["estimate", "layout", "floorplan", "report"] {
        let span = handle_span(kind);
        set(
            &mut m,
            &format!("serve.handle.{kind}_ms"),
            median(&rec.durations_us(span)) / 1e3,
        );
    }
    let json = format!(
        "{{\"layers\":{},\"aux\":{}}}",
        json_object(&m),
        json_object(&aux)
    );
    (json, rec)
}

fn handle_span(kind: &str) -> &'static str {
    match kind {
        "estimate" => "serve.handle.estimate",
        "layout" => "serve.handle.layout",
        "floorplan" => "serve.handle.floorplan",
        "report" => "serve.handle.report",
        _ => "serve.handle.other",
    }
}

/// chip-batch: the one-shot estimate path (load, parse, pipeline, render)
/// in-process, then the resolve and estimator kernels over the same
/// modules on cold caches.
pub fn chip(
    chip: &str,
    table1: &str,
    jobs: usize,
    render_out: &str,
) -> Result<(String, Recorder), String> {
    let mut rec = Recorder::new();
    let mut m = Metrics::new();
    let mut aux = Metrics::new();
    let tech = rec.time("ops.load_tech", 0, || ops::load_tech("nmos"))?;
    let stats = Arc::new(StatsCache::new());
    let prob = Arc::new(ProbTable::new());
    let pipeline = Pipeline::new(tech)
        .with_stats_cache(Arc::clone(&stats))
        .with_prob_table(Arc::clone(&prob));
    let collector = Arc::new(Collector::new());
    let wall = Instant::now();
    let (modules, text) = collect(&collector, || -> Result<_, String> {
        let mut modules = rec.time("netlist.parse", 0, || ops::load_modules(chip))?;
        modules.extend(rec.time("netlist.parse", 0, || ops::load_modules(table1))?);
        let db = rec
            .time("estimator.pipeline", 0, || {
                pipeline.run_all_parallel(modules.iter(), jobs)
            })
            .map_err(|e| e.to_string())?;
        let text = rec.time("ops.render", 0, || ops::render_estimate_db(&db, false))?;
        Ok((modules, text))
    })?;
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    std::fs::write(render_out, &text).map_err(|e| format!("{render_out}: {e}"))?;

    let bytes = std::fs::metadata(chip).map_err(|e| e.to_string())?.len()
        + std::fs::metadata(table1).map_err(|e| e.to_string())?.len();
    let parse_ms = rec.busy_ms("netlist.parse");
    set(&mut m, "netlist.parse.bytes", bytes as f64);
    set(
        &mut m,
        "netlist.parse.mb_per_s",
        ratio(bytes as f64 / 1e6, parse_ms / 1e3),
    );
    let module_us: f64 = collector
        .spans()
        .iter()
        .filter(|s| s.name == "pipeline.module")
        .map(|s| s.dur_us as f64)
        .sum();
    let pipeline_ms = rec.busy_ms("estimator.pipeline");
    set(
        &mut m,
        "estimator.pipeline.parallelism",
        ratio(module_us / 1e3, pipeline_ms),
    );
    set(&mut m, "ops.render.bytes", text.len() as f64);
    let resolve = stats.stats();
    let calls = (resolve.hits + resolve.misses) as f64;
    set(&mut m, "netlist.resolve.calls", calls);
    set(
        &mut m,
        "netlist.resolve.hit_ratio",
        ratio(resolve.hits as f64, calls),
    );
    set(
        &mut m,
        "netlist.resolve.evictions",
        resolve.evictions as f64,
    );
    let p = prob.stats();
    set(
        &mut m,
        "estimator.prob.hit_ratio",
        ratio(p.hits as f64, (p.hits + p.misses) as f64),
    );
    set(&mut aux, "wall_ms", wall_ms);
    set(&mut aux, "ops", 1.0);
    set(&mut aux, "failed", 0.0);
    set(
        &mut aux,
        "devices",
        modules.iter().map(Module::device_count).sum::<usize>() as f64,
    );

    // Kernel passes over the same modules, outside the traced wall.
    let tech = pipeline.tech();
    for (i, module) in modules.iter().enumerate() {
        rec.time("netlist.fingerprint", i as u64, || {
            ModuleFingerprint::of(module)
        });
    }
    let cold = StatsCache::new();
    let (mut sc, mut fc) = (Vec::new(), Vec::new());
    for (i, module) in modules.iter().enumerate() {
        resolve_both(&mut rec, &cold, tech, module, i as u64, &mut sc, &mut fc);
    }
    estimator_kernels(&mut rec, tech, &sc, &fc);
    Ok(finish(rec, m, aux))
}

/// One recorded ECO edit: which module changed and its new text.
fn parse_edit(line: &str) -> Result<(usize, String), String> {
    // Lines are `<index>\t<module text with \n escaped as \\n>`.
    let (index, text) = line.split_once('\t').ok_or("edit line without a tab")?;
    let index = index
        .parse()
        .map_err(|_| format!("bad module index `{index}`"))?;
    Ok((index, text.replace("\\n", "\n")))
}

/// eco-serve: replays the edit log through an in-process session, and
/// re-runs each stage of the incremental path on a mirror pipeline.
pub fn eco(base: &str, edits: &str, work: &str) -> Result<(String, Recorder), String> {
    let mut rec = Recorder::new();
    let mut m = Metrics::new();
    let mut aux = Metrics::new();
    let source = std::fs::read_to_string(base).map_err(|e| format!("{base}: {e}"))?;
    let mut chunks: Vec<String> = mnl::split_design(&source)
        .ok_or("base chip is not canonical .mnl")?
        .into_iter()
        .map(str::to_owned)
        .collect();
    let mut modules = mnl::parse_design(&source).map_err(|e| e.to_string())?;
    let path = format!("{work}/probe_revision.mnl");
    let line_for = |k: usize| {
        format!(
            "{{\"id\":\"p{k}\",\"kind\":\"estimate\",\"files\":[\"{path}\"],\"mnl\":[],\"tech\":\"nmos\",\"jobs\":1,\"json\":false,\"incremental\":true}}"
        )
    };
    let prob = Arc::new(ProbTable::new());
    let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::clone(&prob));
    let tech = rec.time("ops.load_tech", 0, || ops::load_tech("nmos"))?;
    let mirror = Pipeline::new(tech.clone())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_prob_table(Arc::new(ProbTable::new()))
        .with_results_cache(Arc::new(
            maestro::estimator::results_cache::ResultsCache::new(),
        ));
    let kernel_cache = StatsCache::new();

    // The cold round fills every memo; it is set-up, not measured.
    std::fs::write(&path, &source).map_err(|e| e.to_string())?;
    let cold = Request::parse(&line_for(0)).map_err(|e| e.to_string())?;
    if !session.handle(&cold).is_ok() {
        return Err("cold estimate failed".to_owned());
    }
    let mut prev = mirror
        .run_all_incremental(&RevisionManifest::new(), modules.iter(), 1)
        .map_err(|e| e.to_string())?
        .manifest;
    for module in &modules {
        let _ = kernel_cache.resolve(module, &tech, LayoutStyle::StandardCell);
        let _ = kernel_cache.resolve(module, &tech, LayoutStyle::FullCustom);
    }
    let misses_before = session.stats_cache().stats().misses;
    let results_before = session.results_cache().stats();

    let log = std::fs::read_to_string(edits).map_err(|e| format!("{edits}: {e}"))?;
    let (mut rounds, mut failed, mut modified, mut rendered) = (0u64, 0u64, 0f64, 0f64);
    let (mut sc, mut fc) = (Vec::new(), Vec::new());
    for (k, line) in log.lines().enumerate() {
        let op = k as u64 + 1;
        let (index, text) = parse_edit(line)?;
        chunks[index] = text;
        let revision = chunks.concat();
        std::fs::write(&path, &revision).map_err(|e| e.to_string())?;
        let wire = line_for(k + 1);
        let request = rec
            .time("estimator.codec.decode", op, || Request::parse(&wire))
            .map_err(|e| e.to_string())?;
        let response = rec.time("serve.handle.estimate", op, || session.handle(&request));
        rec.time("estimator.codec.encode", op, || response.to_json_line());
        rounds += 1;

        // The same stages, one by one, on the mirror.
        let module = rec
            .time("netlist.split", op, || {
                let chunks = mnl::split_design(&revision)?;
                mnl::parse(chunks[index]).ok()
            })
            .ok_or("edited revision does not split and parse")?;
        modules[index] = module;
        rec.time("netlist.fingerprint", op, || {
            modules
                .iter()
                .map(ModuleFingerprint::of)
                .collect::<Vec<_>>()
        });
        let d = rec.time("netlist.diff", op, || {
            diff(&prev, &RevisionManifest::from_modules(modules.iter()))
        });
        modified += d.modified.len() as f64;
        resolve_both(
            &mut rec,
            &kernel_cache,
            &tech,
            &modules[index],
            op,
            &mut sc,
            &mut fc,
        );
        let run = rec
            .time("estimator.incremental", op, || {
                mirror.run_all_incremental(&prev, modules.iter(), 1)
            })
            .map_err(|e| e.to_string())?;
        let text = rec.time("ops.render", op, || ops::render_estimate_db(&run.db, false))?;
        rendered += text.len() as f64;
        // The daemon's answer must be what the mirror computed stage by stage.
        failed += u64::from(response.result.as_deref() != Ok(text.as_str()));
        prev = run.manifest;
    }
    estimator_kernels(&mut rec, &tech, &sc, &fc);

    session_layers(&mut m, &session, &prob);
    let results = session.results_cache().stats().delta_since(&results_before);
    let lookups = (results.hits + results.misses) as f64;
    set(
        &mut m,
        "estimator.results.hit_ratio",
        ratio(results.hits as f64, lookups),
    );
    set(
        &mut m,
        "estimator.results.evictions",
        results.evictions as f64,
    );
    let misses = session.stats_cache().stats().misses - misses_before;
    set(
        &mut m,
        "netlist.resolve.misses_per_edit",
        ratio(misses as f64, rounds as f64),
    );
    set(&mut m, "netlist.diff.modified", modified);
    set(&mut m, "ops.render.bytes", rendered);
    set(&mut aux, "ops", rounds as f64);
    set(&mut aux, "failed", failed as f64);
    set(
        &mut aux,
        "handle_p50_us",
        median(&rec.durations_us("serve.handle.estimate")),
    );
    Ok(finish(rec, m, aux))
}

/// design-session: replays the request log through an in-process session,
/// then calls the annealers directly on each layout and floorplan
/// request's modules.
pub fn session(requests: &str) -> Result<(String, Recorder), String> {
    let mut rec = Recorder::new();
    let mut m = Metrics::new();
    let mut aux = Metrics::new();
    let prob = Arc::new(ProbTable::new());
    let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::clone(&prob));
    let tech = rec.time("ops.load_tech", 0, || ops::load_tech("nmos"))?;
    let planner = Pipeline::new(tech.clone())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_prob_table(Arc::new(ProbTable::new()));
    let (place_c, synth_c, plan_c) = (
        Arc::new(Collector::new()),
        Arc::new(Collector::new()),
        Arc::new(Collector::new()),
    );
    let (mut hpwl, mut fc_area, mut plan_area) = (0f64, 0f64, 0f64);
    let (mut tracks, mut violations, mut worst) = (0f64, 0f64, 0u32);
    let (mut evals_full, mut evals_delta) = (0f64, 0f64);
    let (mut sent, mut failed) = (0u64, 0u64);
    let mut handle_all = Vec::new();
    let log = std::fs::read_to_string(requests).map_err(|e| format!("{requests}: {e}"))?;
    for (k, line) in log.lines().enumerate() {
        let op = k as u64;
        let request = rec
            .time("estimator.codec.decode", op, || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let started = Instant::now();
        let response = rec.time(handle_span(request.kind_name()), op, || {
            session.handle(&request)
        });
        handle_all.push(started.elapsed().as_secs_f64() * 1e6);
        rec.time("estimator.codec.encode", op, || response.to_json_line());
        sent += 1;
        let mut ok = response.is_ok();
        match &request.call {
            RequestCall::Layout(req) => {
                for source in &req.mnl {
                    for module in mnl::parse_design(source).map_err(|e| e.to_string())? {
                        if NetlistStats::resolve(&module, &tech, LayoutStyle::StandardCell).is_ok()
                        {
                            let params = PlaceParams {
                                rows: req.rows.unwrap_or(2),
                                replicas: req.replicas as usize,
                                ..PlaceParams::default()
                            };
                            let placed = collect(&place_c, || {
                                rec.time("place", op, || place(&module, &tech, &params))
                            })
                            .map_err(|e| e.to_string())?;
                            hpwl += placed.hpwl().get() as f64;
                            let routed = rec.time("route", op, || route(&placed));
                            tracks += f64::from(routed.total_tracks());
                            violations += f64::from(routed.total_violations());
                            worst = worst.max(routed.total_violations());
                            ok &= routed.total_violations() <= MAX_ROUTE_VIOLATIONS;
                        } else {
                            let params = SynthesisParams {
                                replicas: req.replicas as usize,
                                ..SynthesisParams::default()
                            };
                            let layout = collect(&synth_c, || {
                                rec.time("fullcustom", op, || synthesize(&module, &tech, &params))
                            })
                            .map_err(|e| e.to_string())?;
                            fc_area += layout.area().get() as f64;
                        }
                    }
                }
            }
            RequestCall::Floorplan(req) => {
                let mut blocks = Vec::new();
                for source in &req.mnl {
                    for module in mnl::parse_design(source).map_err(|e| e.to_string())? {
                        if let Some(block) =
                            Block::from_module(&planner, &module, 5).map_err(|e| e.to_string())?
                        {
                            blocks.push(block);
                        }
                    }
                }
                let mut params = PlanParams {
                    replicas: req.replicas as usize,
                    ..PlanParams::default()
                };
                if let Some(limit) = req.aspect {
                    params = params.with_aspect_limit(limit);
                }
                let planner = backend::by_name(&req.backend, &params)
                    .ok_or_else(|| format!("unknown backend `{}`", req.backend))?;
                let run = collect(&plan_c, || {
                    rec.time("floorplan", op, || planner.plan(&blocks, None))
                });
                plan_area += run.plan.area().get() as f64;
                for (name, value) in &run.counters {
                    match name.as_str() {
                        "anneal.evals_full" => evals_full += *value as f64,
                        "anneal.evals_delta" => evals_delta += *value as f64,
                        _ => {}
                    }
                }
            }
            _ => {}
        }
        failed += u64::from(!ok);
    }

    session_layers(&mut m, &session, &prob);
    let (moves, accept) = anneal_moves(&place_c);
    set(&mut m, "place.moves", moves);
    set(&mut m, "place.accept_ratio", accept);
    set(&mut m, "place.hpwl", hpwl);
    set(&mut m, "route.tracks", tracks);
    set(&mut m, "route.violations", violations);
    let (moves, _) = anneal_moves(&synth_c);
    set(&mut m, "fullcustom.moves", moves);
    set(&mut m, "fullcustom.area", fc_area);
    let (moves, _) = anneal_moves(&plan_c);
    set(&mut m, "floorplan.moves", moves);
    set(
        &mut m,
        "floorplan.delta_eval_ratio",
        ratio(evals_delta, evals_full + evals_delta),
    );
    set(&mut m, "floorplan.area", plan_area);
    set(&mut aux, "ops", sent as f64);
    set(&mut aux, "failed", failed as f64);
    set(&mut aux, "handle_p50_us", median(&handle_all));
    set(&mut aux, "route_worst_violations", f64::from(worst));
    set(
        &mut aux,
        "route_violation_limit",
        f64::from(MAX_ROUTE_VIOLATIONS),
    );
    Ok(finish(rec, m, aux))
}
