//! The Figure 1 dataflow: schematic + process database in, results
//! database out.
//!
//! ```text
//! Fabrication Process DB ──┐
//!                          ├─> I/O interface ─> SC estimator ─┐
//! Circuit schematic (.mnl)─┘                  └> FC estimator ├─> ResultsDb ─> floorplanner
//! ```
//!
//! The pipeline tries each layout style a module's templates resolve
//! against: a gate-level module estimates as standard cells, a
//! transistor-level module as full custom, and a module whose templates
//! appear in both tables gets both estimates — exactly the methodology
//! comparison the paper motivates ("trial floor plans for comparing the
//! various different layout methodologies").

use std::borrow::Borrow;
use std::sync::Arc;

use maestro_netlist::{
    diff, fan_out, mnl, LayoutStyle, Module, ModuleFingerprint, NetlistDiff, NetlistError,
    NetlistStats, RevisionManifest, StatsCache,
};
use maestro_tech::ProcessDb;
use maestro_trace as trace;

use crate::prob::ProbTable;
use crate::report::{EstimateRecord, ResultsDb};
use crate::results_cache::{params_digest, ResultsCache, ResultsKey};
use crate::standard_cell::ScParams;
use crate::{full_custom, standard_cell};

/// Below this many total nets in a batch, [`Pipeline::run_all_parallel`]
/// takes the serial path regardless of the requested job count: thread
/// spawning costs more than estimating a hand-full of nets (the Table 1
/// suite alone carries ~80 nets and stays parallel).
pub const DEFAULT_PARALLEL_NET_THRESHOLD: usize = 48;

/// Ceiling on the per-shard net budget work dispatch uses. Batches are cut
/// into shards of consecutive modules totalling at most
/// `min(DEFAULT_SHARD_NET_BUDGET, ceil(total_nets / jobs))` nets (always
/// at least one module), so a 10^5-module batch of tiny modules dispatches
/// a few hundred chunky shards instead of contending on the work counter
/// once per module, while worker count follows the net workload rather
/// than the module count.
pub const DEFAULT_SHARD_NET_BUDGET: usize = 4096;

/// Totals of a [`Pipeline::run_all_streaming`] batch: what flowed through
/// the sink without ever being held in memory at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamSummary {
    /// Modules estimated (and emitted through the sink).
    pub modules: usize,
    /// Total devices across those modules.
    pub devices: usize,
    /// Total nets across those modules.
    pub nets: usize,
}

/// Cuts a batch into shards of consecutive modules whose net counts sum to
/// at most `min(cap, ceil(total / jobs))` (single modules may exceed the
/// budget — a module is the smallest unit of work). Returns one
/// `start..end` index range per shard, covering `0..net_counts.len()`.
fn plan_shards(net_counts: &[usize], jobs: usize, cap: usize) -> Vec<std::ops::Range<usize>> {
    let total: usize = net_counts.iter().sum();
    let budget = total.div_ceil(jobs.max(1)).clamp(1, cap.max(1));
    let mut shards = Vec::new();
    let mut start = 0;
    let mut acc = 0usize;
    for (i, &nets) in net_counts.iter().enumerate() {
        if i > start && acc + nets > budget {
            shards.push(start..i);
            start = i;
            acc = 0;
        }
        acc += nets;
    }
    if start < net_counts.len() {
        shards.push(start..net_counts.len());
    }
    shards
}

/// Outcome of one [`Pipeline::run_all_incremental`] revision: the
/// results database (byte-identical to a cold batch over the same
/// modules), the fingerprint diff against the previous revision, and the
/// manifest to diff the *next* revision against.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    /// Per-module estimates, in module order.
    pub db: ResultsDb,
    /// Classification of every module against the previous revision.
    pub diff: NetlistDiff,
    /// This revision's manifest — feed it to the next incremental run.
    pub manifest: RevisionManifest,
}

/// The module-area-estimation pipeline of the paper's Figure 1.
#[derive(Debug, Clone)]
pub struct Pipeline {
    tech: Arc<ProcessDb>,
    sc_params: ScParams,
    prob: Arc<ProbTable>,
    /// Resolve-once memo for `NetlistStats`; `None` runs the uncached
    /// reference path (differential testing).
    stats: Option<Arc<StatsCache>>,
    /// Whole-result memo for ECO re-estimation; `None` (the default)
    /// recomputes every record, keeping batch counter profiles exact.
    results: Option<Arc<ResultsCache>>,
    parallel_net_threshold: usize,
    shard_net_budget: usize,
}

impl Pipeline {
    /// Creates a pipeline over a process database with default
    /// standard-cell parameters, memoizing Eq. 2–3 in the process-wide
    /// [`ProbTable::shared`] cache and netlist resolution in the
    /// process-wide [`StatsCache::shared`] memo.
    pub fn new(tech: ProcessDb) -> Self {
        Pipeline::from_shared_tech(Arc::new(tech))
    }

    /// As [`Pipeline::new`], but borrowing an already-shared process
    /// database instead of taking ownership — a long-lived daemon keeps
    /// one `Arc<ProcessDb>` per technology and hands it to every
    /// request's pipeline without cloning the table data.
    pub fn from_shared_tech(tech: Arc<ProcessDb>) -> Self {
        Pipeline {
            tech,
            sc_params: ScParams::default(),
            prob: ProbTable::shared(),
            stats: Some(StatsCache::shared()),
            results: None,
            parallel_net_threshold: DEFAULT_PARALLEL_NET_THRESHOLD,
            shard_net_budget: DEFAULT_SHARD_NET_BUDGET,
        }
    }

    /// Overrides the standard-cell estimator parameters.
    pub fn with_sc_params(mut self, params: ScParams) -> Self {
        self.sc_params = params;
        self
    }

    /// Uses an explicit probability table instead of the shared one
    /// (e.g. to isolate cache statistics in tests and benchmarks).
    pub fn with_prob_table(mut self, table: Arc<ProbTable>) -> Self {
        self.prob = table;
        self
    }

    /// Uses an explicit netlist resolution cache instead of the shared
    /// one (isolating cache statistics in tests and benchmarks).
    pub fn with_stats_cache(mut self, cache: Arc<StatsCache>) -> Self {
        self.stats = Some(cache);
        self
    }

    /// Disables netlist resolution memoization: every consumer re-runs
    /// [`NetlistStats::resolve`] from scratch. This is the reference path
    /// the differential suite compares the cached pipeline against.
    pub fn without_stats_cache(mut self) -> Self {
        self.stats = None;
        self
    }

    /// Memoizes whole [`EstimateRecord`]s in `cache`, keyed by module
    /// content × technology revision × parameter digest. Off by default:
    /// only incremental (ECO) entry points opt in, so plain batch runs
    /// keep their exact resolve-counter profiles.
    pub fn with_results_cache(mut self, cache: Arc<ResultsCache>) -> Self {
        self.results = Some(cache);
        self
    }

    /// Overrides the net-count threshold below which
    /// [`Pipeline::run_all_parallel`] stays serial (`0` always fans out).
    pub fn with_parallel_threshold(mut self, total_nets: usize) -> Self {
        self.parallel_net_threshold = total_nets;
        self
    }

    /// Overrides the per-shard net-budget ceiling
    /// ([`DEFAULT_SHARD_NET_BUDGET`]) parallel dispatch cuts batches with.
    /// `0` is treated as `1` (every module its own shard).
    pub fn with_shard_net_budget(mut self, nets: usize) -> Self {
        self.shard_net_budget = nets.max(1);
        self
    }

    /// The process database in use.
    pub fn tech(&self) -> &ProcessDb {
        &self.tech
    }

    /// The netlist resolution cache, unless running uncached.
    pub fn stats_cache(&self) -> Option<&Arc<StatsCache>> {
        self.stats.as_ref()
    }

    /// The memo key of one module under this pipeline's technology and
    /// parameters.
    fn results_key(&self, module: &Module) -> ResultsKey {
        (
            ModuleFingerprint::of(module),
            self.tech.revision().id(),
            params_digest(&self.sc_params),
        )
    }

    /// Resolves a module's statistics through the cache (shared `Arc` per
    /// (module, technology, style)), or uncached when disabled.
    fn resolve_stats(
        &self,
        module: &Module,
        style: LayoutStyle,
    ) -> Result<Arc<NetlistStats>, NetlistError> {
        match &self.stats {
            Some(cache) => cache.resolve(module, &self.tech, style),
            None => NetlistStats::resolve(module, &self.tech, style).map(Arc::new),
        }
    }

    /// Estimates one module under every style its templates resolve for.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownTemplate`] only when the module
    /// resolves under *neither* style — a module that fits one table is
    /// fine.
    pub fn run_module(&self, module: &Module) -> Result<EstimateRecord, NetlistError> {
        let _module_span = trace::span_with("pipeline.module", || module.name().to_owned());
        trace::counter("estimate.nets", module.net_count() as u64);
        let key = self.results.as_ref().map(|cache| {
            let key = self.results_key(module);
            (Arc::clone(cache), key)
        });
        if let Some((cache, key)) = &key {
            if let Some(record) = cache.get(key) {
                return Ok((*record).clone());
            }
        }
        let (sc, sc_candidates) = match self.resolve_stats(module, LayoutStyle::StandardCell) {
            Ok(stats) if stats.device_count() > 0 => {
                let _sc_span = trace::span("estimate.standard_cell");
                let primary =
                    standard_cell::estimate_using(&stats, &self.tech, &self.sc_params, &self.prob);
                let candidates = crate::multi_aspect::sc_candidates_using(
                    &stats,
                    &self.tech,
                    crate::multi_aspect::DEFAULT_CANDIDATES,
                    &self.sc_params,
                    &self.prob,
                );
                (Some(primary), candidates)
            }
            _ => (None, Vec::new()),
        };
        let fc = match self.resolve_stats(module, LayoutStyle::FullCustom) {
            Ok(stats) if stats.device_count() > 0 => {
                let _fc_span = trace::span("estimate.full_custom");
                Some(full_custom::estimate(&stats, &self.tech))
            }
            _ => None,
        };
        if sc.is_none() && fc.is_none() {
            let first = module
                .devices()
                .next()
                .map(|(_, d)| (d.name().to_owned(), d.template().to_owned()))
                .unwrap_or_else(|| ("<none>".to_owned(), "<empty module>".to_owned()));
            return Err(NetlistError::UnknownTemplate {
                device: first.0,
                template: first.1,
            });
        }
        let record = EstimateRecord {
            module_name: module.name().to_owned(),
            standard_cell: sc,
            full_custom: fc,
            standard_cell_candidates: sc_candidates,
        };
        if let Some((cache, key)) = key {
            cache.insert(key, record.clone());
        }
        Ok(record)
    }

    /// Parses `.mnl` source and estimates the module.
    ///
    /// # Errors
    ///
    /// Propagates parse errors and [`Pipeline::run_module`] errors.
    pub fn run_mnl(&self, source: &str) -> Result<EstimateRecord, NetlistError> {
        let module = mnl::parse(source)?;
        self.run_module(&module)
    }

    /// Estimates a set of modules into a results database — the chip-level
    /// run that feeds the floorplanner. The one-job
    /// [`Pipeline::run_all_parallel`].
    ///
    /// # Errors
    ///
    /// Fails on the first module that estimates under neither style.
    pub fn run_all<'m, I>(&self, modules: I) -> Result<ResultsDb, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        self.run_all_parallel(modules, 1)
    }

    /// [`Pipeline::run_all`] fanned out over up to `jobs` worker threads.
    ///
    /// The batch is one wave of the batch loop: it is cut into shards of
    /// consecutive modules by net budget ([`DEFAULT_SHARD_NET_BUDGET`]),
    /// workers pull shards from a shared counter, and the records are
    /// merged in module order, so the [`ResultsDb`] — and its JSON — is
    /// identical to the serial run's. `jobs <= 1` estimates inline, one
    /// module at a time, as do batches totalling fewer nets than the
    /// parallel threshold ([`DEFAULT_PARALLEL_NET_THRESHOLD`] unless
    /// overridden via [`Pipeline::with_parallel_threshold`]). The database
    /// holds one record per input module, in module order — a name
    /// repeated across the inputs gets one record per occurrence, exactly
    /// as the stream emits them.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_all`]: the error reported is the one the serial
    /// run would have hit first (the lowest-index failing module), even
    /// if a later module failed earlier in wall-clock time.
    pub fn run_all_parallel<'m, I>(
        &self,
        modules: I,
        jobs: usize,
    ) -> Result<ResultsDb, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        let mut db = ResultsDb::new();
        self.drive(modules, jobs, usize::MAX, |record| {
            db.push(record);
            Ok(())
        })?;
        Ok(db)
    }

    /// Re-estimates a revision against the previous one: fingerprints
    /// every module, diffs against `prev` (emitting `netlist.diff.*`
    /// counters), then runs the batch through [`Pipeline::run_all_parallel`].
    /// With a results cache attached ([`Pipeline::with_results_cache`])
    /// the unchanged modules are served from the memo and only the
    /// modified/added slice pays estimation cost; the produced database
    /// is byte-identical to a cold batch either way, because cache hits
    /// replay the exact record the cold run would compute.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::run_all_parallel`].
    pub fn run_all_incremental<'m, I>(
        &self,
        prev: &RevisionManifest,
        modules: I,
        jobs: usize,
    ) -> Result<IncrementalRun, NetlistError>
    where
        I: IntoIterator<Item = &'m Module>,
    {
        let modules: Vec<&Module> = modules.into_iter().collect();
        let manifest = RevisionManifest::from_modules(modules.iter().copied());
        let changes = diff(prev, &manifest);
        let _span = trace::span_with("pipeline.run_all_incremental", || changes.summary());
        let db = self.run_all_parallel(modules, jobs)?;
        Ok(IncrementalRun {
            db,
            diff: changes,
            manifest,
        })
    }

    /// Estimates a stream of modules, emitting each [`EstimateRecord`]
    /// through `sink` in module order instead of accumulating a
    /// [`ResultsDb`] — the memory-bounded batch path. Modules are pulled
    /// in *waves* of at most `jobs ×` [`DEFAULT_SHARD_NET_BUDGET`] nets
    /// (one module minimum, and one module at `jobs <= 1`); each wave is
    /// estimated like a [`Pipeline::run_all_parallel`] batch and its
    /// records emitted before the next is pulled. Peak residency is one
    /// wave plus its records, however many modules the stream yields, and
    /// a collected stream is byte-identical to the in-memory run's JSON.
    ///
    /// # Errors
    ///
    /// Stops at the first failing module in stream order (later modules
    /// of an in-flight wave may have been estimated speculatively; their
    /// records are discarded and subsequent modules are never pulled).
    /// Errors returned by the sink propagate the same way.
    pub fn run_all_streaming<I, S>(
        &self,
        modules: I,
        jobs: usize,
        sink: S,
    ) -> Result<StreamSummary, NetlistError>
    where
        I: IntoIterator,
        I::Item: Borrow<Module>,
        S: FnMut(EstimateRecord) -> Result<(), NetlistError>,
    {
        // A serial stream pulls one module per wave: estimating modules as
        // they arrive, rather than after a 4096-net wave has been built,
        // measured a sixth less CPU time on a generated 10^6-device chip.
        let wave_nets = if jobs <= 1 {
            0
        } else {
            jobs.saturating_mul(self.shard_net_budget)
        };
        self.drive(modules, jobs, wave_nets, sink)
    }

    /// The one batch loop behind every `run_all*` entry point. Pulls a
    /// wave of modules — until it holds `wave_nets` nets or the input
    /// ends, one module minimum — estimates it, and hands its records to
    /// `sink` in module order before pulling the next. A wave runs inline
    /// when `jobs <= 1` or it carries fewer nets than the parallel
    /// threshold, and through [`plan_shards`] and [`Pipeline::run_shards`]
    /// otherwise. The first failing module or sink call stops the batch;
    /// nothing further is pulled. One `pipeline.run_all` span (its detail
    /// describes the first wave) and one `prob.*` delta cover the call.
    fn drive<I, S>(
        &self,
        modules: I,
        jobs: usize,
        wave_nets: usize,
        mut sink: S,
    ) -> Result<StreamSummary, NetlistError>
    where
        I: IntoIterator,
        I::Item: Borrow<Module>,
        S: FnMut(EstimateRecord) -> Result<(), NetlistError>,
    {
        // Snapshot the table's counters only when a sink listens: the
        // disabled path must not touch the memo's lock.
        let before = trace::enabled().then(|| self.prob.stats());
        let mut stream = modules.into_iter();
        let mut batch = None;
        let mut summary = StreamSummary::default();
        let outcome = loop {
            let mut wave = Vec::new();
            let mut nets = 0;
            for module in stream.by_ref() {
                let m = module.borrow();
                nets += m.net_count();
                summary.modules += 1;
                summary.devices += m.device_count();
                summary.nets += m.net_count();
                wave.push(module);
                if nets >= wave_nets {
                    break;
                }
            }
            let shards = (jobs > 1 && nets >= self.parallel_net_threshold).then(|| {
                let net_counts: Vec<usize> = wave.iter().map(|m| m.borrow().net_count()).collect();
                plan_shards(&net_counts, jobs, self.shard_net_budget)
            });
            let batch_id = batch
                .get_or_insert_with(|| {
                    trace::span_with("pipeline.run_all", || match &shards {
                        None => format!("serial modules={}", wave.len()),
                        Some(plan) => format!(
                            "jobs={} modules={} shards={}",
                            jobs.min(plan.len()),
                            wave.len(),
                            plan.len()
                        ),
                    })
                })
                .id();
            if wave.is_empty() {
                break Ok(summary);
            }
            let emitted = match shards {
                // The serial reference the differential suites compare
                // the fan-out against: one module at a time.
                None => wave
                    .iter()
                    .try_for_each(|m| self.run_module(m.borrow()).and_then(&mut sink)),
                Some(plan) => {
                    let refs: Vec<&Module> = wave.iter().map(Borrow::borrow).collect();
                    self.run_shards(&refs, &plan, jobs.min(plan.len()), batch_id)
                        .into_iter()
                        .try_for_each(|result| result.and_then(&mut sink))
                }
            };
            if let Err(e) = emitted {
                break Err(e);
            }
        };
        // Both counters, even at zero, so trace consumers see the cache
        // totals on runs that never query the table.
        if let Some(before) = before {
            let delta = self.prob.stats().delta_since(&before);
            trace::counter("prob.hits", delta.hits);
            trace::counter("prob.misses", delta.misses);
        }
        outcome
    }

    /// The shared parallel engine: the shards go through [`fan_out`] on
    /// `workers` threads, and every module's result comes back in module
    /// order (shards are consecutive runs). Each worker labels its thread
    /// `worker-N` and opens a `pipeline.worker` span parented to
    /// `batch_id` explicitly — the spawning thread's span stack is not
    /// visible from inside a worker thread.
    fn run_shards(
        &self,
        modules: &[&Module],
        shards: &[std::ops::Range<usize>],
        workers: usize,
        batch_id: u64,
    ) -> Vec<Result<EstimateRecord, NetlistError>> {
        let per_shard = fan_out(
            shards.len(),
            workers,
            |w| {
                if trace::enabled() {
                    trace::set_thread_label(format!("worker-{w}"));
                }
                trace::span_under("pipeline.worker", batch_id, String::new)
            },
            |s| {
                shards[s]
                    .clone()
                    .map(|i| self.run_module(modules[i]))
                    .collect::<Vec<_>>()
            },
        );
        per_shard.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_netlist::{generate, library_circuits};
    use maestro_tech::builtin;

    #[test]
    fn gate_level_module_gets_sc_only() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p.run_module(&generate::ripple_adder(2)).expect("estimates");
        assert!(rec.standard_cell.is_some());
        assert!(rec.full_custom.is_none());
    }

    #[test]
    fn transistor_module_gets_fc_only() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p
            .run_module(&library_circuits::nmos_full_adder())
            .expect("estimates");
        assert!(rec.standard_cell.is_none());
        assert!(rec.full_custom.is_some());
    }

    #[test]
    fn unresolvable_module_is_an_error() {
        let p = Pipeline::new(builtin::nmos25());
        let mut b = maestro_netlist::ModuleBuilder::new("alien");
        let n = b.net("n");
        b.device("u1", "QUANTUM_GATE", [("A", n)]);
        let err = p.run_module(&b.finish()).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownTemplate { .. }));
    }

    #[test]
    fn mnl_source_runs_end_to_end() {
        let p = Pipeline::new(builtin::nmos25());
        let rec = p
            .run_mnl(
                "module m;\ninput a;\noutput y;\n\
                 device u1 INV (A=a, Y=t);\ndevice u2 INV (A=t, Y=y);\nendmodule\n",
            )
            .expect("estimates");
        assert_eq!(rec.module_name, "m");
        assert!(rec.standard_cell.is_some());
    }

    #[test]
    fn run_all_builds_results_db() {
        let p = Pipeline::new(builtin::nmos25());
        let modules = [
            generate::ripple_adder(2),
            generate::counter(3),
            library_circuits::pass_chain(4),
        ];
        let db = p.run_all(modules.iter()).expect("estimates all");
        assert_eq!(db.len(), 3);
        assert!(db.record("counter_3").is_some());
        // Figure 1's "input to floor planner": serializable.
        assert!(db.to_json().unwrap().contains("counter_3"));
    }

    #[test]
    fn sc_params_override_flows_through() {
        let p = Pipeline::new(builtin::nmos25()).with_sc_params(ScParams::with_rows(5));
        let rec = p.run_module(&generate::ripple_adder(4)).unwrap();
        assert_eq!(rec.standard_cell.unwrap().rows, 5);
    }

    #[test]
    fn sc_params_override_recentres_the_candidate_sweep() {
        // The multi-aspect sweep must follow the caller's row override,
        // not the §5 seed: five candidates centred on rows = 5.
        let p = Pipeline::new(builtin::nmos25()).with_sc_params(ScParams::with_rows(5));
        let rec = p.run_module(&generate::ripple_adder(4)).unwrap();
        let rows: Vec<u32> = rec
            .standard_cell_candidates
            .iter()
            .map(|c| c.rows)
            .collect();
        assert_eq!(rows, vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn parallel_run_matches_serial_byte_for_byte() {
        let p = Pipeline::new(builtin::nmos25());
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let serial = p.run_all(modules.iter()).expect("serial run");
        for jobs in [1, 2, 8, 64] {
            let parallel = p
                .run_all_parallel(modules.iter(), jobs)
                .expect("parallel run");
            assert_eq!(
                serial.to_json().unwrap(),
                parallel.to_json().unwrap(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_run_reports_first_failing_module() {
        let p = Pipeline::new(builtin::nmos25());
        let bad = |name: &str| {
            let mut b = maestro_netlist::ModuleBuilder::new(name);
            let n = b.net("n");
            b.device("u1", "QUANTUM_GATE", [("A", n)]);
            b.finish()
        };
        let modules = [
            generate::counter(3),
            bad("bad_early"),
            generate::counter(4),
            bad("bad_late"),
        ];
        let serial = p.run_all(modules.iter()).unwrap_err();
        let parallel = p.run_all_parallel(modules.iter(), 4).unwrap_err();
        assert_eq!(format!("{serial}"), format!("{parallel}"));
    }

    #[test]
    fn shards_respect_the_net_budget() {
        // total 20, jobs 2 -> budget 10: two equal shards.
        assert_eq!(plan_shards(&[5, 5, 5, 5], 2, 100), vec![0..2, 2..4]);
        // An oversized module owns its shard; the budget still caps the rest.
        assert_eq!(plan_shards(&[50, 4, 4, 4], 2, 10), vec![0..1, 1..3, 3..4]);
        // The cap wins over ceil(total/jobs) when smaller.
        assert_eq!(plan_shards(&[3, 3, 3], 100, 1), vec![0..1, 1..2, 2..3]);
        // Empty batch, empty plan.
        assert_eq!(
            plan_shards(&[], 4, 100),
            Vec::<std::ops::Range<usize>>::new()
        );
        // Shards always tile the batch contiguously.
        let counts = [7, 100, 3, 3, 3, 60, 1, 1];
        let shards = plan_shards(&counts, 3, 4096);
        assert_eq!(shards.first().unwrap().start, 0);
        assert_eq!(shards.last().unwrap().end, counts.len());
        for pair in shards.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn streaming_matches_in_memory_run_byte_for_byte() {
        let p = Pipeline::new(builtin::nmos25());
        let modules: Vec<_> = (2..10).map(generate::counter).collect();
        let reference = p.run_all(modules.iter()).expect("in-memory run");
        for jobs in [1, 2, 8] {
            let mut db = ResultsDb::new();
            let summary = p
                .run_all_streaming(modules.iter().cloned(), jobs, |rec| {
                    db.insert(rec);
                    Ok(())
                })
                .expect("streaming run");
            assert_eq!(summary.modules, modules.len());
            assert_eq!(
                summary.nets,
                modules.iter().map(|m| m.net_count()).sum::<usize>()
            );
            assert_eq!(
                reference.to_json().unwrap(),
                db.to_json().unwrap(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn streaming_reports_first_failing_module_in_stream_order() {
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        let bad = |name: &str| {
            let mut b = maestro_netlist::ModuleBuilder::new(name);
            let n = b.net("n");
            b.device("u1", "QUANTUM_GATE", [("A", n)]);
            b.finish()
        };
        let modules = [
            generate::counter(3),
            bad("bad_early"),
            generate::counter(4),
            bad("bad_late"),
        ];
        let serial = p.run_all(modules.iter()).unwrap_err();
        for jobs in [1, 4] {
            let err = p
                .run_all_streaming(modules.iter().cloned(), jobs, |_| Ok(()))
                .unwrap_err();
            assert_eq!(format!("{serial}"), format!("{err}"), "jobs={jobs}");
        }
    }

    #[test]
    fn streaming_sink_errors_stop_the_stream() {
        // Threshold 0 sends `jobs = 4` through the fan-out, whose records
        // reach the sink only after the whole wave is estimated.
        let p = Pipeline::new(builtin::nmos25()).with_parallel_threshold(0);
        let modules: Vec<_> = (2..6).map(generate::counter).collect();
        for jobs in [1, 4] {
            let mut seen = 0;
            let err = p
                .run_all_streaming(modules.iter().cloned(), jobs, |_| {
                    seen += 1;
                    if seen == 2 {
                        Err(NetlistError::invalid("sink full"))
                    } else {
                        Ok(())
                    }
                })
                .unwrap_err();
            assert!(err.to_string().contains("sink full"), "jobs={jobs}");
            assert_eq!(seen, 2, "no records after the sink error, jobs={jobs}");
        }
    }

    #[test]
    fn pipeline_resolves_each_module_once_per_style() {
        use maestro_netlist::StatsCache;
        let cache = Arc::new(StatsCache::new());
        let p = Pipeline::new(builtin::nmos25()).with_stats_cache(Arc::clone(&cache));
        let module = generate::counter(4);
        p.run_module(&module).expect("estimates");
        let first = cache.stats();
        assert_eq!(first.misses, 2, "one resolve per style, both fresh");
        assert_eq!(first.hits, 0);
        p.run_module(&module).expect("estimates again");
        let second = cache.stats();
        assert_eq!(second.misses, 2, "re-running must not re-resolve");
        assert_eq!(second.hits, 2);
    }

    #[test]
    fn uncached_pipeline_matches_cached_byte_for_byte() {
        let modules = library_circuits::table1_suite();
        let cached = Pipeline::new(builtin::nmos25());
        let uncached = Pipeline::new(builtin::nmos25()).without_stats_cache();
        assert!(uncached.stats_cache().is_none());
        let a = cached.run_all(modules.iter()).expect("cached run");
        let b = uncached.run_all(modules.iter()).expect("uncached run");
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    }

    #[test]
    fn pipeline_populates_its_prob_table() {
        use crate::prob::ProbTable;
        use std::sync::Arc;
        let table = Arc::new(ProbTable::new());
        let p = Pipeline::new(builtin::nmos25()).with_prob_table(Arc::clone(&table));
        p.run_module(&generate::counter(4)).expect("estimates");
        let stats = table.stats();
        assert!(stats.misses > 0, "fresh table must be populated");
        assert!(
            stats.hits > stats.misses,
            "aspect sweep should mostly hit: {stats:?}"
        );
    }

    #[test]
    fn incremental_rerun_is_byte_identical_and_mostly_cached() {
        let results = Arc::new(ResultsCache::new());
        let p = Pipeline::new(builtin::nmos25())
            .with_stats_cache(Arc::new(StatsCache::new()))
            .with_results_cache(Arc::clone(&results));
        let modules = library_circuits::table1_suite();

        // Cold revision: everything is added, everything misses.
        let cold = p
            .run_all_incremental(&RevisionManifest::new(), modules.iter(), 1)
            .expect("cold run");
        assert_eq!(cold.diff.added.len(), modules.len());
        assert_eq!(results.stats().misses, modules.len() as u64);

        // Edit one module; the rerun serves the rest from the memo.
        let mut edited = modules.clone();
        edited[0] = generate::counter(7).renamed(edited[0].name());
        let warm = p
            .run_all_incremental(&cold.manifest, edited.iter(), 1)
            .expect("warm run");
        assert_eq!(warm.diff.modified, vec![edited[0].name().to_string()]);
        assert_eq!(warm.diff.unchanged.len(), modules.len() - 1);
        let stats = results.stats();
        assert_eq!(stats.hits, modules.len() as u64 - 1);
        assert_eq!(stats.misses, modules.len() as u64 + 1);

        // Byte-identical to a cold batch over the same revision.
        let reference = Pipeline::new(builtin::nmos25())
            .run_all(edited.iter())
            .expect("reference run");
        assert_eq!(
            warm.db.to_json().unwrap(),
            reference.to_json().unwrap(),
            "memoized records must replay the cold result exactly"
        );
    }

    #[test]
    fn results_cache_separates_params_and_tech_revisions() {
        let results = Arc::new(ResultsCache::new());
        let m = generate::ripple_adder(3);
        let a = Pipeline::new(builtin::nmos25()).with_results_cache(Arc::clone(&results));
        let b = Pipeline::new(builtin::nmos25())
            .with_sc_params(ScParams::with_rows(5))
            .with_results_cache(Arc::clone(&results));
        let ra = a.run_module(&m).expect("estimates");
        let rb = b.run_module(&m).expect("estimates");
        assert_ne!(
            ra.standard_cell.as_ref().map(|e| e.rows),
            rb.standard_cell.as_ref().map(|e| e.rows),
            "different params must not share a memo entry"
        );
        // Each pipeline wrapped its own tech: distinct revisions, so even
        // equal params would key separately.
        assert_eq!(results.stats().hits, 0);
        assert_eq!(results.stats().entries, 2);
    }
}
