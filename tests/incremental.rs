//! Differential suite for incremental re-estimation (the ECO loop).
//!
//! The contract: an incremental run — netlist diff against the previous
//! revision, result-memo hits for unchanged modules — must be *invisible*
//! in the output. Over the Table 1+2 suite and ten scripted single-module
//! edits, every incremental results database must be byte-identical to a
//! cold estimate of the same revision, while the memo serves all but the
//! edited module. The serve daemon's `"incremental":true` estimate and
//! `cache-stats` requests are held to the same standard end to end.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;

use maestro::estimator::pipeline::Pipeline;
use maestro::estimator::prob::ProbTable;
use maestro::estimator::request::{EstimateRequest, LayoutRequest, Request, RequestCall, Response};
use maestro::estimator::results_cache::ResultsCache;
use maestro::netlist::library_circuits::{pass_chain, table1_suite, table2_suite};
use maestro::netlist::{mnl, Module, RevisionManifest, StatsCache};
use maestro::ops;
use maestro::serve::{serve_lines, Session};
use maestro::tech::builtin;

/// The Table 1+2 workload as editable `.mnl` texts, one per module.
fn table_sources() -> Vec<(String, String)> {
    let mut suite = table1_suite();
    suite.extend(table2_suite());
    suite
        .into_iter()
        .map(|m| (m.name().to_owned(), mnl::to_mnl(&m)))
        .collect()
}

/// One scripted ECO edit: duplicate the module's first device under a
/// fresh per-step name, changing the netlist content but nothing else.
fn eco_edit(source: &str, step: usize) -> String {
    let mut out = String::new();
    let mut edited = false;
    for line in source.lines() {
        out.push_str(line);
        out.push('\n');
        if !edited && line.trim_start().starts_with("device ") {
            let rest = line
                .trim_start()
                .strip_prefix("device ")
                .expect("checked prefix");
            let (_, tail) = rest.split_once(' ').expect("device line has a template");
            out.push_str(&format!("device zz_eco{step} {tail}\n"));
            edited = true;
        }
    }
    assert!(edited, "every suite module has at least one device");
    out
}

fn parse_all(sources: &[(String, String)]) -> Vec<Module> {
    sources
        .iter()
        .flat_map(|(_, s)| mnl::parse_design(s).expect("suite source parses"))
        .collect()
}

/// A cold reference estimate: fresh pipeline, private caches, no memo.
fn cold_db_json(modules: &[Module]) -> String {
    let pipeline = Pipeline::new(builtin::nmos25())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_prob_table(Arc::new(ProbTable::new()));
    pipeline
        .run_all_parallel(modules.iter(), 1)
        .expect("cold estimate succeeds")
        .to_json()
        .expect("database serializes")
}

#[test]
fn ten_edit_eco_loop_is_byte_identical_to_cold_and_mostly_cached() {
    let mut sources = table_sources();
    let n = sources.len();
    assert!(n >= 5, "Table 1+2 suite is non-trivial");

    let results = Arc::new(ResultsCache::new());
    let pipeline = Pipeline::new(builtin::nmos25())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_prob_table(Arc::new(ProbTable::new()))
        .with_results_cache(Arc::clone(&results));
    let mut prev = RevisionManifest::new();

    // Round 0 fills the memo cold; rounds 1..=10 each edit one module.
    for step in 0..=10 {
        let edited = (step * 3 + 1) % n;
        if step > 0 {
            sources[edited].1 = eco_edit(&sources[edited].1, step);
        }
        let modules = parse_all(&sources);
        let before = results.stats();
        let run = pipeline
            .run_all_incremental(&prev, modules.iter(), 2)
            .expect("incremental estimate succeeds");
        let delta = results.stats().delta_since(&before);

        assert_eq!(
            run.db.to_json().expect("database serializes"),
            cold_db_json(&modules),
            "incremental output diverged from cold at step {step}"
        );

        if step == 0 {
            assert_eq!(run.diff.added.len(), n, "first revision is all-new");
            assert_eq!(delta.hits, 0, "nothing to hit on the cold fill");
            assert_eq!(delta.misses, n as u64);
        } else {
            assert_eq!(
                run.diff.modified,
                vec![sources[edited].0.clone()],
                "step {step} edits exactly one module"
            );
            assert_eq!(run.diff.unchanged.len(), n - 1, "step {step}");
            assert!(run.diff.added.is_empty() && run.diff.removed.is_empty());
            assert_eq!(delta.misses, 1, "only the edited module recomputes");
            assert_eq!(delta.hits, n as u64 - 1, "everything else is memoized");
        }
        prev = run.manifest;
    }
}

/// Extracts `"key":<integer>` from a one-line JSON payload, first match.
fn json_u64(payload: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = payload.find(&needle).unwrap_or_else(|| {
        panic!("payload carries `{key}`: {payload}");
    });
    payload[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("integer field")
}

fn serve_run(session: &Session, requests: &[Request]) -> BTreeMap<String, Response> {
    let input: String = requests
        .iter()
        .map(|r| format!("{}\n", r.to_json_line()))
        .collect();
    let mut output = Vec::new();
    serve_lines(session, Cursor::new(input), &mut output, 1).expect("serve stream completes");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .map(|line| {
            let response = Response::parse(line).expect("response parses");
            (response.id.clone(), response)
        })
        .collect()
}

fn incremental_estimate(id: &str, mnl: Vec<String>) -> Request {
    Request {
        id: id.to_owned(),
        call: RequestCall::Estimate(EstimateRequest {
            files: Vec::new(),
            mnl,
            tech: "nmos".to_owned(),
            rows: None,
            jobs: 1,
            json: false,
            incremental: true,
        }),
    }
}

fn cache_stats(id: &str) -> Request {
    Request {
        id: id.to_owned(),
        call: RequestCall::CacheStats,
    }
}

#[test]
fn serve_incremental_estimates_match_one_shot_and_report_cache_stats() {
    let mut sources = table_sources();
    let n = sources.len();
    let chain = mnl::to_mnl(&pass_chain(3));

    let session = Session::with_caches(Arc::new(StatsCache::new()), Arc::new(ProbTable::new()));
    let warm_layout = |id: &str| Request {
        id: id.to_owned(),
        call: RequestCall::Layout(LayoutRequest {
            files: Vec::new(),
            mnl: vec![chain.clone()],
            tech: "nmos".to_owned(),
            rows: None,
            replicas: 1,
            warm: true,
        }),
    };

    let texts = |sources: &[(String, String)]| -> Vec<String> {
        sources.iter().map(|(_, s)| s.clone()).collect()
    };
    let round0 = incremental_estimate("r0", texts(&sources));
    sources[2].1 = eco_edit(&sources[2].1, 1);
    let round1 = incremental_estimate("r1", texts(&sources));
    let log = [
        round0,
        cache_stats("c0"),
        round1,
        cache_stats("c1"),
        warm_layout("l1"),
        warm_layout("l2"),
        cache_stats("c2"),
        Request {
            id: "q".to_owned(),
            call: RequestCall::Shutdown,
        },
    ];
    let responses = serve_run(&session, &log);
    for id in ["r0", "c0", "r1", "c1", "l1", "l2", "c2", "q"] {
        assert!(responses[id].is_ok(), "{id}: {:?}", responses[id]);
    }

    // The incremental payload is byte-identical to a cold estimate of the
    // same revision rendered by the shared renderer.
    let modules = parse_all(&sources);
    let cold = Pipeline::new(builtin::nmos25())
        .with_stats_cache(Arc::new(StatsCache::new()))
        .with_prob_table(Arc::new(ProbTable::new()));
    let expected = ops::estimate_output(&cold, &modules, 1, false).expect("cold estimate");
    assert_eq!(responses["r1"].result.as_ref().unwrap(), &expected);

    // cache-stats tracks the memo across the session: everything misses
    // on the fill, only the edited module misses after the edit.
    let c0 = responses["c0"].result.as_ref().unwrap();
    let c1 = responses["c1"].result.as_ref().unwrap();
    let c2 = responses["c2"].result.as_ref().unwrap();
    let results_hits = |p: &str| json_u64(&p[p.find("\"results\"").unwrap()..], "hits");
    let results_misses = |p: &str| json_u64(&p[p.find("\"results\"").unwrap()..], "misses");
    assert_eq!(results_hits(c0), 0);
    assert_eq!(results_misses(c0), n as u64);
    assert_eq!(results_hits(c1), n as u64 - 1);
    assert_eq!(results_misses(c1), n as u64 + 1);

    // The parse memo mirrors the edit pattern: everything misses on the
    // first round, only the edited source re-parses afterwards.
    let parse_hits = |p: &str| json_u64(&p[p.find("\"parse\"").unwrap()..], "hits");
    let parse_misses = |p: &str| json_u64(&p[p.find("\"parse\"").unwrap()..], "misses");
    assert_eq!(parse_hits(c0), 0);
    assert_eq!(parse_misses(c0), n as u64);
    assert_eq!(parse_hits(c1), n as u64 - 1);
    assert_eq!(parse_misses(c1), n as u64 + 1);

    // The first warm layout (empty seed store) is bit-identical to a
    // one-shot cold layout; afterwards the session holds its seed.
    let one_shot = ops::layout_module(
        &pass_chain(3),
        &builtin::nmos25(),
        &StatsCache::new(),
        None,
        1,
        false,
        None,
    )
    .expect("one-shot layout");
    assert_eq!(responses["l1"].result.as_ref().unwrap(), &one_shot.summary);
    assert_eq!(json_u64(&c2[c2.find("\"warm\"").unwrap()..], "entries"), 1);

    // Every tech-using request after the first reused the session's
    // parsed tech DB (r1, l1, l2 — cache-stats and shutdown touch none).
    assert_eq!(json_u64(c2, "tech_reuse"), 3);
}
