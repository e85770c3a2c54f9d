//! Differential tests of the jobs-aware `.mnl` front end: for every
//! source, `mnl::parse_design_parallel` on 1, 2 and 4 workers must give
//! exactly what the whole-file `mnl::parse_design` gives — equal modules
//! on success, an identical error (kind, line and message) on failure.

use maestro_netlist::{mnl, NetlistError, ParseErrorKind};
use proptest::prelude::*;
use rand::Rng;

/// Asserts the jobs-invariance contract on `source` and returns the
/// whole-file result for further checks.
fn assert_matches_whole_file(source: &str) -> Result<usize, NetlistError> {
    let whole = mnl::parse_design(source);
    for jobs in [1, 2, 4] {
        let parallel = mnl::parse_design_parallel(source, jobs);
        assert_eq!(parallel, whole, "jobs={jobs} on {source:?}");
    }
    whole.map(|modules| modules.len())
}

fn parse_error(result: Result<usize, NetlistError>) -> (ParseErrorKind, usize, String) {
    match result {
        Err(NetlistError::Parse {
            kind,
            line,
            message,
        }) => (kind, line, message),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

/// One canonical module block: a few ports, declared and lazily bound
/// nets, and devices over a small template and pin vocabulary.
fn module_text(rng: &mut StdRng, name: &str) -> String {
    let mut text = format!("module {name};\n");
    let inputs = rng.gen_range(0..3);
    if inputs > 0 {
        let names: Vec<String> = (0..inputs).map(|i| format!("i{i}")).collect();
        text.push_str(&format!("input {};\n", names.join(", ")));
    }
    if rng.gen_bool(0.7) {
        text.push_str("output y;\n");
    }
    if rng.gen_bool(0.5) {
        text.push_str("net t0, t1;\n");
    }
    for d in 0..rng.gen_range(0..5) {
        let template = ["INV", "NAND2", "NOR2", "BUF"][rng.gen_range(0..4usize)];
        let pins: Vec<String> = ["A", "B", "Y"][..rng.gen_range(0..4)]
            .iter()
            .map(|pin| format!("{pin}=n{}", rng.gen_range(0..4)))
            .collect();
        text.push_str(&format!("device u{d} {template} ({});\n", pins.join(", ")));
    }
    text.push_str("endmodule\n");
    text
}

/// A design of `count` modules, with the perturbations selected by the
/// bits of `mask` applied: each targets one way a chunked parse could
/// drift from the whole-file one.
fn design(seed: u64, count: usize, mask: u32) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names: Vec<String> = (0..count).map(|i| format!("m{i}")).collect();
    // Duplicate module names in different chunks.
    if mask & 1 != 0 && count > 1 {
        let from = rng.gen_range(0..count - 1);
        names[rng.gen_range(from + 1..count)] = names[from].clone();
    }
    let mut blocks: Vec<String> = names.iter().map(|n| module_text(&mut rng, n)).collect();
    // An empty module.
    if mask & 2 != 0 {
        blocks.insert(
            rng.gen_range(0..=blocks.len()),
            "module empty;\nendmodule\n".to_owned(),
        );
    }
    // `endmodule # comment`: the split no longer sees the block's end.
    if mask & 4 != 0 {
        let k = rng.gen_range(0..blocks.len());
        blocks[k] = blocks[k].replace("endmodule\n", "endmodule # done\n");
    }
    // A syntax error in one module and a lexical error in a later one.
    if mask & 8 != 0 && blocks.len() > 1 {
        let k = rng.gen_range(0..blocks.len() - 1);
        blocks[k] = blocks[k].replacen(";\n", ";\ndevice ;\n", 1);
        let later = rng.gen_range(k + 1..blocks.len());
        blocks[later] = blocks[later].replacen(";\n", ";\nnet $;\n", 1);
    }
    // One random character inserted somewhere.
    if mask & 16 != 0 {
        let k = rng.gen_range(0..blocks.len());
        let at = rng.gen_range(0..=blocks[k].len());
        let c = [";", ",", "(", ")", "=", "$", " ", "\n", "#", "x"][rng.gen_range(0..10usize)];
        blocks[k].insert_str(at, c);
    }
    let mut text = String::from("# generated design\n");
    for block in &blocks {
        text.push_str(block);
        if rng.gen_bool(0.3) {
            text.push_str("\n# between blocks\n");
        }
    }
    // U+00A0 (White_Space, so both the lexer and the split skip it).
    if mask & 32 != 0 {
        text = text.replacen(' ', "\u{a0}", 3);
        text.push_str("\u{a0}\n");
    }
    // CRLF line endings.
    if mask & 64 != 0 {
        text = text.replace('\n', "\r\n");
    }
    // No final newline.
    if mask & 128 != 0 {
        while text.ends_with(['\n', '\r']) {
            text.pop();
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parallel_parse_equals_whole_file_parse(
        seed in any::<u64>(),
        count in 1usize..8,
        mask in 0u32..256,
    ) {
        assert_matches_whole_file(&design(seed, count, mask)).ok();
    }
}

#[test]
fn a_lexical_error_in_a_later_module_outranks_an_earlier_syntax_error() {
    let source = "module a;\ndevice ;\nendmodule\nmodule b;\nnet $;\nendmodule\n";
    let (kind, line, message) = parse_error(assert_matches_whole_file(source));
    assert_eq!((kind, line), (ParseErrorKind::UnexpectedToken, 5));
    assert!(message.contains('$'), "{message}");
}

#[test]
fn duplicate_modules_in_different_chunks_report_the_second_header() {
    let source = "module a;\nendmodule\nmodule b;\nendmodule\n\nmodule a;\ninput x;\nendmodule\n";
    let (kind, line, _) = parse_error(assert_matches_whole_file(source));
    assert_eq!((kind, line), (ParseErrorKind::DuplicateName, 6));
}

#[test]
fn a_commented_endmodule_falls_back_to_the_whole_file() {
    let source = "module a;\ninput x;\nendmodule # a\nmodule b;\nendmodule\n";
    assert!(
        mnl::split_design(source).is_some(),
        "splits into one bad chunk"
    );
    assert_eq!(assert_matches_whole_file(source), Ok(2));
}

#[test]
fn crlf_nbsp_missing_newline_and_empty_modules_parse_alike() {
    for source in [
        "module a;\r\ninput x;\r\nendmodule\r\nmodule b;\r\nendmodule\r\n",
        "module\u{a0}a;\ninput\u{a0}x;\nendmodule\n\u{a0}\nmodule b;\nendmodule\n",
        "module a;\ninput x;\nendmodule\nmodule b;\nendmodule",
        "module a;\nendmodule\nmodule b;\nendmodule\nmodule c;\nendmodule\n",
    ] {
        assert_eq!(
            assert_matches_whole_file(source),
            Ok(source.matches("endmodule").count())
        );
    }
}

#[test]
fn non_canonical_and_empty_sources_fall_back() {
    for source in [
        "",
        "# nothing\n",
        "stray\nmodule a;\nendmodule\n",
        "module a; endmodule\n",
    ] {
        assert_matches_whole_file(source).ok();
    }
}
