//! `perfbench-harness`: the in-process half of the maestro benchmark.
//!
//! `perfbench/run.py` drives the release `maestro-cli` binary for the
//! end-to-end numbers. This binary does the two things only Rust code
//! linked against the crates can do: build the generated inputs the
//! program is then fed as `.mnl` text, and run the traced per-layer probe
//! that calls each crate's public functions in-process under the
//! benchmark's own spans.
//!
//! ```text
//! perfbench-harness host
//! perfbench-harness gen-chip --devices N --extra K --seed S --out chip.mnl
//! perfbench-harness gen-pool --out pool.mnl
//! perfbench-harness probe-chip --chip chip.mnl --table1 table1.mnl --jobs J \
//!     --render-out table.txt --spans OUT
//! perfbench-harness probe-eco --chip base.mnl --edits edits.tsv --work DIR --spans OUT
//! perfbench-harness probe-session --requests requests.jsonl --spans OUT
//! ```
//!
//! Every command prints one JSON object on stdout; the probes also write
//! their span log, one JSON line per span, to `--spans`.

mod gen;
mod probe;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Flat `--flag value` arguments after the subcommand.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(rest: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = rest.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(key.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: bad number `{raw}`"))
    }
}

/// Renders a flat metric map as one JSON object.
pub fn json_object(fields: &BTreeMap<String, f64>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{v}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn run(cmd: &str, args: &Args) -> Result<String, String> {
    match cmd {
        "host" => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            Ok(format!("{{\"available_parallelism\":{cores}}}"))
        }
        "gen-chip" => gen::chip(
            args.num("devices")?,
            args.num("extra")?,
            args.num("seed")?,
            args.str("out")?,
        ),
        "gen-pool" => gen::pool(args.str("out")?),
        "probe-chip" | "probe-eco" | "probe-session" => {
            let (json, recorder) = match cmd {
                "probe-chip" => probe::chip(
                    args.str("chip")?,
                    args.str("table1")?,
                    args.num("jobs")?,
                    args.str("render-out")?,
                ),
                "probe-eco" => probe::eco(args.str("chip")?, args.str("edits")?, args.str("work")?),
                _ => probe::session(args.str("requests")?),
            }?;
            recorder.write_jsonl(args.str("spans")?)?;
            Ok(json)
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-harness <host|gen-chip|gen-pool|probe-chip|probe-eco|probe-session> [--flag value]...");
        return ExitCode::FAILURE;
    };
    match Args::parse(rest).and_then(|args| run(cmd, &args)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-harness {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
