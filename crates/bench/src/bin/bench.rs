//! `bench [SUITE…] [--quick] [--stdout] [--check]`: the benchmark
//! harness (EXPERIMENTS.md E14).
//!
//! Suites are `solver`, `sweep`, `fleet` and `serve`; none named runs all
//! four. Each suite writes `BENCH_<suite>.json` in the current directory
//! (`--stdout` prints it instead; `--quick` runs the test-sized shapes).
//! `--check` is the CI gate: it validates each committed document and
//! re-measures every gate it records, failing when one breaks its limit.
//! With more than one suite, each runs in a child process of its own, so
//! each document's peak RSS is its suite's alone.

use std::process::{exit, Command};

use mcc_bench::exp::bench::{self, Suite};

const USAGE: &str = "usage: bench [solver|sweep|fleet|serve]... [--quick] [--stdout] [--check]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut quick, mut stdout, mut check) = (false, false, false);
    let mut suites = Vec::new();
    for a in &args {
        match a.as_str() {
            "--quick" => quick = true,
            "--stdout" => stdout = true,
            "--check" => check = true,
            name => match Suite::parse(name) {
                Some(s) => suites.push(s),
                None => {
                    eprintln!("bench: unknown argument `{name}`\n{USAGE}");
                    exit(2);
                }
            },
        }
    }
    if suites.is_empty() {
        suites = Suite::ALL.to_vec();
    }
    let [suite] = suites[..] else {
        let exe = std::env::current_exe().expect("the running binary has a path");
        let flags: Vec<&String> = args.iter().filter(|a| a.starts_with("--")).collect();
        let mut failed = false;
        for s in suites {
            let status = Command::new(&exe)
                .arg(s.name())
                .args(&flags)
                .status()
                .expect("spawn a suite process");
            failed |= !status.success();
        }
        exit(i32::from(failed));
    };
    if check {
        match bench::check(suite) {
            Ok(()) => eprintln!("bench {} --check OK", suite.name()),
            Err(e) => {
                eprintln!("bench {} --check FAILED: {e}", suite.name());
                exit(1);
            }
        }
        return;
    }
    let body = bench::report(suite, quick).to_string_pretty();
    if stdout {
        println!("{body}");
    } else {
        let path = suite.file();
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
