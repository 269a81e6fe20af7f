//! Guards the no-panic contract on user-input-reachable paths: non-test
//! code in `mcc-simnet`, `mcc-cli` and `mcc-serve` must not call
//! `.unwrap()` or `.expect(` — errors there surface as typed
//! `ModelError` values, CLI exit codes, or `serve/1` error lines,
//! never as panics (a daemon parsing untrusted JSONL lines must not be
//! killable by one bad client). (The same rule is enforced
//! at lint level by `clippy::unwrap_used` in those crates and `-D
//! warnings` in CI; this test keeps it honest for plain `cargo test`.)

use std::path::Path;

/// Strips the trailing `#[cfg(test)]` module (unit tests may unwrap).
fn non_test_code(src: &str) -> &str {
    match src.find("#[cfg(test)]") {
        Some(pos) => &src[..pos],
        None => src,
    }
}

fn scan_crate(dir: &Path, offenders: &mut Vec<String>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("readable dir entry").path();
        if path.is_dir() {
            scan_crate(&path, offenders);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        for (lineno, line) in non_test_code(&src).lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if code.contains(".unwrap()") || code.contains(".expect(") {
                offenders.push(format!(
                    "{}:{}: {}",
                    path.display(),
                    lineno + 1,
                    line.trim()
                ));
            }
        }
    }
}

#[test]
fn simnet_and_cli_non_test_code_never_unwraps() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for krate in ["crates/simnet/src", "crates/cli/src", "crates/serve/src"] {
        scan_crate(&root.join(krate), &mut offenders);
    }
    assert!(
        offenders.is_empty(),
        "panic sites on user-input-reachable paths:\n{}",
        offenders.join("\n")
    );
}

/// `mcc online --analyze` on a run with mid-sequence epoch resets used to
/// abort on an assertion; the analysis now refuses such runs with a typed
/// error the CLI turns into exit 2.
#[test]
fn analysis_of_a_multi_epoch_run_is_a_typed_error() {
    use mobile_cloud_cache::online::AnalyzeError;
    use mobile_cloud_cache::prelude::{
        run_policy, try_analyze, CommonParams, PoissonWorkload, SpeculativeCaching, Workload,
    };
    let params = CommonParams {
        servers: 8,
        requests: 400,
        ..CommonParams::small()
    };
    let inst = PoissonWorkload::uniform(params, 1.0).generate(77);
    let run = run_policy(&mut SpeculativeCaching::<f64>::with_epochs(3), &inst);
    assert!(matches!(
        try_analyze(&inst, &run),
        Err(AnalyzeError::MidSequenceEpoch { .. })
    ));
    let run = run_policy(&mut SpeculativeCaching::<f64>::paper(), &inst);
    assert!(try_analyze(&inst, &run).is_ok());
}
