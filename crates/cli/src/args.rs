//! Hand-rolled argument parsing (the workspace deliberately avoids a CLI
//! dependency; the grammar is small and fully tested).

use std::collections::BTreeMap;

/// The selected subcommand.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// Off-line optimum for a trace.
    Solve,
    /// Run an online policy over a trace.
    Online,
    /// All policies vs. OPT on one trace.
    Compare,
    /// Generate a workload trace.
    Generate,
    /// Instance statistics.
    Info,
    /// Classic fixed-capacity policies on a trace, priced in the cloud
    /// model.
    Classic,
    /// Multi-seed policy sweep over a workload family.
    Sweep,
    /// Fleet of independent per-item SC instances with capacity-
    /// constrained servers.
    Fleet,
    /// Long-lived `serve/1` JSONL decision daemon (stdin/stdout or TCP).
    Serve,
    /// Render a workload as `serve/1` request lines for the daemon.
    Load,
    /// Usage text.
    Help,
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// First positional operand (trace path or workload family).
    pub operand: Option<String>,
    /// Inline compact instance (`-c "..."`).
    pub inline: Option<String>,
    /// `--key value` options.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag`s.
    pub flags: Vec<String>,
}

impl ParsedArgs {
    /// Option lookup with a default.
    pub fn opt_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Numeric option with a default; errors mention the key.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// Flags that take a value.
const VALUE_OPTIONS: &[&str] = &[
    "policy",
    "servers",
    "requests",
    "mu",
    "lambda",
    "seed",
    "out",
    "rate",
    "rho",
    "zipf",
    "gap",
    "k",
    "seeds",
    "threads",
    "crash-rate",
    "mean-downtime",
    "burst-rate",
    "burst-coverage",
    "partition-rate",
    "partition-mean",
    "brownout-rate",
    "brownout-mean",
    "brownout-factor",
    "fail-prob",
    "retry-budget",
    "backoff-base",
    "queue-cap",
    "mean-delay",
    "metrics",
    "items",
    "capacity",
    "eviction",
    "eviction-price",
    "mu-dist",
    "lambda-dist",
    "max-items",
    "max-copies",
    "listen",
    "crash",
    "target-rate",
];
/// Bare flags.
const BARE_FLAGS: &[&str] = &[
    "diagram",
    "schedule",
    "analyze",
    "quick",
    "json",
    "metrics-report",
    "no-audit",
    "stats",
];

/// Parses `argv` (without the program name).
pub fn parse(argv: &[String]) -> Result<ParsedArgs, String> {
    let mut it = argv.iter().peekable();
    let command = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => Command::Help,
        Some("solve") => Command::Solve,
        Some("online") => Command::Online,
        Some("compare") => Command::Compare,
        Some("generate") => Command::Generate,
        Some("info") => Command::Info,
        Some("classic") => Command::Classic,
        Some("sweep") => Command::Sweep,
        Some("fleet") => Command::Fleet,
        Some("serve") => Command::Serve,
        Some("load") => Command::Load,
        Some(other) => return Err(format!("unknown command `{other}` (try `mcc help`)")),
    };
    let mut parsed = ParsedArgs {
        command,
        operand: None,
        inline: None,
        options: BTreeMap::new(),
        flags: Vec::new(),
    };
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            // `mcc <cmd> --help` asks for the usage text, as `mcc help` does.
            parsed.command = Command::Help;
            return Ok(parsed);
        } else if arg == "-c" {
            let val = it.next().ok_or("`-c` needs an inline compact instance")?;
            parsed.inline = Some(val.clone());
        } else if let Some(name) = arg.strip_prefix("--") {
            if BARE_FLAGS.contains(&name) {
                parsed.flags.push(name.to_string());
            } else if VALUE_OPTIONS.contains(&name) {
                let val = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.options.insert(name.to_string(), val.clone());
            } else {
                return Err(format!("unknown option `--{name}`"));
            }
        } else if parsed.operand.is_none() {
            parsed.operand = Some(arg.clone());
        } else {
            return Err(format!("unexpected extra operand `{arg}`"));
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_commands_and_operands() {
        let p = parse(&argv("solve trace.json --diagram")).unwrap();
        assert_eq!(p.command, Command::Solve);
        assert_eq!(p.operand.as_deref(), Some("trace.json"));
        assert!(p.has_flag("diagram"));
        assert!(!p.has_flag("schedule"));
    }

    #[test]
    fn parses_value_options() {
        let p = parse(&argv(
            "generate poisson --servers 8 --requests 100 --seed 7",
        ))
        .unwrap();
        assert_eq!(p.command, Command::Generate);
        assert_eq!(p.operand.as_deref(), Some("poisson"));
        assert_eq!(p.num_or::<usize>("servers", 0).unwrap(), 8);
        assert_eq!(p.num_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(p.num_or::<f64>("mu", 1.0).unwrap(), 1.0); // default
    }

    #[test]
    fn parses_inline_instances() {
        let p = parse(&[
            "online".into(),
            "-c".into(),
            "m=2 mu=1 lambda=1 | s2@0.5".into(),
        ])
        .unwrap();
        assert_eq!(p.inline.as_deref(), Some("m=2 mu=1 lambda=1 | s2@0.5"));
    }

    #[test]
    fn rejects_unknown_commands_and_options() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("solve x --bogus 3")).is_err());
        assert!(parse(&argv("solve x --policy")).is_err());
        assert!(parse(&argv("solve a b")).is_err());
    }

    #[test]
    fn empty_or_help_yields_help() {
        assert_eq!(parse(&[]).unwrap().command, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().command, Command::Help);
    }

    #[test]
    fn help_after_a_command_yields_help() {
        for line in [
            "fleet --help",
            "sweep poisson -h",
            "solve trace.json --diagram --help",
            "serve --servers 4 --help --bogus",
        ] {
            assert_eq!(parse(&argv(line)).unwrap().command, Command::Help, "{line}");
        }
        // A value option still takes the next word as its value.
        let p = parse(&argv("load poisson --out --help")).unwrap();
        assert_eq!(p.command, Command::Load);
        assert_eq!(p.opt_or("out", ""), "--help");
    }

    #[test]
    fn num_or_reports_bad_values() {
        let p = parse(&argv("generate poisson --servers eight")).unwrap();
        let err = p.num_or::<usize>("servers", 1).unwrap_err();
        assert!(err.contains("--servers"));
    }
}
