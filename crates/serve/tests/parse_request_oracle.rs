//! Differential test of `wire::parse_request`, which scans a request
//! line without building a tree, against the tree-based parser it
//! replaced, kept here as the oracle: `Json::parse` the whole line, then
//! read `op`, `item`, `server` and `t` from the tree with `Json::get`.
//! Both must give the same `Ok` value and the same `Err` text on every
//! line — well-formed, malformed, hostile or odd.

use mcc_model::Json;
use mcc_serve::wire::{echo, parse_request, WireRequest};
use proptest::prelude::*;

fn oracle_field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_i64)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| format!("{key} must be a non-negative integer"))
}

/// The tree-based request parser, as it was before the scanner (with
/// the same bounded echo of an unknown op).
fn oracle(line: &str) -> Result<WireRequest, String> {
    let doc = Json::parse(line).map_err(|e| format!("bad json: {e}"))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| "op must be a string".to_string())?;
    match op {
        "req" => {
            let item = oracle_field_u64(&doc, "item")?;
            let server = u32::try_from(oracle_field_u64(&doc, "server")?)
                .map_err(|_| "server must fit in u32".to_string())?;
            let t = match doc.get("t") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| "t must be a finite non-negative number".to_string())?,
                ),
            };
            Ok(WireRequest::Req { item, server, t })
        }
        "finish" => Ok(WireRequest::Finish {
            item: oracle_field_u64(&doc, "item")?,
        }),
        "stats" => Ok(WireRequest::Stats),
        "metrics" => Ok(WireRequest::Metrics),
        "shutdown" => Ok(WireRequest::Shutdown),
        other => Err(format!("unknown op {:?}", echo(other))),
    }
}

fn agree(line: &str) {
    assert_eq!(parse_request(line), oracle(line), "line {line:?}");
}

#[test]
fn hand_written_lines_agree_with_the_oracle() {
    let nest = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
    let mut lines: Vec<String> = [
        r#"{"op":"req","item":7,"server":2,"t":1.5}"#,
        r#"{"op":"req","item":7,"server":2}"#,
        r#"{"op":"finish","item":7}"#,
        r#"{"op":"stats"}"#,
        r#"{"op":"metrics"}"#,
        r#"{"op":"shutdown"}"#,
        // First occurrence of a duplicate key wins, good or bad.
        r#"{"op":"req","item":1,"item":2,"server":0}"#,
        r#"{"op":"req","item":-1,"item":2,"server":0}"#,
        r#"{"op":5,"op":"stats"}"#,
        r#"{"op":"stats","op":5}"#,
        r#"{"op":"req","item":1,"server":0,"t":null,"t":2.0}"#,
        r#"{"op":"req","item":1,"server":0,"t":2.0,"t":null}"#,
        // Extra and nested fields are skipped.
        r#"{"x":{"op":"warp","y":[1,{"z":null}]},"op":"req","item":3,"server":1,"extra":"s"}"#,
        r#"{"op":"req","item":3,"server":1,"deep":[[[[{"a":[true,false,null]}]]]]}"#,
        // Escapes in keys and values.
        r#"{"o\u0070":"req","it\u0065m":4,"server":0}"#,
        r#"{"op":"st\u0061ts"}"#,
        r#"{"op":"st\"ats"}"#,
        r#"{"op\n":"stats"}"#,
        r#"{"op":"\ud800"}"#,
        r#"{"op":"\u+041"}"#,
        r#"{"op":"\q"}"#,
        r#"{"op":"\u12"}"#,
        // Numbers: null t, ints past i64, floats where ints belong.
        r#"{"op":"req","item":1,"server":0,"t":null}"#,
        r#"{"op":"req","item":9223372036854775807,"server":4294967295}"#,
        r#"{"op":"req","item":9223372036854775808,"server":0}"#,
        r#"{"op":"req","item":1,"server":4294967296}"#,
        r#"{"op":"req","item":1.0,"server":0}"#,
        r#"{"op":"req","item":1e2,"server":0}"#,
        r#"{"op":"req","item":1,"server":0,"t":7}"#,
        r#"{"op":"req","item":1,"server":0,"t":-0.0}"#,
        r#"{"op":"req","item":1,"server":0,"t":-2.0}"#,
        r#"{"op":"req","item":1,"server":0,"t":1e400}"#,
        r#"{"op":"req","item":1,"server":0,"t":"soon"}"#,
        r#"{"op":"req","item":1,"server":0,"t":[1]}"#,
        r#"{"op":"req","item":1,"server":0,"t":1.2.3}"#,
        r#"{"op":"req","item":--1,"server":0}"#,
        r#"{"op":"req","item":"1","server":0}"#,
        // Malformed documents and trailing garbage.
        "",
        "not json",
        "{",
        "}",
        "[]",
        "7",
        r#""op""#,
        "{}",
        r#"{"op":"req","item":1,"server":0}x"#,
        r#"{"op":"req","item":1,"server":0} {"#,
        r#"{"op":"req","item":1,"server":0,}"#,
        r#"{"op":"req" "item":1}"#,
        r#"{"op":nul}"#,
        r#"{"op":"stats"#,
        r#"{op:"stats"}"#,
        r#"{"op":"warp"}"#,
        r#"{"item":1}"#,
        r#"{"op":"finish"}"#,
        r#"{"op":"finish","item":{}}"#,
        " \t{ \"op\" : \"stats\" } \r",
        "{\"op\":\"stats\"}\n{\"op\":\"stats\"}",
        r#"{"op":"é"}"#,
        r#"{"op":"req","item":1,"server":0,"k":"naïve ✓"}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Depth 128 is the cap; 129 is one past it, at the top level and
    // under a key (the request object itself is the first level).
    lines.push(nest("[", "]", 128));
    lines.push(nest("[", "]", 129));
    lines.push(format!(
        r#"{{"op":"req","item":1,"server":0,"x":{}}}"#,
        nest("[", "]", 127)
    ));
    lines.push(format!(
        r#"{{"op":"req","item":1,"server":0,"x":{}}}"#,
        nest("[", "]", 128)
    ));
    lines.push("{\"a\":".repeat(200) + "1" + &"}".repeat(200));
    // Long values: an op far past the echo bound, and a long skipped one.
    lines.push(format!(r#"{{"op":"{}"}}"#, "a".repeat(10_000)));
    lines.push(format!(r#"{{"op":"{}"}}"#, "é".repeat(100)));
    lines.push(format!(r#"{{"x":"{}","op":"stats"}}"#, "\\n".repeat(5_000)));
    for line in &lines {
        agree(line);
    }
}

/// A small deterministic generator (SplitMix64) for building lines from
/// one proptest-drawn seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "\t", " \r ", "\n"])
    }

    fn value(&mut self, depth: usize) -> String {
        const ATOMS: &[&str] = &[
            "0",
            "7",
            "-1",
            "4294967295",
            "4294967296",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            "1.0",
            "2.5",
            "1e3",
            "-0.0",
            "1e400",
            "0.1e-2",
            "null",
            "true",
            "false",
            "\"req\"",
            "\"finish\"",
            "\"stats\"",
            "\"metrics\"",
            "\"shutdown\"",
            "\"warp\"",
            "\"r\\u0065q\"",
            "\"\"",
            "\"a\\\\b\\\"c\"",
            "\"ü\"",
        ];
        if depth < 3 && self.below(6) == 0 {
            let n = self.below(3);
            let items: Vec<String> = (0..n).map(|_| self.value(depth + 1)).collect();
            if self.below(2) == 0 {
                return format!("[{}]", items.join(","));
            }
            let members: Vec<String> = items
                .iter()
                .map(|v| format!("{}:{v}", self.key()))
                .collect();
            return format!("{{{}}}", members.join(","));
        }
        self.pick(ATOMS).to_string()
    }

    fn key(&mut self) -> &'static str {
        self.pick(&[
            "\"op\"",
            "\"op\"",
            "\"item\"",
            "\"item\"",
            "\"server\"",
            "\"server\"",
            "\"t\"",
            "\"t\"",
            "\"x\"",
            "\"o\\u0070\"",
            "\"it\\u0065m\"",
            "\"\"",
            "\"OP\"",
        ])
    }

    /// A request-shaped object, then maybe a mutation of its text.
    fn line(&mut self) -> String {
        let n = self.below(6);
        let mut text = format!("{}{{", self.ws());
        for k in 0..n {
            if k > 0 {
                text.push(',');
            }
            let key = self.key();
            let ws = (self.ws(), self.ws(), self.ws());
            let value = self.value(0);
            text.push_str(&format!("{}{key}{}:{}{value}", ws.0, ws.1, ws.2));
        }
        text.push('}');
        text.push_str(self.ws());
        match self.below(8) {
            0 if !text.is_empty() => {
                let mut cut = self.below(text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text.truncate(cut);
            }
            1 => {
                let mut at = self.below(text.len() + 1);
                while !text.is_char_boundary(at) {
                    at -= 1;
                }
                let junk = self.pick(&["{", "}", "[", "]", ",", ":", "\"", "\\", "x", "-", "."]);
                text.insert_str(at, junk);
            }
            _ => {}
        }
        text
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Generated lines — every op, duplicate and escaped keys, skipped
    /// nested values, out-of-range numbers, random cuts and stray
    /// bytes — parse the same through the scanner and the tree.
    #[test]
    fn generated_lines_agree_with_the_oracle(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        for _ in 0..16 {
            let line = g.line();
            prop_assert_eq!(parse_request(&line), oracle(&line), "line {:?}", line);
        }
    }
}
