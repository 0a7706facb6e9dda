//! `mav-lint`: the determinism-auditing static-analysis pass.
//!
//! Every result in this reproduction rests on bit-identical determinism —
//! golden_legacy pins exact f64 bit patterns, and the mission sweeps and the
//! sharded reliability sweep are proven identical across thread counts —
//! but nothing in `cargo test` *enforces the coding rules* that make
//! that true. This crate does: a hand-rolled Rust lexer ([`lexer`]), six
//! token-level rules ([`rules`]) with per-rule scoping ([`scope`]), and a
//! committed count-budgeted allowlist ([`baseline`]) so every accepted
//! violation is explicit and justified while any *new* one fails CI.
//!
//! Run it from the repo root:
//!
//! ```text
//! cargo run --release -p mav-lint            # human-readable findings
//! cargo run --release -p mav-lint -- --json  # machine-readable report
//! cargo run --release -p mav-lint -- --update-baseline
//! ```

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod scope;

use baseline::{Baseline, BaselineOutcome};
use mav_types::{Json, ToJson};
use rules::{check_file, Finding, RuleId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The directories scanned under the repo root. Everything else (target/,
/// BENCH records, workflows) holds no Rust source.
pub const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "shims"];

/// Directory names never descended into: build output and the lint fixture
/// corpus (fixture files *are* violations, checked by the fixture tests with
/// explicit scopes, and must not fail the repo audit).
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// The result of auditing a tree.
#[derive(Debug)]
pub struct Report {
    /// How many `.rs` files were lexed and checked.
    pub files_scanned: usize,
    /// Every finding, baselined or not, sorted by (file, line, col).
    pub findings: Vec<Finding>,
    /// The baseline diff: what is new, what was absorbed, what is stale.
    pub outcome: BaselineOutcome,
}

impl Report {
    /// The gate: true when no finding escapes the baseline.
    pub fn ok(&self) -> bool {
        self.outcome.new.is_empty()
    }

    /// Total findings per rule (baselined included), deterministic order.
    pub fn per_rule(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> =
            RuleId::ALL.iter().map(|r| (r.name(), 0)).collect();
        for f in &self.findings {
            *counts.entry(f.rule.name()).or_insert(0) += 1;
        }
        counts
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        Json::object()
            .field("file", self.file.as_str())
            .field("line", self.line)
            .field("col", self.col)
            .field("rule", self.rule.name())
            .field("message", self.message.as_str())
            .field("rendered", self.render())
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        let per_rule = self
            .per_rule()
            .into_iter()
            .fold(Json::object(), |obj, (rule, n)| obj.field(rule, n));
        Json::object()
            .field("schema", "mav-lint-report")
            .field("version", 1i64)
            .field("files_scanned", self.files_scanned)
            .field("findings_total", self.findings.len())
            .field("baselined", self.outcome.baselined)
            .field("per_rule", per_rule)
            .field(
                "new",
                Json::Array(self.outcome.new.iter().map(ToJson::to_json).collect()),
            )
            .field(
                "stale_baseline_entries",
                Json::Array(
                    self.outcome
                        .stale
                        .iter()
                        .map(|s| {
                            Json::object()
                                .field("file", s.file.as_str())
                                .field("rule", s.rule.name())
                                .field("allowed", s.allowed)
                                .field("actual", s.actual)
                        })
                        .collect(),
                ),
            )
            .field("ok", self.ok())
    }
}

/// Collects every `.rs` file under the scan roots, sorted, with
/// repo-relative forward-slash paths. Deterministic across platforms and
/// directory-entry orders.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            walk(&dir, scan_root, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

fn walk(dir: &Path, rel: &str, files: &mut Vec<(PathBuf, String)>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let path = entry.path();
        let rel_child = format!("{rel}/{name}");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, &rel_child, files)?;
        } else if name.ends_with(".rs") {
            files.push((path, rel_child));
        }
    }
    Ok(())
}

/// Audits the tree under `root` and diffs against `baseline`.
pub fn run(root: &Path, baseline: &Baseline) -> std::io::Result<Report> {
    let files = collect_rs_files(root)?;
    let files_scanned = files.len();
    let mut findings = Vec::new();
    for (path, rel) in &files {
        let src = std::fs::read_to_string(path)?;
        let file_scope = scope::classify(rel);
        findings.extend(check_file(rel, &src, &file_scope));
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule.name()).cmp(&(&b.file, b.line, b.col, b.rule.name()))
    });
    let outcome = baseline.apply(&findings);
    Ok(Report {
        files_scanned,
        findings,
        outcome,
    })
}
