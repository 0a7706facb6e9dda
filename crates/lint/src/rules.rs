//! The determinism-audit rules.
//!
//! Every rule guards an invariant the bit-identity tests depend on but cannot
//! see: golden_legacy pins exact f64 bit patterns and the reliability sweep is
//! SHA-256-identical across thread counts *today*, yet a single NaN-capable
//! `partial_cmp().unwrap()` comparator, a `HashMap` iteration feeding a
//! result path, or a wall-clock read inside simulation code breaks that
//! contract the next time a hot path changes. The rules run on the token
//! stream from [`crate::lexer`] — no type information, so each rule is a
//! deliberately conservative syntactic pattern plus a scoping story
//! ([`crate::scope`]), an annotation escape hatch, and the budgeted baseline
//! ([`crate::baseline`]) for accepted sites.
//!
//! Suppressing a finding at a site:
//!
//! ```text
//! // mav-lint: allow(DET-HASH-ITER): accumulation is order-independent (u64 sum)
//! for slot in self.blocks.values() { … }
//! ```
//!
//! The annotation must sit on the finding's line or the line directly above
//! it, and carries its justification inline.

use crate::lexer::{lex, Token, TokenKind};
use crate::scope::{spawn_allowed, wallclock_allowed, FileScope};
use std::collections::{BTreeMap, BTreeSet};

/// Identifies one audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) in simulation crates.
    DetWallclock,
    /// `HashMap`/`HashSet` iteration feeding result paths without a sort.
    DetHashIter,
    /// `partial_cmp(…).unwrap()`-style NaN-unsafe comparators.
    DetPartialCmp,
    /// RNG construction not threaded from an explicit seed.
    DetThreadRng,
    /// `unwrap`/`expect`/`panic!` in library crates (budgeted).
    PanicLib,
    /// Raw `std::thread::spawn` outside the rayon shim.
    RawSpawn,
}

impl RuleId {
    /// Every rule, in reporting order.
    pub const ALL: [RuleId; 6] = [
        RuleId::DetWallclock,
        RuleId::DetHashIter,
        RuleId::DetPartialCmp,
        RuleId::DetThreadRng,
        RuleId::PanicLib,
        RuleId::RawSpawn,
    ];

    /// The stable rule name used in reports, annotations and the baseline.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::DetWallclock => "DET-WALLCLOCK",
            RuleId::DetHashIter => "DET-HASH-ITER",
            RuleId::DetPartialCmp => "DET-PARTIAL-CMP",
            RuleId::DetThreadRng => "DET-THREAD-RNG",
            RuleId::PanicLib => "PANIC-LIB",
            RuleId::RawSpawn => "RAW-SPAWN",
        }
    }

    /// Parses a rule name (as written in annotations and baselines).
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL.iter().copied().find(|r| r.name() == name)
    }

    /// One-line rationale, shown by `--explain`-style docs (README).
    pub fn rationale(self) -> &'static str {
        match self {
            RuleId::DetWallclock => {
                "simulation runs on SimTime; host wall time in a sim crate can leak into results"
            }
            RuleId::DetHashIter => {
                "HashMap/HashSet iteration order is unspecified; feeding it into results breaks \
                 bit-identity"
            }
            RuleId::DetPartialCmp => {
                "partial_cmp().unwrap() panics on NaN and unwrap_or() silently mis-sorts; \
                 total_cmp is total"
            }
            RuleId::DetThreadRng => "every random draw must be reproducible from the mission seed",
            RuleId::PanicLib => {
                "library panics abort whole sweeps; budgeted so new ones are a deliberate choice"
            }
            RuleId::RawSpawn => {
                "parallelism goes through the rayon shim/SweepRunner, which are proven \
                 bit-deterministic"
            }
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl Finding {
    /// The canonical single-line rendering: `file:line:col RULE-ID message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{} {} {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// Whether `rule` applies to code in `scope` (for `rel_path`). In-file
/// `#[cfg(test)] mod` regions are re-scoped to [`FileScope::Test`] before
/// this is consulted, so "outside tests" falls out of the table.
fn rule_applies(rule: RuleId, scope: &FileScope, rel_path: &str) -> bool {
    match rule {
        // The server's job results are byte-pinned like simulation output,
        // so its service code is held to the SimLib wall-clock rule; only
        // the load client, which times its own request loop, is exempt.
        RuleId::DetWallclock => {
            matches!(scope, FileScope::SimLib | FileScope::Server) && !wallclock_allowed(rel_path)
        }
        RuleId::DetHashIter => *scope == FileScope::SimLib,
        // NaN-unsafe comparators are banned everywhere, tests and shims
        // included: a comparator that panics on NaN is wrong in any scope.
        RuleId::DetPartialCmp => true,
        RuleId::DetThreadRng => *scope != FileScope::Test,
        RuleId::PanicLib => *scope == FileScope::SimLib,
        RuleId::RawSpawn => {
            matches!(
                scope,
                FileScope::SimLib | FileScope::Harness | FileScope::Server
            ) && !spawn_allowed(rel_path)
        }
    }
}

/// Methods whose receiver being a hash container makes iteration order
/// observable.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_keys",
    "into_values",
    "into_iter",
    "drain",
];

/// RNG constructors that pull entropy from the environment instead of a seed.
const UNSEEDED_RNG_IDENTS: [&str; 5] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
];

/// Runs every rule over one file. `src` is the file contents, `rel_path` its
/// repo-relative path, `scope` the classification from [`crate::scope`].
pub fn check_file(rel_path: &str, src: &str, scope: &FileScope) -> Vec<Finding> {
    let cx = FileCx::new(rel_path, src, scope.clone());
    let mut findings = Vec::new();
    cx.det_wallclock(&mut findings);
    cx.det_hash_iter(&mut findings);
    cx.det_partial_cmp(&mut findings);
    cx.det_thread_rng(&mut findings);
    cx.panic_lib(&mut findings);
    cx.raw_spawn(&mut findings);
    findings.retain(|f| !cx.suppressed(f));
    findings.sort_by(|a, b| (a.line, a.col, a.rule.name()).cmp(&(b.line, b.col, b.rule.name())));
    findings
}

/// Per-file analysis context: the significant (non-comment) token stream,
/// test-mod regions, and annotation lines.
struct FileCx<'s> {
    src: &'s str,
    rel_path: &'s str,
    scope: FileScope,
    /// Comment-free token stream — patterns match against this.
    sig: Vec<Token>,
    /// Byte ranges of `#[cfg(test)] mod … { … }` bodies.
    test_regions: Vec<(usize, usize)>,
    /// Line → rules allowed by `mav-lint: allow(RULE)` annotations there.
    allows: BTreeMap<u32, BTreeSet<RuleId>>,
}

impl<'s> FileCx<'s> {
    fn new(rel_path: &'s str, src: &'s str, scope: FileScope) -> Self {
        let tokens = lex(src);
        let mut allows: BTreeMap<u32, BTreeSet<RuleId>> = BTreeMap::new();
        for t in &tokens {
            if matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                for rule in parse_allow_annotations(t.text(src)) {
                    allows.entry(t.span.line).or_default().insert(rule);
                }
            }
        }
        let sig: Vec<Token> = tokens
            .into_iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Unknown
                )
            })
            .collect();
        let test_regions = find_test_regions(&sig, src);
        FileCx {
            src,
            rel_path,
            scope,
            sig,
            test_regions,
            allows,
        }
    }

    fn text(&self, i: usize) -> &str {
        self.sig[i].text(self.src)
    }

    fn is_ident(&self, i: usize, s: &str) -> bool {
        i < self.sig.len() && self.sig[i].kind == TokenKind::Ident && self.text(i) == s
    }

    fn ident(&self, i: usize) -> Option<&str> {
        (i < self.sig.len() && self.sig[i].kind == TokenKind::Ident).then(|| self.text(i))
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        i < self.sig.len() && self.sig[i].kind == TokenKind::Punct && self.text(i).starts_with(c)
    }

    /// The scope governing token `i`: the file's scope, demoted to `Test`
    /// inside `#[cfg(test)] mod` bodies.
    fn scope_at(&self, i: usize) -> FileScope {
        let at = self.sig[i].span.start;
        if self
            .test_regions
            .iter()
            .any(|&(lo, hi)| at >= lo && at < hi)
        {
            FileScope::Test
        } else {
            self.scope.clone()
        }
    }

    /// Whether `rule` fires for a match anchored at token `i`.
    fn fires(&self, rule: RuleId, i: usize) -> bool {
        rule_applies(rule, &self.scope_at(i), self.rel_path)
    }

    fn finding(&self, rule: RuleId, i: usize, message: impl Into<String>) -> Finding {
        Finding {
            file: self.rel_path.to_string(),
            line: self.sig[i].span.line,
            col: self.sig[i].span.col,
            rule,
            message: message.into(),
        }
    }

    /// An annotation on the finding's line or the line directly above
    /// suppresses it (the annotation text carries the justification).
    fn suppressed(&self, f: &Finding) -> bool {
        [f.line, f.line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|set| set.contains(&f.rule)))
    }

    /// Index of the matching `)` for the `(` at `open`, if balanced.
    fn close_paren(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for i in open..self.sig.len() {
            if self.is_punct(i, '(') {
                depth += 1;
            } else if self.is_punct(i, ')') {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }

    // ---- rules -----------------------------------------------------------

    fn det_wallclock(&self, out: &mut Vec<Finding>) {
        const MSG: &str = "wall-clock read in a simulation crate: simulation state must advance \
                           on SimTime only; host timing belongs to the harness";
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::DetWallclock, i) {
                continue;
            }
            let instant_now = self.is_ident(i, "Instant")
                && self.is_punct(i + 1, ':')
                && self.is_punct(i + 2, ':')
                && self.is_ident(i + 3, "now");
            if instant_now || self.is_ident(i, "SystemTime") {
                out.push(self.finding(RuleId::DetWallclock, i, MSG));
            }
        }
    }

    fn det_hash_iter(&self, out: &mut Vec<Finding>) {
        let names = self.hash_typed_names();
        if names.is_empty() {
            return;
        }
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::DetHashIter, i) {
                continue;
            }
            // `name.values()` / `name.iter()` / … where `name` is known to
            // be hash-typed in this file (type annotation, field decl, or
            // `= HashMap::new()` binding).
            let method_form = i >= 2
                && self
                    .ident(i)
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                && self.is_punct(i + 1, '(')
                && self.is_punct(i - 1, '.')
                && self.ident(i - 2).is_some_and(|r| names.contains(r));
            // `for pat in [&[mut]] path.to.name {` iterating the map itself.
            let for_body = if self.is_ident(i, "for") {
                self.for_loop_over_hash(i, &names)
            } else {
                None
            };
            // Sort evidence: a method-form iteration must re-order within the
            // current or next statement; a for-loop's effects are contained in
            // its body, so the window is the body plus the statement after it.
            let sorted = match for_body {
                Some(open) => self.sorted_after_loop(open),
                None => self.sorted_downstream(i),
            };
            if (method_form || for_body.is_some()) && !sorted {
                out.push(self.finding(
                    RuleId::DetHashIter,
                    i,
                    "hash-container iteration order is unspecified and can reach results: sort \
                     the collected values, or annotate the site with // mav-lint: \
                     allow(DET-HASH-ITER): <why order cannot matter>",
                ));
            }
        }
    }

    /// Names with hash-container types visible in this file: `x: HashMap<…>`
    /// (locals, fields, params — `&`/`&mut`/lifetimes skipped) and
    /// `x = HashMap::new()`-style bindings.
    fn hash_typed_names(&self) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for m in 0..self.sig.len() {
            if !(self.is_ident(m, "HashMap") || self.is_ident(m, "HashSet")) {
                continue;
            }
            if m < 2 {
                continue;
            }
            // Walk back over `&`, `mut` and lifetimes: `x: &'a mut HashMap`.
            let mut b = m - 1;
            while b > 1
                && (self.is_punct(b, '&')
                    || self.is_ident(b, "mut")
                    || self.sig[b].kind == TokenKind::Lifetime)
            {
                b -= 1;
            }
            // `x: HashMap<…>` (not a `::` path) or `x = HashMap::new()`
            // (not a `==` comparison).
            let binds = (self.is_punct(b, ':') && !self.is_punct(b - 1, ':'))
                || (self.is_punct(b, '=') && !self.is_punct(b - 1, '='));
            if binds {
                if let Some(name) = self.ident(b - 1) {
                    names.insert(name.to_string());
                }
            }
        }
        names
    }

    /// Whether the `for` at `i` iterates (a reference to) a hash-typed
    /// variable or field directly (`for k in &self.cells {`); returns the
    /// index of the loop body's opening brace when it does.
    fn for_loop_over_hash(&self, i: usize, names: &BTreeSet<String>) -> Option<usize> {
        // Find the `in` keyword within a short window (patterns are small).
        let mut j = (i + 1..(i + 30).min(self.sig.len())).find(|&j| self.is_ident(j, "in"))?;
        j += 1;
        while self.is_punct(j, '&') || self.is_ident(j, "mut") {
            j += 1;
        }
        // Read an ident chain `a.b.c`; the loop body brace must follow, so a
        // trailing method call (`map.keys()`) is left to the method form.
        let mut last;
        loop {
            match self.ident(j) {
                Some(name) => {
                    last = Some(name);
                    j += 1;
                }
                None => return None,
            }
            if self.is_punct(j, '.') && self.ident(j + 1).is_some() {
                j += 1;
                continue;
            }
            break;
        }
        (self.is_punct(j, '{') && last.is_some_and(|n| names.contains(n))).then_some(j)
    }

    /// Sort evidence for a for-loop over a hash container whose body opens at
    /// `open`: a `sort*`/BTree ident anywhere in the body, or in the single
    /// statement following the loop (the collect-then-sort idiom).
    fn sorted_after_loop(&self, open: usize) -> bool {
        let mut depth = 0usize;
        let mut close = None;
        for j in open..self.sig.len() {
            if self.is_punct(j, '{') {
                depth += 1;
            } else if self.is_punct(j, '}') {
                depth -= 1;
                if depth == 0 {
                    close = Some(j);
                    break;
                }
            }
            if let Some(id) = self.ident(j) {
                if id.contains("sort") || id == "BTreeMap" || id == "BTreeSet" {
                    return true;
                }
            }
        }
        let Some(close) = close else { return false };
        let mut depth = 0i32;
        for j in (close + 1)..(close + 80).min(self.sig.len()) {
            if let Some(id) = self.ident(j) {
                if id.contains("sort") || id == "BTreeMap" || id == "BTreeSet" {
                    return true;
                }
            }
            if self.is_punct(j, '{') {
                depth += 1;
            }
            // A `;` at the loop's own level ends the following statement; a
            // `}` below it closes the enclosing block — either way the
            // window is over (evidence from the *next* item must not count).
            if depth == 0 && (self.is_punct(j, ';') || self.is_punct(j, '}')) {
                return false;
            }
            if self.is_punct(j, '}') {
                depth -= 1;
            }
        }
        false
    }

    /// Sort evidence downstream of an iteration site: a `sort*` call or a
    /// `BTreeMap`/`BTreeSet` collect within the current and next statement
    /// re-establishes a deterministic order, so the iteration is benign.
    fn sorted_downstream(&self, i: usize) -> bool {
        let mut semis = 0;
        let mut depth = 0i32;
        for j in i..(i + 150).min(self.sig.len()) {
            if let Some(id) = self.ident(j) {
                if id.contains("sort") || id == "BTreeMap" || id == "BTreeSet" {
                    return true;
                }
            }
            if self.is_punct(j, '{') {
                depth += 1;
            }
            if self.is_punct(j, '}') {
                if depth == 0 {
                    // The enclosing block closed: later evidence would come
                    // from a sibling item, not this statement's continuation.
                    return false;
                }
                depth -= 1;
            }
            if self.is_punct(j, ';') && depth == 0 {
                semis += 1;
                if semis == 2 {
                    return false;
                }
            }
        }
        false
    }

    fn det_partial_cmp(&self, out: &mut Vec<Finding>) {
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::DetPartialCmp, i) {
                continue;
            }
            if !self.is_ident(i, "partial_cmp") || !self.is_punct(i + 1, '(') {
                continue;
            }
            // `fn partial_cmp(…)` is the PartialOrd impl itself, not a call.
            if i > 0 && self.is_ident(i - 1, "fn") {
                continue;
            }
            let Some(close) = self.close_paren(i + 1) else {
                continue;
            };
            if self.is_punct(close + 1, '.')
                && self.ident(close + 2).is_some_and(|m| {
                    matches!(m, "unwrap" | "expect" | "unwrap_or" | "unwrap_or_else")
                })
            {
                out.push(self.finding(
                    RuleId::DetPartialCmp,
                    i,
                    "NaN-unsafe comparator: partial_cmp().unwrap() panics on NaN and \
                     unwrap_or() silently mis-sorts — use total_cmp and argue its ±0.0/NaN \
                     ordering is equivalent at the site",
                ));
            }
        }
    }

    fn det_thread_rng(&self, out: &mut Vec<Finding>) {
        const MSG: &str = "RNG constructed without an explicit seed: every draw must be \
                           reproducible from the mission/scenario seed — use \
                           SeedableRng::seed_from_u64 / from_seed";
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::DetThreadRng, i) {
                continue;
            }
            let unseeded = self
                .ident(i)
                .is_some_and(|id| UNSEEDED_RNG_IDENTS.contains(&id));
            let rand_random = self.is_ident(i, "random")
                && i >= 3
                && self.is_punct(i - 1, ':')
                && self.is_punct(i - 2, ':')
                && self.is_ident(i - 3, "rand");
            if unseeded || rand_random {
                out.push(self.finding(RuleId::DetThreadRng, i, MSG));
            }
        }
    }

    fn panic_lib(&self, out: &mut Vec<Finding>) {
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::PanicLib, i) {
                continue;
            }
            let method_panic = i >= 1
                && self.is_punct(i - 1, '.')
                && (self.is_ident(i, "unwrap") || self.is_ident(i, "expect"))
                && self.is_punct(i + 1, '(');
            let macro_panic = self.is_ident(i, "panic") && self.is_punct(i + 1, '!');
            if method_panic || macro_panic {
                out.push(self.finding(
                    RuleId::PanicLib,
                    i,
                    "panic path in a library crate (aborts whole sweeps): return a Result, or \
                     keep it within the file's budget in lint-baseline.json with a written \
                     invariant",
                ));
            }
        }
    }

    fn raw_spawn(&self, out: &mut Vec<Finding>) {
        for i in 0..self.sig.len() {
            if !self.fires(RuleId::RawSpawn, i) {
                continue;
            }
            if self.is_ident(i, "thread")
                && self.is_punct(i + 1, ':')
                && self.is_punct(i + 2, ':')
                && self.is_ident(i + 3, "spawn")
            {
                out.push(self.finding(
                    RuleId::RawSpawn,
                    i,
                    "raw std::thread::spawn: route parallelism through the rayon shim / \
                     SweepRunner, whose schedules are proven bit-deterministic",
                ));
            }
        }
    }
}

/// Extracts `mav-lint: allow(RULE-ID)` annotations from a comment's text.
/// Several may appear in one comment; unknown rule names are ignored.
fn parse_allow_annotations(comment: &str) -> Vec<RuleId> {
    let mut rules = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("mav-lint: allow(") {
        rest = &rest[at + "mav-lint: allow(".len()..];
        if let Some(end) = rest.find(')') {
            if let Some(rule) = RuleId::from_name(&rest[..end]) {
                rules.push(rule);
            }
            rest = &rest[end..];
        } else {
            break;
        }
    }
    rules
}

/// Finds the byte ranges of `#[cfg(test)] mod name { … }` bodies, so rules
/// can demote code inside them to [`FileScope::Test`]. Further attributes
/// between the `cfg` and the `mod` are skipped.
fn find_test_regions(sig: &[Token], src: &str) -> Vec<(usize, usize)> {
    let text = |i: usize| sig[i].text(src);
    let is_p = |i: usize, c: char| {
        i < sig.len() && sig[i].kind == TokenKind::Punct && text(i).starts_with(c)
    };
    let is_i = |i: usize, s: &str| i < sig.len() && sig[i].kind == TokenKind::Ident && text(i) == s;
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 6 < sig.len() {
        let cfg_test = is_p(i, '#')
            && is_p(i + 1, '[')
            && is_i(i + 2, "cfg")
            && is_p(i + 3, '(')
            && is_i(i + 4, "test")
            && is_p(i + 5, ')')
            && is_p(i + 6, ']');
        if !cfg_test {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip any further attributes: `#[…]` with bracket matching.
        while is_p(j, '#') && is_p(j + 1, '[') {
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < sig.len() {
                if is_p(k, '[') {
                    depth += 1;
                } else if is_p(k, ']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        if is_i(j, "pub") {
            j += 1;
        }
        if is_i(j, "mod") && j + 2 < sig.len() && sig[j + 1].kind == TokenKind::Ident {
            // Find the matching close brace of the mod body.
            let open = j + 2;
            if is_p(open, '{') {
                let mut depth = 0usize;
                let mut k = open;
                while k < sig.len() {
                    if is_p(k, '{') {
                        depth += 1;
                    } else if is_p(k, '}') {
                        depth -= 1;
                        if depth == 0 {
                            regions.push((sig[open].span.start, sig[k].span.end));
                            break;
                        }
                    }
                    k += 1;
                }
                // Lenient: an unbalanced body simply extends to EOF.
                if depth != 0 {
                    regions.push((sig[open].span.start, src.len()));
                }
                i = open;
                continue;
            }
        }
        i += 1;
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(src: &str) -> Vec<Finding> {
        check_file("crates/fake/src/lib.rs", src, &FileScope::SimLib)
    }

    #[test]
    fn annotation_parsing() {
        assert_eq!(
            parse_allow_annotations("// mav-lint: allow(DET-HASH-ITER): order-independent fold"),
            vec![RuleId::DetHashIter]
        );
        assert_eq!(
            parse_allow_annotations("// mav-lint: allow(NOT-A-RULE): nope"),
            vec![]
        );
        assert_eq!(
            parse_allow_annotations(
                "/* mav-lint: allow(PANIC-LIB): x; mav-lint: allow(RAW-SPAWN): y */"
            ),
            vec![RuleId::PanicLib, RuleId::RawSpawn]
        );
    }

    #[test]
    fn cfg_test_mod_demotes_scope() {
        let src = r#"
            pub fn f(x: Option<u32>) -> u32 { x.unwrap() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("fine in tests"); }
            }
        "#;
        let findings = sim(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::PanicLib);
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn partial_cmp_fires_even_in_tests_but_not_on_impls() {
        let src = r#"
            impl PartialOrd for X {
                fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None }
            }
            #[cfg(test)]
            mod tests {
                fn t(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
            }
        "#;
        let findings = sim(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::DetPartialCmp);
    }

    #[test]
    fn hash_iter_sort_evidence_suppresses() {
        let clean = r#"
            fn ordered(m: &HashMap<u64, f64>) -> Vec<f64> {
                let mut v: Vec<f64> = m.values().copied().collect();
                v.sort_unstable_by(|a, b| a.total_cmp(b));
                v
            }
        "#;
        assert!(sim(clean).is_empty(), "{:?}", sim(clean));
        let dirty = r#"
            fn unordered(m: &HashMap<u64, f64>) -> f64 {
                let mut acc = 0.0;
                for v in m.values() { acc += v; }
                let x = acc + 1.0;
                let y = x * 2.0;
                acc
            }
        "#;
        let findings = sim(dirty);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, RuleId::DetHashIter);
    }

    #[test]
    fn server_scope_enforces_wallclock_and_spawn_boundaries() {
        let clock = "fn t() { let s = std::time::Instant::now(); }";
        let in_service = check_file("crates/server/src/service.rs", clock, &FileScope::Server);
        assert_eq!(in_service.len(), 1, "{in_service:?}");
        assert_eq!(in_service[0].rule, RuleId::DetWallclock);
        let in_load = check_file(
            "crates/server/src/bin/server_load.rs",
            clock,
            &FileScope::Server,
        );
        assert!(in_load.is_empty(), "{in_load:?}");

        let spawn = "fn t() { std::thread::spawn(|| {}); }";
        let in_spec = check_file("crates/server/src/spec.rs", spawn, &FileScope::Server);
        assert_eq!(in_spec.len(), 1, "{in_spec:?}");
        assert_eq!(in_spec[0].rule, RuleId::RawSpawn);
        let in_pool = check_file("crates/server/src/server.rs", spawn, &FileScope::Server);
        assert!(in_pool.is_empty(), "{in_pool:?}");
    }

    #[test]
    fn wallclock_fires_in_every_simulation_file() {
        let src = "fn t() -> f64 { let s = std::time::Instant::now(); 0.0 }";
        for path in ["crates/core/src/sweep.rs", "crates/core/src/flight.rs"] {
            let findings = check_file(path, src, &FileScope::SimLib);
            assert_eq!(findings.len(), 1, "{path}: {findings:?}");
            assert_eq!(findings[0].rule, RuleId::DetWallclock);
        }
    }
}
