//! The four determinism rules, the suppression grammar, and the
//! per-file analysis driver.
//!
//! Every headline result of this reproduction — cache hits bit-identical
//! to recomputation, grids bit-identical across worker counts — rests on
//! the determinism contract. These rules enforce it at the source level,
//! deny-by-default:
//!
//! - **R1 `unordered-iter`** — no iteration over `HashMap`/`HashSet`
//!   (incl. `keys`/`values`/`drain`/`retain`) in semantic code. Std hash
//!   containers iterate in hasher-seed order, which varies per process:
//!   any escape of that order into channel ids, RNG draws, or event
//!   scheduling silently breaks bit-reproducibility *across* processes
//!   while the in-process pin tests keep passing.
//! - **R2 `ambient-nondet`** — no `Instant::now` / `SystemTime` /
//!   `std::env` / `thread_rng` / `from_entropy` outside the single
//!   allowlisted wall-clock site (`crates/routing/src/stats.rs`).
//! - **R3 `epoch-bump`** — any `&mut self` fn in `impl Graph` that
//!   writes adjacency state must mention the topology epoch bump in its
//!   body (the cache-invalidation contract: the topology never moves
//!   without its epoch), and a `LandmarkTable` rebuild or a
//!   `LandmarkTrees` regrowth must key itself to an epoch. Channel
//!   balances are out of scope: no cache entry reads them, so
//!   `NetworkFunds` keeps no epoch.
//! - **R4 `safety-comment`** — every `unsafe` is preceded by a
//!   `// SAFETY:` comment (applies to tests too: the counting-allocator
//!   shims are exactly where an unsound shortcut would hide).
//!
//! Suppressions are inline, per-site, and carry a mandatory reason:
//!
//! ```text
//! // splicer-lint: allow(r1) — hub set is sorted+deduped after collect
//! ```
//!
//! on the offending line or the comment lines directly above it. An
//! allow that suppresses nothing, or one without a reason, is itself a
//! finding — suppressions must stay honest.

use crate::lexer::{lex, Token, TokenKind};

/// Rule identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// R1: iteration over unordered containers in semantic code.
    UnorderedIter,
    /// R2: ambient nondeterminism (wall clock, env, OS entropy).
    AmbientNondet,
    /// R3: state write without the corresponding epoch bump.
    EpochBump,
    /// R4: `unsafe` without a `// SAFETY:` comment.
    SafetyComment,
    /// Meta: malformed or unused suppression.
    Suppression,
}

impl Rule {
    /// Canonical short code (what `allow(…)` takes).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "r1",
            Rule::AmbientNondet => "r2",
            Rule::EpochBump => "r3",
            Rule::SafetyComment => "r4",
            Rule::Suppression => "lint",
        }
    }

    /// Human name printed in reports and `--help`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedIter => "unordered-iter",
            Rule::AmbientNondet => "ambient-nondet",
            Rule::EpochBump => "epoch-bump",
            Rule::SafetyComment => "safety-comment",
            Rule::Suppression => "suppression",
        }
    }

    fn from_allow_name(s: &str) -> Option<Rule> {
        match s {
            "r1" | "unordered-iter" => Some(Rule::UnorderedIter),
            "r2" | "ambient-nondet" => Some(Rule::AmbientNondet),
            "r3" | "epoch-bump" => Some(Rule::EpochBump),
            "r4" | "safety-comment" => Some(Rule::SafetyComment),
            _ => None,
        }
    }

    /// Whether findings of this rule are waived in test/bench code.
    /// R4 is not: safety comments matter everywhere `unsafe` appears.
    fn exempt_in_tests(self) -> bool {
        !matches!(self, Rule::SafetyComment)
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub rule: Rule,
    pub message: String,
}

impl core::fmt::Display for Finding {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// The sole file whose wall-clock reads R2 allowlists: the `wall_timer`
/// helper every semantic wall-clock measurement funnels through.
pub const R2_WALL_CLOCK_SITE: &str = "crates/routing/src/stats.rs";

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "retain_mut",
];

/// Whether a workspace-relative path is test/bench/example code.
pub fn is_test_path(rel: &str) -> bool {
    rel.ends_with("tests.rs")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
}

/// Lints one file. `rel` is the workspace-relative path used both for
/// reporting and for the R2 allowlist / test exemptions.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let tokens = lex(src);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let analysis = FileAnalysis::new(rel, src, &tokens, &code);
    analysis.run()
}

struct Allow {
    rule: Rule,
    line: u32,
    col: u32,
    has_reason: bool,
    used: std::cell::Cell<bool>,
}

struct FileAnalysis<'a> {
    rel: &'a str,
    tokens: &'a [Token],
    code: &'a [&'a Token],
    /// Lines (1-based) containing at least one code token.
    code_lines: std::collections::BTreeSet<u32>,
    /// `#[cfg(test)]` item line ranges (inclusive).
    test_regions: Vec<(u32, u32)>,
    allows: Vec<Allow>,
    test_file: bool,
}

impl<'a> FileAnalysis<'a> {
    fn new(rel: &'a str, _src: &str, tokens: &'a [Token], code: &'a [&'a Token]) -> Self {
        let code_lines = code.iter().map(|t| t.line).collect();
        let test_regions = find_cfg_test_regions(code);
        let allows = parse_allows(tokens);
        FileAnalysis {
            rel,
            tokens,
            code,
            code_lines,
            test_regions,
            allows,
            test_file: is_test_path(rel),
        }
    }

    fn in_test_code(&self, line: u32) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether an allow for `rule` covers `line`: same line, or the run
    /// of comment-only lines directly above it.
    fn suppressed(&self, rule: Rule, line: u32) -> bool {
        let mut hit = false;
        for a in &self.allows {
            if a.rule != rule {
                continue;
            }
            let covers = a.line == line || {
                // Comment-only lines a.line..line-1 link the allow to
                // the finding (stacked allows all apply).
                a.line < line && (a.line..line).all(|l| !self.code_lines.contains(&l))
            };
            if covers {
                a.used.set(true);
                hit = true;
            }
        }
        hit
    }

    fn run(self) -> Vec<Finding> {
        let mut raw: Vec<Finding> = Vec::new();
        self.rule_unordered_iter(&mut raw);
        self.rule_ambient_nondet(&mut raw);
        self.rule_epoch_bump(&mut raw);
        self.rule_safety_comment(&mut raw);

        let mut out: Vec<Finding> = Vec::new();
        for f in raw {
            if f.rule.exempt_in_tests() && self.in_test_code(f.line) {
                continue;
            }
            if !self.suppressed(f.rule, f.line) {
                out.push(f);
            }
        }
        // Suppression hygiene: no reason / unknown rule / unused.
        for a in &self.allows {
            if !a.has_reason {
                out.push(self.finding_at(
                    a.line,
                    a.col,
                    Rule::Suppression,
                    format!(
                        "allow({}) without a reason — suppressions must say why \
                         (`// splicer-lint: allow({}) — <reason>`)",
                        a.rule.code(),
                        a.rule.code()
                    ),
                ));
            } else if !a.used.get() {
                out.push(self.finding_at(
                    a.line,
                    a.col,
                    Rule::Suppression,
                    format!(
                        "unused suppression: allow({}) matches no finding on or \
                         below this line — remove it",
                        a.rule.code()
                    ),
                ));
            }
        }
        out.sort_by_key(|f| (f.line, f.col));
        out
    }

    fn finding_at(&self, line: u32, col: u32, rule: Rule, message: String) -> Finding {
        Finding {
            file: self.rel.to_string(),
            line,
            col,
            rule,
            message,
        }
    }

    // ----- R1: unordered-container iteration ---------------------------

    fn rule_unordered_iter(&self, out: &mut Vec<Finding>) {
        let bound = collect_hash_bindings(self.code);
        if bound.is_empty() {
            return;
        }
        let c = self.code;
        for i in 0..c.len() {
            let t = c[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let Some(container) = bound.get(t.text.as_str()) else {
                continue;
            };
            // `name . iter_method (`
            if i + 3 <= c.len()
                && c[i + 1].is_punct('.')
                && c[i + 2].kind == TokenKind::Ident
                && ITER_METHODS.contains(&c[i + 2].text.as_str())
                && c.get(i + 3).is_some_and(|t| t.is_punct('('))
            {
                out.push(self.finding_at(
                    t.line,
                    t.col,
                    Rule::UnorderedIter,
                    format!(
                        "iteration over unordered {container} `{}` via `.{}()` — hash order \
                         varies per process; use BTreeMap/BTreeSet or sort before iterating",
                        t.text,
                        c[i + 2].text
                    ),
                ));
            }
        }
        // `for … in <header containing a bound name> {`
        let mut i = 0;
        while i < c.len() {
            if c[i].is_ident("for") && c.get(i + 1).is_some_and(|t| !t.is_punct('<')) {
                // find `in` then the body `{` at depth 0
                let mut j = i + 1;
                let mut depth = 0i32;
                let mut in_pos = None;
                while j < c.len() {
                    match c[j].text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "in" if depth == 0 && c[j].kind == TokenKind::Ident => {
                            in_pos = Some(j);
                            break;
                        }
                        "{" | ";" => break,
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(start) = in_pos {
                    let mut k = start + 1;
                    let mut d = 0i32;
                    while k < c.len() {
                        let tk = c[k];
                        match tk.text.as_str() {
                            "(" | "[" => d += 1,
                            ")" | "]" => d -= 1,
                            "{" if d == 0 => break,
                            _ => {}
                        }
                        if tk.kind == TokenKind::Ident {
                            if let Some(container) = bound.get(tk.text.as_str()) {
                                // Method calls (`m.keys()`, `m.get(..)`) are the
                                // method rule's jurisdiction; indexing is a lookup.
                                let next_is_method = c.get(k + 1).is_some_and(|n| n.is_punct('.'));
                                let next_is_index = c.get(k + 1).is_some_and(|n| n.is_punct('['));
                                if !next_is_method && !next_is_index {
                                    out.push(self.finding_at(
                                        tk.line,
                                        tk.col,
                                        Rule::UnorderedIter,
                                        format!(
                                            "`for` loop iterates unordered {container} `{}` — \
                                             hash order varies per process; use \
                                             BTreeMap/BTreeSet or sort before iterating",
                                            tk.text
                                        ),
                                    ));
                                }
                            }
                        }
                        k += 1;
                    }
                    i = k;
                    continue;
                }
            }
            i += 1;
        }
    }

    // ----- R2: ambient nondeterminism ----------------------------------

    fn rule_ambient_nondet(&self, out: &mut Vec<Finding>) {
        let wall_clock_site = self.rel == R2_WALL_CLOCK_SITE;
        let c = self.code;
        for i in 0..c.len() {
            let t = c[i];
            if t.kind != TokenKind::Ident {
                continue;
            }
            let seq2 = |a: &str, b: &str| {
                t.is_ident(a)
                    && c.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && c.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && c.get(i + 3).is_some_and(|x| x.is_ident(b))
            };
            let msg = if seq2("Instant", "now") {
                if wall_clock_site {
                    continue;
                }
                Some(
                    "wall-clock read (`Instant::now`) outside the allowlisted \
                     `wall_timer` site — route it through `pcn_routing::stats::wall_timer`",
                )
            } else if t.is_ident("SystemTime") {
                if wall_clock_site {
                    continue;
                }
                Some("wall-clock read (`SystemTime`) — semantic code must not observe real time")
            } else if seq2("std", "env") {
                Some(
                    "ambient environment read (`std::env`) — config must flow through \
                     scenario parameters, not the process environment",
                )
            } else if t.is_ident("thread_rng") {
                Some(
                    "OS-seeded RNG (`thread_rng`) — all randomness must derive from the \
                     scenario seed via SimRng/SplitMix64",
                )
            } else if t.is_ident("from_entropy") {
                Some(
                    "OS-entropy seeding (`from_entropy`) — all randomness must derive \
                     from the scenario seed via SimRng/SplitMix64",
                )
            } else {
                None
            };
            if let Some(m) = msg {
                out.push(self.finding_at(t.line, t.col, Rule::AmbientNondet, m.to_string()));
            }
        }
    }

    // ----- R3: epoch-contract guard ------------------------------------

    fn rule_epoch_bump(&self, out: &mut Vec<Finding>) {
        let c = self.code;
        let mut i = 0;
        while i < c.len() {
            if !c[i].is_ident("impl") {
                i += 1;
                continue;
            }
            // Header runs to the body `{` (or a `;`). The impl target is
            // the ident after `for` if present, else the first
            // non-generic ident.
            let mut j = i + 1;
            let mut angle = 0i32;
            let mut target: Option<&str> = None;
            let mut after_for = false;
            while j < c.len() {
                let t = c[j];
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "{" if angle <= 0 => break,
                    ";" => break,
                    _ => {
                        if t.kind == TokenKind::Ident && angle == 0 {
                            if t.text == "for" {
                                after_for = true;
                                target = None;
                            } else if target.is_none() || after_for {
                                target = Some(&t.text);
                                after_for = false;
                            }
                        }
                    }
                }
                j += 1;
            }
            if j >= c.len() || !c[j].is_punct('{') {
                i = j;
                continue;
            }
            let body_start = j;
            let body_end = match_brace(c, body_start);
            let guard = match target {
                Some("Graph") => Some(EpochGuard {
                    target: "Graph",
                    state: "adjacency",
                    triggers_ident: &["csr", "delta", "row_offsets", "edges", "live_deg"],
                    satisfiers: &["bump", "compact", "maybe_compact"],
                }),
                // The landmark table and the engine's landmark trees are
                // keyed to the graph's topology epoch, the same contract
                // as the routing path cache: a rebuild must record the
                // epoch it was built for.
                Some("LandmarkTable") => Some(EpochGuard {
                    target: "LandmarkTable",
                    state: "landmark-row",
                    triggers_ident: &["rows", "landmarks"],
                    satisfiers: &["ensure_fresh"],
                }),
                Some("LandmarkTrees") => Some(EpochGuard {
                    target: "LandmarkTrees",
                    state: "landmark-tree",
                    triggers_ident: &["trees"],
                    satisfiers: &[],
                }),
                _ => None,
            };
            if let Some(guard) = guard {
                self.check_impl_fns(&guard, &c[body_start + 1..body_end], out);
            }
            i = body_end + 1;
        }
    }

    fn check_impl_fns(&self, guard: &EpochGuard, body: &[&Token], out: &mut Vec<Finding>) {
        let mut i = 0;
        while i < body.len() {
            if !body[i].is_ident("fn") {
                i += 1;
                continue;
            }
            let name_tok = body.get(i + 1);
            // Params: the balanced `( … )` after the name.
            let Some(popen) = body[i..]
                .iter()
                .position(|t| t.is_punct('('))
                .map(|p| p + i)
            else {
                break;
            };
            let pclose = match_paren(body, popen);
            let params = &body[popen + 1..pclose];
            let first_comma = params
                .iter()
                .position(|t| t.is_punct(','))
                .unwrap_or(params.len());
            let recv = &params[..first_comma];
            let mut_receiver =
                recv.iter().any(|t| t.is_ident("self")) && recv.iter().any(|t| t.is_ident("mut"));
            // Body: the balanced `{ … }` after the params (skip `-> T`).
            let Some(bopen) = body[pclose..]
                .iter()
                .position(|t| t.is_punct('{') || t.is_punct(';'))
                .map(|p| p + pclose)
            else {
                break;
            };
            if body[bopen].is_punct(';') {
                i = bopen + 1;
                continue;
            }
            let bclose = match_brace(body, bopen);
            if mut_receiver {
                let fn_body = &body[bopen + 1..bclose];
                let triggered = fn_body.iter().any(|t| {
                    t.kind == TokenKind::Ident && guard.triggers_ident.contains(&t.text.as_str())
                });
                let satisfied = fn_body.iter().any(|t| {
                    t.kind == TokenKind::Ident
                        && (t.text.contains("epoch") || guard.satisfiers.contains(&t.text.as_str()))
                });
                if triggered && !satisfied {
                    let (line, col, name) = name_tok
                        .map(|t| (t.line, t.col, t.text.as_str()))
                        .unwrap_or((body[i].line, body[i].col, "?"));
                    out.push(self.finding_at(
                        line,
                        col,
                        Rule::EpochBump,
                        format!(
                            "`fn {name}` writes {} {} state without mentioning an epoch \
                             bump — stale cache entries would be served as fresh",
                            guard.target, guard.state
                        ),
                    ));
                }
            }
            i = bclose + 1;
        }
    }

    // ----- R4: SAFETY comments -----------------------------------------

    fn rule_safety_comment(&self, out: &mut Vec<Finding>) {
        // Comment lines carrying a SAFETY marker.
        let safety_lines: std::collections::BTreeSet<u32> = self
            .tokens
            .iter()
            .filter(|t| t.is_comment() && t.text.contains("SAFETY"))
            .map(|t| t.line)
            .collect();
        for t in self.code {
            if !t.is_ident("unsafe") {
                continue;
            }
            // Accept a SAFETY comment on the same line or within the 4
            // preceding lines (attribute lines may sit between).
            let ok = (t.line.saturating_sub(4)..=t.line).any(|l| safety_lines.contains(&l));
            if !ok {
                out.push(
                    self.finding_at(
                        t.line,
                        t.col,
                        Rule::SafetyComment,
                        "`unsafe` without a preceding `// SAFETY:` comment documenting the \
                     invariant that makes it sound"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

struct EpochGuard {
    target: &'static str,
    state: &'static str,
    triggers_ident: &'static [&'static str],
    satisfiers: &'static [&'static str],
}

/// Index of the `}` matching the `{` at `open` (or the last token).
fn match_brace(c: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in c.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    c.len().saturating_sub(1)
}

/// Index of the `)` matching the `(` at `open` (or the last token).
fn match_paren(c: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in c.iter().enumerate().skip(open) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    c.len().saturating_sub(1)
}

/// Finds `#[cfg(test)]`-gated items and returns their line spans.
fn find_cfg_test_regions(c: &[&Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 6 < c.len() {
        let is_attr = c[i].is_punct('#')
            && c[i + 1].is_punct('[')
            && c[i + 2].is_ident("cfg")
            && c[i + 3].is_punct('(')
            && c[i + 4].is_ident("test")
            && c[i + 5].is_punct(')')
            && c[i + 6].is_punct(']');
        if !is_attr {
            i += 1;
            continue;
        }
        let start_line = c[i].line;
        // Skip to the gated item's end: first `;` at depth 0 (out-of-line
        // `mod tests;`) or the close of its first depth-0 `{ … }` block.
        let mut j = i + 7;
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < c.len() {
            let t = c[j];
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    end_line = t.line;
                    break;
                }
                "{" if depth == 0 => {
                    let close = match_brace(c, j);
                    end_line = c[close].line;
                    j = close;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push((start_line, end_line));
        i = j + 1;
    }
    out
}

/// Names bound to hash containers in this file → which container.
///
/// Three binding shapes are tracked, uniformly, via token patterns:
/// type ascriptions (`name: HashMap<…>` in lets, struct fields, and fn
/// params), and un-ascribed lets whose initializer constructs one
/// (`= HashMap::new()`, `collect::<HashSet<_>>()`).
fn collect_hash_bindings<'t>(c: &[&'t Token]) -> std::collections::BTreeMap<&'t str, &'static str> {
    let mut bound = std::collections::BTreeMap::new();
    let container_of = |t: &Token| -> Option<&'static str> {
        if t.is_ident("HashMap") {
            Some("HashMap")
        } else if t.is_ident("HashSet") {
            Some("HashSet")
        } else {
            None
        }
    };
    for i in 0..c.len() {
        let t = c[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name : <type containing HashMap/HashSet>` — terminated by a
        // depth-0 `,`/`)`/`;`/`=`/`{`. The container ident leads its
        // type, so it always precedes any generic-argument comma.
        let ascribed = c.get(i + 1).is_some_and(|x| x.is_punct(':'))
            && !c.get(i + 2).is_some_and(|x| x.is_punct(':'))
            && !(i > 0 && c[i - 1].is_punct(':'));
        if ascribed {
            let mut depth = 0i32;
            for &x in c.iter().take(i + 40).skip(i + 2) {
                match x.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    "," | ";" | "=" | "{" if depth == 0 => break,
                    _ => {}
                }
                if let Some(kind) = container_of(x) {
                    bound.insert(t.text.as_str(), kind);
                    break;
                }
            }
        }
        // `let [mut] name = <expr constructing a hash container> ;`
        if t.is_ident("let") {
            let mut k = i + 1;
            if c.get(k).is_some_and(|x| x.is_ident("mut")) {
                k += 1;
            }
            let Some(name) = c.get(k).filter(|x| x.kind == TokenKind::Ident) else {
                continue;
            };
            if !c.get(k + 1).is_some_and(|x| x.is_punct('=')) {
                continue;
            }
            let mut depth = 0i32;
            for j in k + 2..c.len() {
                let x = c[j];
                match x.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => break,
                    _ => {}
                }
                if container_of(x).is_some()
                    && c.get(j + 1)
                        .is_some_and(|n| n.is_punct(':') || n.is_punct('<'))
                {
                    bound.insert(name.text.as_str(), container_of(x).unwrap());
                    break;
                }
            }
        }
    }
    bound
}

/// Parses `// splicer-lint: allow(<rule>) — <reason>` comments.
fn parse_allows(tokens: &[Token]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        if !t.is_comment() {
            continue;
        }
        let Some(pos) = t.text.find("splicer-lint:") else {
            continue;
        };
        let rest = t.text[pos + "splicer-lint:".len()..].trim_start();
        let Some(rest) = rest.strip_prefix("allow") else {
            continue;
        };
        let rest = rest.trim_start();
        let (rule_name, after) = match rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
            Some((name, after)) => (name.trim(), after),
            None => ("", rest),
        };
        let rule = Rule::from_allow_name(rule_name);
        // Reason: whatever follows the closing paren, minus separator
        // dashes/colons. Mandatory.
        let reason: String = after
            .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
            .trim()
            .to_string();
        match rule {
            Some(rule) => out.push(Allow {
                rule,
                line: t.line,
                col: t.col,
                has_reason: reason.chars().count() >= 3,
                used: std::cell::Cell::new(false),
            }),
            None => out.push(Allow {
                // Unknown rule names surface as never-satisfiable
                // suppression findings via the has_reason=false path.
                rule: Rule::Suppression,
                line: t.line,
                col: t.col,
                has_reason: false,
                used: std::cell::Cell::new(false),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(src: &str) -> Vec<Finding> {
        lint_source("crates/routing/src/fake.rs", src)
    }

    fn codes(src: &str) -> Vec<&'static str> {
        findings(src).iter().map(|f| f.rule.name()).collect()
    }

    #[test]
    fn r1_flags_hashmap_keys_and_for_loops() {
        let src = r#"
            fn f() {
                let mut m: HashMap<u32, u32> = HashMap::new();
                for k in m.keys() { use_it(k); }
                for (a, b) in &m { use_it(a); }
            }
        "#;
        let f = findings(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::UnorderedIter));
        assert_eq!(f[0].line, 4);
        assert_eq!(f[1].line, 5);
    }

    #[test]
    fn r1_tracks_unascribed_let_and_fields_and_params() {
        let src = r#"
            struct S { entries: HashSet<u32> }
            fn g(m: &HashMap<u32, u32>, v: &Vec<u32>) {
                let mut targets = std::collections::HashSet::new();
                targets.insert(1);
                for t in &targets { eat(t); }
                m.values().count();
                for x in v.iter() { eat(x); }
            }
            impl S {
                fn h(&mut self) { self.entries.retain(|_| true); }
            }
        "#;
        let f = findings(src);
        let lines: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(lines, vec![6, 7, 11], "{f:?}");
    }

    #[test]
    fn r1_allows_membership_and_lookup() {
        let src = r#"
            fn f(m: &HashMap<u32, u32>, s: &HashSet<u32>) {
                if s.contains(&1) { go(); }
                let v = m.get(&2);
                for x in 0..10 { if s.contains(&x) { go(); } }
                let y = m[&3];
            }
        "#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn r1_ignores_strings_comments_and_tests() {
        let src = r#"
            /// Iterates `m.keys()` — doc text, not code.
            fn f() { let s = "m.keys() in a string"; }
            #[cfg(test)]
            mod tests {
                fn t(m: &HashMap<u32, u32>) { for k in m.keys() { eat(k); } }
            }
        "#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn r2_flags_all_ambient_sources() {
        let src = r#"
            fn f() {
                let t = std::time::Instant::now();
                let s = SystemTime::now();
                let e = std::env::var("X");
                let r = thread_rng();
                let k = Rng::from_entropy();
            }
        "#;
        assert_eq!(codes(src), vec!["ambient-nondet"; 5]);
    }

    #[test]
    fn r2_allowlists_the_wall_clock_site_for_clocks_only() {
        let src = "fn f() { let t = Instant::now(); let e = std::env::var(\"X\"); }";
        let f = lint_source(R2_WALL_CLOCK_SITE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("std::env"));
    }

    #[test]
    fn r3_covers_graph_adjacency_via_trait_impls_too() {
        let src = r#"
            impl Mutate for Graph {
                fn grow(&mut self) {
                    self.csr.push(1);
                }
                fn grow_tracked(&mut self) {
                    self.csr.push(1);
                    self.topology_epoch += 1;
                }
            }
            impl Other { fn x(&mut self) { self.csr.push(1); } }
        "#;
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("fn grow"));
    }

    #[test]
    fn r4_requires_safety_comments_even_in_tests() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f() {
                    let x = unsafe { read() };
                    // SAFETY: the pointer is valid for the call.
                    let y = unsafe { read() };
                }
            }
        "#;
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SafetyComment);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn suppression_with_reason_works_and_is_tracked() {
        let src = r#"
            fn f(m: &HashMap<u32, u32>) {
                // splicer-lint: allow(r1) — order folds into a sum, cannot escape
                for k in m.keys() { total += k; }
                let n = m.values().count(); // splicer-lint: allow(r1) — count only
            }
        "#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn suppression_without_reason_is_a_finding() {
        let src = r#"
            fn f(m: &HashMap<u32, u32>) {
                // splicer-lint: allow(r1)
                for k in m.keys() { total += k; }
            }
        "#;
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::Suppression);
        assert!(f[0].message.contains("without a reason"));
    }

    #[test]
    fn unused_suppression_is_a_finding() {
        let src = "// splicer-lint: allow(r2) — nothing here actually needs this\nfn f() {}";
        let f = findings(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unused suppression"));
    }

    #[test]
    fn stacked_suppressions_all_apply() {
        let src = r#"
            fn f(m: &HashMap<u32, u32>) {
                // splicer-lint: allow(r1) — sum is order-insensitive
                // splicer-lint: allow(r2) — wall clock feeds a diagnostic-only field
                for k in m.keys() { total += k + now(std::env::var("X")); }
            }
        "#;
        assert!(findings(src).is_empty(), "{:?}", findings(src));
    }

    #[test]
    fn test_paths_are_exempt_except_r4() {
        let src = r#"
            fn f(m: &HashMap<u32, u32>) {
                for k in m.keys() { eat(k); }
                let t = std::time::Instant::now();
                let x = unsafe { read() };
            }
        "#;
        let f = lint_source("crates/routing/src/engine/tests.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::SafetyComment);
    }
}
