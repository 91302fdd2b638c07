//! The rule implementations.
//!
//! Every rule is a pure function over the lexed token stream plus the file
//! policy; findings carry the rule id, line, and a message. Heuristics are
//! deliberately conservative-but-loud: a justified false positive is
//! silenced with `// lint: allow(RULE) — reason`, which doubles as
//! reviewer-facing documentation of *why* the site is safe.

use crate::graph::{FileModel, FnId, Model};
use crate::lexer::{AllowDirective, BumpMarker, Tok};
use crate::policy::{self, FilePolicy};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

pub const RULES: &[&str] = &[
    "D01", "D02", "D03", "C01", "V01", "A00", "G01", "G02", "G03", "G04", "O01",
];

/// One-line docs for `dba-lint --list-rules` (and the README table).
pub const RULE_DOCS: &[(&str, &str)] = &[
    ("D01", "no unnormalized HashMap/HashSet iteration in result-affecting crates"),
    (
        "D02",
        "no wall-clock / OS-entropy reads outside dba-bench; `BudgetTimer::wall` (dba-common \
         clock.rs) is the one sanctioned clock seam, via a reasoned allow",
    ),
    ("D03", "no partial_cmp(..).unwrap() float ordering (use total_cmp)"),
    ("C01", "mutex access via the SafetyLedger wrapper; no guard across Advisor calls"),
    ("V01", "Catalog/StatsCatalog mutators bump their version (`// bumps:` markers)"),
    ("G01", "transitive determinism taint: D01/D02-class sources reachable from result-affecting entry points, any crate"),
    ("G02", "lock-order cycles and MutexGuard live across a (transitively) lock-acquiring call"),
    ("G03", "pricing discipline: raw Planner construction in dba-safety/dba-baselines must route through WhatIfService"),
    ("G04", "transitive version-bump discipline: mutations reached through wrapper fns still hit a `// bumps:`-marked mutator"),
    ("O01", "obs instrumentation calls are statements: their results never flow into program state"),
    ("A00", "every `// lint: allow(RULE)` carries a written reason"),
    ("E00", "unreadable workspace file (reported, not suppressible)"),
];

fn finding(rule: &'static str, line: u32, message: impl Into<String>) -> Finding {
    Finding {
        rule,
        line,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// D01 — nondeterministic iteration over hash containers
// ---------------------------------------------------------------------------

/// Iteration adapters that observe hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Tokens downstream of an iteration that restore determinism: an explicit
/// sort, a collect into an ordered (or re-hashed, order-free) container, or
/// an order-insensitive reduction. `fold` is deliberately absent — it is
/// order-sensitive in general and must be allowlisted when commutative.
const NORMALIZERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
    "sum",
    "product",
    "count",
    "len",
    "is_empty",
    "min",
    "max",
    "all",
    "any",
    "extend",
];

/// Collect identifiers that are (locally provable) hash containers: let
/// bindings with a `HashMap`/`HashSet` type or initialiser, struct fields,
/// and typed fn params.
pub(crate) fn hash_container_names(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for i in 0..toks.len() {
        // `name : [&] [mut] ['a] HashMap <` — fields, params, typed lets.
        if toks[i].kind == crate::lexer::TokKind::Ident
            && i + 2 < toks.len()
            && toks[i + 1].is_punct(':')
        {
            let mut j = i + 2;
            while j < toks.len()
                && (toks[j].is_punct('&')
                    || toks[j].is_ident("mut")
                    || toks[j].kind == crate::lexer::TokKind::Lifetime)
            {
                j += 1;
            }
            if j < toks.len() && (toks[j].is_ident("HashMap") || toks[j].is_ident("HashSet")) {
                names.push(toks[i].text.clone());
            }
        }
        // `let [mut] name = HashMap::new()` and friends.
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j + 2 < toks.len()
                && toks[j].kind == crate::lexer::TokKind::Ident
                && toks[j + 1].is_punct('=')
                && (toks[j + 2].is_ident("HashMap") || toks[j + 2].is_ident("HashSet"))
            {
                names.push(toks[j].text.clone());
            }
        }
    }
    names.sort();
    names.dedup();
    names
}

/// Statement-chain window for the normalization check: from the iteration
/// site to the end of the current statement *plus one more statement* — the
/// `let v: Vec<_> = map.values().collect(); v.sort();` idiom normalizes on
/// the following line.
fn chain_window(toks: &[Tok], site: usize) -> std::ops::Range<usize> {
    let depth = toks[site].depth;
    let mut semis = 0;
    let mut j = site;
    while j < toks.len() {
        if toks[j].depth < depth {
            break; // enclosing block closed
        }
        if toks[j].is_punct(';') && toks[j].depth == depth {
            semis += 1;
            if semis == 2 {
                break;
            }
        }
        j += 1;
    }
    site..j
}

pub fn d01_nondeterministic_iteration(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.d01 {
        return vec![];
    }
    let names = hash_container_names(toks);
    d01_sites(toks, &names, 0..toks.len())
        .into_iter()
        .map(|(line, msg)| finding("D01", line, msg))
        .collect()
}

/// D01-class source sites within a token range (the shared detector G01
/// reuses for crates the local rule does not scope to).
pub(crate) fn d01_sites(toks: &[Tok], names: &[String], range: Range<usize>) -> Vec<(u32, String)> {
    if names.is_empty() {
        return vec![];
    }
    let mut out = Vec::new();
    let is_tracked = |t: &Tok| t.kind == crate::lexer::TokKind::Ident && names.contains(&t.text);

    for i in range {
        // Pattern A: `name.method(` with method an iteration adapter.
        let method_site = i + 2 < toks.len()
            && is_tracked(&toks[i])
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == crate::lexer::TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('));
        // Pattern B: `for pat in &[mut] name {` / `for pat in name {`.
        let for_site = is_tracked(&toks[i])
            && toks.get(i + 1).is_some_and(|t| t.is_punct('{'))
            && toks[..i].iter().rev().take(8).any(|t| t.is_ident("in"))
            && toks[..i].iter().rev().take(12).any(|t| t.is_ident("for"));
        if !(method_site || for_site) {
            continue;
        }
        if for_site {
            // A for-loop body has no chain to normalize in; it is
            // order-dependent unless proven otherwise by a human.
            out.push((
                toks[i].line,
                format!(
                    "for-loop over hash container `{}`: iteration order is \
                     nondeterministic in a result-affecting crate; iterate a \
                     sorted snapshot or annotate why order cannot reach results",
                    toks[i].text
                ),
            ));
            continue;
        }
        let win = chain_window(toks, i);
        let normalized = toks[win].iter().any(|t| {
            t.kind == crate::lexer::TokKind::Ident && NORMALIZERS.contains(&t.text.as_str())
        });
        if !normalized {
            out.push((
                toks[i].line,
                format!(
                    "`{}.{}()` iterates a hash container without an ordering \
                     normalization on the statement chain (sort / ordered \
                     collect / order-insensitive reduction)",
                    toks[i].text,
                    toks[i + 2].text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D02 — wall-clock / OS entropy in deterministic crates
// ---------------------------------------------------------------------------

pub fn d02_wall_clock_entropy(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.d02 {
        return vec![];
    }
    d02_sites(toks, 0..toks.len())
        .into_iter()
        .map(|(line, what)| {
            finding(
                "D02",
                line,
                format!(
                    "`{}` reads wall-clock/OS entropy in `{}`: all time must be \
                     SimSeconds from the cost model and all randomness seeded \
                     (StdRng::seed_from_u64), or trajectories stop replaying",
                    what, policy.crate_name
                ),
            )
        })
        .collect()
}

/// D02-class source sites (wall-clock / OS-entropy reads) within a token
/// range; returns the offending identifier per site.
pub(crate) fn d02_sites(toks: &[Tok], range: Range<usize>) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for i in range {
        let t = &toks[i];
        let hit = if t.is_ident("Instant") || t.is_ident("SystemTime") {
            // `Instant::now()` / `SystemTime::now()`; the bare type in a
            // signature is already a smell, but only flag the read.
            toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| n.is_ident("now"))
        } else if t.is_ident("thread_rng") {
            true
        } else if t.is_ident("random")
            && i >= 2
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
        {
            // `rand::random` / `random()` via path.
            true
        } else {
            false
        };
        if hit {
            out.push((t.line, t.text.clone()));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// D03 — NaN-unsafe float ordering
// ---------------------------------------------------------------------------

pub fn d03_nan_unsafe_ordering(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.d03 {
        return vec![];
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("partial_cmp") {
            continue;
        }
        // Match the call's closing paren, then look for `.unwrap()` /
        // `.expect(...)` chained onto the Option.
        let Some(open) = toks.get(i + 1).filter(|t| t.is_punct('(')) else {
            continue;
        };
        let _ = open;
        let mut paren = 0i32;
        let mut j = i + 1;
        let mut close = None;
        while j < toks.len() {
            if toks[j].is_punct('(') {
                paren += 1;
            } else if toks[j].is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(c) = close else { continue };
        if toks.get(c + 1).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(c + 2)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.push(finding(
                "D03",
                toks[i].line,
                "`partial_cmp(..).unwrap()` panics on NaN mid-session; use \
                 `total_cmp` (and prune non-finite values first when scores \
                 can be ±inf/NaN) — the greedy_select idiom in core/oracle.rs",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// C01 — lock hygiene
// ---------------------------------------------------------------------------

/// `Advisor` trait methods: calling back into the tuning stack while
/// holding the ledger lock is the deadlock/latency hazard the SafetyLedger
/// wrapper exists to prevent.
const ADVISOR_METHODS: &[&str] = &["before_round", "after_round", "on_data_change"];

pub fn c01_lock_hygiene(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.c01 {
        return vec![];
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("lock") {
            continue;
        }
        // `.lock().unwrap()` / `.lock().expect(` — raw mutex use; all lock
        // points must go through the SafetyLedger wrapper so poisoning
        // policy lives in one place.
        if i >= 1
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('.'))
            && toks
                .get(i + 4)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.push(finding(
                "C01",
                toks[i].line,
                "raw `.lock().unwrap()/expect()`: route mutex access through \
                 the SafetyLedger wrapper (the one blessed lock point) so \
                 poisoning policy is centralised",
            ));
        }
    }

    // `let guard = ...lock()...;` held across a call into an Advisor
    // method: the inner advisor may re-enter the ledger → deadlock.
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(name_tok) = toks
            .get(j)
            .filter(|t| t.kind == crate::lexer::TokKind::Ident)
        else {
            i += 1;
            continue;
        };
        let binding = name_tok.text.clone();
        let let_depth = toks[i].depth;
        // Find end of the let statement and whether it takes a lock.
        let mut k = j;
        let mut locks = false;
        while k < toks.len() && !(toks[k].is_punct(';') && toks[k].depth == let_depth) {
            // Only a lock taken at the let's own brace depth makes the
            // binding a guard: `let x = { let g = m.lock(); g.field };`
            // drops the guard inside the block — `x` is plain data.
            if toks[k].is_ident("lock")
                && toks[k].depth == let_depth
                && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
            {
                locks = true;
            }
            k += 1;
        }
        if !locks {
            i = k + 1;
            continue;
        }
        // Guard live from k to the end of the enclosing block or drop().
        let mut m = k + 1;
        while m < toks.len() && toks[m].depth >= let_depth {
            if toks[m].is_ident("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(m + 2).is_some_and(|t| t.text == binding)
            {
                break;
            }
            if toks[m].kind == crate::lexer::TokKind::Ident
                && ADVISOR_METHODS.contains(&toks[m].text.as_str())
                && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
            {
                out.push(finding(
                    "C01",
                    toks[m].line,
                    format!(
                        "Advisor method `{}` called while MutexGuard `{}` \
                         (bound at line {}) is lexically live: copy what you \
                         need out of the guard scope first, or drop() it",
                        toks[m].text, binding, name_tok.line
                    ),
                ));
                break;
            }
            m += 1;
        }
        i = k + 1;
    }
    out
}

// ---------------------------------------------------------------------------
// V01 — version-bump discipline
// ---------------------------------------------------------------------------

/// A function item: name, signature range, body range.
struct FnItem {
    name: String,
    line: u32,
    sig: std::ops::Range<usize>,
    body: std::ops::Range<usize>,
}

fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == crate::lexer::TokKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            let line = toks[i].line;
            let fn_depth = toks[i].depth;
            // Signature runs to the body `{` at the fn's own depth (or a
            // `;` for a trait method without a default body).
            let mut j = i + 2;
            let mut body = 0..0;
            let mut sig_end = j;
            while j < toks.len() {
                if toks[j].is_punct(';') && toks[j].depth == fn_depth {
                    sig_end = j;
                    break;
                }
                if toks[j].is_punct('{') && toks[j].depth == fn_depth {
                    sig_end = j;
                    let mut k = j + 1;
                    while k < toks.len() && !(toks[k].is_punct('}') && toks[k].depth == fn_depth) {
                        k += 1;
                    }
                    body = j + 1..k;
                    break;
                }
                j += 1;
            }
            out.push(FnItem {
                name,
                line,
                sig: i..sig_end,
                body,
            });
            i = sig_end + 1;
        } else {
            i += 1;
        }
    }
    out
}

fn has_seq(toks: &[Tok], range: &std::ops::Range<usize>, seq: &[&str]) -> bool {
    if range.len() < seq.len() {
        return false;
    }
    'outer: for s in range.start..=range.end.saturating_sub(seq.len()) {
        for (off, want) in seq.iter().enumerate() {
            let t = &toks[s + off];
            let matches = match *want {
                "." => t.is_punct('.'),
                "&" => t.is_punct('&'),
                w => t.is_ident(w),
            };
            if !matches {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

pub fn v01_version_bump(toks: &[Tok], policy: &FilePolicy, bumps: &[BumpMarker]) -> Vec<Finding> {
    let Some(v01) = &policy.v01 else {
        return vec![];
    };
    let mut out = Vec::new();
    let items = fn_items(toks);

    // A marker binds to exactly the first fn declared after it.
    let mut marked_fn_lines: Vec<u32> = Vec::new();

    // Part 1: every `// bumps: X` marker must sit on a function whose body
    // actually bumps (directly or through a marked delegate).
    for marker in bumps {
        let item = items.iter().find(|f| f.line >= marker.line);
        if let Some(item) = item {
            marked_fn_lines.push(item.line);
        }
        let Some(item) = item else {
            out.push(finding(
                "V01",
                marker.line,
                format!("`// bumps: {}` marker is not followed by a fn", marker.kind),
            ));
            continue;
        };
        let bumped = v01
            .bump_tokens
            .iter()
            .any(|b| has_seq(toks, &item.body, &[b]));
        if !bumped {
            out.push(finding(
                "V01",
                item.line,
                format!(
                    "`{}` is marked `// bumps: {}` but its body never calls \
                     a bump ({}): cached plans keyed on this version will \
                     serve stale results",
                    item.name,
                    marker.kind,
                    v01.bump_tokens.join("/")
                ),
            ));
        }
    }

    // Part 2: every `&mut self` method that touches tracked state must
    // carry a marker (or bump anyway — then the marker is just missing
    // documentation, still flagged to keep the convention total).
    for item in &items {
        let mut_self = has_seq(toks, &item.sig, &["&", "mut", "self"]);
        if !mut_self || item.body.is_empty() {
            continue;
        }
        let mutates = v01
            .mutation_seqs
            .iter()
            .any(|seq| has_seq(toks, &item.body, seq));
        if !mutates {
            continue;
        }
        // The bump helper itself is the mechanism, not a client.
        if v01.bump_tokens.contains(&item.name.as_str()) {
            continue;
        }
        let marked = marked_fn_lines.contains(&item.line);
        if !marked {
            out.push(finding(
                "V01",
                item.line,
                format!(
                    "`&mut self` method `{}` mutates version-tracked state \
                     without a `// bumps:` marker: either bump the version \
                     counter and mark it, or annotate why no bump is needed",
                    item.name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// G01 — transitive determinism taint
// ---------------------------------------------------------------------------

/// Is this fn a result-affecting entry point? (Advisor trait impls,
/// `TuningSession::run/step` and friends, the results/records emitters.)
pub fn is_entry(sym: &crate::graph::FnSym) -> bool {
    if sym
        .info
        .trait_impl
        .as_deref()
        .is_some_and(|t| policy::ENTRY_TRAITS.contains(&t))
    {
        return true;
    }
    if let Some(ty) = sym.info.self_ty.as_deref() {
        if policy::ENTRY_METHODS
            .iter()
            .any(|(t, ms)| *t == ty && ms.contains(&sym.info.name.as_str()))
        {
            return true;
        }
    }
    sym.info.self_ty.is_none() && policy::ENTRY_FREE_FNS.contains(&sym.info.name.as_str())
}

/// G01: a D01/D02-class source (unnormalized hash iteration, wall-clock,
/// entropy) in a crate the local rule does *not* scope to is still a
/// finding when the enclosing fn is reachable from a result-affecting
/// entry point — nondeterminism does not respect crate boundaries.
/// Sources in crates where D01/D02 already run are left to those rules.
pub fn g01_transitive_taint(model: &Model, files: &[FileModel]) -> Vec<(usize, Finding)> {
    let entries: Vec<FnId> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.info.is_test && is_entry(s))
        .map(|(i, _)| i)
        .collect();
    let pred = model.reach_from(&entries);
    let hash_names: Vec<Vec<String>> = files
        .iter()
        .map(|f| hash_container_names(&f.toks))
        .collect();

    let mut out = Vec::new();
    for &f in pred.keys() {
        let sym = &model.fns[f];
        if sym.info.is_test || sym.info.body.is_empty() {
            continue;
        }
        let fm = &files[sym.file];
        let needs_d01 = !fm.policy.d01;
        let needs_d02 = !fm.policy.d02 && fm.policy.crate_name != "dba-analysis";
        if !needs_d01 && !needs_d02 {
            continue;
        }
        let path = model.path_to(&pred, f);
        let entry = model.fns[path[0]].display();
        let via = if path.len() > 1 {
            let hops: Vec<String> = path[1..]
                .iter()
                .map(|&id| format!("`{}`", model.fns[id].info.qual()))
                .collect();
            format!(" via {}", hops.join(" → "))
        } else {
            String::new()
        };
        if needs_d01 {
            for (line, msg) in d01_sites(&fm.toks, &hash_names[sym.file], sym.info.body.clone()) {
                out.push((
                    sym.file,
                    finding(
                        "G01",
                        line,
                        format!(
                            "{msg} — reachable from result-affecting entry \
                             `{entry}`{via}; iteration order taints results \
                             across the crate boundary"
                        ),
                    ),
                ));
            }
        }
        if needs_d02 {
            for (line, what) in d02_sites(&fm.toks, sym.info.body.clone()) {
                out.push((
                    sym.file,
                    finding(
                        "G01",
                        line,
                        format!(
                            "`{what}` reads wall-clock/OS entropy inside code \
                             reachable from result-affecting entry `{entry}`{via}: \
                             the local D02 exemption does not extend to code the \
                             tuning trajectory can reach"
                        ),
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// G02 — lock-order and guard-across-call hazards
// ---------------------------------------------------------------------------

/// A direct lock acquisition site (`recv.lock(..)`).
struct LockSite {
    id: String,
    tok: usize,
    line: u32,
}

/// Lock identity for the receiver chain before `.lock(`: prefixed with
/// the impl type when rooted at `self`, so `self.inner` in two different
/// impls stays two locks. Expression receivers get a per-fn synthetic id.
fn lock_id(chain: &[String], sym: &crate::graph::FnSym) -> String {
    if chain.is_empty() {
        return format!("<expr in {}>", sym.display());
    }
    if chain[0] == "self" {
        if let Some(ty) = &sym.info.self_ty {
            return format!("{}::{}", ty, chain.join("."));
        }
    }
    chain.join(".")
}

fn direct_lock_sites(fm: &FileModel, sym: &crate::graph::FnSym) -> Vec<LockSite> {
    let toks = &fm.toks;
    let mut out = Vec::new();
    for k in sym.info.body.clone() {
        if toks[k].is_ident("lock")
            && k > 0
            && toks[k - 1].is_punct('.')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            let chain = crate::parser::receiver_chain(toks, k - 1);
            out.push(LockSite {
                id: lock_id(&chain, sym),
                tok: k,
                line: toks[k].line,
            });
        }
    }
    out
}

/// Index just past the `)` matching the `(` at `open`.
fn close_paren(toks: &[Tok], open: usize) -> usize {
    let mut paren = 0i32;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            paren += 1;
        } else if toks[j].is_punct(')') {
            paren -= 1;
            if paren == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Does the call whose name token is at `k` terminate the initializer
/// chain ending at `stmt_end`? A binding is only a guard when the
/// lock/wrapper call's value *is* the bound value —
/// `.lock().is_quarantined(..)` binds a bool and releases the guard at
/// the semicolon. A trailing `.unwrap()`/`.expect(..)` keeps guard-ness.
fn terminal_call(toks: &[Tok], k: usize, stmt_end: usize) -> bool {
    let open = k + 1;
    if open >= stmt_end || !toks[open].is_punct('(') {
        return false;
    }
    let mut j = close_paren(toks, open);
    loop {
        if j >= stmt_end {
            return true;
        }
        if toks[j].is_punct('.')
            && toks
                .get(j + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('('))
        {
            j = close_paren(toks, j + 2);
            continue;
        }
        return false;
    }
}

/// A guard binding: `let g = ..lock()..;` or `let g = wrapper();` where
/// the wrapper returns a `MutexGuard`, with its lexical live token range.
struct GuardSpan {
    binding: String,
    ids: Vec<String>,
    live: Range<usize>,
    line: u32,
}

fn guard_spans(
    model: &Model,
    fm: &FileModel,
    f: FnId,
    lock_closure: &[BTreeSet<String>],
    sites: &[LockSite],
) -> Vec<GuardSpan> {
    let sym = &model.fns[f];
    let toks = &fm.toks;
    let body = sym.info.body.clone();
    let mut out = Vec::new();
    let mut i = body.start;
    while i < body.end {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        let d = toks[i].depth;
        let mut j = i + 1;
        if j < body.end && toks[j].is_ident("mut") {
            j += 1;
        }
        let Some(name_tok) = toks
            .get(j)
            .filter(|t| t.kind == crate::lexer::TokKind::Ident && j < body.end)
        else {
            i += 1;
            continue;
        };
        let binding = name_tok.text.clone();
        // Statement end: `;` at the let's own depth.
        let mut stmt_end = j;
        while stmt_end < body.end && !(toks[stmt_end].is_punct(';') && toks[stmt_end].depth == d) {
            if toks[stmt_end].depth < d {
                break;
            }
            stmt_end += 1;
        }
        // Lock ids bound by the initialiser: direct `.lock(` at the let's
        // depth, plus calls resolved to guard-returning wrappers.
        let mut ids: Vec<String> = sites
            .iter()
            .filter(|s| {
                s.tok > j
                    && s.tok < stmt_end
                    && toks[s.tok].depth == d
                    && terminal_call(toks, s.tok, stmt_end)
            })
            .map(|s| s.id.clone())
            .collect();
        for c in &sym.info.calls {
            if c.tok > j
                && c.tok < stmt_end
                && toks[c.tok].depth == d
                && terminal_call(toks, c.tok, stmt_end)
            {
                for callee in model.resolve(f, c) {
                    if model.fns[callee].info.returns_guard && !lock_closure[callee].is_empty() {
                        ids.extend(lock_closure[callee].iter().cloned());
                    }
                }
            }
        }
        ids.sort();
        ids.dedup();
        if ids.is_empty() {
            i = stmt_end + 1;
            continue;
        }
        // Live until the enclosing block closes or `drop(binding)`.
        let mut m = stmt_end + 1;
        let mut live_end = body.end;
        while m < body.end {
            if toks[m].depth < d {
                live_end = m;
                break;
            }
            if toks[m].is_ident("drop")
                && toks.get(m + 1).is_some_and(|t| t.is_punct('('))
                && toks.get(m + 2).is_some_and(|t| t.text == binding)
            {
                live_end = m;
                break;
            }
            m += 1;
        }
        out.push(GuardSpan {
            binding,
            ids,
            live: stmt_end + 1..live_end,
            line: name_tok.line,
        });
        i = stmt_end + 1;
    }
    out
}

/// G02: (a) a `MutexGuard` lexically live across a call whose callee
/// transitively acquires any lock; (b) acquisition-order cycles over the
/// lock-site graph (including transitive, cross-function pairs).
pub fn g02_lock_order(model: &Model, files: &[FileModel]) -> Vec<(usize, Finding)> {
    // Per-fn direct lock ids → transitive closure over the call graph.
    let all_sites: Vec<Vec<LockSite>> = model
        .fns
        .iter()
        .map(|sym| direct_lock_sites(&files[sym.file], sym))
        .collect();
    let direct_ids: Vec<Vec<String>> = all_sites
        .iter()
        .map(|v| v.iter().map(|s| s.id.clone()).collect())
        .collect();
    let closure = model.closure_of(&direct_ids);

    let mut out = Vec::new();
    // Order-pair graph: held lock → acquired lock, with a witness site.
    let mut pairs: BTreeMap<(String, String), (usize, u32)> = BTreeMap::new();

    for (f, sym) in model.fns.iter().enumerate() {
        if sym.info.is_test || sym.info.body.is_empty() {
            continue;
        }
        let fm = &files[sym.file];
        let guards = guard_spans(model, fm, f, &closure, &all_sites[f]);
        for g in &guards {
            // Direct acquisitions while the guard is live.
            for s in &all_sites[f] {
                if s.tok >= g.live.start && s.tok < g.live.end {
                    for held in &g.ids {
                        pairs
                            .entry((held.clone(), s.id.clone()))
                            .or_insert((sym.file, s.line));
                    }
                }
            }
            // Calls while the guard is live.
            let mut flagged: BTreeSet<(u32, FnId)> = BTreeSet::new();
            for c in &sym.info.calls {
                if c.tok < g.live.start || c.tok >= g.live.end {
                    continue;
                }
                for callee in model.resolve(f, c) {
                    if closure[callee].is_empty() {
                        continue;
                    }
                    for held in &g.ids {
                        for acq in &closure[callee] {
                            pairs
                                .entry((held.clone(), acq.clone()))
                                .or_insert((sym.file, c.line));
                        }
                    }
                    if flagged.insert((c.line, callee)) {
                        let acq: Vec<&str> = closure[callee].iter().map(String::as_str).collect();
                        out.push((
                            sym.file,
                            finding(
                                "G02",
                                c.line,
                                format!(
                                    "call into `{}` — which (transitively) acquires \
                                     {} — while MutexGuard `{}` (bound at line {}, \
                                     holding {}) is lexically live: deadlock hazard; \
                                     copy data out and drop the guard first",
                                    model.fns[callee].display(),
                                    acq.join(", "),
                                    g.binding,
                                    g.line,
                                    g.ids.join(", "),
                                ),
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Cycle detection over the order-pair graph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in pairs.keys() {
        adj.entry(a.as_str()).or_default().insert(b.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if !seen.insert(u) {
                continue;
            }
            if let Some(next) = adj.get(u) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    for ((a, b), &(file, line)) in &pairs {
        let cyclic = if a == b {
            true
        } else {
            reaches(b.as_str(), a.as_str())
        };
        if !cyclic {
            continue;
        }
        // One finding per distinct cycle node-set, at the witness site.
        let mut key: Vec<String> = vec![a.clone(), b.clone()];
        key.sort();
        key.dedup();
        if !reported.insert(key) {
            continue;
        }
        let msg = if a == b {
            format!(
                "lock `{a}` acquired while already held: std::sync::Mutex \
                 is not reentrant — this self-deadlocks at runtime"
            )
        } else {
            format!(
                "lock acquisition-order cycle: `{a}` is held while taking \
                 `{b}`, and `{b}` is (transitively) held while taking `{a}`: \
                 impose one global order or merge the critical sections"
            )
        };
        out.push((file, finding("G02", line, msg)));
    }
    out
}

// ---------------------------------------------------------------------------
// G03 — pricing discipline
// ---------------------------------------------------------------------------

/// G03: in the regret-accounting crates, plan *pricing* must flow through
/// the memoized, version-validated `WhatIfService`. A raw
/// `Planner::new` there either duplicates that engine without its version
/// checks (a correctness hazard for regret math) or is a genuine
/// execution path — which must say so in an `allow(G03)` reason. Runs on
/// the unstripped stream: a test that prices around the service validates
/// the wrong path, so `#[cfg(test)]` is not exempt.
pub fn g03_pricing_discipline(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.g03 {
        return vec![];
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].is_ident("Planner")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
        {
            out.push(finding(
                "G03",
                toks[i].line,
                format!(
                    "raw `Planner::new` in `{}`: plan pricing here must route \
                     through the shared WhatIfService (memoized, \
                     version-validated) so regret accounting stays on the \
                     authoritative path; if this is genuinely an execution \
                     path, say why with `// lint: allow(G03) — reason`",
                    policy.crate_name
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// G04 — transitive version-bump discipline
// ---------------------------------------------------------------------------

/// G04: V01 sees only fns whose *own body* mutates tracked state. A
/// wrapper that reaches a mutation through calls must still reach a
/// `// bumps:`-marked mutator (or a bump helper) on some call path —
/// otherwise version-keyed caches serve stale plans through the wrapper.
pub fn g04_transitive_bump(model: &Model, files: &[FileModel]) -> Vec<(usize, Finding)> {
    // Facts per fn, only meaningful in V01-policied files.
    let n = model.fns.len();
    let mut direct_mut = vec![false; n];
    let mut bumping = vec![false; n]; // directly bumps, is marked, or is the helper
    let mut in_scope = vec![false; n];
    let mut marked = vec![false; n];
    for (f, sym) in model.fns.iter().enumerate() {
        let fm = &files[sym.file];
        let Some(v01) = &fm.policy.v01 else { continue };
        in_scope[f] = true;
        let body = sym.info.body.clone();
        // Mutation needs `&mut self` — a shared-ref accessor can only read
        // the tracked fields (same gate V01 applies).
        let mut_self = has_seq(&fm.toks, &sym.info.sig, &["&", "mut", "self"]);
        direct_mut[f] = mut_self
            && v01
                .mutation_seqs
                .iter()
                .any(|s| has_seq(&fm.toks, &body, s));
        let direct_bump = v01
            .bump_tokens
            .iter()
            .any(|b| has_seq(&fm.toks, &body, &[b]));
        let is_marker_target = fm.bumps.iter().any(|m| {
            // A marker binds to the first fn declared at or after it.
            sym.info.line >= m.line
                && !fm
                    .parsed
                    .fns
                    .iter()
                    .any(|o| o.line >= m.line && o.line < sym.info.line)
        });
        marked[f] = is_marker_target;
        bumping[f] =
            direct_bump || is_marker_target || v01.bump_tokens.contains(&sym.info.name.as_str());
    }

    // Backward reachability: which fns can reach a mutating fn / a
    // bumping fn through the call graph?
    let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for (u, es) in model.edges.iter().enumerate() {
        for &(v, _) in es {
            rev[v].push(u);
        }
    }
    let back_reach = |seeds: Vec<FnId>| -> Vec<bool> {
        let mut seen = vec![false; n];
        let mut stack = seeds;
        while let Some(u) = stack.pop() {
            if seen[u] {
                continue;
            }
            seen[u] = true;
            stack.extend(rev[u].iter().copied());
        }
        seen
    };
    let reaches_mut = back_reach((0..n).filter(|&f| direct_mut[f]).collect());
    let reaches_bump = back_reach((0..n).filter(|&f| bumping[f]).collect());

    let mut out = Vec::new();
    for f in 0..n {
        let sym = &model.fns[f];
        if !in_scope[f] || sym.info.is_test || sym.info.body.is_empty() {
            continue;
        }
        // Direct mutators are V01's business; wrappers are ours.
        if direct_mut[f] || marked[f] || bumping[f] {
            continue;
        }
        if reaches_mut[f] && !reaches_bump[f] {
            out.push((
                sym.file,
                finding(
                    "G04",
                    sym.info.line,
                    format!(
                        "`{}` reaches a version-tracked mutation through its \
                         callees but no call path hits a `// bumps:`-marked \
                         mutator or bump helper: caches keyed on the version \
                         will serve stale plans through this wrapper",
                        sym.info.name
                    ),
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// O01 — instrumentation purity
// ---------------------------------------------------------------------------

/// `Obs` methods that record telemetry. All return `()` (or nothing worth
/// keeping); a site that *consumes* such a call — binds it, returns it,
/// passes it as an argument — has wired advisory instrumentation into
/// program state, which is exactly what the bit-identical-results
/// guarantee forbids. `enabled()` is deliberately absent: gating work on
/// it is the blessed pattern for avoiding allocation on the noop path.
const OBS_RECORD_METHODS: &[&str] = &[
    "span_enter",
    "span_exit",
    "counter",
    "histogram",
    "event",
    "set_sim_now",
    "flush",
];

/// O01: an obs recording call must stand alone as a statement —
/// `obs.counter("x", 1);` / `self.session.obs().event(..);` — never in
/// expression position. The receiver is matched syntactically: a chain
/// ending in the ident `obs` (a field or binding) or an `obs()` accessor.
pub fn o01_instrumentation_purity(toks: &[Tok], policy: &FilePolicy) -> Vec<Finding> {
    if !policy.o01 {
        return vec![];
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != crate::lexer::TokKind::Ident
            || !OBS_RECORD_METHODS.contains(&toks[i].text.as_str())
        {
            continue;
        }
        if i < 2 || !toks[i - 1].is_punct('.') || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        // The receiver chain must end in the obs handle: `obs.m(` (field
        // or local) or `obs().m(` (accessor). Anything else — a different
        // receiver that happens to share a method name — is not ours.
        let recv = if toks[i - 2].is_ident("obs") {
            Some(i - 2)
        } else if i >= 4
            && toks[i - 2].is_punct(')')
            && toks[i - 3].is_punct('(')
            && toks[i - 4].is_ident("obs")
        {
            Some(i - 4)
        } else {
            None
        };
        let Some(mut start) = recv else { continue };
        // Extend left through the dotted receiver chain (`self.session.`).
        while start >= 2
            && toks[start - 1].is_punct('.')
            && toks[start - 2].kind == crate::lexer::TokKind::Ident
        {
            start -= 2;
        }
        let stmt_head = start == 0
            || matches!(&toks[start - 1], t if t.is_punct(';') || t.is_punct('{') || t.is_punct('}'));
        let end = close_paren(toks, i + 1);
        let stmt_tail = match toks.get(end) {
            Some(t) => t.is_punct(';'),
            None => true,
        };
        if !(stmt_head && stmt_tail) {
            out.push(finding(
                "O01",
                toks[i].line,
                format!(
                    "obs recording call `{}` used in expression position: \
                     instrumentation is advisory and its result must never \
                     flow into program state — write it as a bare statement \
                     (`..{}(..);`), gating on `obs.enabled()` when needed",
                    toks[i].text, toks[i].text
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// A00 — allowlist hygiene + suppression
// ---------------------------------------------------------------------------

pub fn check_allow_directives(allows: &[AllowDirective]) -> Vec<Finding> {
    let mut out = Vec::new();
    for a in allows {
        if a.rules.is_empty() {
            out.push(finding(
                "A00",
                a.line,
                "malformed `// lint: allow(...)` directive: no rule names",
            ));
            continue;
        }
        for r in &a.rules {
            if !RULES.contains(&r.as_str()) || r == "A00" {
                out.push(finding(
                    "A00",
                    a.line,
                    format!("`// lint: allow({r})` names an unknown rule"),
                ));
            }
        }
        if a.reason.trim().len() < 3 {
            out.push(finding(
                "A00",
                a.line,
                format!(
                    "`// lint: allow({})` has no reason: suppressions must \
                     say why the site is safe (`// lint: allow(RULE) — reason`)",
                    a.rules.join(", ")
                ),
            ));
        }
    }
    out
}

/// Drop findings covered by a well-formed allow on the same or previous
/// line. Malformed (reason-less) allows never suppress.
pub fn apply_allows(findings: Vec<Finding>, allows: &[AllowDirective]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allows.iter().any(|a| {
                a.reason.trim().len() >= 3
                    && a.rules.iter().any(|r| r == f.rule)
                    && (a.line == f.line || a.line + 1 == f.line)
            })
        })
        .collect()
}
