//! The workspace invariant linter: token-level rules over every crate in
//! `crates/*/src`, with an inline pragma escape hatch that *requires a
//! written reason* and is itself linted (malformed → `bad_pragma`, unused
//! → `stale_pragma`).
//!
//! Rules:
//!
//! - `no_panic` — no `.unwrap(` / `.expect(` / `panic!` in non-test code
//!   of the serving-path crates (`server`, `exec`, `content`,
//!   `discovery`). True invariants carry a pragma with the invariant
//!   written out.
//! - `clock_confined` — `Instant::now` / `SystemTime::now` in serving
//!   crates only inside the deadline-clock module
//!   (`crates/content/src/deadline.rs`).
//! - `thread_confined` — `thread::spawn` / `thread::scope` /
//!   `thread::Builder` only in `exec` and `server`.
//! - `exit_confined` — `process::exit` only in files named `main.rs`.
//! - `lock_order` — in the `server` crate, the batcher's `state` mutex is
//!   never held (lexically, per function body) while acquiring the `gate`
//!   mutex, and vice versa; `bump_and_notify` counts as a gate
//!   acquisition since its body takes the gate. The engine `RwLock` is
//!   never acquired while a guard of it is alive (std's `RwLock`
//!   self-deadlocks on a write under the thread's own read guard), and the
//!   apply mutex never under an engine guard: apply mutex → engine read →
//!   (released) → engine write.
//!
//! Pragma syntax, on the violating line or the line(s) immediately above
//! (a pragma covers the statement that follows it, up to the next `;` or
//! `{`):
//!
//! ```text
//! // lint: allow(no_panic, reason = "true invariant: ...")
//! ```

use crate::lexer::{lex, TokKind, Token};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates on the serving path: a panic, an unbudgeted clock read, or an
/// unsupervised thread here is a liability for the latency SLOs.
const SERVING_CRATES: &[&str] = &["server", "exec", "content", "discovery"];

/// Crates allowed to create threads: the executor (sharded parallel
/// runs) and the server (worker + accept threads).
const THREAD_CRATES: &[&str] = &["exec", "server"];

/// The one serving-path module allowed to read the wall clock.
const CLOCK_MODULE: &str = "crates/content/src/deadline.rs";

/// Every rule a pragma may name.
pub const RULES: &[&str] = &[
    "no_panic",
    "clock_confined",
    "thread_confined",
    "exit_confined",
    "lock_order",
    "schema_sync",
];

/// One finding: which rule, where, and why.
#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// Lint every `.rs` file under `crates/*/src` of the workspace at `root`.
/// Returns violations sorted by (file, line); empty means clean.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut violations = Vec::new();
    for file in workspace_files(root)? {
        let src = fs::read_to_string(&file)
            .map_err(|error| format!("read {}: {error}", file.display()))?;
        let rel = relative(root, &file);
        violations.extend(lint_file(&rel, &src));
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// All `.rs` files under `crates/*/src`, sorted for deterministic output.
/// Vendored shims, examples, and integration-test trees are out of scope:
/// the invariants guard first-party serving code.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|error| format!("read {}: {error}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut files = Vec::new();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|error| format!("read {}: {error}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root).unwrap_or(file).to_string_lossy().replace('\\', "/")
}

/// The crate name from a `crates/<name>/src/...` relative path.
fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/").and_then(|rest| rest.split('/').next()).unwrap_or("")
}

// ---------------------------------------------------------------------------
// Pragmas
// ---------------------------------------------------------------------------

struct Pragma {
    rule: &'static str,
    /// Line of the pragma comment itself.
    line: u32,
    /// Last line the pragma covers: its own line through the end of the
    /// statement that follows (next `;` or `{` in code tokens).
    end_line: u32,
    used: bool,
}

/// Parse one line comment. `None`: not a pragma at all. `Some(Err)`: it
/// tried to be one and is malformed (→ `bad_pragma`). The returned rule
/// is the interned entry from [`RULES`].
fn parse_pragma(text: &str) -> Option<Result<(&'static str, String), String>> {
    let body = text.strip_prefix("//")?.trim_start();
    let rest = body.strip_prefix("lint:")?.trim();
    let inner = match rest.strip_prefix("allow(").and_then(|r| r.strip_suffix(')')) {
        Some(inner) => inner,
        None => return Some(Err("expected `lint: allow(<rule>, reason = \"...\")`".to_string())),
    };
    let (rule, tail) = match inner.split_once(',') {
        Some(parts) => parts,
        None => return Some(Err("missing `, reason = \"...\"`".to_string())),
    };
    let rule = rule.trim();
    let rule = match RULES.iter().find(|r| **r == rule) {
        Some(interned) => *interned,
        None => return Some(Err(format!("unknown rule `{rule}`"))),
    };
    let reason = match tail.trim().strip_prefix("reason") {
        Some(r) => r.trim_start(),
        None => return Some(Err("expected `reason = \"...\"`".to_string())),
    };
    let reason = match reason.strip_prefix('=') {
        Some(r) => r.trim(),
        None => return Some(Err("expected `reason = \"...\"`".to_string())),
    };
    let reason = match reason.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        Some(r) => r,
        None => return Some(Err("reason must be a quoted string".to_string())),
    };
    if reason.trim().is_empty() {
        return Some(Err("reason must not be empty — write the invariant down".to_string()));
    }
    Some(Ok((rule, reason.to_string())))
}

// ---------------------------------------------------------------------------
// Per-file analysis
// ---------------------------------------------------------------------------

/// Lint one file's source. `rel` is the workspace-relative path (used for
/// crate classification and reporting).
pub fn lint_file(rel: &str, src: &str) -> Vec<Violation> {
    let tokens = lex(src);
    let test_mask = test_mask(&tokens, src);
    let krate = crate_of(rel);
    let file_name = rel.rsplit('/').next().unwrap_or(rel);

    // Pragmas live in non-test line comments. Their coverage span runs to
    // the end of the following statement (next `;` or `{`), so a pragma
    // above a rustfmt-wrapped multi-line statement still applies.
    let mut pragmas: Vec<Pragma> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    for (i, token) in tokens.iter().enumerate() {
        if token.kind != TokKind::LineComment || test_mask[i] {
            continue;
        }
        match parse_pragma(token.text(src)) {
            None => {}
            Some(Err(message)) => violations.push(Violation {
                rule: "bad_pragma",
                file: rel.to_string(),
                line: token.line,
                message,
            }),
            Some(Ok((rule, _reason))) => {
                let end_line = tokens[i + 1..]
                    .iter()
                    .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
                    .take_while(|t| !(t.kind == TokKind::Punct && matches!(t.text(src), ";" | "{")))
                    .map(|t| t.line)
                    .max()
                    .unwrap_or(token.line)
                    .max(token.line);
                pragmas.push(Pragma { rule, line: token.line, end_line, used: false });
            }
        }
    }

    // Code view: non-comment, non-test tokens only.
    let code: Vec<&Token> = tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            !test_mask[*i] && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
        })
        .map(|(_, t)| t)
        .collect();

    let mut raw: Vec<(&'static str, u32, String)> = Vec::new();
    scan_sequences(&code, src, krate, rel, file_name, &mut raw);
    if krate == "server" {
        scan_lock_order(&code, src, &mut raw);
    }

    for (rule, line, message) in raw {
        let suppressed =
            pragmas.iter_mut().find(|p| p.rule == rule && line >= p.line && line <= p.end_line);
        match suppressed {
            Some(pragma) => pragma.used = true,
            None => {
                violations.push(Violation { rule, file: rel.to_string(), line, message });
            }
        }
    }
    for pragma in pragmas {
        if !pragma.used {
            violations.push(Violation {
                rule: "stale_pragma",
                file: rel.to_string(),
                line: pragma.line,
                message: format!(
                    "pragma allows `{}` but no such violation occurs on lines {}..={} — remove it",
                    pragma.rule, pragma.line, pragma.end_line
                ),
            });
        }
    }
    violations
}

/// Per-token test mask (true = inside `#[test]`/`#[cfg(test)]` code), used
/// by the schema-sync check to skip test-only emitters and structs.
pub fn test_mask_for(tokens: &[Token], src: &str) -> Vec<bool> {
    test_mask(tokens, src)
}

/// Mark every token under a test-only attribute: `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]` — but not `#[cfg(not(test))]` — plus the item
/// (fn, mod, use, ...) the attribute decorates, brace-matched.
fn test_mask(tokens: &[Token], src: &str) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let is = |i: usize, text: &str| {
        tokens.get(i).is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == text)
    };
    let mut i = 0usize;
    while i < tokens.len() {
        if !(is(i, "#") && is(i + 1, "[")) {
            i += 1;
            continue;
        }
        // Find the matching `]` of this attribute.
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if is(j, "[") {
                depth += 1;
            } else if is(j, "]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let has_ident = |name: &str| {
            tokens[i..=j.min(tokens.len() - 1)]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text(src) == name)
        };
        if !has_ident("test") || has_ident("not") {
            i = j + 1;
            continue;
        }
        // Test attribute: mask it, any stacked attributes after it, and
        // the decorated item (to its `;`, or its matching outer `}`).
        let mut k = j + 1;
        while is(k, "#") && is(k + 1, "[") {
            let mut depth = 0usize;
            while k < tokens.len() {
                if is(k, "[") {
                    depth += 1;
                } else if is(k, "]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let mut seen_brace = false;
        let mut end = k;
        while end < tokens.len() {
            if is(end, "{") {
                brace_depth += 1;
                seen_brace = true;
            } else if is(end, "}") {
                brace_depth = brace_depth.saturating_sub(1);
                if seen_brace && brace_depth == 0 {
                    break;
                }
            } else if is(end, ";") && !seen_brace {
                break;
            }
            end += 1;
        }
        let end = end.min(tokens.len().saturating_sub(1));
        for slot in &mut mask[i..=end] {
            *slot = true;
        }
        i = end + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Sequence rules
// ---------------------------------------------------------------------------

fn scan_sequences(
    code: &[&Token],
    src: &str,
    krate: &str,
    rel: &str,
    file_name: &str,
    raw: &mut Vec<(&'static str, u32, String)>,
) {
    let serving = SERVING_CRATES.contains(&krate);
    let threads_ok = THREAD_CRATES.contains(&krate);
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let ident = |i: usize| {
        code.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text(src)).unwrap_or("")
    };
    let path_sep = |i: usize| text(i) == ":" && text(i + 1) == ":";

    for i in 0..code.len() {
        let line = code[i].line;
        if serving {
            // `.unwrap(` / `.expect(` — the dot keeps field names and our
            // own matcher tables out; maximal-munch idents keep
            // `unwrap_or_else` out.
            if text(i) == "." && text(i + 2) == "(" {
                let method = ident(i + 1);
                if method == "unwrap" || method == "expect" {
                    raw.push((
                        "no_panic",
                        code[i + 1].line,
                        format!(
                            ".{method}() on the serving path — return a typed error, or pragma \
                             the true invariant"
                        ),
                    ));
                }
            }
            if ident(i) == "panic" && text(i + 1) == "!" {
                raw.push((
                    "no_panic",
                    line,
                    "panic! on the serving path — return a typed error, or pragma the true \
                     invariant"
                        .to_string(),
                ));
            }
            if (ident(i) == "Instant" || ident(i) == "SystemTime")
                && path_sep(i + 1)
                && ident(i + 3) == "now"
                && text(i + 4) == "("
                && !rel.ends_with(CLOCK_MODULE)
            {
                raw.push((
                    "clock_confined",
                    line,
                    format!(
                        "{}::now() outside {CLOCK_MODULE} — serving-path deadlines go through \
                         the strided Deadline clock",
                        ident(i)
                    ),
                ));
            }
        }
        if !threads_ok && ident(i) == "thread" && path_sep(i + 1) {
            let target = ident(i + 3);
            if matches!(target, "spawn" | "scope" | "Builder") {
                raw.push((
                    "thread_confined",
                    code[i + 3].line,
                    format!(
                        "thread::{target} outside `exec`/`server` — route parallelism through \
                         the executor"
                    ),
                ));
            }
        }
        if file_name != "main.rs"
            && ident(i) == "process"
            && path_sep(i + 1)
            && ident(i + 3) == "exit"
            && text(i + 4) == "("
        {
            raw.push((
                "exit_confined",
                line,
                "process::exit outside a main.rs — return an error and let main decide the exit \
                 code"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Lock-order rule (server crate)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    /// The batcher's `state` mutex.
    State,
    /// The batcher's `gate` mutex.
    Gate,
    /// The server's engine `RwLock`, read or write side.
    Engine,
    /// The server's apply mutex.
    Apply,
}

impl LockKind {
    /// Why acquiring `self` while `held` is alive breaks the lock protocol,
    /// if it does.
    fn conflict_with(self, held: LockKind) -> Option<&'static str> {
        use LockKind::{Apply, Engine, Gate, State};
        match (held, self) {
            (State, Gate) | (Gate, State) => {
                Some("the batcher's locks must never nest (see batcher.rs module docs)")
            }
            (Engine, Engine) => Some(
                "engine guards must never nest: std's RwLock self-deadlocks on a write under \
                 the thread's own read guard (see server.rs \"Apply transactionality\")",
            ),
            (Engine, Apply) => Some("the apply mutex is taken before any engine lock"),
            _ => None,
        }
    }
}

struct LiveGuard {
    kind: LockKind,
    /// Brace depth the guard was bound at; it dies when the scope closes.
    depth: usize,
    /// `Some(name)` for `let name = <acquisition>;` bindings (killable by
    /// `drop(name)`), `None` for statement temporaries (die at `;`).
    name: Option<String>,
}

/// Lexical per-function-body tracking of the server's locks. The batcher's
/// dual locks: the `state` mutex must never be held while acquiring the
/// `gate` mutex, and vice versa — both critical sections stay leaf-level.
/// Acquisition sites: `self.state.lock(` (state); `self.lock_gate(`,
/// `self.gate.lock(` and `self.bump_and_notify(` (gate — `bump_and_notify`'s
/// body takes the gate, so a call counts at the call site too). The apply
/// path's locks, on any receiver: `<x>.engine.read(` / `<x>.engine.write(`
/// (engine) never while an engine guard is alive, `<x>.apply_lock.lock(`
/// (apply) never under an engine guard.
fn scan_lock_order(code: &[&Token], src: &str, raw: &mut Vec<(&'static str, u32, String)>) {
    let text = |i: usize| code.get(i).map(|t| t.text(src)).unwrap_or("");
    let ident = |i: usize| {
        code.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text(src)).unwrap_or("")
    };
    // `<recv> . <field> . <method> (` → the lock kind and the `(` index.
    let acquisition = |i: usize| -> Option<(LockKind, usize)> {
        if ident(i).is_empty() || text(i + 1) != "." {
            return None;
        }
        let on_self = ident(i) == "self";
        let method = |name: &str| text(i + 3) == "." && ident(i + 4) == name && text(i + 5) == "(";
        match ident(i + 2) {
            "state" if on_self && method("lock") => Some((LockKind::State, i + 5)),
            "gate" if on_self && method("lock") => Some((LockKind::Gate, i + 5)),
            "lock_gate" | "bump_and_notify" if on_self && text(i + 3) == "(" => {
                Some((LockKind::Gate, i + 3))
            }
            "engine" if method("read") || method("write") => Some((LockKind::Engine, i + 5)),
            "apply_lock" if method("lock") => Some((LockKind::Apply, i + 5)),
            _ => None,
        }
    };

    let mut depth = 0usize;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut stmt_start = 0usize; // index of first token of the current statement
    let mut i = 0usize;
    while i < code.len() {
        match text(i) {
            "{" => {
                depth += 1;
                stmt_start = i + 1;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                stmt_start = i + 1;
            }
            ";" => {
                live.retain(|g| g.name.is_some());
                stmt_start = i + 1;
            }
            _ => {}
        }
        // `drop(name)` releases a named guard early.
        if ident(i) == "drop" && text(i + 1) == "(" && text(i + 3) == ")" {
            let name = ident(i + 2);
            live.retain(|g| g.name.as_deref() != Some(name));
        }
        if let Some((kind, open_paren)) = acquisition(i) {
            let conflict =
                live.iter().find_map(|g| kind.conflict_with(g.kind).map(|why| (g.kind, why)));
            if let Some((held, why)) = conflict {
                raw.push((
                    "lock_order",
                    code[i].line,
                    format!("acquiring the {kind:?} lock while the {held:?} lock is held — {why}"),
                ));
            }
            // Bound (`let name = self...lock();` with no leading deref)
            // or a statement temporary?
            let name = if ident(stmt_start) == "let" {
                let name_at =
                    if ident(stmt_start + 1) == "mut" { stmt_start + 2 } else { stmt_start + 1 };
                let direct = text(name_at + 1) == "=" && name_at + 2 == i;
                direct.then(|| ident(name_at).to_string())
            } else {
                None
            };
            live.push(LiveGuard { kind, depth, name });
            i = open_paren + 1;
            continue;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(rel: &str, src: &str) -> Vec<(String, u32)> {
        lint_file(rel, src).into_iter().map(|v| (v.rule.to_string(), v.line)).collect()
    }

    #[test]
    fn unwrap_in_serving_crate_flags_and_bench_does_not() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert_eq!(rules_of("crates/server/src/lib.rs", src), vec![("no_panic".to_string(), 1)]);
        assert!(rules_of("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_inside_raw_string_or_comment_is_clean() {
        let src = r##"
fn f() -> &'static str {
    // let y = x.unwrap();
    /* panic!("no") */
    r#"call .unwrap() and .expect() here"#
}
"##;
        assert!(rules_of("crates/server/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Result<u32, u32>) -> u32 { x.unwrap_or_else(|e| e) }\n";
        assert!(rules_of("crates/exec/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt_but_cfg_not_test_is_not() {
        let src = "
fn shipped(x: Option<u32>) -> Option<u32> { x }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!(\"fine in tests\"); }
}
#[cfg(not(test))]
fn also_shipped(x: Option<u32>) -> u32 { x.unwrap() }
";
        assert_eq!(rules_of("crates/content/src/lib.rs", src), vec![("no_panic".to_string(), 9)]);
    }

    #[test]
    fn nested_cfg_test_module_is_masked_whole() {
        let src = "
#[cfg(test)]
mod outer {
    mod inner {
        pub fn helper() { panic!(\"still test code\") }
    }
    #[test]
    fn t() { inner::helper(); }
}
";
        assert!(rules_of("crates/content/src/lib.rs", src).is_empty());
    }

    #[test]
    fn commented_out_thread_spawn_is_clean_and_live_one_flags() {
        let clean = "fn f() { /* std::thread::spawn(|| ()); */ }\n";
        assert!(rules_of("crates/bench/src/lib.rs", clean).is_empty());
        let dirty = "fn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(
            rules_of("crates/bench/src/lib.rs", dirty),
            vec![("thread_confined".to_string(), 1)]
        );
        // ... but exec and server are the sanctioned homes.
        assert!(rules_of("crates/exec/src/lib.rs", dirty).is_empty());
        assert!(rules_of("crates/server/src/lib.rs", dirty).is_empty());
    }

    #[test]
    fn clock_reads_allowed_only_in_the_deadline_module() {
        let src = "fn f() { let t = std::time::Instant::now(); let _ = t; }\n";
        assert_eq!(
            rules_of("crates/content/src/index.rs", src),
            vec![("clock_confined".to_string(), 1)]
        );
        assert!(rules_of("crates/content/src/deadline.rs", src).is_empty());
        // Non-serving crates may read clocks freely (bench timing loops).
        assert!(rules_of("crates/bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn process_exit_allowed_only_in_main_rs() {
        let src = "fn f() { std::process::exit(1); }\n";
        assert_eq!(
            rules_of("crates/bench/src/bin/experiments.rs", src),
            vec![("exit_confined".to_string(), 1)]
        );
        assert!(rules_of("crates/server/src/main.rs", src).is_empty());
    }

    #[test]
    fn pragma_suppresses_and_is_marked_used() {
        let src = "
fn f(x: Option<u32>) -> u32 {
    // lint: allow(no_panic, reason = \"true invariant: caller checked is_some\")
    x.unwrap()
}
";
        assert!(rules_of("crates/server/src/lib.rs", src).is_empty());
    }

    #[test]
    fn pragma_covers_a_rustfmt_wrapped_statement() {
        let src = "
fn f(v: &[u32]) -> u32 {
    // lint: allow(no_panic, reason = \"true invariant: caller guarantees non-empty\")
    let m =
        v.iter().copied().max().expect(\"non-empty\");
    m
}
";
        assert!(rules_of("crates/server/src/lib.rs", src).is_empty());
    }

    #[test]
    fn pragma_on_the_wrong_line_suppresses_nothing_and_goes_stale() {
        let src = "
fn f(x: Option<u32>) -> u32 {
    // lint: allow(no_panic, reason = \"too far away to count\")
    let y = 1;
    x.unwrap() + y
}
";
        let found = rules_of("crates/server/src/lib.rs", src);
        assert_eq!(found, vec![("no_panic".to_string(), 5), ("stale_pragma".to_string(), 3)]);
    }

    #[test]
    fn malformed_pragmas_are_bad_pragma() {
        for (src, what) in [
            ("// lint: allow(no_panic)\nfn f() {}\n", "missing reason"),
            ("// lint: allow(no_panic, reason = \"\")\nfn f() {}\n", "empty reason"),
            ("// lint: allow(made_up_rule, reason = \"x\")\nfn f() {}\n", "unknown rule"),
            ("// lint: forbid(no_panic)\nfn f() {}\n", "not allow()"),
        ] {
            assert_eq!(
                rules_of("crates/server/src/lib.rs", src),
                vec![("bad_pragma".to_string(), 1)],
                "{what}"
            );
        }
    }

    #[test]
    fn lock_order_flags_gate_under_let_bound_state_guard() {
        let src = "
impl Batcher {
    fn bad(&self) {
        let state = self.state.lock();
        *self.lock_gate() += 1;
        drop(state);
    }
}
";
        assert_eq!(rules_of("crates/server/src/x.rs", src), vec![("lock_order".to_string(), 5)]);
    }

    #[test]
    fn lock_order_flags_bump_and_notify_under_state_temporary() {
        let src = "
impl Batcher {
    fn bad(&self) -> bool {
        self.state.lock().shutdown && { self.bump_and_notify(); true }
    }
}
";
        assert_eq!(rules_of("crates/server/src/x.rs", src), vec![("lock_order".to_string(), 4)]);
    }

    #[test]
    fn lock_order_accepts_sequential_and_dropped_acquisition() {
        let src = "
impl Batcher {
    fn good(&self) {
        { let mut state = self.state.lock(); state.shutdown = true; }
        self.bump_and_notify();
    }
    fn also_good(&self) {
        let state = self.state.lock();
        drop(state);
        let epoch = *self.lock_gate();
        let _ = epoch;
    }
    fn temp_dies_at_semicolon(&self) {
        self.state.lock().shutdown = true;
        self.bump_and_notify();
    }
}
";
        assert!(rules_of("crates/server/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_order_flags_state_under_gate_too() {
        let src = "
impl Batcher {
    fn bad(&self) {
        let guard = self.lock_gate();
        let state = self.state.lock();
        drop(state);
        drop(guard);
    }
}
";
        assert_eq!(rules_of("crates/server/src/x.rs", src), vec![("lock_order".to_string(), 5)]);
    }

    /// The shape of `server::serve_apply`: apply mutex first, the stage
    /// under a block-scoped read guard, the commit under a block-scoped
    /// write guard taken after the read guard died.
    #[test]
    fn lock_order_accepts_the_two_phase_apply_protocol() {
        let src = "
fn serve_apply(shared: &Shared) {
    let _applying = shared.apply_lock.lock();
    let staged = {
        let engine = shared.engine.read();
        engine.stage()
    };
    let committed = {
        let mut engine = shared.engine.write();
        engine.commit(staged)
    };
    let _ = committed;
}
fn serve_batch(shared: &Shared) {
    let engine = shared.engine.read();
    let _ = engine;
}
";
        assert!(rules_of("crates/server/src/x.rs", src).is_empty());
    }

    /// Mutants of it: the write lock asked for under the thread's own read
    /// guard (a self-deadlock on std's `RwLock`), and the apply mutex taken
    /// under an engine guard.
    #[test]
    fn lock_order_flags_engine_nesting_and_a_late_apply_mutex() {
        let upgrade = "
fn serve_apply(shared: &Shared) {
    let _applying = shared.apply_lock.lock();
    let engine = shared.engine.read();
    let staged = engine.stage();
    let mut writer = shared.engine.write();
    writer.commit(staged);
}
";
        assert_eq!(
            rules_of("crates/server/src/x.rs", upgrade),
            vec![("lock_order".to_string(), 6)]
        );
        let late_mutex = "
fn serve_apply(shared: &Shared) {
    let engine = shared.engine.read();
    let _applying = shared.apply_lock.lock();
    let _ = engine;
}
";
        assert_eq!(
            rules_of("crates/server/src/x.rs", late_mutex),
            vec![("lock_order".to_string(), 4)]
        );
    }
}
