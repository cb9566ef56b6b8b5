//! The rule pack. Each rule walks the token stream of one file with
//! the manifest in hand and appends [`Diagnostic`]s.
//!
//! | rule id           | what it enforces                                          |
//! |-------------------|-----------------------------------------------------------|
//! | `ct-branch`       | no `if`/`match`/`&&`/`||`/`return`/`?` in a ct region     |
//! | `ct-index`        | no variable-indexed lookups in a ct region                |
//! | `ct-divmod`       | no `/`/`%` in a ct region                                 |
//! | `ct-coverage`     | ct-pinned modules contain at least one ct region          |
//! | `unsafe-location` | `unsafe` only in allowlisted modules                      |
//! | `unsafe-comment`  | every `unsafe` preceded by a `// SAFETY:` comment         |
//! | `hot-alloc`       | no `.invert(`/`Vec::new`/`vec![`/`.to_vec()`/`.to_string()`/ |
//! |                   | `String::from`/`format!` in a hot-path region             |
//! | `hot-coverage`    | hot-path modules contain at least one hot-path region     |
//! | `wall-clock`      | no `Instant::now`/`SystemTime` outside the allowlist      |
//! | `wire-catchall`   | no fail-open `_ =>` arms in wire-format modules           |

use crate::lexer::{lex, TokKind, Token};
use crate::manifest::Manifest;
use std::fmt;

/// One finding: rule id, file, 1-based line, human message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Kebab-case rule identifier, stable across releases.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// What went wrong and how to fix it.
    pub msg: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// Region markers. `hot-path-end` must be probed before `hot-path`
/// because the latter is a prefix of the former.
const CT_BEGIN: &str = "lint: ct-begin";
const CT_END: &str = "lint: ct-end";
const HOT_END: &str = "lint: hot-path-end";
const HOT_BEGIN: &str = "lint: hot-path";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Marker {
    CtBegin,
    CtEnd,
    HotBegin,
    HotEnd,
    None,
}

fn marker_of(comment: &str) -> Marker {
    if comment.contains(CT_BEGIN) {
        Marker::CtBegin
    } else if comment.contains(CT_END) {
        Marker::CtEnd
    } else if comment.contains(HOT_END) {
        Marker::HotEnd
    } else if comment.contains(HOT_BEGIN) {
        Marker::HotBegin
    } else {
        Marker::None
    }
}

/// Rust keywords that must not be treated as value identifiers by the
/// postfix-index heuristic (`&mut [u64]` is a type, not an index).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while", "yield",
];

fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
}

/// Check one file. `rel` is the workspace-relative path with forward
/// slashes; `src` the file contents. Test modules (`#[cfg(test)] mod`)
/// are stripped first: the rules police product code, and fixtures in
/// tests would otherwise trip them.
pub fn check_file(rel: &str, src: &str, manifest: &Manifest) -> Vec<Diagnostic> {
    let toks = strip_test_mods(lex(src));
    let mut out = Vec::new();

    let in_ct_module = Manifest::matches(rel, &manifest.ct_modules);
    let in_ct_allow = Manifest::matches(rel, &manifest.ct_allow);
    let in_hot_module = Manifest::matches(rel, &manifest.hotpath_modules);

    if in_ct_module && !in_ct_allow {
        rule_ct(rel, &toks, &mut out);
    }
    if in_hot_module {
        rule_hot(rel, &toks, &mut out);
    }
    rule_unsafe(rel, src, &toks, manifest, &mut out);
    rule_wall_clock(rel, &toks, manifest, &mut out);
    if Manifest::matches(rel, &manifest.wire_modules) {
        rule_wire_catchall(rel, &toks, &mut out);
    }
    out
}

/// Drop every token inside a `#[cfg(test)] mod … { … }` body. Scans for
/// the attribute sequence `# [ cfg ( test ) ]`, then the next `mod`,
/// then brace-matches the module body.
fn strip_test_mods(toks: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0usize;
    let code: Vec<(usize, &Token)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    // Map from token index to position in `code` for the scan below.
    let mut skip_ranges: Vec<(usize, usize)> = Vec::new();
    let mut c = 0usize;
    while c + 6 < code.len() {
        let window: Vec<&TokKind> = code[c..c + 7].iter().map(|(_, t)| &t.kind).collect();
        let is_cfg_test = matches!(window[0], TokKind::Punct("#"))
            && matches!(window[1], TokKind::Punct("["))
            && matches!(window[2], TokKind::Ident(w) if w == "cfg")
            && matches!(window[3], TokKind::Punct("("))
            && matches!(window[4], TokKind::Ident(w) if w == "test")
            && matches!(window[5], TokKind::Punct(")"))
            && matches!(window[6], TokKind::Punct("]"));
        if !is_cfg_test {
            c += 1;
            continue;
        }
        // Find the item this attribute decorates; only strip `mod`s.
        let mut j = c + 7;
        // Skip further attributes (`#[…]`).
        while j < code.len() && matches!(code[j].1.kind, TokKind::Punct("#")) {
            let mut depth = 0usize;
            j += 1; // onto `[`
            while j < code.len() {
                match code[j].1.kind {
                    TokKind::Punct("[") => depth += 1,
                    TokKind::Punct("]") => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let is_mod = matches!(&code.get(j).map(|(_, t)| &t.kind), Some(TokKind::Ident(w)) if w == "mod")
            || (matches!(&code.get(j).map(|(_, t)| &t.kind), Some(TokKind::Ident(w)) if w == "pub")
                && matches!(&code.get(j + 1).map(|(_, t)| &t.kind), Some(TokKind::Ident(w)) if w == "mod"));
        if !is_mod {
            c += 1;
            continue;
        }
        // Brace-match the module body.
        let mut k = j;
        while k < code.len() && !matches!(code[k].1.kind, TokKind::Punct("{")) {
            k += 1;
        }
        let mut depth = 0usize;
        while k < code.len() {
            match code[k].1.kind {
                TokKind::Punct("{") => depth += 1,
                TokKind::Punct("}") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        skip_ranges.push((
            code[c].0,
            code.get(k).map(|(o, _)| *o).unwrap_or(usize::MAX),
        ));
        c = k.min(code.len());
    }
    while i < toks.len() {
        if skip_ranges.iter().any(|&(a, b)| i >= a && i <= b) {
            i += 1;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Rule 1: secret-independence inside `// lint: ct-begin` regions, plus
/// coverage (the module must have at least one region).
fn rule_ct(rel: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    let mut in_region = false;
    let mut seen_region = false;
    let code: Vec<&Token> = toks.iter().collect();
    let mut i = 0usize;
    while i < code.len() {
        let t = code[i];
        if let TokKind::Comment(c) = &t.kind {
            match marker_of(c) {
                Marker::CtBegin => {
                    in_region = true;
                    seen_region = true;
                }
                Marker::CtEnd => in_region = false,
                _ => {}
            }
            i += 1;
            continue;
        }
        if !in_region {
            i += 1;
            continue;
        }
        match &t.kind {
            TokKind::Ident(w) if w == "if" || w == "match" || w == "while" || w == "return" => {
                out.push(Diagnostic {
                    rule: "ct-branch",
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "`{w}` in a constant-time region: control flow must not depend on secrets \
                         (hoist the public decision outside the region or use gf2m::ct helpers)"
                    ),
                });
            }
            TokKind::Punct(p @ ("&&" | "||" | "?")) => {
                out.push(Diagnostic {
                    rule: "ct-branch",
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "short-circuit/early-exit operator `{p}` in a constant-time region"
                    ),
                });
            }
            TokKind::Punct(p @ ("/" | "%" | "/=" | "%=")) => {
                out.push(Diagnostic {
                    rule: "ct-divmod",
                    file: rel.to_string(),
                    line: t.line,
                    msg: format!(
                        "`{p}` in a constant-time region: division/remainder latency is \
                         operand-dependent on most cores"
                    ),
                });
            }
            TokKind::Punct("[") => {
                // Postfix index: previous code token is a value-ish
                // ident, `]` or `)` — and not an attribute `#[`.
                let prev = code[..i]
                    .iter()
                    .rev()
                    .find(|t| !matches!(t.kind, TokKind::Comment(_)));
                let is_index = match prev.map(|t| &t.kind) {
                    Some(TokKind::Ident(w)) => !is_keyword(w),
                    Some(TokKind::Punct("]")) | Some(TokKind::Punct(")")) => true,
                    _ => false,
                };
                if is_index {
                    // Flag only if the index expression names a variable
                    // (constant indices like `limbs[0]` are fine).
                    let mut depth = 1usize;
                    let mut j = i + 1;
                    let mut has_ident = false;
                    let mut idx_line = t.line;
                    while j < code.len() && depth > 0 {
                        match &code[j].kind {
                            TokKind::Punct("[") => depth += 1,
                            TokKind::Punct("]") => depth -= 1,
                            TokKind::Ident(w) if !is_keyword(w) => {
                                has_ident = true;
                                idx_line = code[j].line;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if has_ident {
                        out.push(Diagnostic {
                            rule: "ct-index",
                            file: rel.to_string(),
                            line: idx_line,
                            msg: "variable-indexed lookup in a constant-time region: table \
                                  lookups keyed on secrets leak through the cache (use \
                                  gf2m::ct::ct_select or a constant index)"
                                .to_string(),
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    if !seen_region {
        out.push(Diagnostic {
            rule: "ct-coverage",
            file: rel.to_string(),
            line: 1,
            msg: "module is ct-pinned in lint.toml but contains no `// lint: ct-begin` region"
                .to_string(),
        });
    }
}

/// Rule 3: no allocation or per-element inversion in hot-path regions,
/// plus coverage.
fn rule_hot(rel: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    let mut in_region = false;
    let mut seen_region = false;
    for (i, t) in toks.iter().enumerate() {
        if let TokKind::Comment(c) = &t.kind {
            match marker_of(c) {
                Marker::HotBegin => {
                    in_region = true;
                    seen_region = true;
                }
                Marker::HotEnd => in_region = false,
                _ => {}
            }
            continue;
        }
        if !in_region {
            continue;
        }
        let TokKind::Ident(w) = &t.kind else {
            continue;
        };
        // The next two code tokens, for the `Path::fn` / `macro!` forms.
        let mut next = toks[i + 1..]
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
            .map(|t| &t.kind);
        let (n1, n2) = (next.next(), next.next());
        let is = |k: Option<&TokKind>, want: &str| match k {
            Some(TokKind::Ident(x)) => x == want,
            Some(TokKind::Punct(p)) => *p == want,
            _ => false,
        };
        let msg = match w.as_str() {
            // Method position only: `.invert(`, `.to_vec(`, `.to_string(`.
            "invert" | "to_vec" | "to_string" => {
                let prev = toks[..i]
                    .iter()
                    .rev()
                    .find(|t| !matches!(t.kind, TokKind::Comment(_)));
                if !matches!(prev.map(|t| &t.kind), Some(TokKind::Punct("."))) {
                    continue;
                }
                if w == "invert" {
                    "`.invert(` in a hot-path region: per-element inversion breaks the \
                     one-inversion-per-batch contract"
                        .to_string()
                } else {
                    format!(
                        "`.{w}(` in a hot-path region: per-call allocation; reuse a buffer or \
                         keep a borrowed value"
                    )
                }
            }
            "Vec" if is(n1, "::") && (is(n2, "new") || is(n2, "with_capacity")) => {
                "`Vec` construction in a hot-path region; reuse a scratch buffer".to_string()
            }
            "String" if is(n1, "::") && is(n2, "from") => {
                "`String::from` in a hot-path region; keep a `&'static str` instead".to_string()
            }
            "vec" if is(n1, "!") && is(n2, "[") => {
                "`vec![…]` in a hot-path region; reuse a scratch buffer".to_string()
            }
            "format" if is(n1, "!") => {
                "`format!` in a hot-path region allocates a `String` per call".to_string()
            }
            _ => continue,
        };
        out.push(Diagnostic {
            rule: "hot-alloc",
            file: rel.to_string(),
            line: t.line,
            msg,
        });
    }
    if !seen_region {
        out.push(Diagnostic {
            rule: "hot-coverage",
            file: rel.to_string(),
            line: 1,
            msg: "module is hot-path-pinned in lint.toml but contains no `// lint: hot-path` \
                  region"
                .to_string(),
        });
    }
}

/// Rule 2: `unsafe` containment + SAFETY-comment adjacency. Needs the
/// raw source (as well as tokens) to know which lines carry code.
fn rule_unsafe(
    rel: &str,
    src: &str,
    toks: &[Token],
    manifest: &Manifest,
    out: &mut Vec<Diagnostic>,
) {
    let unsafe_lines: Vec<usize> = toks
        .iter()
        .filter(|t| matches!(&t.kind, TokKind::Ident(w) if w == "unsafe"))
        .map(|t| t.line)
        .collect();
    if unsafe_lines.is_empty() {
        return;
    }
    let allowed = Manifest::matches(rel, &manifest.unsafe_allow);
    if !allowed {
        for &line in &unsafe_lines {
            out.push(Diagnostic {
                rule: "unsafe-location",
                file: rel.to_string(),
                line,
                msg: "`unsafe` outside the allowlisted modules (see [unsafe] allow in lint.toml)"
                    .to_string(),
            });
        }
        // Location failures make the adjacency check redundant noise.
        return;
    }
    // Per-line code/SAFETY maps over the *token* stream, so SAFETY text
    // inside strings doesn't count and code on comment lines does.
    let nlines = src.lines().count() + 1;
    let mut has_code = vec![false; nlines + 1];
    let mut has_safety = vec![false; nlines + 1];
    // First two code-token kinds per line, to recognize attribute lines
    // (`#[…]`), which the upward walk treats as transparent: a `# Safety`
    // doc section above `#[target_feature]` still counts as adjacent.
    let mut first_two: Vec<[Option<&'static str>; 2]> = vec![[None, None]; nlines + 1];
    for t in toks {
        if t.line > nlines {
            continue;
        }
        match &t.kind {
            TokKind::Comment(c) => {
                if c.to_ascii_lowercase().contains("safety") {
                    has_safety[t.line] = true;
                }
            }
            k => {
                has_code[t.line] = true;
                let slot = &mut first_two[t.line];
                let repr = match k {
                    TokKind::Punct(p) => *p,
                    _ => "tok",
                };
                if slot[0].is_none() {
                    slot[0] = Some(repr);
                } else if slot[1].is_none() {
                    slot[1] = Some(repr);
                }
            }
        }
    }
    let is_attr_line = |l: usize| first_two[l][0] == Some("#") && first_two[l][1] == Some("[");
    for &line in &unsafe_lines {
        if line <= nlines && has_safety[line] {
            continue;
        }
        // Walk upward: pass on the first SAFETY line, fail on the first
        // code-bearing line (or the top of the file). Attribute lines
        // are transparent.
        let mut ok = false;
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if has_safety[l] {
                ok = true;
                break;
            }
            if has_code[l] && !is_attr_line(l) {
                break;
            }
            l -= 1;
        }
        if !ok {
            out.push(Diagnostic {
                rule: "unsafe-comment",
                file: rel.to_string(),
                line,
                msg: "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            });
        }
    }
}

/// Rule 4: determinism — wall clocks only in the allowlist.
fn rule_wall_clock(rel: &str, toks: &[Token], manifest: &Manifest, out: &mut Vec<Diagnostic>) {
    if Manifest::matches(rel, &manifest.determinism_allow) {
        return;
    }
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    for (i, t) in code.iter().enumerate() {
        let TokKind::Ident(w) = &t.kind else { continue };
        if w == "Instant"
            && matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct("::")))
            && matches!(
                code.get(i + 2).map(|t| &t.kind),
                Some(TokKind::Ident(m)) if m == "now"
            )
        {
            out.push(Diagnostic {
                rule: "wall-clock",
                file: rel.to_string(),
                line: t.line,
                msg: "`Instant::now()` outside the determinism allowlist: simulation and \
                      device code must stay replayable (route time through obs/invclock)"
                    .to_string(),
            });
        } else if w == "SystemTime" {
            out.push(Diagnostic {
                rule: "wall-clock",
                file: rel.to_string(),
                line: t.line,
                msg: "`SystemTime` outside the determinism allowlist".to_string(),
            });
        }
    }
}

/// Rule 5: fail-closed wire handling — a `_ =>` arm in a wire module
/// whose body produces `Ok`/`Some`/defaults is fail-open.
fn rule_wire_catchall(rel: &str, toks: &[Token], out: &mut Vec<Diagnostic>) {
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::Comment(_)))
        .collect();
    for i in 0..code.len() {
        let is_wild_arm = matches!(&code[i].kind, TokKind::Ident(w) if w == "_")
            && matches!(code.get(i + 1).map(|t| &t.kind), Some(TokKind::Punct("=>")));
        if !is_wild_arm {
            continue;
        }
        // Scan the arm body: to the `,` at depth 0, or to the `}` that
        // closes the enclosing match if this is the last arm.
        let mut depth = 0isize;
        let mut j = i + 2;
        let mut fail_open_at: Option<usize> = None;
        while j < code.len() {
            match &code[j].kind {
                TokKind::Punct("{") | TokKind::Punct("(") | TokKind::Punct("[") => depth += 1,
                TokKind::Punct("}") | TokKind::Punct(")") | TokKind::Punct("]") => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(",") if depth == 0 => break,
                TokKind::Ident(w)
                    if w == "Ok" || w == "Some" || w == "default" || w == "Default" =>
                {
                    fail_open_at.get_or_insert(code[j].line);
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(line) = fail_open_at {
            out.push(Diagnostic {
                rule: "wire-catchall",
                file: rel.to_string(),
                line,
                msg: "catch-all `_ =>` arm in a wire-format module produces a success/default \
                      value: unknown message types must be rejected, not accepted"
                    .to_string(),
            });
        }
    }
}
