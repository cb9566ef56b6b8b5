//! Known-bad fixtures: one per rule, proving each rule actually fires
//! and reports the exact rule id — the linter's own regression gate.
//!
//! Snippets are fed to `check_file` as in-memory strings under paths
//! chosen to match the fixture manifest, so nothing here is visible to
//! the real workspace scan (which also skips `tests/` directories).

use medsec_lint::{check_file, Manifest};

fn manifest() -> Manifest {
    Manifest::parse(
        r#"
[ct]
modules = ["crates/dev/src/ct_pinned.rs"]
allow = ["crates/gf2m/src/ct.rs"]

[unsafe]
allow = ["crates/dev/src/unsafe_ok.rs"]

[determinism]
allow = ["crates/obs/"]

[wire]
modules = ["crates/dev/src/wire.rs"]

[hotpath]
modules = ["crates/dev/src/hot.rs"]
"#,
    )
    .expect("fixture manifest parses")
}

/// Rule ids fired by a snippet under a given path.
fn rules_for(rel: &str, src: &str) -> Vec<&'static str> {
    check_file(rel, src, &manifest())
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn secret_branch_fires_ct_branch() {
    let src = r#"
pub fn step(bit: bool, a: u64, b: u64) -> u64 {
    // lint: ct-begin
    if bit { a } else { b }
    // lint: ct-end
}
"#;
    let rules = rules_for("crates/dev/src/ct_pinned.rs", src);
    assert!(rules.contains(&"ct-branch"), "got {rules:?}");
}

#[test]
fn short_circuit_fires_ct_branch() {
    let src = r#"
pub fn bad(a: bool, b: bool) -> bool {
    // lint: ct-begin
    let c = a && b;
    // lint: ct-end
    c
}
"#;
    assert!(rules_for("crates/dev/src/ct_pinned.rs", src).contains(&"ct-branch"));
}

#[test]
fn secret_table_lookup_fires_ct_index() {
    let src = r#"
pub fn lookup(table: &[u64], k: usize) -> u64 {
    // lint: ct-begin
    let v = table[k];
    // lint: ct-end
    v
}
"#;
    let rules = rules_for("crates/dev/src/ct_pinned.rs", src);
    assert!(rules.contains(&"ct-index"), "got {rules:?}");
}

#[test]
fn constant_index_is_allowed() {
    let src = r#"
pub fn first(limbs: &[u64; 5]) -> u64 {
    // lint: ct-begin
    let v = limbs[0];
    // lint: ct-end
    v
}
"#;
    assert_eq!(
        rules_for("crates/dev/src/ct_pinned.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn division_fires_ct_divmod() {
    let src = r#"
pub fn bad(a: u64, b: u64) -> u64 {
    // lint: ct-begin
    let q = a / b;
    // lint: ct-end
    q
}
"#;
    let rules = rules_for("crates/dev/src/ct_pinned.rs", src);
    assert!(rules.contains(&"ct-divmod"), "got {rules:?}");
}

#[test]
fn missing_region_fires_ct_coverage() {
    let src = "pub fn plain() {}\n";
    assert_eq!(
        rules_for("crates/dev/src/ct_pinned.rs", src),
        ["ct-coverage"]
    );
}

#[test]
fn masked_arithmetic_passes_ct_rules() {
    // The shape the ladder actually uses: straight-line masked swaps.
    let src = r#"
pub fn swap(mask: u64, a: &mut u64, b: &mut u64) {
    // lint: ct-begin
    let t = mask & (*a ^ *b);
    *a ^= t;
    *b ^= t;
    // lint: ct-end
}
"#;
    assert_eq!(
        rules_for("crates/dev/src/ct_pinned.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn unsafe_without_safety_comment_fires() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    unsafe { p.read() }
}
"#;
    let rules = rules_for("crates/dev/src/unsafe_ok.rs", src);
    assert_eq!(rules, ["unsafe-comment"]);
}

#[test]
fn unsafe_with_safety_comment_passes() {
    let src = r#"
pub fn read(p: *const u64) -> u64 {
    // SAFETY: caller guarantees p is valid and aligned.
    unsafe { p.read() }
}
"#;
    assert_eq!(
        rules_for("crates/dev/src/unsafe_ok.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn safety_doc_above_attribute_passes() {
    let src = r#"
/// Does a thing.
///
/// # Safety
/// CPU feature must be detected.
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn widen(a: u64) -> u64 {
    a
}
"#;
    assert_eq!(
        rules_for("crates/dev/src/unsafe_ok.rs", src),
        Vec::<&str>::new()
    );
}

#[test]
fn unsafe_outside_allowlist_fires_location() {
    let src = r#"
pub fn sneaky(p: *const u64) -> u64 {
    // SAFETY: a comment does not make the location acceptable.
    unsafe { p.read() }
}
"#;
    let rules = rules_for("crates/dev/src/elsewhere.rs", src);
    assert_eq!(rules, ["unsafe-location"]);
}

#[test]
fn hot_path_vec_macro_fires_hot_alloc() {
    let src = r#"
pub fn wave(n: usize) -> usize {
    // lint: hot-path
    let scratch = vec![0u8; n];
    // lint: hot-path-end
    scratch.len()
}
"#;
    let rules = rules_for("crates/dev/src/hot.rs", src);
    assert!(rules.contains(&"hot-alloc"), "got {rules:?}");
}

#[test]
fn hot_path_vec_new_and_to_vec_and_invert_fire() {
    let src = r#"
pub fn wave(xs: &[u64]) -> Vec<u64> {
    // lint: hot-path
    let mut out = Vec::new();
    let copy = xs.to_vec();
    let z = x.invert();
    // lint: hot-path-end
    out
}
"#;
    let rules = rules_for("crates/dev/src/hot.rs", src);
    assert_eq!(
        rules.iter().filter(|r| **r == "hot-alloc").count(),
        3,
        "got {rules:?}"
    );
}

#[test]
fn hot_path_to_string_fires_hot_alloc() {
    let src = r#"
pub fn book(name: &str, log: &mut Vec<String>) {
    // lint: hot-path
    log.push(name.to_string());
    // lint: hot-path-end
}
"#;
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), ["hot-alloc"]);
}

#[test]
fn hot_path_string_from_fires_hot_alloc() {
    let src = r#"
pub fn book(name: &str) -> String {
    // lint: hot-path
    let owned = String::from(name);
    // lint: hot-path-end
    owned
}
"#;
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), ["hot-alloc"]);
}

#[test]
fn hot_path_format_fires_hot_alloc() {
    let src = r#"
pub fn book(blocks: u64) -> String {
    // lint: hot-path
    let label = format!("{blocks} blocks");
    // lint: hot-path-end
    label
}
"#;
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), ["hot-alloc"]);
}

#[test]
fn hot_path_string_lookalikes_pass() {
    // A `to_string` that is not a method call, a `String` path that does
    // not allocate, and a non-macro `format` stay legal.
    let src = r#"
pub fn book(format: u8, to_string: u8) -> (String, u8) {
    // lint: hot-path
    let s = String::new();
    let n = format + to_string;
    // lint: hot-path-end
    (s, n)
}
"#;
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), Vec::<&str>::new());
}

#[test]
fn hot_path_reuse_passes() {
    let src = r#"
pub fn wave(scratch: &mut Vec<u64>, n: usize) {
    // lint: hot-path
    scratch.clear();
    scratch.extend(0..n as u64);
    // lint: hot-path-end
}
"#;
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), Vec::<&str>::new());
}

#[test]
fn missing_hot_region_fires_hot_coverage() {
    let src = "pub fn plain() {}\n";
    assert_eq!(rules_for("crates/dev/src/hot.rs", src), ["hot-coverage"]);
}

#[test]
fn instant_now_fires_wall_clock() {
    let src = r#"
use std::time::Instant;
pub fn stamp() -> Instant {
    Instant::now()
}
"#;
    let rules = rules_for("crates/dev/src/sim.rs", src);
    assert_eq!(rules, ["wall-clock"]);
}

#[test]
fn system_time_fires_wall_clock() {
    let src = r#"
pub fn stamp() -> std::time::SystemTime {
    std::time::SystemTime::now()
}
"#;
    let rules = rules_for("crates/dev/src/sim.rs", src);
    assert!(rules.contains(&"wall-clock"));
}

#[test]
fn allowlisted_module_may_read_clocks() {
    let src = "pub fn stamp() -> std::time::Instant { std::time::Instant::now() }\n";
    assert_eq!(rules_for("crates/obs/src/ring.rs", src), Vec::<&str>::new());
}

#[test]
fn fail_open_catchall_fires_wire_catchall() {
    let src = r#"
pub fn dispatch(ty: MsgType) -> Result<(), DecodeError> {
    match ty {
        MsgType::DeviceHello => handle(),
        _ => Ok(()),
    }
}
"#;
    let rules = rules_for("crates/dev/src/wire.rs", src);
    assert_eq!(rules, ["wire-catchall"]);
}

#[test]
fn fail_closed_catchall_passes() {
    let src = r#"
pub fn dispatch(ty: u8) -> Result<(), DecodeError> {
    match ty {
        0x01 => handle(),
        _ => Err(DecodeError::UnknownType(ty)),
    }
}
"#;
    assert_eq!(rules_for("crates/dev/src/wire.rs", src), Vec::<&str>::new());
}

#[test]
fn test_modules_are_exempt() {
    // A #[cfg(test)] mod full of violations must not trip the scan:
    // the rules police product code.
    let src = r#"
pub fn product() {}

#[cfg(test)]
mod tests {
    pub fn helper(bit: bool, table: &[u64], k: usize) -> u64 {
        // lint: ct-begin
        if bit { table[k] } else { 0 }
        // lint: ct-end
    }
}
"#;
    let rules = rules_for("crates/dev/src/hot.rs", src);
    // Only the coverage rule (no product hot-path region) remains.
    assert_eq!(rules, ["hot-coverage"]);
}

#[test]
fn diagnostics_carry_file_and_line() {
    let src = "\n\npub fn stamp() { let _ = std::time::Instant::now(); }\n";
    let diags = check_file("crates/dev/src/sim.rs", src, &manifest());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/dev/src/sim.rs");
    assert_eq!(diags[0].line, 3);
    let shown = diags[0].to_string();
    assert!(
        shown.contains("crates/dev/src/sim.rs:3: [wall-clock]"),
        "{shown}"
    );
}
