//! `samoa-lint`'s output, pinned byte for byte: the text report, the JSON
//! document, the `--infer` table and both modes of the defective demo
//! stack, each with its exit code. The expected files under
//! `tests/golden/` are the binary's own output; a change in any diagnostic,
//! in the order they are reported or in a derived declaration shows here
//! as a diff.

use std::path::Path;
use std::process::Command;

/// Run `samoa-lint` with `args`; compare stdout with `tests/golden/<file>`
/// and the exit code with `code`.
fn pinned(args: &[&str], file: &str, code: i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_samoa-lint"))
        .args(args)
        .output()
        .expect("samoa-lint runs");
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    let want = std::fs::read_to_string(&path).expect("golden file");
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    assert_eq!(got, want, "samoa-lint {args:?} differs from {file}");
    assert_eq!(
        out.status.code(),
        Some(code),
        "samoa-lint {args:?} exit code"
    );
}

#[test]
fn proto_stack_reports() {
    pinned(&[], "samoa_lint_text.txt", 0);
    pinned(&["--format", "json"], "samoa_lint_json.txt", 0);
    pinned(&["--infer"], "samoa_lint_infer.txt", 0);
}

#[test]
fn defective_stack_trips_deny_warn() {
    pinned(
        &["--stack", "defective", "--deny", "warn"],
        "samoa_lint_defective.txt",
        1,
    );
    pinned(
        &["--stack", "defective", "--format", "json", "--deny", "warn"],
        "samoa_lint_defective_json.txt",
        1,
    );
}
