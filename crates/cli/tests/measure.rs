//! `resyn measure` run as a process: a program that does not terminate is
//! reported as one the tool could not run, not as a crash.

use std::process::Command;

#[test]
fn measuring_a_diverging_program_fails_with_a_message() {
    let program = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("diverging_append.re");
    std::fs::write(&program, r"fix append xs. \ys. append xs ys").unwrap();
    let problem = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/problems/append.re"
    );
    let output = Command::new(env!("CARGO_BIN_EXE_resyn"))
        .arg("measure")
        .arg(problem)
        .arg(&program)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("could not run the program for goal `append` on a size-4 input"),
        "stderr: {stderr}"
    );
}
