//! `dvecap serve` validates its flag values before it boots anything:
//! every bad value exits with code 2 and a message naming the flag,
//! never a panic (exit code 101) and never a bound listener waiting
//! for a producer.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A scenario small enough that even an accidental boot is quick.
const NOTATION: &str = "5s-15z-120c-100cp";

/// Runs `dvecap serve` with one extra `--flag value` and returns its
/// exit code and stderr, killing it if it outlives `deadline`.
fn serve_with(flag: &str, value: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvecap"))
        .args(["serve", NOTATION, "--port", "0", flag, value])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dvecap starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("dvecap can be polled").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("dvecap exits");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_rejects_bad_flag_values_with_exit_code_2() {
    let cases = [
        ("--max-batch", "0"),
        ("--ring", "0"),
        ("--bound", "0"),
        ("--shards", "0"),
        ("--connections", "0"),
        ("--max-staleness-ms", "-1"),
        ("--max-staleness-ms", "NaN"),
        ("--max-staleness-ms", "inf"),
        ("--max-batch", "many"),
        ("--ring", "-3"),
        ("--max-staleness-ms", "soon"),
    ];
    for (flag, value) in cases {
        let (code, stderr) = serve_with(flag, value);
        assert_eq!(
            code,
            Some(2),
            "`{flag} {value}` must exit 2; stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(flag) && stderr.contains("rejected"),
            "`{flag} {value}` must be rejected by name; stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "`{flag} {value}` must not panic; stderr:\n{stderr}"
        );
    }
}
