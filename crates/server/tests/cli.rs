//! The `spe_server` command line, run as an operator runs it.

use std::process::Command;

/// A flag `serve` does not read, misspelt or removed like
/// `--max-delay-ms`, fails with the usage text before anything starts.
#[test]
fn serve_rejects_unknown_flags_with_the_usage_text() {
    for flag in ["--max-delay-ms", "--bogus-flag"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spe_server"))
            .args(["serve", "--features", "30", "--model", "fraud=missing.spe"])
            .args(["--addr", "127.0.0.1:0", flag, "2"])
            .output()
            .unwrap_or_else(|e| panic!("{e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} was accepted: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")) && stderr.contains("usage:"),
            "{flag}: {stderr}"
        );
    }
}
