//! The `apcm` binary rejects flags its subcommand does not read instead
//! of silently running with defaults.

use std::process::Command;

fn apcm(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_apcm"))
        .args(args)
        .output()
        .expect("running apcm");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn serve_rejects_unknown_flags() {
    // The removed I/O-model, snapshot-format and engine switches and a
    // misspelt `--shards` all fail before anything binds.
    for (flag, value) in [
        ("io-model", "threads"),
        ("snapshot-format", "text"),
        ("engine", "scan"),
        ("shard", "4"),
    ] {
        let (ok, stderr) = apcm(&["serve", &format!("--{flag}"), value]);
        assert!(!ok, "serve --{flag} {value} should fail");
        assert!(
            stderr.contains(&format!("error: unknown flag --{flag} for serve")),
            "{stderr}"
        );
    }
}
