//! `experiments report` on damaged exports: random truncations and
//! single-byte flips of a real `fig5` export (manifest, metrics JSONL,
//! Chrome trace) must each exit 1 with a message naming the damaged
//! file and a line or byte in it, and never panic.
//!
//! A truncation cuts strictly inside a line, so the last line is left
//! incomplete (a cut on a line boundary leaves a shorter but valid
//! file). A flip either writes a control byte, which JSON allows
//! nowhere unescaped, or sets the high bit of an ASCII byte, which
//! leaves the file invalid UTF-8.

use proptest::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The export files `report` parses for a `fig5 --metrics --trace` run.
const FILES: [&str; 3] = ["manifest.json", "fig5.metrics.jsonl", "fig5.trace.json"];

/// The checked-in reference figures the drift table compares against.
const REFS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn tmp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdmr_robust_{name}_{}", std::process::id()))
}

fn report(dir: &std::path::Path) -> Output {
    let d = dir.to_str().unwrap();
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "report",
            d,
            "--refs",
            REFS,
            "--out",
            &format!("{d}/report.md"),
        ])
        .output()
        .expect("spawn experiments binary")
}

/// The pristine export's files, generated once: `fig5 --quick`, the
/// run length the drift tolerances are sized for (node results still
/// move with run length, so a shorter run breaches the fig5 drift
/// rows). The pristine report must exit 0, so every failure below is
/// the damage's doing.
fn export() -> &'static [(&'static str, Vec<u8>)] {
    static EXPORT: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let dir = tmp_dir("export");
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["fig5", "--quick", "--metrics", d, "--trace", d])
            .output()
            .expect("spawn experiments binary");
        assert!(out.status.success(), "fig5 export failed: {out:?}");
        let clean = report(&dir);
        assert_eq!(clean.status.code(), Some(0), "pristine report: {clean:?}");
        let files = FILES
            .iter()
            .map(|&f| (f, std::fs::read(dir.join(f)).expect("exported file")))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        files
    })
}

/// Whether `msg` gives a position: "line N" or "byte N".
fn names_position(msg: &str) -> bool {
    ["line ", "byte "].iter().any(|word| {
        msg.match_indices(word)
            .any(|(i, _)| msg[i + word.len()..].starts_with(|c: char| c.is_ascii_digit()))
    })
}

/// Applies damage `kind` to `bytes`, placed by the two random draws.
fn damage(bytes: &[u8], kind: u8, at: u64, cut: u64) -> Vec<u8> {
    match kind {
        0 => {
            // Lines of at least two bytes, as (start, length) without
            // the newline; keep 1..length of the chosen one.
            let mut lines = Vec::new();
            let mut start = 0;
            for line in bytes.split(|&b| b == b'\n') {
                if line.len() >= 2 {
                    lines.push((start, line.len()));
                }
                start += line.len() + 1;
            }
            let (start, len) = lines[(at % lines.len() as u64) as usize];
            bytes[..start + 1 + (cut % (len as u64 - 1)) as usize].to_vec()
        }
        1 => {
            let mut out = bytes.to_vec();
            out[(at % bytes.len() as u64) as usize] = 0x01;
            out
        }
        _ => {
            let mut out = bytes.to_vec();
            let i = (at % bytes.len() as u64) as usize;
            assert!(out[i].is_ascii(), "exports are ASCII");
            out[i] ^= 0x80;
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_export_fails_with_file_and_position(
        file in 0usize..FILES.len(),
        kind in 0u8..3,
        at in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let files = export();
        let dir = tmp_dir("case");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (i, (name, bytes)) in files.iter().enumerate() {
            let written = if i == file { damage(bytes, kind, at, cut) } else { bytes.clone() };
            std::fs::write(dir.join(name), written).unwrap();
        }
        let out = report(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        let err = String::from_utf8_lossy(&out.stderr);
        let name = files[file].0;
        prop_assert!(!err.contains("panicked"), "{} damage {}: panicked: {}", name, kind, err);
        prop_assert_eq!(out.status.code(), Some(1), "{} damage {}: {}", name, kind, err);
        prop_assert!(
            err.contains(name) && names_position(&err),
            "{} damage {}: message lacks file or position: {}",
            name,
            kind,
            err
        );
    }
}
