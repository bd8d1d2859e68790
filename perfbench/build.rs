//! Records the compiler version, the git revision and a digest of the
//! library sources into the binary, for the host record printed with
//! every result. The digest identifies the measured code where the
//! checkout carries no git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository paths whose contents make up the measured library.
const SOURCES: [&str; 5] = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"];

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = stdout_of(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.as_deref().unwrap_or("unknown")
    );

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    // Only the checkout's own metadata: a copy nested in some other
    // repository must not report that repository's revision.
    let rev = root
        .join(".git")
        .exists()
        .then(|| {
            stdout_of(
                Command::new("git")
                    .arg("-C")
                    .arg(&root)
                    .args(["rev-parse", "HEAD"]),
            )
        })
        .flatten();
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("unknown")
    );
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={:016x}",
        source_digest(&root)
    );

    println!("cargo:rerun-if-changed=build.rs");
    for path in SOURCES
        .iter()
        .map(|s| root.join(s))
        .chain([root.join(".git/HEAD"), root.join(".git/index")])
    {
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.trim().to_owned()).filter(|t| !t.is_empty())
}

/// FNV-1a over the relative path and the bytes of every file under
/// [`SOURCES`], in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for source in SOURCES {
        collect(&root.join(source), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let name = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in name.bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect(path: &Path, files: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect(&entry.path(), files);
        }
    } else if path.is_file() {
        files.push(path.to_path_buf());
    }
}
