//! Workspace discovery: which crates exist, what kind each is, and which
//! `.rs` files belong to each.

use std::fs;
use std::path::{Path, PathBuf};

/// How a crate is policed. See [`crate::rules`] for the kind → rule map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrateKind {
    /// A published sketch library: every rule applies.
    Library,
    /// The experiment/benchmark harness: timing and unwraps are its job;
    /// no rule applies.
    Bench,
    /// Developer tooling (this linter): the panic-boundary and concurrency
    /// rules apply, but not the sketch-determinism rule (L1).
    Tool,
}

/// One workspace crate: its name, kind, root dir, and source files.
#[derive(Debug, Clone)]
pub struct WorkspaceCrate {
    /// Directory name under `crates/` (e.g. `frequency`).
    pub name: String,
    /// Policing category.
    pub kind: CrateKind,
    /// Absolute crate directory.
    pub dir: PathBuf,
    /// All `.rs` files under `src/`, sorted for stable output.
    pub sources: Vec<PathBuf>,
}

/// Classifies a crate directory name.
#[must_use]
pub fn classify(name: &str) -> CrateKind {
    match name {
        "bench" => CrateKind::Bench,
        "lint" => CrateKind::Tool,
        _ => CrateKind::Library,
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}

/// Enumerates the crates under `<root>/crates/`, with their sources.
///
/// # Errors
/// Returns an error when the `crates/` directory cannot be read.
pub fn discover(root: &Path) -> std::io::Result<Vec<WorkspaceCrate>> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let dir = entry.path();
        if !dir.is_dir() || !dir.join("Cargo.toml").is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let src = dir.join("src");
        let mut sources = Vec::new();
        if src.is_dir() {
            collect_rs(&src, &mut sources)?;
        }
        sources.sort();
        out.push(WorkspaceCrate {
            kind: classify(&name),
            name,
            dir,
            sources,
        });
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

/// Strips `root` from `path` for readable findings.
#[must_use]
pub fn relative<'a>(root: &Path, path: &'a Path) -> &'a Path {
    path.strip_prefix(root).unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(classify("bench"), CrateKind::Bench);
        assert_eq!(classify("lint"), CrateKind::Tool);
        assert_eq!(classify("frequency"), CrateKind::Library);
    }

    #[test]
    fn discovers_this_workspace() {
        let root = find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
        let crates = discover(&root).expect("readable crates dir");
        let names: Vec<&str> = crates.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"core"));
        assert!(names.contains(&"lint"));
        let core = crates.iter().find(|c| c.name == "core").expect("core");
        assert!(core.sources.contains(&core.dir.join("src/lib.rs")));
    }
}
