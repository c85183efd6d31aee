//! The host fingerprint recorded beside every result, so two ledger
//! entries are compared only when they come from comparable machines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use sketches_serve::Json;

use crate::stats::median;

fn trimmed(text: std::io::Result<String>) -> Json {
    text.map_or(Json::Null, |t| Json::Str(t.trim().to_string()))
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (mount, fs) = (fields.nth(1)?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs.to_string())
}

/// Median of 200 small write + `fdatasync` pairs in `dir`, microseconds.
/// A tmpfs or a lying disk reads near zero here, and every durable
/// number from that host is then the sandbox's, not a device's.
fn fdatasync_probe_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fdatasync.probe");
    let mut file = std::fs::File::create(&path)?;
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        file.write_all(&[0u8; 64])?;
        file.sync_data()?;
        samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

pub fn fingerprint(scratch: &Path) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).into_owned());
    Json::Obj(vec![
        ("nproc".to_string(), Json::U64(nproc)),
        ("rustc".to_string(), trimmed(rustc)),
        (
            "kernel".to_string(),
            trimmed(std::fs::read_to_string("/proc/sys/kernel/osrelease")),
        ),
        (
            "scratch_filesystem".to_string(),
            filesystem_of(scratch).map_or(Json::Null, Json::Str),
        ),
        (
            "fdatasync_median_us".to_string(),
            fdatasync_probe_us(scratch).map_or(Json::Null, Json::F64),
        ),
    ])
}
