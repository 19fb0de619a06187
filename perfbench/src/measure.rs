//! Measurement plumbing shared by every workload: order statistics, the
//! span/count trace the traced run fills in, on-disk byte counts, the
//! live-heap and resident-set peaks, and the machine fingerprint printed
//! with each result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its value with its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, secs(start))
}

/// Median by linear interpolation (0.0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile by linear interpolation between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let low = rank.floor() as usize;
    let high = rank.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

/// The highest percentile that still has at least `beyond` samples above
/// it: returns `(value, percentile, samples)`, or `None` when the sample is
/// too small to have such a percentile.
pub fn tail(values: &[f64], beyond: usize) -> Option<(f64, f64, usize)> {
    if values.len() <= beyond {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let index = sorted.len() - 1 - beyond;
    let percentile = 100.0 * (index + 1) as f64 / sorted.len() as f64;
    Some((sorted[index], percentile, sorted.len()))
}

/// FNV-1a digest of an output, for cheap pass-to-pass identity checks.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64 finalizer: turns the benchmark seed (and small indices mixed
/// into it) into well-spread configuration seeds.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Span durations (seconds, summed per name) and counts recorded by one
/// traced pass and its replay.
#[derive(Debug, Default)]
pub struct Trace {
    values: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_insert(0.0) += value;
    }

    /// Sets the metric `name`, replacing any earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The recorded value of `name` (0.0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (value, seconds) = timed(f);
        self.add(name, seconds);
        value
    }
}

/// Runs `f` inside span `name` when a trace is being recorded, or plainly
/// otherwise.
pub fn span<T>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match trace {
        Some(trace) => trace.span(name, f),
        None => f(),
    }
}

/// Total bytes and number of regular files under `dir` (recursively).
pub fn dir_usage(dir: &Path) -> (u64, u64) {
    let mut bytes = 0;
    let mut files = 0;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (b, f) = dir_usage(&entry.path());
            bytes += b;
            files += f;
        } else if meta.is_file() {
            bytes += meta.len();
            files += 1;
        }
    }
    (bytes, files)
}

/// Bytes as (decimal) megabytes.
pub fn mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

/// Peak resident set of this process so far, in MB (`VmHWM`), or `None`
/// where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Resets the resident-set peak (`VmHWM`) to the current resident set, so
/// the next workload of `--workload all` reports its own peak. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The benchmark's global allocator: the system allocator, which can also
/// count live heap bytes for `peak_heap_mb`. The resident-set peak of
/// identical work differs between processes by up to a fifth, because
/// glibc's per-thread arena count depends on thread timing; the live-heap
/// peak does not. Counting costs a contended atomic per allocation, which
/// slowed `figures` by three quarters, so it runs only in the untimed
/// memory pass and timed passes pay one relaxed load per call.
#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

struct CountingAlloc;

// Statistics only: they publish no other data, so relaxed ordering suffices.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

fn heap_changed(delta: isize) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if live > PEAK_BYTES.load(Ordering::Relaxed) {
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

fn signed(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees carry
// over; the counters never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            heap_changed(signed(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            heap_changed(signed(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` was allocated here with
        // `layout`, and every allocation here comes from `System`.
        unsafe { System.dealloc(ptr, layout) };
        heap_changed(-signed(layout.size()));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed through; `ptr`
        // came from `System` like every allocation here.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            heap_changed(signed(new_size) - signed(layout.size()));
        }
        moved
    }
}

/// Starts counting live heap bytes from zero: the peak then reads the most
/// heap in use at once on top of what was live at this call.
pub fn start_heap_count() {
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
}

/// Stops counting (idempotent) and returns the peak since
/// [`start_heap_count`], in MB. Every pass calls it where its timed part
/// ends, so checks after that are not counted.
pub fn stop_heap_count() -> f64 {
    COUNTING.store(false, Ordering::SeqCst);
    PEAK_BYTES.load(Ordering::Relaxed).max(0) as f64 / 1e6
}

/// Seconds since `start`, at the end of a pass's timed part.
pub fn pass_done(start: Instant) -> f64 {
    let wall = secs(start);
    stop_heap_count();
    wall
}

/// CPU time the hypervisor gave to other guests ("steal"), summed over this
/// machine's CPUs, in seconds since boot (`None` where `/proc/stat` lacks
/// it). A run whose steal grew by a noticeable share of its wall time ran
/// on a contended host.
pub fn steal_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // USER_HZ is 100 on every Linux ABI this benchmark targets.
    Some(ticks / 100.0)
}

/// What a result needs to be compared across machines: cores, compiler,
/// source revision, and the filesystem of the scratch directory holding the
/// sweep archives and daemon state (fsync cost decides `sweep-durable` and
/// `harpd-jobs`).
pub fn fingerprint(scratch: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fs = filesystem_type(scratch).unwrap_or_else(|| "unknown".to_owned());
    format!(
        "fingerprint nproc={nproc} rustc=\"{}\" git={} archive_and_state_fs={fs}",
        env!("PERFBENCH_RUSTC"),
        git_revision().unwrap_or_else(|| "unknown".to_owned()),
    )
}

/// The revision checked out in the working directory, read from `.git`
/// directly (no `git` process, and no search above the checkout).
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_owned())
    })
}

/// Filesystem type of the mount holding `path`, from the longest matching
/// mount point in `/proc/self/mountinfo`.
fn filesystem_type(path: &Path) -> Option<String> {
    let path = std::fs::canonicalize(path).ok()?;
    let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mountinfo
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount_point = fields.get(4)?;
            let separator = fields.iter().position(|&f| f == "-")?;
            let fs_type = fields.get(separator + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), (*fs_type).to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let (value, percentile, samples) = tail(&values, 10).expect("20 samples");
        assert_eq!(value, 10.0);
        assert_eq!(percentile, 50.0);
        assert_eq!(samples, 20);
        assert!(tail(&values[..10], 10).is_none());
    }
}
