//! Shared helpers: a seeded generator, percentiles, output digests, the span
//! recorder and the metric record every workload reports.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use bgkanon::anon::AnonymizedTable;
use bgkanon::data::Table;
use bgkanon::privacy::{AuditReport, GroupView, PrivacyRequirement};

/// SplitMix64: a small, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005e_ed0f_be9c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf(s) over ranks `0..n`, rank 0 hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|c| *c < x).min(self.cdf.len() - 1)
    }
}

/// CPU time this process has run, in milliseconds: every thread, user and
/// kernel mode. The guest kernel keeps the time the hypervisor gives to
/// other guests (steal) out of this clock, so on a shared host it counts
/// the work done and not the wait for a core.
pub fn cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Seconds the hypervisor has taken the CPU this thread runs on away from
/// the guest since boot: the `steal` column of that CPU's `/proc/stat` line.
pub fn steal_s() -> Result<f64, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: neither call takes arguments it could misuse.
    let (cpu, hz) = unsafe { (sched_getcpu(), sysconf(SC_CLK_TCK)) };
    if cpu < 0 || hz <= 0 {
        return Err("cannot tell which CPU the process runs on".into());
    }
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let label = format!("cpu{cpu}");
    let ticks: f64 = stat
        .lines()
        .find_map(|l| {
            let mut fields = l.split_whitespace();
            (fields.next() == Some(label.as_str())).then(|| fields.nth(7))?
        })
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("no steal column for {label} in /proc/stat"))?;
    Ok(ticks / hz as f64)
}

/// A stopwatch that leaves out steal: wall time less the time the
/// hypervisor took the process's CPU away. The process runs on one pinned
/// CPU, so that CPU's steal is exactly the time the process lost to the
/// host. Time blocked in the kernel (an `fsync`) still counts.
pub struct Unstolen {
    wall: Instant,
    steal: f64,
}

impl Unstolen {
    pub fn start() -> Result<Self, String> {
        Ok(Unstolen {
            steal: steal_s()?,
            wall: Instant::now(),
        })
    }

    /// Seconds since `start`, and the steal left out of them.
    pub fn elapsed_s(&self) -> Result<(f64, f64), String> {
        let wall = self.wall.elapsed().as_secs_f64();
        let stolen = (steal_s()? - self.steal).clamp(0.0, wall);
        Ok((wall - stolen, stolen))
    }
}

/// Milliseconds the speed probe is taken to last on the reference host. A
/// scaled time reads as the time on a host where the probe lasts this long.
pub const PROBE_REFERENCE_MS: f64 = 5.0;

/// How often a timed loop runs the speed probe, at most.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Tracks the speed of a shared host's core through a run.
///
/// The core runs the same code in alternating phases a few seconds long,
/// one up to 1.6 times slower than the other (another guest busy on the same
/// physical core), and the share of slow phases moves from minute to
/// minute. The guest's CPU clock keeps counting through a slow phase: the
/// work is slower, not interrupted. A fixed probe of the benchmark's own,
/// timed on the same CPU clock between requests, slows with the phase, and
/// each request's CPU time is scaled by the probe's reference time over its
/// recent time. The probe is no part of the library, so a change to the
/// library moves a scaled time exactly as it moves the raw one.
pub struct HostSpeed {
    /// Every probe time, in milliseconds, oldest first.
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// A tracker primed with three probes.
    pub fn new() -> Self {
        let mut speed = HostSpeed {
            samples: Vec::new(),
            last: None,
        };
        for _ in 0..3 {
            speed.probe();
        }
        speed
    }

    /// Fill a fresh buffer with pseudo-random words and sort it: fresh-memory
    /// writes, branchy compares and cache-resident passes, the mix the
    /// publishing stack spends its time on. Of the kernels tried, its time
    /// followed the slow phases most closely.
    pub fn probe(&mut self) {
        let t = cpu_ms();
        let mut rng = Rng::new(self.samples.len() as u64);
        let mut v: Vec<u64> = (0..200_000).map(|_| rng.next_u64()).collect();
        v.sort_unstable();
        std::hint::black_box(v[v.len() / 2]);
        self.samples.push(cpu_ms() - t);
        self.last = Some(Instant::now());
    }

    /// Run the probe if [`PROBE_EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            self.probe();
        }
    }

    /// What a CPU time measured just before now is multiplied by: the
    /// reference time over the median of the last three probes.
    pub fn scale(&self) -> f64 {
        PROBE_REFERENCE_MS / median(&self.samples[self.samples.len().saturating_sub(3)..])
    }

    /// Milliseconds spent probing.
    pub fn spent_ms(&self) -> f64 {
        self.samples.iter().sum()
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.samples)
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples a percentile needs: at least ten must lie beyond it.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| n >= (q * n as f64).ceil() as usize + 10)
        .expect("some sample count leaves ten beyond any q < 1")
}

/// Nearest-rank percentile, or `None` when fewer than ten samples lie
/// beyond it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    if n < samples_needed(q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a publication: every group's rows, ranges and sensitive counts.
pub fn digest_publication(anonymized: &AnonymizedTable) -> u64 {
    let mut h = FNV_BASIS;
    for g in anonymized.groups() {
        h = fold(h, g.rows.len() as u64);
        for &r in &g.rows {
            h = fold(h, r as u64);
        }
        for q in &g.ranges {
            h = fold(h, (u64::from(q.min) << 32) | u64::from(q.max));
        }
        for &c in &g.sensitive_counts {
            h = fold(h, u64::from(c));
        }
    }
    h
}

/// Digest of an audit report: every risk's bits plus the summary.
pub fn digest_risks(report: &AuditReport) -> u64 {
    let mut h = fold(FNV_BASIS, report.worst_case.to_bits());
    h = fold(h, report.mean.to_bits());
    h = fold(h, report.vulnerable as u64);
    for r in &report.risks {
        h = fold(h, r.to_bits());
    }
    h
}

/// Digest of a table's codes, row by row.
pub fn digest_table(table: &Table) -> u64 {
    let mut h = fold(FNV_BASIS, table.len() as u64);
    let mut qi = Vec::with_capacity(table.qi_count());
    for r in 0..table.len() {
        table.qi_into(r, &mut qi);
        for &c in &qi {
            h = fold(h, u64::from(c));
        }
        h = fold(h, u64::from(table.sensitive_value(r)));
    }
    h
}

/// Groups whose stamp is new in `next`, and the rows they hold: the
/// partition a delta dirtied, counted from the outside.
pub fn dirty_from_stamps(prev: &[u64], next: &[u64], anonymized: &AnonymizedTable) -> (u64, u64) {
    let old: std::collections::HashSet<u64> = prev.iter().copied().collect();
    let mut groups = 0;
    let mut rows = 0;
    for (stamp, group) in next.iter().zip(anonymized.groups()) {
        if !old.contains(stamp) {
            groups += 1;
            rows += group.rows.len() as u64;
        }
    }
    (groups, rows)
}

/// Does the whole table satisfy `requirement`? The check the hub runs on
/// every delta before it refreshes the strategy.
pub fn satisfies_whole(table: &Table, requirement: &dyn PrivacyRequirement) -> bool {
    let all_rows: Vec<usize> = (0..table.len()).collect();
    let mut buf = Vec::new();
    requirement.is_satisfied(&GroupView::compute(table, &all_rows, &mut buf))
}

/// Identity of a file version: inode and length. A checkpoint is written to
/// a temporary file and renamed into place, so every write gets a new inode.
pub fn file_version(path: &Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::metadata(path).ok().map(|m| (m.ino(), m.len()))
}

pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// One recorded span: a layer call made by the benchmark on behalf of one op.
struct Span {
    op: usize,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as span `name` of op `op`.
    pub fn span<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.origin.elapsed().as_secs_f64() * 1e6;
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            op,
            name,
            start_us: start,
            end_us: end,
        });
        out
    }

    /// Total milliseconds of span `name` in op `op`.
    pub fn op_stage_ms(&self, op: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op && s.name == name)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// Total milliseconds of every span of op `op`.
    pub fn op_sum_ms(&self, op: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == op)
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// Per-op totals of span `name`, for the ops that recorded it.
    pub fn stage_samples(&self, name: &str) -> Vec<f64> {
        let mut by_op: std::collections::BTreeMap<usize, f64> = Default::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_default() += (s.end_us - s.start_us) / 1e3;
        }
        by_op.into_values().collect()
    }

    /// Write every span as one JSON line (`op`, `name`, `parent`, start and
    /// end in microseconds since the recorder was created).
    pub fn write_jsonl(&self, path: &Path, parent: &str) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        }
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"op\": {}, \"name\": \"{}\", \"parent\": \"{parent}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
                s.op, s.name, s.start_us, s.end_us
            ));
        }
        let mut file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("write {path:?}: {e}"))
    }
}

/// One reported metric: its value, unit and how many samples it summarises.
/// `exact` marks a count that must repeat bit for bit for a given seed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub exact: bool,
}

impl Metric {
    pub fn timed(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            exact: false,
        }
    }

    pub fn count(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            exact: true,
        }
    }
}

/// The percentile every latency metric reports. The probe follows the slow
/// phases of a shared core only in part (see [`HostSpeed`]), so scaled times
/// still run high in them; a low percentile lies in the fast phases whenever
/// they hold a tenth of a run, and moves less with their share than the
/// median does.
pub const LATENCY_QUANTILE: f64 = 0.1;

/// The `{prefix}_scaled_p10_ms` metric: the [`LATENCY_QUANTILE`] of one
/// population of per-request CPU milliseconds, each scaled to the reference
/// host speed. Fails when the population is too small for the percentile to
/// be reported.
pub fn latency_metrics(out: &mut Vec<Metric>, prefix: &str, values: &[f64]) -> Result<(), String> {
    let name = format!("{prefix}_scaled_p10_ms");
    let v = percentile(values, LATENCY_QUANTILE).ok_or_else(|| {
        format!(
            "{name} needs {} samples, the run collected {}",
            samples_needed(LATENCY_QUANTILE),
            values.len()
        )
    })?;
    out.push(Metric::timed(&name, v, "ms", values.len()));
    Ok(())
}
