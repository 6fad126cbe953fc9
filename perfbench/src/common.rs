//! Pieces every workload shares: the run's arguments and result, the
//! metric names `BENCHMARK.json` declares, summary statistics, seeded
//! randomness, and memory readings.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reordd::Json;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, `(name, unit)`. Every workload reports every one;
/// README.md says what each means on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("geomean_ms", "ms"),
    ("compiled.geomean_ms", "ms"),
    ("calls_ratio", "ratio"),
    ("out_kb", "kB"),
    ("miss.p50_ms", "ms"),
    ("miss.p90_ms", "ms"),
    ("slo_ok", "share"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics left out of the benchmark because they would not
/// repeat, and why; the steadiness report prints this.
pub const DROPPED: &str = "dropped end-to-end metrics: hit.p50_ms and hit.p90_ms (a serve \
                           hit is a few milliseconds of system calls and wake-ups across \
                           two processes, and the host's cost for those moved its median \
                           by 45% from one quarter-hour to the next while compute speed \
                           held; the traced run still reports both)";

/// The programs the `query` workload runs, in corpus order. Each one has
/// a row of per-program engine metrics.
pub const QUERY_PROGRAMS: &[&str] = &["family", "corporate", "kmbench", "p58", "meal", "team"];

/// Per-layer metrics of the traced run, `(name, unit)`, without the
/// per-program engine rows (see [`per_layer`]). A workload that never
/// enters a layer reports 0 for it. `hit.p50_ms` and `hit.p90_ms` are
/// here rather than end to end: see [`DROPPED`].
const LAYER_METRICS: &[(&str, &str)] = &[
    ("hit.p50_ms", "ms"),
    ("hit.p90_ms", "ms"),
    ("syntax.parse_ms", "ms"),
    ("syntax.parse_mb_per_s", "MB/s"),
    ("syntax.emit_ms", "ms"),
    ("syntax.emit_mb_per_s", "MB/s"),
    ("analysis.declarations_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.recursion_ms", "ms"),
    ("analysis.fixity_ms", "ms"),
    ("analysis.semifixity_ms", "ms"),
    ("core.oracle_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.planning_ms", "ms"),
    ("core.reordering_ms", "ms"),
    ("core.emission_ms", "ms"),
    ("core.orders_explored", "count"),
    ("core.orders_rejected", "count"),
    ("core.estimate_hit_ratio", "ratio"),
    ("core.mode_hit_ratio", "ratio"),
    ("markov.chain_evals", "count"),
    ("markov.chain_hit_ratio", "ratio"),
    ("core.versions", "count"),
    ("core.out_clauses", "count"),
    ("engine.load_ms", "ms"),
    ("engine.first_query_ms", "ms"),
    ("engine.interp_ms", "ms"),
    ("engine.compiled_ms", "ms"),
    ("engine.calls_per_ms", "1/ms"),
    ("engine.user_calls", "count"),
    ("engine.builtin_calls", "count"),
    ("engine.unifications", "count"),
    ("engine.builtin_share", "ratio"),
    ("server.encode_us", "us"),
    ("server.decode_us", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.hit_ms", "ms"),
    ("server.cold_ms", "ms"),
    ("server.queue_peak", "count"),
    ("server.hits", "count"),
    ("server.disk_hits", "count"),
    ("server.misses", "count"),
    ("server.coalesced", "count"),
    ("server.evictions", "count"),
    ("server.shed", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.store_appends", "count"),
    ("loadgen.late_p90_ms", "ms"),
    ("loadgen.max_outstanding", "count"),
    ("trace.overhead_pct", "%"),
];

/// Columns of the per-program engine rows: `engine.<program>.<column>`.
const ENGINE_ROW_METRICS: &[(&str, &str)] = &[
    ("interp_ms", "ms"),
    ("compiled_ms", "ms"),
    ("calls_per_ms", "1/ms"),
];

/// Every per-layer metric, `(name, unit)`, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for program in QUERY_PROGRAMS {
        for (column, unit) in ENGINE_ROW_METRICS {
            all.push((format!("engine.{program}.{column}"), *unit));
        }
    }
    all
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Steadiness report: repeat the run this many times (0 = one run).
    pub repeat: usize,
}

impl Args {
    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

/// What one run prints as its last line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any one makes the run incorrect.
    pub errors: Vec<String>,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The result line. With `trace` off it carries every end-to-end
    /// metric; with `trace` on every per-layer metric, 0 for layers the
    /// workload does not enter. A run that failed a check may stop before
    /// it measures everything and carries what it has; in a run that
    /// passed, a missing end-to-end value is a bug in the workload and
    /// panics.
    pub fn to_json(&self, trace: bool) -> String {
        let metric = |name: &str, value: f64, unit: &str| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".to_string(), Json::Num(value)),
                    ("unit".to_string(), Json::Str(unit.to_string())),
                ]),
            )
        };
        let metrics = if trace {
            per_layer()
                .iter()
                .map(|(name, unit)| {
                    metric(name, self.values.get(name).copied().unwrap_or(0.0), unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|(name, unit)| match self.values.get(*name) {
                    Some(value) => Some(metric(name, *value, unit)),
                    None if !self.correct() => None,
                    None => panic!("workload did not measure {name}"),
                })
                .collect()
        };
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Num(self.attempted as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .encode()
    }
}

/// A seeded generator for one purpose of one run: `stream` separates the
/// draws of different purposes so that adding one does not shift another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Nearest-rank quantile of unsorted samples; `q` in `(0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The middle value, or the mean of the two middle values.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Operation times of one kind of operation whose inputs differ in
/// size.
///
/// `p50` is the geometric mean, over inputs, of each input's median.
/// `p90` scales that by the 90th percentile, over every operation of the
/// kind, of the operation's time divided by its own input's median: a
/// tail over operations of one kind, with enough samples behind it even
/// when each input has few, and not a tail made of the largest inputs.
#[derive(Debug, Default)]
pub struct KindTimes {
    per_input: BTreeMap<String, Vec<f64>>,
}

impl KindTimes {
    pub fn record(&mut self, input: &str, ms: f64) {
        self.per_input
            .entry(input.to_string())
            .or_default()
            .push(ms);
    }

    fn input_medians(&self) -> Vec<f64> {
        self.per_input.values().map(|s| median(s)).collect()
    }

    pub fn p50(&self) -> f64 {
        geomean(&self.input_medians())
    }

    pub fn p90(&self) -> f64 {
        let relative: Vec<f64> = self
            .per_input
            .values()
            .flat_map(|samples| {
                let mid = median(samples);
                samples.iter().map(move |s| s / mid)
            })
            .collect();
        self.p50() * quantile(&relative, 0.9)
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer values of a traced run: one value per traced pass (or
/// phase), reported as their median.
#[derive(Debug, Default)]
pub struct LayerLog {
    values: BTreeMap<String, Vec<f64>>,
}

impl LayerLog {
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    pub fn report(&self, outcome: &mut Outcome) {
        for (name, values) in &self.values {
            outcome.set(name, median(values));
        }
    }
}

/// Sums over one traced pass, from which the pass's per-layer values
/// are derived.
#[derive(Debug, Default)]
pub struct PassSums {
    sums: BTreeMap<String, f64>,
}

impl PassSums {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Binds the calling thread, and every thread or process it starts
/// afterwards, to the highest-numbered CPU it may run on. On the shared
/// virtual machine the benchmark was defined on, a thread that moves
/// between virtual CPUs runs up to half again as slowly, by an amount
/// that swings with the host's load.
pub fn pin_to_one_cpu() {
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable cpu_set_t of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return;
    }
    let Some(cpu) = (0..size * 8)
        .rev()
        .find(|c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
    else {
        return;
    };
    let mut only = CpuSet([0; 16]);
    only.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a valid cpu_set_t of `size` bytes naming one CPU
    // the thread is already allowed on; pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, size, &only);
    }
}

/// The reference kernel's time, in ms, on the 2-core x86-64 virtual
/// machine the benchmark was defined on.
const KERNEL_NOMINAL_MS: f64 = 1.0;
/// Samples of the machine's speed within this distance of an operation
/// scale it.
const SPEED_WINDOW: Duration = Duration::from_millis(1500);
/// Kernel runs a burst sample keeps.
const BURST: usize = 3;
/// Fewest samples a scale factor rests on.
const SPEED_MIN_SAMPLES: usize = 3;

/// A fixed computation of the benchmark's own: allocation, hashing and
/// sorting, the kinds of work the system does, but none of its code.
fn reference_kernel() -> usize {
    let mut map = std::collections::HashMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..5_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 12_500, vec![i; (x % 8) as usize]);
    }
    let mut entries: Vec<_> = map.into_iter().collect();
    entries.sort();
    std::hint::black_box(entries.len())
}

/// How fast the machine runs, over time.
///
/// The virtual machine the benchmark was defined on shares its host, and
/// its speed moves by a third from one minute to the next while nothing
/// in the guest changes. The meter times a fixed kernel of the
/// benchmark's own between operations; every closed-loop and set-up time
/// the benchmark reports is multiplied by the speed measured around it
/// (the kernel's nominal time over its measured time, the median of the
/// samples within [`SPEED_WINDOW`]), which cancels most of that drift.
/// README.md gives the rule.
#[derive(Debug, Default)]
pub struct SpeedMeter {
    samples: Vec<(Instant, f64)>,
}

impl SpeedMeter {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        let (_, t) = timed(reference_kernel);
        self.samples.push((Instant::now(), KERNEL_NOMINAL_MS / t));
    }

    /// Times the kernel several times back to back and keeps the median of
    /// all but the first as one sample: the first run after the thread
    /// slept measures the CPU waking up, not its speed.
    pub fn sample_burst(&mut self) {
        reference_kernel();
        let times: Vec<f64> = (0..BURST).map(|_| timed(reference_kernel).1).collect();
        self.samples
            .push((Instant::now(), KERNEL_NOMINAL_MS / median(&times)));
    }

    /// Samples unless the last sample is younger than `every`.
    pub fn sample_every(&mut self, every: Duration) {
        if self
            .samples
            .last()
            .is_none_or(|(at, _)| at.elapsed() >= every)
        {
            self.sample();
        }
    }

    /// The scale factor for an operation at `at`.
    pub fn factor_at(&self, at: Instant) -> f64 {
        assert!(!self.samples.is_empty(), "no speed samples");
        let distance = |t: Instant| if t > at { t - at } else { at - t };
        let mut near: Vec<(Duration, f64)> = self
            .samples
            .iter()
            .map(|&(t, f)| (distance(t), f))
            .collect();
        near.sort_by_key(|&(d, _)| d);
        let within = near.iter().filter(|(d, _)| *d <= SPEED_WINDOW).count();
        let take = within.max(SPEED_MIN_SAMPLES).min(near.len());
        median(&near[..take].iter().map(|&(_, f)| f).collect::<Vec<_>>())
    }
}

/// How often a closed loop samples the machine's speed.
pub const SPEED_EVERY: Duration = Duration::from_millis(100);

/// One timed operation of a closed loop, as measured.
pub struct Op {
    /// Which kind of operation (see each workload).
    pub kind: usize,
    pub input: String,
    pub traced: bool,
    pub pass: usize,
    /// Checked correct.
    pub ok: bool,
    pub ms: f64,
    pub at: Instant,
}

/// A closed loop's operations, each scaled by the machine's speed around
/// it.
pub struct LoopSummary {
    /// Untraced operations by kind, and of every kind.
    pub kinds: Vec<KindTimes>,
    pub all: KindTimes,
    /// Untraced operations and their total time.
    pub ops: u64,
    pub total_ms: f64,
    /// Correct operations within the workload's latency limit.
    pub within_limit: u64,
    /// Per pass, the operations' total time: untraced passes, then traced.
    pub pass_ms: [Vec<f64>; 2],
}

impl LoopSummary {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.total_ms / 1e3)
    }

    /// How much longer a traced pass took than an untraced one, in %.
    pub fn overhead_pct(&self) -> f64 {
        let [untraced, traced] = &self.pass_ms;
        (median(traced) / median(untraced) - 1.0) * 100.0
    }
}

pub fn summarize(ops: &[Op], meter: &SpeedMeter, kinds: usize, limit_ms: f64) -> LoopSummary {
    let mut summary = LoopSummary {
        kinds: (0..kinds).map(|_| KindTimes::default()).collect(),
        all: KindTimes::default(),
        ops: 0,
        total_ms: 0.0,
        within_limit: 0,
        pass_ms: [Vec::new(), Vec::new()],
    };
    let mut passes: BTreeMap<(usize, bool), f64> = BTreeMap::new();
    for op in ops {
        let ms = op.ms * meter.factor_at(op.at);
        if op.ok && ms <= limit_ms {
            summary.within_limit += 1;
        }
        if !op.traced {
            summary.kinds[op.kind].record(&op.input, ms);
            summary.all.record(&op.input, ms);
            summary.ops += 1;
            summary.total_ms += ms;
        }
        *passes.entry((op.pass, op.traced)).or_default() += ms;
    }
    for ((_, traced), total) in passes {
        summary.pass_ms[usize::from(traced)].push(total);
    }
    summary
}

/// `setup_s`: the median set-up, each scaled by the machine's speed when
/// it ran; `setups` holds each set-up's time in ms and start.
pub fn scaled_setup_seconds(setups: &[(f64, Instant)], meter: &SpeedMeter) -> f64 {
    let scaled: Vec<f64> = setups
        .iter()
        .map(|&(ms, at)| ms * meter.factor_at(at))
        .collect();
    median(&scaled) / 1e3
}
