//! The `serve` workload: a `reordd` daemon in its own process, driven by
//! an open-loop generator.
//!
//! Requests arrive as a seeded Poisson process at a fixed, moderate rate.
//! Hits repeat programs of a warmed working set that is larger than the
//! daemon's memory tier, so some hits come from the disk tier; misses
//! carry programs the daemon has never seen, so each one is a reorder,
//! an insert, an eviction and a store append. The class comes from the
//! schedule, never from the reply. Hits run on one connection and misses
//! on the other: the protocol answers each connection in order, and a
//! hit queued behind a miss would put a miss's time into the hit
//! percentiles.

use crate::common::{
    geomean, median, ms, peak_rss_mb, pin_to_one_cpu, quantile, rng, scaled_setup_seconds, shuffle,
    timed, Args, LayerLog, Outcome, SpeedMeter,
};
use crate::reorder_wl::estimated_calls_ratio;
use prolog_syntax::{parse_program, pretty::program_to_string};
use prolog_workloads::family::{family_facts, family_rules, FamilyConfig};
use rand::Rng;
use reordd::{read_frame, write_frame, Client, Json, Request, Response, WireConfig, MAX_FRAME};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Daemon dispatch workers: one per core of the 2-core machine the
/// benchmark was defined on.
const WORKERS: usize = 2;
/// Memory-tier entries; the working set is three times larger.
const CACHE: usize = 8;
const WORKING_SET: usize = 24;
/// Offered load, requests per second, and the share that are misses.
/// A miss costs the daemon about 20 ms and a disk-tier hit about 3 ms,
/// so misses keep the CPU busy about 7% of the time: few enough that
/// the 90th percentile of either class is not a request that waited for
/// a miss, and enough that a 30-second run has a hundred misses.
const RATE: f64 = 17.0;
const MISS_SHARE: f64 = 0.2;
/// Every program is the family rule base over a fact base this many
/// times the paper's 63 facts, generated from its own seed: the
/// programs differ, their cost does not.
const FACT_SCALE: usize = 8;
const SETUPS: usize = 5;
/// A request answered later than this after its intended send time
/// misses the service-level objective.
const SLO_MS: f64 = 250.0;
/// The run is invalid when the generator sent a tenth of its requests
/// later than this after their intended time …
const LATE_LIMIT_MS: f64 = 5.0;
/// … or when this many requests were ever outstanding at once, or when
/// the backlog in the last quarter of the run exceeds the first
/// quarter's by more than [`BACKLOG_GROWTH`] requests on average.
const MAX_OUTSTANDING: usize = 16;
const BACKLOG_GROWTH: f64 = 1.0;
/// While nothing is outstanding, the generator samples the machine's
/// speed this often, in a burst of kernel runs that ends at least
/// [`BURST_GAP`] before the next arrival.
const BURST_EVERY: Duration = Duration::from_secs(1);
const BURST_GAP: Duration = Duration::from_millis(10);
const SCRATCH: &str = ".bench_tmp";
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn program(seed: u64, index: u64) -> String {
    let base = FamilyConfig::default();
    let config = FamilyConfig {
        seed: rng(seed, 100 + index).gen_range(0..u64::MAX),
        couples: base.couples * FACT_SCALE,
        founder_couples: base.founder_couples * FACT_SCALE,
        girls: base.girls * FACT_SCALE,
        boys: base.boys * FACT_SCALE,
        mother_facts: base.mother_facts * FACT_SCALE,
    };
    format!("{}\n{}", family_rules(), family_facts(&config).source)
}

/// One request of the schedule.
struct Arrival {
    at: Duration,
    miss: bool,
    program: usize,
}

/// Poisson arrivals over `seconds`, with exactly [`MISS_SHARE`] misses.
/// Programs `0..WORKING_SET` are the hits' working set; each miss gets
/// the next unseen program after it.
fn schedule(seed: u64, seconds: u64) -> Vec<Arrival> {
    let total = (RATE * seconds as f64).round().max(2.0) as usize;
    let misses = ((total as f64 * MISS_SHARE).round() as usize).clamp(1, total - 1);
    let mut classes: Vec<bool> = (0..total).map(|i| i < misses).collect();
    let mut draws = rng(seed, 4);
    shuffle(&mut classes, &mut draws);
    let mut at = 0.0f64;
    let mut next_miss = WORKING_SET;
    classes
        .into_iter()
        .map(|miss| {
            at += -(1.0 - draws.gen_range(0.0..1.0f64)).ln() / RATE;
            let program = if miss {
                next_miss += 1;
                next_miss - 1
            } else {
                draws.gen_range(0..WORKING_SET)
            };
            Arrival {
                at: Duration::from_secs_f64(at),
                miss,
                program,
            }
        })
        .collect()
}

/// A daemon process, stopped and reaped when dropped.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
    store: PathBuf,
}

impl Daemon {
    fn start(store: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(store);
        std::fs::create_dir_all(store).map_err(|e| format!("store dir: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg(store)
            .arg(CACHE.to_string())
            .arg(WORKERS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut daemon = Daemon {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            store: store.to_path_buf(),
        };
        read.map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?;
        Ok(daemon)
    }

    /// Turns the daemon's own tracing on.
    fn enable_trace(&mut self) {
        if let Some(stdin) = &mut self.stdin {
            let _ = writeln!(stdin, "trace");
            let _ = stdin.flush();
        }
    }

    /// Drains the daemon through the protocol and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let reply = Client::connect(self.addr, IO_TIMEOUT)
            .and_then(|mut c| c.call(&Request::Shutdown))
            .map_err(|e| format!("shutdown: {e}"))?;
        if reply != Response::ShuttingDown {
            return Err(format!("shutdown: unexpected reply {reply:?}"));
        }
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        drop(self.stdin.take());
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// `perfbench daemon STORE CACHE WORKERS`: serve on an ephemeral port,
/// print `listening ADDR`, and run until a `shutdown` request. A `trace`
/// line on stdin turns tracing on; end of stdin (the benchmark is gone)
/// ends the process.
pub fn daemon_main(args: &[String]) -> i32 {
    let [store, cache, workers] = args else {
        eprintln!("usage: perfbench daemon STORE CACHE WORKERS");
        return 2;
    };
    let (Ok(cache), Ok(workers)) = (cache.parse(), workers.parse()) else {
        eprintln!("daemon: CACHE and WORKERS must be numbers");
        return 2;
    };
    reordd::install_signal_handlers();
    let config = reordd::ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: cache,
        store_dir: Some(PathBuf::from(store)),
        ..reordd::ServerConfig::default()
    };
    let server = match reordd::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("daemon: cannot bind: {e}");
            return 1;
        }
    };
    println!("listening {}", server.local_addr());
    let _ = std::io::stdout().flush();
    std::thread::spawn(|| {
        for line in std::io::stdin().lock().lines() {
            match line {
                Ok(l) if l.trim() == "trace" => prolog_trace::enable(),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        std::process::exit(0);
    });
    match server.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("daemon: {e}");
            1
        }
    }
}

fn reorder_request(program: &str) -> Request {
    Request::Reorder {
        program: program.to_string(),
        config: WireConfig::default(),
        budget_ms: None,
    }
}

fn stats(addr: SocketAddr) -> Result<Json, String> {
    match Client::connect(addr, IO_TIMEOUT).and_then(|mut c| c.call(&Request::Stats)) {
        Ok(Response::Stats(json)) => Ok(json),
        Ok(other) => Err(format!("stats: unexpected reply {other:?}")),
        Err(e) => Err(format!("stats: {e}")),
    }
}

/// Starts a daemon on a fresh store and requests every working-set
/// program once, checking each reply.
fn set_up(store: &Path, programs: &[String], expected: &[String]) -> Result<Daemon, String> {
    let daemon = Daemon::start(store)?;
    let mut client =
        Client::connect(daemon.addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    for i in 0..WORKING_SET {
        match client.call(&reorder_request(&programs[i])) {
            Ok(Response::Reordered { program, .. }) if program == expected[i] => {}
            other => return Err(format!("warm-up request {i}: {other:?}")),
        }
    }
    Ok(daemon)
}

/// What the reader of one connection saw for one request: the raw
/// reply, decoded and checked only after the timed phase so that
/// decoding one reply never delays the receipt of the next.
struct Answer {
    index: usize,
    program: usize,
    latency_ms: f64,
    /// `None` when the connection failed before a reply arrived.
    payload: Option<Vec<u8>>,
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    // The daemons' stores live here, inside the working directory, and
    // go when the run ends.
    let scratch = PathBuf::from(SCRATCH).join(format!("serve-{}", std::process::id()));
    if let Err(e) = drive(args, &scratch, &mut outcome) {
        outcome.check(false, || e);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(SCRATCH);
    outcome
}

fn drive(args: &Args, scratch: &Path, outcome: &mut Outcome) -> Result<(), String> {
    let arrivals = schedule(args.seed, args.seconds);
    let program_count = WORKING_SET + arrivals.iter().filter(|a| a.miss).count();
    let programs: Vec<String> = (0..program_count as u64)
        .map(|i| program(args.seed, i))
        .collect();

    // Reference replies, computed locally with the daemon's pipeline
    // configuration, split at the syntax boundary to time parsing and
    // emission for the traced run.
    let config = WireConfig::default().to_reorder_config(1);
    let mut layers = LayerLog::default();
    let references: Vec<Reference> = std::thread::scope(|scope| {
        let halves: Vec<_> = programs
            .chunks(program_count.div_ceil(2))
            .map(|chunk| {
                let config = &config;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|text| {
                            let (parsed, parse_ms) =
                                timed(|| parse_program(text).expect("generated programs parse"));
                            let result = reorder::Reorderer::new(&parsed, config.clone()).run();
                            let (text, emit_ms) = timed(|| program_to_string(&result.program));
                            Reference {
                                text,
                                report: result.report,
                                parse_ms,
                                emit_ms,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let expected: Vec<String> = references.iter().map(|r| r.text.clone()).collect();
    {
        let misses = &references[WORKING_SET..];
        let parse_ms: f64 = misses.iter().map(|r| r.parse_ms).sum();
        let emit_ms: f64 = misses.iter().map(|r| r.emit_ms).sum();
        let in_bytes: usize = programs[WORKING_SET..].iter().map(String::len).sum();
        let out_bytes: usize = misses.iter().map(|r| r.text.len()).sum();
        layers.push("syntax.parse_ms", parse_ms / misses.len() as f64);
        layers.push("syntax.emit_ms", emit_ms / misses.len() as f64);
        layers.push("syntax.parse_mb_per_s", in_bytes as f64 / 1e3 / parse_ms);
        layers.push("syntax.emit_mb_per_s", out_bytes as f64 / 1e3 / emit_ms);
    }
    let reports: Vec<_> = references.into_iter().map(|r| r.report).collect();

    // From here on the generator and the daemon it starts share one CPU:
    // on the virtual machine the benchmark was defined on, wake-ups that
    // crossed between the two virtual CPUs made the latency medians swing
    // by a fifth from one run to the next.
    pin_to_one_cpu();
    // The machine's speed is sampled around each set-up, and in bursts
    // during the open loop (see [`SpeedMeter::sample_burst`]).
    let mut meter = SpeedMeter::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            Daemon::stop(previous)?;
        }
        meter.sample();
        let at = Instant::now();
        let (d, t) = timed(|| set_up(&scratch.join(format!("store-{i}")), &programs, &expected));
        daemon = Some(d?);
        meter.sample();
        setups.push((t, at));
    }
    let mut daemon = daemon.expect("at least one set-up");

    let before = stats(daemon.addr)?;
    meter.sample_burst();
    let run = open_loop(&mut meter, &mut daemon, &arrivals, &programs, args.trace)?;
    meter.sample_burst();
    let after = stats(daemon.addr)?;
    let rss = peak_rss_mb(daemon.child.id());
    daemon.stop()?;

    // Results per class, from the schedule.
    outcome.attempted = arrivals.len() as u64;
    let mut latencies = [Vec::new(), Vec::new()];
    let mut halves = [Vec::new(), Vec::new()];
    let mut within_slo = 0u64;
    let mut decode_us = Vec::new();
    for answer in &run.answers {
        let arrival = &arrivals[answer.index];
        let reply = answer.payload.as_ref().map(|payload| {
            let (reply, t) = timed(|| Response::decode(payload));
            decode_us.push(t * 1e3);
            reply
        });
        // Error replies (shed, timeout) and lost connections are failed
        // requests; a reorder reply with other bytes is a wrong answer.
        let correct = match reply {
            Some(Ok(Response::Reordered { program, .. })) => {
                Some(program == expected[answer.program])
            }
            Some(Ok(Response::Error(_))) | None => None,
            Some(_) => Some(false),
        };
        match correct {
            Some(true) => {
                let latency_ms = answer.latency_ms * meter.factor_at(run.start + arrival.at);
                latencies[usize::from(arrival.miss)].push(latency_ms);
                if latency_ms <= SLO_MS {
                    within_slo += 1;
                }
                if arrival.miss {
                    halves[usize::from(answer.index >= arrivals.len() / 2)].push(latency_ms);
                }
            }
            Some(false) => outcome.check(false, || {
                format!(
                    "request {}: reply differs from the local reorder",
                    answer.index
                )
            }),
            None => outcome.failed += 1,
        }
    }
    outcome.failed += (arrivals.len() - run.answers.len()) as u64;
    let [hits, misses] = &latencies;
    if hits.is_empty() || misses.is_empty() {
        return Err("a request class had no correct replies".into());
    }
    let correct = (hits.len() + misses.len()) as f64;
    outcome.set("setup_s", scaled_setup_seconds(&setups, &meter));
    let busy_s = service_seconds(&after) - service_seconds(&before);
    let speeds: Vec<f64> = arrivals
        .iter()
        .map(|a| meter.factor_at(run.start + a.at))
        .collect();
    outcome.set("ops_per_s", correct / (busy_s * median(&speeds)));
    // Hits are in no end-to-end metric (see `DROPPED`).
    outcome.set("geomean_ms", geomean(misses));
    outcome.set("compiled.geomean_ms", geomean(misses));
    outcome.set("hit.p50_ms", median(hits));
    outcome.set("hit.p90_ms", quantile(hits, 0.9));
    outcome.set("miss.p50_ms", median(misses));
    outcome.set("miss.p90_ms", quantile(misses, 0.9));
    outcome.set("calls_ratio", estimated_calls_ratio(&reports));
    outcome.set(
        "out_kb",
        expected[..WORKING_SET]
            .iter()
            .map(String::len)
            .sum::<usize>() as f64
            / 1e3,
    );
    outcome.set("slo_ok", within_slo as f64 / arrivals.len() as f64);
    outcome.set("peak_rss_mb", rss);

    // The validity guard: a generator that fell behind, or a backlog that
    // grew, means the daemon was saturated and the latencies are not a
    // measurement of this rate.
    let late_p90 = quantile(&run.late_ms, 0.9);
    outcome.check(late_p90 <= LATE_LIMIT_MS, || {
        format!("generator ran late: p90 {late_p90:.2} ms")
    });
    outcome.check(run.max_outstanding <= MAX_OUTSTANDING, || {
        format!("{} requests outstanding at once", run.max_outstanding)
    });
    let quarter = run.backlog.len() / 4;
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64;
    let growth = mean(&run.backlog[run.backlog.len() - quarter..]) - mean(&run.backlog[..quarter]);
    outcome.check(growth <= BACKLOG_GROWTH, || {
        format!("backlog grew by {growth:.2} requests over the run")
    });

    if args.trace {
        layers.push("loadgen.late_p90_ms", late_p90);
        layers.push("loadgen.max_outstanding", run.max_outstanding as f64);
        layers.push("server.encode_us", median(&run.encode_us));
        layers.push("server.decode_us", median(&decode_us));
        server_layers(&before, &after, &mut layers);
        let [untraced, traced] = &halves;
        if !untraced.is_empty() && !traced.is_empty() {
            layers.push(
                "trace.overhead_pct",
                (median(traced) / median(untraced) - 1.0) * 100.0,
            );
        }
        layers.report(outcome);
    }
    Ok(())
}

/// One program's reply as the local pipeline computes it.
struct Reference {
    text: String,
    report: reorder::ReorderReport,
    parse_ms: f64,
    emit_ms: f64,
}

/// Seconds the daemon's workers have spent serving requests, by its own
/// account in a `stats` reply.
fn service_seconds(stats: &Json) -> f64 {
    let field = |key: &str| {
        ["latency", "service", key]
            .iter()
            .try_fold(stats, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    field("count") * field("mean_us") / 1e6
}

/// What the open loop measured.
struct LoopRun {
    answers: Vec<Answer>,
    /// Per request: how late the generator sent it.
    late_ms: Vec<f64>,
    encode_us: Vec<f64>,
    /// Per request: requests outstanding when it was sent.
    backlog: Vec<usize>,
    max_outstanding: usize,
    start: Instant,
}

/// Sends every arrival at its intended time, hits on one connection and
/// misses on the other, while one reader per connection times each reply
/// from its request's intended send time. With `trace`, the daemon's
/// tracing is turned on halfway through.
fn open_loop(
    meter: &mut SpeedMeter,
    daemon: &mut Daemon,
    arrivals: &[Arrival],
    programs: &[String],
    trace: bool,
) -> Result<LoopRun, String> {
    let connect = || -> Result<TcpStream, String> {
        let s = TcpStream::connect_timeout(&daemon.addr, IO_TIMEOUT)
            .map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(s)
    };
    let mut writers = [connect()?, connect()?];
    let outstanding = AtomicUsize::new(0);
    let mut run = LoopRun {
        answers: Vec::new(),
        late_ms: Vec::with_capacity(arrivals.len()),
        encode_us: Vec::with_capacity(arrivals.len()),
        backlog: Vec::with_capacity(arrivals.len()),
        max_outstanding: 0,
        start: Instant::now(),
    };
    // Requests are encoded before the clock starts, so the generator's
    // own work never makes it late.
    let payloads: Vec<Vec<u8>> = programs
        .iter()
        .map(|p| {
            let (payload, t) = timed(|| reorder_request(p).encode());
            run.encode_us.push(t * 1e3);
            payload
        })
        .collect();
    let start = Instant::now();
    run.start = start;
    let mut last_burst = start;
    std::thread::scope(|scope| -> Result<(), String> {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for writer in &writers {
            let (tx, rx) = mpsc::channel::<(usize, usize, Instant)>();
            let mut stream = writer.try_clone().map_err(|e| e.to_string())?;
            let outstanding = &outstanding;
            senders.push(tx);
            readers.push(scope.spawn(move || {
                let mut answers = Vec::new();
                for (index, program, intended) in rx {
                    let frame = read_frame(&mut stream, MAX_FRAME);
                    let received = Instant::now();
                    outstanding.fetch_sub(1, Ordering::Relaxed);
                    answers.push(Answer {
                        index,
                        program,
                        latency_ms: ms(received - intended),
                        payload: frame.ok().flatten(),
                    });
                }
                answers
            }));
        }
        for (index, arrival) in arrivals.iter().enumerate() {
            let intended = start + arrival.at;
            let idle = outstanding.load(Ordering::Relaxed) == 0;
            if idle
                && last_burst.elapsed() >= BURST_EVERY
                && intended.saturating_duration_since(Instant::now()) >= BURST_GAP
            {
                meter.sample_burst();
                last_burst = Instant::now();
            }
            if let Some(wait) = intended.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if trace && index == arrivals.len() / 2 {
                daemon.enable_trace();
            }
            run.late_ms
                .push(ms(Instant::now().saturating_duration_since(intended)));
            let now_outstanding = outstanding.fetch_add(1, Ordering::Relaxed) + 1;
            run.backlog.push(now_outstanding);
            run.max_outstanding = run.max_outstanding.max(now_outstanding);
            let conn = usize::from(arrival.miss);
            if write_frame(&mut writers[conn], &payloads[arrival.program]).is_ok() {
                senders[conn]
                    .send((index, arrival.program, intended))
                    .map_err(|_| "reader stopped".to_string())?;
            } else {
                outstanding.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(senders);
        for reader in readers {
            run.answers
                .extend(reader.join().map_err(|_| "reader panicked".to_string())?);
        }
        Ok(())
    })?;
    Ok(run)
}

/// Per-layer values from the daemon's `stats` replies before and after
/// the timed phase.
fn server_layers(before: &Json, after: &Json, layers: &mut LayerLog) {
    let num = |json: &Json, path: &[&str]| -> f64 {
        path.iter()
            .try_fold(json, |j, key| j.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let delta = |path: &[&str]| num(after, path) - num(before, path);
    // Window mean of a latency accumulator, in ms.
    let window_ms = |class: &str| {
        let total = |j: &Json| {
            num(j, &["latency", class, "count"]) * num(j, &["latency", class, "mean_us"])
        };
        let count = delta(&["latency", class, "count"]);
        (total(after) - total(before)) / count.max(1.0) / 1e3
    };
    layers.push("server.queue_wait_ms", window_ms("queue_wait"));
    layers.push("server.service_ms", window_ms("service"));
    layers.push("server.hit_ms", window_ms("hit"));
    layers.push("server.cold_ms", window_ms("cold"));
    layers.push("server.queue_peak", num(after, &["queue", "peak"]));
    let hits = delta(&["cache", "hits"]);
    let disk_hits = delta(&["cache", "disk_hits"]);
    let misses = delta(&["cache", "misses"]);
    layers.push("server.hits", hits);
    layers.push("server.disk_hits", disk_hits);
    layers.push("server.misses", misses);
    layers.push("server.coalesced", delta(&["cache", "coalesced"]));
    layers.push("server.evictions", delta(&["cache", "evictions"]));
    layers.push("server.shed", delta(&["shed"]));
    layers.push(
        "server.hit_ratio",
        (hits + disk_hits) / (hits + disk_hits + misses).max(1.0),
    );
    layers.push("server.store_appends", delta(&["store", "appends"]));
    let per_miss = |key: &str| delta(&["pipeline", key]) / misses.max(1.0);
    layers.push("core.run_ms", per_miss("total_us") / 1e3);
    layers.push("core.planning_ms", per_miss("planning_us") / 1e3);
    layers.push("core.reordering_ms", per_miss("reordering_us") / 1e3);
    layers.push("core.emission_ms", per_miss("emission_us") / 1e3);
    layers.push("core.orders_explored", per_miss("orders_explored"));
    layers.push("core.orders_rejected", per_miss("orders_rejected"));
}
