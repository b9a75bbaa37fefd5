//! The `service_mix` workload: an open-loop request stream to
//! `flow-gateway`, which fronts one `flowd` with a fresh disk cache.
//!
//! Set-up starts both daemons and primes the hit pool (each hit design
//! compiled once). The measured window then sends the seeded schedule of
//! [`ServicePlan`] at [`SERVICE_RATE`] over two persistent connections:
//! each request is timed from its due time, so a stall also counts
//! against the requests queued behind it. Misses carry designs no
//! earlier request carried (BLIF and VHDL). The traced run adds the
//! attribution: metrics scrapes around the window, in-process timings
//! of the layers a request crosses, and replays of one hit direct and
//! through the gateway, on fresh and reused connections.

use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fpga_flow::cache::{stage_key, StageId};
use fpga_flow::report::QorSummary;
use fpga_netlist::{canonical_text, Netlist};
use fpga_server::proto::{
    from_hex, parse_event, read_line, write_line, CompileRequest, Event, Request, SourceFormat,
};
use serde_json::Value;

use crate::check;
use crate::jobs::{Format, ServiceDesign, ServicePlan, SERVICE_CHANNEL_WIDTH};
use crate::metrics::Outcome;
use crate::stats::{geomean, median, percentile};
use crate::trace::Tracer;

/// Set-up (daemons + priming) is repeated this many times per run;
/// `setup_s` is the median. Only the last set of daemons serves the
/// window.
const SETUP_REPEATS: usize = 3;
/// Concurrent client connections (and client threads) of the window.
const CONNECTIONS: usize = 2;
/// A request answered later than this after its due time counts as
/// failed (timed out).
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// The generator fell behind when it sent a request this much later
/// than it could have (connection free and request due).
const GENERATOR_LAG_LIMIT: Duration = Duration::from_millis(100);
/// Hit replays per (path, connection kind) in the traced run.
const REPLAYS: usize = 10;

/// `flowd` plus the `flow-gateway` in front of it. Dropping it stops
/// both and waits for them.
struct Daemons {
    flowd: Child,
    gateway: Child,
    flowd_addr: String,
    gateway_addr: String,
    cache_dir: PathBuf,
}

fn free_port() -> Result<u16, String> {
    let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("no free port: {e}"))?;
    l.local_addr().map(|a| a.port()).map_err(|e| e.to_string())
}

fn spawn(bin: &Path, args: &[&str], log: &Path) -> Result<Child, String> {
    let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("starting {}: {e}", bin.display()))
}

/// Ping `addr` until it answers (or `child` exits, or 15 s pass).
fn wait_ready(addr: &str, child: &mut Child) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline {
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!(
                "daemon for {addr} exited during start-up: {status}"
            ));
        }
        if let Ok(mut c) = Conn::open(addr) {
            if c.call(&Request::Ping).is_ok() {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(format!("daemon at {addr} never answered a ping"))
}

impl Daemons {
    fn start(bin: &Path, dir: &Path) -> Result<Daemons, String> {
        let cache_dir = dir.join("cache");
        std::fs::create_dir_all(&cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
        let flowd_addr = format!("127.0.0.1:{}", free_port()?);
        let gateway_addr = format!("127.0.0.1:{}", free_port()?);
        let cache = cache_dir.to_string_lossy().into_owned();
        // Two workers of one P&R thread each: never more than two
        // compile threads on the host.
        let mut flowd = spawn(
            &bin.join("flowd"),
            &[
                "--tcp",
                &flowd_addr,
                "--workers",
                "2",
                "--threads",
                "1",
                "--cache-dir",
                &cache,
            ],
            &dir.join("flowd.log"),
        )?;
        if let Err(e) = wait_ready(&flowd_addr, &mut flowd) {
            let _ = flowd.kill();
            let _ = flowd.wait();
            return Err(e);
        }
        // Start the gateway only once its backend answers, so its
        // breaker never sees a start-up race.
        let gateway = spawn(
            &bin.join("flow-gateway"),
            &["--tcp", &gateway_addr, "--backend", &flowd_addr],
            &dir.join("gateway.log"),
        );
        let mut d = match gateway {
            Ok(gateway) => Daemons {
                flowd,
                gateway,
                flowd_addr,
                gateway_addr,
                cache_dir,
            },
            Err(e) => {
                let _ = flowd.kill();
                let _ = flowd.wait();
                return Err(e);
            }
        };
        wait_ready(&d.gateway_addr.clone(), &mut d.gateway)?;
        Ok(d)
    }

    fn flowd_pid(&self) -> u32 {
        self.flowd.id()
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for child in [&mut self.gateway, &mut self.flowd] {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One persistent client connection speaking the NDJSON protocol with
/// the repository's own framing (`proto::write_line`), as `flowc` does.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Client-side timestamps and result of one compile.
struct Reply {
    written: Instant,
    queued: Instant,
    bytes: Vec<u8>,
    /// The QoR summary of the flow report (`None` when it carries none).
    qor: Option<QorSummary>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(REQUEST_TIMEOUT * 4))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    fn recv(&mut self) -> Result<Value, String> {
        read_line(&mut self.reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    /// A one-reply verb (`ping`, `metrics`, `stats`).
    fn call(&mut self, req: &Request) -> Result<Value, String> {
        write_line(&mut self.writer, &req.to_value()).map_err(|e| e.to_string())?;
        self.recv()
    }

    fn compile(&mut self, design: &ServiceDesign) -> Result<Reply, String> {
        let format = match design.format {
            Format::Blif => SourceFormat::Blif,
            Format::Vhdl => SourceFormat::Vhdl,
        };
        let req = CompileRequest::new(format, design.source.as_str())
            .with_options(serde_json::json!({"channel_width": SERVICE_CHANNEL_WIDTH}))?;
        write_line(
            &mut self.writer,
            &Request::Compile(Box::new(req)).to_value(),
        )
        .map_err(|e| e.to_string())?;
        let written = Instant::now();
        let mut queued = None;
        loop {
            let raw = self.recv()?;
            match parse_event(&raw).map_err(|e| e.to_string())? {
                Event::Queued { .. } => queued = Some(Instant::now()),
                Event::Stage { .. } => {}
                Event::Done {
                    bitstream_hex,
                    report,
                    ..
                } => {
                    return Ok(Reply {
                        written,
                        queued: queued.unwrap_or_else(Instant::now),
                        bytes: from_hex(&bitstream_hex)?,
                        qor: serde_json::from_value(&report["qor"]).ok(),
                    });
                }
                _ => return Err(format!("{}: {raw}", design.name)),
            }
        }
    }
}

/// A fresh daemon pair with the hit pool primed; returns the priming
/// replies (one per hit design).
fn set_up(bin: &Path, dir: &Path, plan: &ServicePlan) -> Result<(Daemons, Vec<Reply>), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let daemons = Daemons::start(bin, dir)?;
    let mut conn = Conn::open(&daemons.gateway_addr)?;
    let primed = plan
        .hits
        .iter()
        .map(|d| conn.compile(d))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemons, primed))
}

/// One request of the measured window, with its client-side timestamps.
struct Sample {
    id: u64,
    miss: bool,
    design: usize,
    due: Instant,
    sent: Instant,
    /// `written` and `queued` of a request the service answered.
    acked: Option<(Instant, Instant)>,
    done: Instant,
    /// How much later than possible the generator sent it.
    generator_lag: Duration,
    result: Result<Vec<u8>, String>,
    qor: Option<QorSummary>,
}

impl Sample {
    /// Milliseconds from due time to `done`.
    fn latency_ms(&self) -> f64 {
        ms(self.due, self.done)
    }

    /// Milliseconds from the request's write to its `queued` event.
    fn queue_ack_ms(&self) -> Option<f64> {
        self.acked.map(|(written, queued)| ms(written, queued))
    }
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Send the schedule over [`CONNECTIONS`] persistent connections. Each
/// client thread takes the next request in due order when it is free,
/// waits for its due time and sends it.
fn run_window(addr: &str, plan: &ServicePlan) -> Result<(Instant, Vec<Sample>), String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(plan.requests.len()));
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, samples) = (&next, &samples);
            s.spawn(move || loop {
                let free = Instant::now();
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(r) = plan.requests.get(i) else { break };
                let due = t0 + Duration::from_secs_f64(r.due_s);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let reply = conn.compile(plan.design(r));
                let done = Instant::now();
                let (acked, result, qor) = match reply {
                    _ if done.saturating_duration_since(due) > REQUEST_TIMEOUT => (
                        None,
                        Err(format!(
                            "answered {:.0} ms after due (timed out)",
                            ms(due, done)
                        )),
                        None,
                    ),
                    Ok(rep) => (Some((rep.written, rep.queued)), Ok(rep.bytes), rep.qor),
                    Err(e) => (None, Err(e), None),
                };
                let sample = Sample {
                    id: r.id,
                    miss: r.miss,
                    design: r.design,
                    due,
                    sent,
                    acked,
                    done,
                    generator_lag: sent.saturating_duration_since(due.max(free)),
                    result,
                    qor,
                };
                samples
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().unwrap_or_else(|p| p.into_inner());
    samples.sort_by_key(|s| s.done);
    Ok((t0, samples))
}

/// Record each request as spans: `request` (due → done) with children
/// `client.wait` (due → sent), `server.ack` (write → `queued`) and
/// `server.run` (`queued` → `done`).
fn record_spans(tracer: &Tracer, samples: &[Sample]) {
    for s in samples {
        let req = tracer.record("request", s.id, None, s.due, s.done);
        tracer.record("client.wait", s.id, Some(req), s.due, s.sent);
        if let Some((written, queued)) = s.acked {
            tracer.record("server.ack", s.id, Some(req), written, queued);
            tracer.record("server.run", s.id, Some(req), queued, s.done);
        }
    }
}

/// A request's returned bitstream, unless it failed, timed out, was sent
/// late by a lagging generator (the run must not score it as on time),
/// or is a hit whose bitstream differs from the `primed` one.
fn judge<'a>(s: &'a Sample, primed: Option<&[u8]>) -> Result<&'a [u8], String> {
    let bytes = s.result.as_deref().map_err(String::clone)?;
    if s.generator_lag > GENERATOR_LAG_LIMIT {
        return Err(format!(
            "sent {:?} late by the load generator",
            s.generator_lag
        ));
    }
    if primed.is_some_and(|p| p != bytes) {
        return Err("hit differs from its primed bitstream".to_string());
    }
    Ok(bytes)
}

/// Whether the generator itself fell behind its schedule on any request.
pub fn generator_fell_behind(lags: &[Duration]) -> bool {
    lags.iter().any(|&l| l > GENERATOR_LAG_LIMIT)
}

/// The reference RTL of a service design: the input netlist for BLIF,
/// the VHDL front end's output for VHDL.
fn reference_rtl(d: &ServiceDesign) -> Result<Netlist, String> {
    match d.format {
        Format::Blif => fpga_netlist::blif::parse(&d.source).map_err(|e| e.to_string()),
        Format::Vhdl => fpga_synth::diviner::synthesize(&d.source).map_err(|e| e.to_string()),
    }
}

/// Sum of file sizes under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

fn scrape(addr: &str) -> Result<Value, String> {
    Conn::open(addr)?.call(&Request::Metrics { text: false })
}

fn counter(v: &Value, path: &[&str]) -> f64 {
    path.iter().fold(v, |v, k| &v[*k]).as_f64().unwrap_or(0.0)
}

/// Median milliseconds of `f` over `items`.
fn median_ms<T>(items: &[T], mut f: impl FnMut(&T) -> Result<(), String>) -> Result<f64, String> {
    let mut ms = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        f(item)?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms).unwrap_or(0.0))
}

/// Replay one primed hit `REPLAYS` times: (fresh connection, reused
/// connection) medians in milliseconds.
fn replay_hit(addr: &str, design: &ServiceDesign) -> Result<(f64, f64), String> {
    let times = [(); REPLAYS];
    let fresh = median_ms(&times, |_| Conn::open(addr)?.compile(design).map(|_| ()))?;
    let mut conn = Conn::open(addr)?;
    conn.compile(design)?;
    let reused = median_ms(&times, |_| conn.compile(design).map(|_| ()))?;
    Ok((fresh, reused))
}

/// Run `service_mix`.
pub fn run(
    seed: u64,
    seconds: u64,
    trace: bool,
    work: &Path,
    bin: &Path,
) -> Result<Outcome, String> {
    let plan = ServicePlan::new(seed, seconds);
    let dir = work.join(format!("service-{}", std::process::id()));
    let result = run_in(&plan, seed, trace, &dir, bin, &work.join("traces"));
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(
    plan: &ServicePlan,
    seed: u64,
    trace: bool,
    dir: &Path,
    bin: &Path,
    trace_dir: &Path,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut served = None;
    for k in 0..SETUP_REPEATS {
        drop(served.take());
        let t = Instant::now();
        served = Some(set_up(bin, &dir.join(format!("setup{k}")), plan)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (daemons, primed) = served.ok_or("no set-up ran")?;

    let before = if trace {
        Some((
            scrape(&daemons.flowd_addr)?,
            scrape(&daemons.gateway_addr)?,
            dir_bytes(&daemons.cache_dir),
        ))
    } else {
        None
    };
    let (t0, samples) = run_window(&daemons.gateway_addr, plan)?;
    let peak_rss = crate::sys::peak_rss_mb(daemons.flowd_pid());

    let mut out = Outcome {
        attempted: samples.len() as u64,
        correct: true,
        ..Default::default()
    };

    // Output checks, outside the window: every hit must return its
    // primed bitstream; every distinct bitstream must emulate its input.
    let mut verdicts: BTreeMap<String, Result<(), String>> = BTreeMap::new();
    let mut check_once = |bytes: &[u8], d: &ServiceDesign| -> Result<(), String> {
        verdicts
            .entry(check::sha256_hex(bytes))
            .or_insert_with(|| {
                reference_rtl(d).and_then(|rtl| check::bitstream_matches_rtl(bytes, &rtl, seed))
            })
            .clone()
            .map_err(|e| format!("{}: {e}", d.name))
    };
    for (d, reply) in plan.hits.iter().zip(&primed) {
        if let Err(e) = check_once(&reply.bytes, d) {
            eprintln!("perfbench: service_mix primed {e}");
            out.correct = false;
        }
    }
    let lags: Vec<Duration> = samples.iter().map(|s| s.generator_lag).collect();
    if generator_fell_behind(&lags) {
        eprintln!(
            "perfbench: service_mix: the load generator fell behind its schedule \
             (lag over {GENERATOR_LAG_LIMIT:?}); those requests count as failed"
        );
    }
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    // QoR of every distinct design the service compiled: the primed hit
    // pool and the misses answered correctly.
    let mut qors: Vec<Option<&QorSummary>> = primed.iter().map(|r| r.qor.as_ref()).collect();
    for s in &samples {
        let (design, primed) = if s.miss {
            (&plan.misses[s.design], None)
        } else {
            (&plan.hits[s.design], Some(primed[s.design].bytes.as_slice()))
        };
        let judged = judge(s, primed);
        let verdict = judged.and_then(|bytes| check_once(bytes, design));
        match verdict {
            Ok(()) if s.miss => {
                misses.push(s.latency_ms());
                qors.push(s.qor.as_ref());
            }
            Ok(()) => hits.push(s.latency_ms()),
            Err(e) => {
                eprintln!("perfbench: service_mix request {} failed: {e}", s.id);
                // A failed request misses every latency limit.
                if s.miss { &mut misses } else { &mut hits }.push(f64::INFINITY);
                out.failed += 1;
                if s.result.is_ok() && s.generator_lag <= GENERATOR_LAG_LIMIT {
                    out.correct = false;
                }
            }
        }
    }
    let completed = (samples.len() as u64 - out.failed) as f64;
    let span_s = samples
        .last()
        .map(|s| s.done.saturating_duration_since(t0).as_secs_f64())
        .unwrap_or(0.0);

    if !trace {
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups).unwrap_or(f64::NAN));
        m.insert("ok_frac", completed / samples.len().max(1) as f64);
        if let Some(rss) = peak_rss {
            m.insert("peak_rss_mb", rss);
        }
        let answered = |xs: &[f64]| -> Vec<f64> {
            xs.iter().copied().filter(|x| x.is_finite()).collect()
        };
        let all: Vec<f64> = answered(&hits).into_iter().chain(answered(&misses)).collect();
        if let Some(v) = geomean(&all) {
            m.insert("latency_ms", v);
        }
        if let Some(v) = geomean(&answered(&misses)) {
            m.insert("compile_s", v / 1e3);
        }
        // A compiled design without a QoR summary leaves the QoR metrics
        // unmeasured, and the run without a result.
        if let Some(qors) = qors.into_iter().collect::<Option<Vec<&QorSummary>>>() {
            let geo = |f: &dyn Fn(&QorSummary) -> f64| {
                geomean(&qors.iter().map(|q| f(q)).collect::<Vec<_>>())
            };
            for (name, v) in [
                ("critical_path_ns", geo(&|q| q.critical_path_ns)),
                ("wirelength", geo(&|q| q.wirelength as f64)),
                ("power_mw", geo(&|q| q.power_mw)),
                ("channel_width", geo(&|q| q.channel_width as f64)),
            ] {
                if let Some(v) = v {
                    m.insert(name, v);
                }
            }
            m.insert("luts", qors.iter().map(|q| q.luts as f64).sum());
        }
        return Ok(out);
    }

    // Traced run: attribution around the window.
    let tracer = Tracer::with_epoch(t0);
    record_spans(&tracer, &samples);
    let path = trace_dir.join(format!("service_mix-seed{seed}.ndjson"));
    tracer
        .write_ndjson(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (flowd0, gw0, store0) = before.ok_or("no pre-window scrape")?;
    let flowd1 = scrape(&daemons.flowd_addr)?;
    let gw1 = scrape(&daemons.gateway_addr)?;
    let store1 = dir_bytes(&daemons.cache_dir);
    let n = samples.len().max(1) as f64;
    let delta = |a: &Value, b: &Value, path: &[&str]| (counter(b, path) - counter(a, path)) / n;
    let m = &mut out.metrics;
    if span_s > 0.0 {
        m.insert("service.jobs_per_s", completed / span_s);
    }
    for (name, xs, p) in [
        ("service.hit_p50_ms", &hits, 50.0),
        ("service.hit_p75_ms", &hits, 75.0),
        ("service.miss_p50_ms", &misses, 50.0),
    ] {
        match percentile(xs, p, 10) {
            Some(v) => {
                m.insert(name, v);
            }
            None => eprintln!(
                "perfbench: service_mix: {} samples are too few for {name}",
                xs.len()
            ),
        }
    }
    m.insert(
        "flow.cache.memory_hits",
        delta(&flowd0, &flowd1, &["cache", "memory_hits"]),
    );
    m.insert(
        "flow.cache.disk_hits",
        delta(&flowd0, &flowd1, &["cache", "disk_hits"]),
    );
    m.insert(
        "flow.cache.misses",
        delta(&flowd0, &flowd1, &["cache", "misses"]),
    );
    m.insert("flow.store.bytes", store1.saturating_sub(store0) as f64 / n);
    m.insert("gateway.shed", delta(&gw0, &gw1, &["jobs", "shed"]));
    m.insert(
        "gateway.failovers",
        delta(&gw0, &gw1, &["jobs", "failovers"]),
    );
    let ack: Vec<f64> = samples
        .iter()
        .filter(|s| !s.miss)
        .filter_map(Sample::queue_ack_ms)
        .collect();
    m.insert("server.queue_wait_ms", median(&ack).unwrap_or(0.0));
    let lag_ms: Vec<f64> = lags.iter().map(|l| l.as_secs_f64() * 1e3).collect();
    m.insert("loadgen.late_ms", lag_ms.iter().sum::<f64>() / n);

    // The layers a request crosses, timed in-process on the same inputs.
    let rtls = plan
        .hits
        .iter()
        .map(reference_rtl)
        .collect::<Result<Vec<_>, _>>()?;
    let text_err = |e: fpga_netlist::NetlistError| e.to_string();
    m.insert(
        "server.blif_write_ms",
        median_ms(&rtls, |rtl| {
            fpga_netlist::blif::write(rtl).map(|_| ()).map_err(text_err)
        })?,
    );
    m.insert(
        "server.blif_parse_ms",
        median_ms(&plan.hits, |d| {
            fpga_netlist::blif::parse(&d.source)
                .map(|_| ())
                .map_err(text_err)
        })?,
    );
    let pairs: Vec<(&ServiceDesign, &Netlist)> = plan.hits.iter().zip(&rtls).collect();
    m.insert(
        "flow.stage_key_ms",
        median_ms(&pairs, |(d, rtl)| {
            let _ = stage_key(StageId::Synthesis, &["blif", &d.source]);
            let _ = stage_key(StageId::LutMap, &[&canonical_text(rtl)]);
            Ok(())
        })?,
    );
    let vhdl: Vec<&ServiceDesign> = plan
        .misses
        .iter()
        .filter(|d| d.format == Format::Vhdl)
        .collect();
    m.insert(
        "vhdl.synthesize_ms",
        median_ms(&vhdl, |d| reference_rtl(d).map(|_| ()))?,
    );

    // Transport vs gateway: one primed hit, direct and via the gateway,
    // on a fresh connection per request and on one reused connection.
    let (direct_fresh, direct_reused) = replay_hit(&daemons.flowd_addr, &plan.hits[0])?;
    let (gw_fresh, gw_reused) = replay_hit(&daemons.gateway_addr, &plan.hits[0])?;
    m.insert("server.hit_fresh_conn_ms", direct_fresh);
    m.insert("server.hit_reused_conn_ms", direct_reused);
    m.insert("server.transport_stall_ms", direct_reused - direct_fresh);
    m.insert("gateway.hit_overhead_ms", gw_fresh - direct_fresh);
    eprintln!(
        "perfbench: service_mix hit replay (ms, median of {REPLAYS}): direct fresh {direct_fresh:.2}, \
         direct reused {direct_reused:.2}, gateway fresh {gw_fresh:.2}, gateway reused {gw_reused:.2}; \
         window hit p50 {:.2}",
        median(&hits).unwrap_or(f64::NAN)
    );
    for (name, _) in crate::metrics::PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    drop(daemons);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(lag_ms: u64, bytes: &[u8]) -> Sample {
        let t = Instant::now();
        Sample {
            id: 0,
            miss: false,
            design: 0,
            due: t,
            sent: t,
            acked: Some((t, t)),
            done: t,
            generator_lag: Duration::from_millis(lag_ms),
            result: Ok(bytes.to_vec()),
            qor: None,
        }
    }

    #[test]
    fn a_lagging_generator_is_reported_not_scored() {
        let on_time = sample(3, b"bits");
        assert_eq!(judge(&on_time, Some(b"bits")), Ok(&b"bits"[..]));
        let late = sample(GENERATOR_LAG_LIMIT.as_millis() as u64 + 1, b"bits");
        assert!(judge(&late, Some(b"bits")).is_err());
        assert!(generator_fell_behind(&[
            on_time.generator_lag,
            late.generator_lag
        ]));
        assert!(!generator_fell_behind(&[on_time.generator_lag]));
    }

    #[test]
    fn a_hit_must_return_its_primed_bitstream() {
        assert!(judge(&sample(0, b"bits"), Some(b"other")).is_err());
        assert!(judge(&sample(0, b"bits"), None).is_ok());
    }
}
