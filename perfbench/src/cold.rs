//! The in-process compile workloads, `cold_rent1k` and `minw_rent64`.
//!
//! The untraced run is one client calling `fpga_flow::run_netlist_ctx`
//! with no cache, one job after another (closed loop). The traced run
//! compiles the same jobs by calling each layer's public function from
//! here, in the order and with the arguments the pipeline uses, so its
//! bitstreams must equal the untraced ones byte for byte.

use std::time::Instant;

use fpga_arch::device::Device;
use fpga_bitstream::fabric::{verify_against_netlist, Fabric};
use fpga_cells::caps::ClbCaps;
use fpga_cells::tech::Tech;
use fpga_flow::cache::{stage_key, StageId};
use fpga_flow::report::QorSummary;
use fpga_flow::{FlowCtx, FlowOptions};
use fpga_netlist::{canonical_text, Netlist};
use fpga_pack::Clustering;
use fpga_place::{AnnealingPlacer, PlaceConfig, PlaceEngine, Placement};
use fpga_route::rrgraph::RrGraph;
use fpga_route::{PathFinderRouter, RouteConfig, RouteEngine, RouteResult};
use fpga_synth::{map_to_luts, MapOptions};

use crate::check;
use crate::jobs::{splitmix, CompileJob, Workload, COLD_CHANNEL_WIDTH};
use crate::metrics::Outcome;
use crate::stats::{geomean, median};
use crate::trace::Tracer;

/// Seed of the flow's own fabric-emulation stage (as in the pipeline).
const FLOW_VERIFY_SEED: u64 = 0xF00D;

/// Default flow options, plus the workload's channel width and the P&R
/// thread count.
pub fn options(w: Workload, threads: usize) -> FlowOptions {
    let b = FlowOptions::builder().threads(threads);
    match w {
        Workload::ColdRent1k => b.channel_width(COLD_CHANNEL_WIDTH).build(),
        _ => b.build(),
    }
}

/// One compiled job of the untraced run.
pub struct Compiled {
    pub wall_s: f64,
    pub bytes: Vec<u8>,
    pub qor: QorSummary,
}

/// The untraced compile of one job, timed around `run_netlist_ctx` alone.
pub fn compile_untraced(job: &CompileJob, opts: &FlowOptions) -> Result<Compiled, String> {
    let rtl = job.rtl.clone();
    let t = Instant::now();
    let art = fpga_flow::run_netlist_ctx(rtl, opts, FlowCtx::default());
    let wall_s = t.elapsed().as_secs_f64();
    let art = art.map_err(|e| format!("[{}] {}", e.stage, e.message))?;
    let qor = art.report.qor.clone().ok_or("flow report carries no QoR")?;
    Ok(Compiled {
        wall_s,
        bytes: art.bitstream_bytes,
        qor,
    })
}

/// One compiled job of the traced run.
pub struct TracedJob {
    pub bytes: Vec<u8>,
    pub channel_width: usize,
}

/// Delegates `route` to PathFinder, counting and timing every attempt
/// the trait's minimum-width search makes.
struct CountingRouter<'a> {
    inner: PathFinderRouter,
    tracer: &'a Tracer,
    job: u64,
}

impl RouteEngine for CountingRouter<'_> {
    fn name(&self) -> &'static str {
        "pathfinder (counted)"
    }

    fn route(
        &self,
        clustering: &Clustering,
        placement: &Placement,
        g: &RrGraph,
    ) -> fpga_route::Result<RouteResult> {
        let t = Instant::now();
        let r = self.tracer.span("route.attempt", self.job, || {
            self.inner.route(clustering, placement, g)
        });
        self.tracer.count("route.minw_attempts", 1.0);
        match &r {
            Ok(_) => self.tracer.count("route.minw_ok", 1.0),
            Err(_) => self
                .tracer
                .count("route.minw_failed_ms", t.elapsed().as_secs_f64() * 1e3),
        }
        r
    }
}

/// The traced run of one job: every layer called through its public
/// function inside a span, children of one `job` span.
pub fn run_traced_job(
    job: &CompileJob,
    opts: &FlowOptions,
    tracer: &Tracer,
) -> Result<TracedJob, String> {
    let id = job.id;
    let rtl = &job.rtl;
    let arch = &opts.arch;
    let key = |stage, parts: &[&str]| tracer.span("flow.stage_key", id, || stage_key(stage, parts));
    let (traced, views) = tracer.span("job", id, || -> Result<_, String> {
        let canonical = tracer.span("flow.stage_key", id, || canonical_text(rtl));
        let _ = key(StageId::Synthesis, &["netlist", &canonical]);

        let map_opts = MapOptions {
            k: arch.clb.lut_k,
            cut_limit: 10,
        };
        let fingerprint = format!("k={} cut_limit={}", map_opts.k, map_opts.cut_limit);
        // The pipeline renders the canonical text again for this key.
        let canonical = tracer.span("flow.stage_key", id, || canonical_text(rtl));
        let map_key = key(StageId::LutMap, &[&canonical, &fingerprint]);
        let mapped = tracer.span("synth.lut_map", id, || -> Result<Netlist, String> {
            let (mut mapped, report) = map_to_luts(rtl, map_opts).map_err(|e| e.to_string())?;
            fpga_pack::absorb_constants(&mut mapped);
            tracer.count("synth.luts", report.luts as f64);
            tracer.count("synth.depth", report.depth as f64);
            Ok(mapped)
        })?;

        let arch_text = tracer.span("flow.stage_key", id, || arch.canonical_text());
        let pack_key = key(StageId::Pack, &[&map_key, &arch_text]);
        let arch_text = tracer.span("flow.stage_key", id, || arch.canonical_text());
        let clustering = tracer.span("pack", id, || fpga_pack::pack(&mapped, &arch.clb));
        let clustering = clustering.map_err(|e| e.to_string())?;
        tracer.count("pack.clbs", clustering.clusters.len() as f64);

        let place_fp = format!("seed={} inner_num={}", opts.place_seed, opts.place_effort);
        let place_key = key(StageId::Place, &[&pack_key, &arch_text, &place_fp]);
        let placer = AnnealingPlacer::new(
            PlaceConfig::new()
                .seed(opts.place_seed)
                .inner_num(opts.place_effort)
                .parallelism(opts.parallelism()),
        );
        let placement = tracer.span("place", id, || -> Result<Placement, String> {
            let nl = &clustering.netlist;
            let io_count = nl.inputs.len() + nl.outputs.len() + 1;
            let device = Device::sized_for(arch.clone(), clustering.clusters.len(), io_count);
            let placement = placer
                .place(&clustering, device)
                .map_err(|e| e.to_string())?;
            tracer.count("place.cost", placement.cost);
            tracer.count("place.hpwl", placement.hpwl() as f64);
            Ok(placement)
        })?;

        let route_key = key(
            StageId::Route,
            &[
                &place_key,
                &format!("channel_width={:?}", opts.channel_width),
            ],
        );
        let router = PathFinderRouter::new(RouteConfig::new().parallelism(opts.parallelism()));
        let (graph, routing) = tracer.span("route", id, || -> Result<_, String> {
            let (graph, routing) = match opts.channel_width {
                Some(w) => {
                    let g =
                        tracer.span("route.rrgraph", id, || RrGraph::build(&placement.device, w));
                    let r = tracer.span("route.pathfinder", id, || {
                        router.route(&clustering, &placement, &g)
                    });
                    (g, r.map_err(|e| e.to_string())?)
                }
                None => {
                    let counting = CountingRouter {
                        inner: router,
                        tracer,
                        job: id,
                    };
                    let (w, r) = tracer
                        .span("route.minw", id, || {
                            counting.find_min_channel_width(&clustering, &placement, 128)
                        })
                        .map_err(|e| e.to_string())?;
                    let g =
                        tracer.span("route.rrgraph", id, || RrGraph::build(&placement.device, w));
                    (g, r)
                }
            };
            let sta = tracer.span("route.sta", id, || {
                fpga_route::analyze_paths(
                    &clustering,
                    &placement,
                    &routing,
                    &graph,
                    &fpga_route::timing::TimingModel::default(),
                    &fpga_route::LogicDelays::default(),
                )
            });
            tracer.count("route.critical_path_ns", sta.critical_delay * 1e9);
            tracer.count("route.iterations", routing.iterations as f64);
            Ok((graph, routing))
        })?;

        let _ = key(StageId::Power, &[&route_key, &format!("{:?}", opts.power)]);
        tracer.span("power", id, || {
            let tech = Tech::stm018();
            let caps = ClbCaps::from_designs(&tech);
            fpga_power::estimate(
                &clustering,
                Some((&routing, &graph)),
                &tech,
                &caps,
                &opts.power,
            )
        })?;

        let bits_key = key(StageId::Bitstream, &[&route_key]);
        let (bitstream, bytes) =
            tracer.span("bitstream.generate", id, || -> Result<_, String> {
                let bs = fpga_bitstream::generate(&clustering, &placement, &routing, &graph)
                    .map_err(|e| e.to_string())?;
                let bytes = fpga_bitstream::frames::write(&bs);
                let _ = fpga_bitstream::config::bit_budget(&bs);
                Ok((bs, bytes))
            })?;
        tracer.count("bitstream.bytes", bytes.len() as f64);

        if opts.verify_cycles > 0 {
            let cycles = format!("cycles={}", opts.verify_cycles);
            let _ = key(StageId::Verify, &[&bits_key, &map_key, &cycles]);
            tracer.span("bitstream.fabric_verify", id, || -> Result<(), String> {
                let parsed = fpga_bitstream::frames::parse(&bytes).map_err(|e| e.to_string())?;
                let mut fabric = Fabric::new(parsed).map_err(|e| e.to_string())?;
                verify_against_netlist(&mut fabric, &mapped, opts.verify_cycles, FLOW_VERIFY_SEED)
                    .map_err(|e| e.to_string())
            })?;
        }
        let traced = TracedJob {
            bytes,
            channel_width: routing.channel_width,
        };
        Ok((traced, (bitstream, clustering, placement)))
    })?;

    // Cross-stage equivalence is off in the default flow, so it runs
    // after the job span and is kept out of the job's wall time.
    let (bitstream, clustering, placement) = views;
    tracer
        .span("verify.cec", id, || -> Result<(), String> {
            let reference =
                fpga_verify::CombView::from_netlist("netlist", rtl).map_err(|e| e.to_string())?;
            let candidate =
                fpga_verify::CombView::from_bitstream(&bitstream, &clustering, &placement)
                    .map_err(|e| e.to_string())?;
            let report = fpga_verify::check_equiv(
                &reference,
                &candidate,
                fpga_verify::DEFAULT_SEED,
                fpga_verify::DEFAULT_BATCHES,
            )
            .map_err(|e| e.to_string())?;
            tracer.count("verify.cones", report.cones as f64);
            match report.counterexample {
                Some(cex) => Err(format!("bitstream differs from RTL: {}", cex.render())),
                None => Ok(()),
            }
        })
        .map_err(|e| format!("job {id}: equivalence check: {e}"))?;
    Ok(traced)
}

/// Set-ups before the first job of a run.
const SETUP_REPEATS: usize = 3;

/// P&R threads: at most the host's parallelism, and at most 2.
pub fn pnr_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Run a compile workload: set-up, the untraced job list, the output
/// checks and — with `trace` — the traced job list.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_dir: &std::path::Path,
) -> Result<Outcome, String> {
    // Set-up: generate the job list, then compile a small fixed design
    // untimed, so code pages, allocator pools and any lazily built state
    // of the flow are warm before the first timed job. Work moved into
    // such lazy initialisation therefore shows in `setup_s` (the median
    // of SETUP_REPEATS set-ups before the run and one before every job),
    // not in `compile_s`.
    let opts = options(w, pnr_threads());
    let set_up = || -> Result<(Vec<CompileJob>, f64), String> {
        let t = Instant::now();
        let jobs = crate::jobs::compile_jobs(w, seed, seconds);
        let warm = CompileJob {
            id: u64::MAX,
            rtl: crate::jobs::warm_up_design(w),
        };
        compile_untraced(&warm, &opts).map_err(|e| format!("warm-up compile: {e}"))?;
        Ok((jobs, t.elapsed().as_secs_f64()))
    };
    let (mut jobs, first) = set_up()?;
    let mut setups = vec![first];
    for _ in 1..SETUP_REPEATS {
        setups.push(set_up()?.1);
    }
    if trace {
        // The traced run compiles each job twice; half the list keeps it
        // about as long as the untraced run.
        jobs.truncate(jobs.len().div_ceil(2));
    }
    eprintln!(
        "perfbench: {} {} jobs, P&R on {} thread(s) (host parallelism {})",
        w.name(),
        jobs.len(),
        opts.parallelism().threads,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // The traced run interleaves: each job compiles untraced and then
    // traced, back to back, so slow drift on a shared host does not
    // masquerade as tracing overhead.
    let tracer = Tracer::new();
    let mut traced = Vec::new();
    let mut results = Vec::new();
    for job in &jobs {
        // The host's speed drifts over seconds, so set-up is timed again
        // before every job: the samples span the run like its jobs do.
        setups.push(set_up()?.1);
        let compiled = compile_untraced(job, &opts);
        if let Ok(c) = &compiled {
            eprintln!(
                "perfbench: {} job {} ({}): {:.3} s, W {}, critical path {:.2} ns, wirelength {}",
                w.name(),
                job.id,
                job.rtl.name,
                c.wall_s,
                c.qor.channel_width,
                c.qor.critical_path_ns,
                c.qor.wirelength
            );
        }
        results.push(compiled);
        if trace {
            let before = tracer.total_ms("job");
            let t = run_traced_job(job, &opts, &tracer);
            traced.push((t, tracer.total_ms("job") - before));
        }
    }
    let peak_rss = crate::sys::peak_rss_mb(std::process::id());
    let setup_ms: Vec<String> = setups.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
    eprintln!(
        "perfbench: {} set-up samples (ms): {}",
        w.name(),
        setup_ms.join(" ")
    );

    let mut out = Outcome {
        attempted: jobs.len() as u64,
        correct: true,
        ..Default::default()
    };
    let mut ok = Vec::new();
    for (job, r) in jobs.iter().zip(&results) {
        let checked = r.as_ref().map(|c| {
            check::bitstream_matches_rtl(&c.bytes, &job.rtl, splitmix(seed ^ job.id)).map(|()| c)
        });
        match checked {
            Ok(Ok(c)) => ok.push(c),
            Ok(Err(e)) => {
                eprintln!("perfbench: {} job {}: wrong output: {e}", w.name(), job.id);
                out.failed += 1;
                out.correct = false;
            }
            Err(e) => {
                eprintln!("perfbench: {} job {}: {e}", w.name(), job.id);
                out.failed += 1;
            }
        }
    }

    if !trace {
        let m = &mut out.metrics;
        let geo =
            |f: &dyn Fn(&Compiled) -> f64| geomean(&ok.iter().map(|c| f(c)).collect::<Vec<_>>());
        m.insert("setup_s", median(&setups).unwrap_or(f64::NAN));
        m.insert("ok_frac", ok.len() as f64 / jobs.len() as f64);
        if let Some(rss) = peak_rss {
            m.insert("peak_rss_mb", rss);
        }
        for (name, v) in [
            ("latency_ms", geo(&|c| c.wall_s * 1e3)),
            ("compile_s", geo(&|c| c.wall_s)),
            ("critical_path_ns", geo(&|c| c.qor.critical_path_ns)),
            ("wirelength", geo(&|c| c.qor.wirelength as f64)),
            ("power_mw", geo(&|c| c.qor.power_mw)),
            ("channel_width", geo(&|c| c.qor.channel_width as f64)),
        ] {
            if let Some(v) = v {
                m.insert(name, v);
            }
        }
        m.insert("luts", ok.iter().map(|c| c.qor.luts as f64).sum());
        return Ok(out);
    }

    let mut traced_ms = 0.0;
    for ((job, r), (traced, ms)) in jobs.iter().zip(&results).zip(traced) {
        traced_ms += ms;
        let same = match (&traced, r) {
            (Ok(t), Ok(c)) => t.bytes == c.bytes && t.channel_width as u64 == c.qor.channel_width,
            _ => false,
        };
        if !same {
            let why = traced
                .err()
                .unwrap_or_else(|| "bitstream or width differs".into());
            eprintln!(
                "perfbench: {} job {}: traced run disagrees: {why}",
                w.name(),
                job.id
            );
            out.failed += 1;
            out.correct = false;
        }
    }
    let path = trace_dir.join(format!("{}-seed{seed}.ndjson", w.name()));
    tracer
        .write_ndjson(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let n = jobs.len() as f64;
    let untraced_ms: f64 = results.iter().flatten().map(|c| c.wall_s * 1e3).sum();
    let m = &mut out.metrics;
    for (metric, span) in [
        ("synth.lut_map_ms", "synth.lut_map"),
        ("pack.ms", "pack"),
        ("place.ms", "place"),
        ("power.ms", "power"),
        ("bitstream.generate_ms", "bitstream.generate"),
        ("bitstream.fabric_verify_ms", "bitstream.fabric_verify"),
        ("verify.cec_ms", "verify.cec"),
        ("flow.stage_key_ms", "flow.stage_key"),
    ] {
        m.insert(metric, tracer.self_ms(span) / n);
    }
    for (metric, span) in [
        ("route.ms", "route"),
        ("route.pathfinder_ms", "route.pathfinder"),
        ("route.rrgraph_ms", "route.rrgraph"),
        ("route.sta_ms", "route.sta"),
        ("route.minw_ms", "route.minw"),
    ] {
        m.insert(metric, tracer.total_ms(span) / n);
    }
    for name in [
        "synth.luts",
        "synth.depth",
        "pack.clbs",
        "place.cost",
        "place.hpwl",
        "route.iterations",
        "route.critical_path_ns",
        "route.minw_attempts",
        "route.minw_failed_ms",
        "bitstream.bytes",
        "verify.cones",
    ] {
        m.insert(name, tracer.counter(name) / n);
    }
    let attempts = tracer.counter("route.minw_attempts");
    m.insert(
        "route.minw_useful_ratio",
        if attempts > 0.0 {
            tracer.counter("route.minw_ok") / attempts
        } else {
            0.0
        },
    );
    m.insert(
        "trace.overhead_frac",
        (traced_ms - untraced_ms) / untraced_ms,
    );
    m.insert("trace.unattributed_frac", tracer.self_ms("job") / traced_ms);
    for (name, _) in crate::metrics::PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    // Accounting: the layers' self times inside the job spans, plus the
    // job spans' own self time, make up the traced wall time; the
    // traced-minus-untraced difference is the tracing overhead.
    let mut layers: Vec<(&str, f64)> = tracer
        .self_ms_by_name()
        .into_iter()
        .filter(|(name, _)| !matches!(*name, "job" | "verify.cec"))
        .collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let listed: Vec<String> = layers
        .iter()
        .map(|(name, ms)| format!("{name} {:.1}%", 100.0 * ms / traced_ms))
        .collect();
    eprintln!(
        "perfbench: {} traced {:.0} ms/job = layer self times [{}] + unattributed {:.2}%; \
         untraced {:.0} ms/job (overhead {:+.2}%); min-W failed attempts {:.1}% of route",
        w.name(),
        traced_ms / n,
        listed.join(", "),
        100.0 * m["trace.unattributed_frac"],
        untraced_ms / n,
        100.0 * m["trace.overhead_frac"],
        100.0 * m["route.minw_failed_ms"] / m["route.ms"],
    );
    Ok(out)
}
