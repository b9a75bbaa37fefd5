//! Workloads and their seeded job lists.
//!
//! Every input is generated from the workload seed alone; the program
//! under test only ever receives the generated designs. The same seed
//! always yields the same job list — [`compile_jobs_digest`] and
//! [`ServicePlan::digest`] give canonical-text digests the tests pin.

use fpga_flow::hash::digest_hex;
use fpga_netlist::{canonical_text, Netlist};

/// Rent exponent of every generated `rent_logic` design.
pub const RENT: f64 = 0.62;

/// Fixed channel width of `cold_rent1k`.
pub const COLD_CHANNEL_WIDTH: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdRent1k,
    MinwRent64,
    ServiceMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdRent1k,
        Workload::MinwRent64,
        Workload::ServiceMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRent1k => "cold_rent1k",
            Workload::MinwRent64 => "minw_rent64",
            Workload::ServiceMix => "service_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Design size (`rent_logic` target LUTs) of a compile workload.
    fn target_luts(self) -> usize {
        match self {
            Workload::ColdRent1k => 1000,
            Workload::MinwRent64 => 64,
            Workload::ServiceMix => unreachable!("service_mix has no compile job list"),
        }
    }

    /// Seconds of `--seconds` budgeted per job: sizes the fixed job list.
    /// A `cold_rent1k` job takes about 6 s on a 2-core host, a
    /// `minw_rent64` job 1.5–4 s depending on its design. The min-W
    /// designs are kept this small so that a run holds a dozen of them:
    /// their critical paths and costs differ so much from design to
    /// design that a run of eight 100-LUT designs (a minute) still moved
    /// its geometric means by a fifth from seed to seed.
    fn nominal_job_s(self) -> f64 {
        match self {
            Workload::ColdRent1k => 6.0,
            Workload::MinwRent64 => 2.5,
            Workload::ServiceMix => unreachable!("service_mix has no compile job list"),
        }
    }
}

/// SplitMix64: derives independent design seeds from the workload seed.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for schedule choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix(seed ^ 0x5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = splitmix(self.0);
        self.0
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of the `i`-th design of a list, kept below 2^32 so design names
/// stay short.
fn design_seed(seed: u64, salt: u64, i: u64) -> u64 {
    splitmix(splitmix(seed ^ salt).wrapping_add(i)) & 0xFFFF_FFFF
}

/// One in-process compile.
pub struct CompileJob {
    pub id: u64,
    pub rtl: Netlist,
}

/// The fixed job list of a compile workload: `ceil(seconds / nominal)`
/// designs (at least one).
pub fn compile_jobs(w: Workload, seed: u64, seconds: u64) -> Vec<CompileJob> {
    let n = ((seconds as f64 / w.nominal_job_s()).ceil() as u64).max(1);
    (0..n)
        .map(|i| CompileJob {
            id: i,
            rtl: fpga_circuits::rent_logic(w.target_luts(), RENT, design_seed(seed, 0xC01D, i)),
        })
        .collect()
}

/// The small fixed design a compile workload compiles untimed during
/// set-up (with the workload's options): big enough to run every stage,
/// small enough to take a fraction of a second.
pub fn warm_up_design(w: Workload) -> Netlist {
    let luts = match w {
        Workload::MinwRent64 => 24,
        _ => 64,
    };
    fpga_circuits::rent_logic(luts, RENT, 1)
}

/// Digest of a job list's canonical texts, in order.
pub fn compile_jobs_digest(jobs: &[CompileJob]) -> String {
    let texts: Vec<String> = jobs.iter().map(|j| canonical_text(&j.rtl)).collect();
    let parts: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
    digest_hex(&parts)
}

/// How a design reaches the service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Format {
    Blif,
    Vhdl,
}

/// A design submitted to the service. Its bitstream is checked against
/// the input netlist itself (BLIF) or the VHDL front end's output.
pub struct ServiceDesign {
    pub name: String,
    pub format: Format,
    pub source: String,
}

impl ServiceDesign {
    fn blif(rtl: &Netlist) -> ServiceDesign {
        ServiceDesign {
            name: rtl.name.clone(),
            format: Format::Blif,
            source: fpga_netlist::blif::write(rtl).expect("generated designs write as BLIF"),
        }
    }

    /// A counter whose entity name makes its source text unique.
    fn vhdl_counter(bits: usize, tag: u64) -> ServiceDesign {
        let name = format!("counter{bits}_u{tag}");
        ServiceDesign {
            source: fpga_circuits::vhdl_counter(bits).replace(&format!("counter{bits}"), &name),
            name,
            format: Format::Vhdl,
        }
    }
}

/// One scheduled request: due `due_s` after the start of the window.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceRequest {
    pub id: u64,
    pub due_s: f64,
    /// Index into the plan's hit designs, or into its miss designs.
    pub design: usize,
    pub miss: bool,
}

/// Offered rate of `service_mix`, requests per second. Well below
/// capacity: requests queued back to back on a connection cost about
/// 250 ms each through the gateway (throughput collapses to about 3.6/s),
/// against about 45 ms when they arrive spaced out.
pub const SERVICE_RATE: f64 = 2.0;
/// Every `MISS_EVERY`-th request carries a never-seen design.
pub const MISS_EVERY: u64 = 3;
/// Designs primed during set-up and resubmitted as hits.
pub const HIT_POOL: usize = 6;
/// Flow options of every service request: a fixed width keeps a miss to
/// a fraction of a second, so the offered rate stays below capacity.
pub const SERVICE_CHANNEL_WIDTH: u64 = 16;

/// The whole `service_mix` input: hit pool, never-seen designs and the
/// open-loop schedule at [`SERVICE_RATE`].
pub struct ServicePlan {
    pub hits: Vec<ServiceDesign>,
    pub misses: Vec<ServiceDesign>,
    pub requests: Vec<ServiceRequest>,
}

impl ServicePlan {
    pub fn new(seed: u64, seconds: u64) -> ServicePlan {
        let hits: Vec<ServiceDesign> = (0..HIT_POOL as u64)
            .map(|i| {
                ServiceDesign::blif(&fpga_circuits::rent_logic(
                    48,
                    RENT,
                    design_seed(seed, 0x417, i),
                ))
            })
            .collect();
        let n = (seconds as f64 * SERVICE_RATE).round().max(1.0) as u64;
        let mut rng = Rng::new(seed);
        let mut misses = Vec::new();
        let mut requests = Vec::new();
        for id in 0..n {
            let miss = id % MISS_EVERY == MISS_EVERY / 2;
            let design = if miss {
                // A small BLIF design and a VHDL counter cost about the
                // same (55-120 ms) at the fixed width, so the miss median
                // does not fall between two modes.
                let k = misses.len() as u64;
                misses.push(if k.is_multiple_of(2) {
                    ServiceDesign::blif(&fpga_circuits::rent_logic(
                        16,
                        RENT,
                        design_seed(seed, 0x1155, k),
                    ))
                } else {
                    ServiceDesign::vhdl_counter(8 + rng.below(5), design_seed(seed, 0xC7, k))
                });
                misses.len() - 1
            } else {
                rng.below(hits.len())
            };
            requests.push(ServiceRequest {
                id,
                due_s: id as f64 / SERVICE_RATE,
                design,
                miss,
            });
        }
        ServicePlan {
            hits,
            misses,
            requests,
        }
    }

    pub fn design(&self, r: &ServiceRequest) -> &ServiceDesign {
        if r.miss {
            &self.misses[r.design]
        } else {
            &self.hits[r.design]
        }
    }

    /// Digest of every design's source and the schedule.
    pub fn digest(&self) -> String {
        let mut text = String::new();
        for d in self.hits.iter().chain(&self.misses) {
            text.push_str(&d.name);
            text.push('\n');
            text.push_str(&d.source);
        }
        for r in &self.requests {
            text.push_str(&format!("{} {} {} {}\n", r.id, r.due_s, r.design, r.miss));
        }
        digest_hex(&[text.as_bytes()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_job_lists() {
        for w in [Workload::ColdRent1k, Workload::MinwRent64] {
            let a = compile_jobs_digest(&compile_jobs(w, 7, 12));
            let b = compile_jobs_digest(&compile_jobs(w, 7, 12));
            let c = compile_jobs_digest(&compile_jobs(w, 8, 12));
            assert_eq!(a, b, "{}", w.name());
            assert_ne!(a, c, "{}", w.name());
        }
        assert_eq!(
            ServicePlan::new(7, 4).digest(),
            ServicePlan::new(7, 4).digest()
        );
        assert_ne!(
            ServicePlan::new(7, 4).digest(),
            ServicePlan::new(8, 4).digest()
        );
    }

    #[test]
    fn job_list_length_follows_seconds() {
        assert_eq!(compile_jobs(Workload::MinwRent64, 1, 1).len(), 1);
        assert_eq!(compile_jobs(Workload::MinwRent64, 1, 30).len(), 12);
    }

    #[test]
    fn service_misses_are_never_repeated() {
        let plan = ServicePlan::new(3, 30);
        let mut seen = std::collections::BTreeSet::new();
        for d in plan.hits.iter().chain(&plan.misses) {
            assert!(seen.insert(d.source.clone()), "repeated input {}", d.name);
        }
        let misses = plan.requests.iter().filter(|r| r.miss).count();
        assert_eq!(misses, plan.misses.len());
        assert!(plan.misses.iter().any(|d| d.format == Format::Vhdl));
        assert!(plan.requests.windows(2).all(|w| w[0].due_s < w[1].due_s));
    }
}
