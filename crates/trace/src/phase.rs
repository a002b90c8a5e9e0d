//! Program-phase specifications and the deterministic trace generator.
//!
//! A [`PhaseSpec`] captures, in a dozen parameters, everything about a
//! program phase that the paper's resource trade-offs depend on:
//!
//! * **cache sensitivity** comes from the working-set mixture
//!   ([`MemRegion`]s): cyclic-sweep regions produce the sharp LRU miss-curve
//!   knee at an exact way count (a region of `k` way-capacities hits iff the
//!   allocation exceeds `k` ways — the classic LRU cliff of array-sweeping
//!   code), streaming regions give allocation-independent misses;
//! * **parallelism sensitivity** comes from the pointer-chase fraction
//!   (dependent misses cannot overlap regardless of core size) and the
//!   *miss spacing*: independent misses spaced `s` instructions apart
//!   overlap up to `window(c)/s` — the instruction-window size is the
//!   binding resource, so bigger cores overlap more (PS), while chased or
//!   very sparse misses are size-insensitive (PI);
//! * **ILP** comes from the dependency-distance distribution and the
//!   long-latency-op fraction;
//! * **branch behavior** from the branch fraction and misprediction rate.
//!
//! Generation is fully deterministic given `(spec, len, seed)`.

use crate::inst::{Inst, InstKind, Trace};
use triad_util::rand::rngs::StdRng;
use triad_util::rand::{Cutoff, RngExt, SeedableRng, UniformTable};

/// Index of a phase within an application.
pub type PhaseId = usize;

/// How a region's blocks are visited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Independent uniform references (soft, IRM-style miss curve).
    Uniform,
    /// Cyclic sequential walk (sharp LRU knee at `blocks/sets` ways; with
    /// blocks far beyond any allocation this degenerates to streaming).
    Sweep,
}

/// One component of a phase's memory working set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRegion {
    /// Region size in 64-byte blocks.
    pub blocks: u64,
    /// Relative probability that a memory access targets this region.
    pub weight: f64,
    /// Visit order.
    pub pattern: AccessPattern,
}

/// Unscaled LLC blocks per way (256 KiB / 64 B) — a sweep over `k × 4096`
/// blocks has its LRU knee at `k` ways.
pub const BLOCKS_PER_WAY: u64 = 4096;

impl MemRegion {
    /// A uniformly reused region of `kib` KiB.
    pub const fn reuse_kib(kib: u64, weight: f64) -> Self {
        MemRegion { blocks: kib * 1024 / 64, weight, pattern: AccessPattern::Uniform }
    }

    /// A cyclic sweep sized to `ways` way-capacities: all its LLC accesses
    /// miss below `ways` allocated ways and all hit above (the LRU cliff).
    pub fn sweep_ways(ways: f64, weight: f64) -> Self {
        MemRegion {
            blocks: (ways * BLOCKS_PER_WAY as f64) as u64,
            weight,
            pattern: AccessPattern::Sweep,
        }
    }

    /// A streaming region of `mib` MiB (wrapping sequential walk far beyond
    /// any allocation: misses at every way count).
    pub const fn stream_mib(mib: u64, weight: f64) -> Self {
        MemRegion { blocks: mib * 1024 * 1024 / 64, weight, pattern: AccessPattern::Sweep }
    }
}

/// Parameter set describing one program phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Stable tag mixed into the RNG seed.
    pub tag: u64,
    /// Fraction of instructions that are loads.
    pub load_frac: f64,
    /// Fraction of instructions that are stores.
    pub store_frac: f64,
    /// Fraction of instructions that are conditional branches.
    pub branch_frac: f64,
    /// Fraction of instructions that are long-latency arithmetic.
    pub longop_frac: f64,
    /// Probability that a branch is mispredicted.
    pub mispredict_rate: f64,
    /// Mean of the geometric dependency-distance distribution. Small values
    /// produce serial code (low ILP); large values produce independent
    /// instructions whose throughput scales with dispatch width.
    pub dep_mean: f64,
    /// Probability that an instruction has a second producer.
    pub dep2_prob: f64,
    /// Fraction of loads whose address depends on the previous load
    /// (pointer chasing — serializes misses, defeating MLP).
    pub chase_frac: f64,
    /// Mean run length of consecutive memory accesses to the same region
    /// (sticky region selection). `1.0` = independent draws. Long bursts of
    /// misses expose window-size-dependent MLP; short bursts fit every
    /// core's window.
    pub burst: f64,
    /// Probability that a non-chase memory operation computes its address
    /// from a recent producer (a normal sampled dependency) instead of an
    /// induction chain that runs ahead (address ready at dispatch).
    /// Streaming/array code sits near 0; irregular/compute code near 1.
    pub addr_dep: f64,
    /// Working-set mixture. Weights need not sum to 1; they are normalized.
    pub regions: Vec<MemRegion>,
}

impl PhaseSpec {
    /// Check internal consistency (fractions in range, non-empty regions if
    /// any memory instructions are requested).
    pub fn validate(&self) -> Result<(), String> {
        let mix = self.load_frac + self.store_frac + self.branch_frac + self.longop_frac;
        if !(0.0..=1.0).contains(&mix) {
            return Err(format!("instruction mix sums to {mix}, expected within [0,1]"));
        }
        for f in [
            self.load_frac,
            self.store_frac,
            self.branch_frac,
            self.longop_frac,
            self.mispredict_rate,
            self.chase_frac,
            self.dep2_prob,
            self.addr_dep,
        ] {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fraction {f} outside [0,1]"));
            }
        }
        if self.dep_mean < 1.0 {
            return Err("dep_mean must be >= 1".into());
        }
        if self.burst < 1.0 {
            return Err("burst must be >= 1".into());
        }
        if (self.load_frac > 0.0 || self.store_frac > 0.0) && self.regions.is_empty() {
            return Err("memory instructions requested but no regions given".into());
        }
        if self.regions.iter().any(|r| r.weight < 0.0 || r.blocks == 0) {
            return Err("regions must have positive size and non-negative weight".into());
        }
        Ok(())
    }

    /// Generate `len` instructions for this phase.
    ///
    /// The same `(self, len, seed)` always yields the identical trace.
    pub fn generate(&self, len: usize, seed: u64) -> Trace {
        let mut insts = Vec::with_capacity(len);
        self.generate_stream(len, seed, |_, inst| insts.push(inst));
        Trace { insts }
    }

    /// Streaming form of [`PhaseSpec::generate`]: emit each instruction to
    /// `sink(i, inst)` in program order instead of materializing a
    /// [`Trace`]. The RNG draw sequence — and therefore every emitted
    /// instruction — is identical to [`PhaseSpec::generate`] with the same
    /// `(self, len, seed)`; `generate` is a thin collector over this.
    ///
    /// This is what lets the phase-database build classify the warmup
    /// prefix (cache-state-only) without ever allocating its `Inst`
    /// records.
    ///
    /// Internally every floating-point decision is replayed through the
    /// precomputed `DrawTables` — integer threshold compares on the raw
    /// 53-bit draws, bit-identical to the chained `random`/`random_bool`/
    /// `random_range` schedule (see [`triad_util::rand::Cutoff`] for the
    /// exactness argument, and `generate_stream_chained` for the reference
    /// implementation the property tests compare against).
    pub fn generate_stream(&self, len: usize, seed: u64, mut sink: impl FnMut(usize, Inst)) {
        self.validate().expect("invalid PhaseSpec");
        let mut rng = StdRng::seed_from_u64(seed ^ self.tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let t = DrawTables::new(self);
        // Per-region streaming cursors and address bases. Bases are spread
        // (1 TiB apart) so regions never alias in any cache level.
        let mut cursors = vec![0u64; self.regions.len()];
        let bases: Vec<u64> = (0..self.regions.len())
            .map(|i| (self.tag.wrapping_mul(31).wrapping_add(i as u64 + 1)) << 40)
            .collect();

        // Pointer walks chain within their own data structure: the producer
        // of a chase load is the previous load *to the same region*.
        let mut last_load_in: Vec<Option<usize>> = vec![None; self.regions.len()];
        let mut cur_region: Option<usize> = None;
        for i in 0..len {
            let x = rng.draw53();
            let is_load = t.kind_load.admits(x);
            let is_store = !is_load && t.kind_load_store.admits(x);
            let (kind, addr, chase, region) = if is_load || is_store {
                // Sticky region selection: with probability 1 − 1/burst the
                // access stays in the current region (runs of mean length
                // `burst`).
                let ri = match cur_region {
                    Some(r) if t.stay.sample(&mut rng) => r,
                    _ => {
                        let u = rng.draw53();
                        t.region_cum
                            .iter()
                            .position(|c| c.admits(u))
                            .unwrap_or(self.regions.len() - 1)
                    }
                };
                cur_region = Some(ri);
                let r = &self.regions[ri];
                let block = match r.pattern {
                    AccessPattern::Sweep => {
                        let b = cursors[ri];
                        // The cursor is always < blocks, so wrap-around is a
                        // compare, not a division.
                        let n = b + 1;
                        cursors[ri] = if n == r.blocks { 0 } else { n };
                        b
                    }
                    AccessPattern::Uniform => t.region_addr[ri].sample(&mut rng),
                };
                let a = bases[ri] + block * 64;
                let chase = is_load && last_load_in[ri].is_some() && t.chase.sample(&mut rng);
                (if is_load { InstKind::Load } else { InstKind::Store }, a, chase, Some(ri))
            } else if t.kind_thru_branch.admits(x) {
                (InstKind::Branch, 0, false, None)
            } else if t.kind_thru_longop.admits(x) {
                (InstKind::LongOp, 0, false, None)
            } else {
                (InstKind::Alu, 0, false, None)
            };

            // Memory operations compute their address from integer
            // induction/index chains that run ahead of the data flow, so a
            // non-chase memory op is address-ready at dispatch; only the
            // explicit `chase` flag models data-dependent addresses
            // (pointer walks), which serialize misses within a region.
            // Non-memory instructions consume arbitrary recent producers —
            // including loads — which is what makes consumers stall on
            // misses.
            // The two `0` arms stay separate on purpose: `addr_dep` must
            // consume its RNG draw for every non-chase memory op — including
            // at `i == 0` — to stay draw-for-draw aligned with the chained
            // reference generator it is proven bit-identical against.
            #[allow(clippy::if_same_then_else)]
            let dep1 = if chase {
                (i - last_load_in[region.unwrap()].unwrap()) as u32
            } else if kind.is_mem() && !t.addr_dep.sample(&mut rng) {
                0
            } else if i == 0 {
                0
            } else {
                (t.dep.sample(&mut rng) as u32).min(i as u32)
            };
            let dep2 = if !kind.is_mem() && t.dep2.sample(&mut rng) && i > 0 {
                (t.dep.sample(&mut rng) as u32).min(i as u32)
            } else {
                0
            };
            let mispredict = kind == InstKind::Branch && t.mispredict.sample(&mut rng);

            if kind == InstKind::Load {
                last_load_in[region.unwrap()] = Some(i);
            }
            sink(i, Inst { addr, dep1, dep2, kind, mispredict, chase });
        }
    }

    /// The pre-PR8 draw-chained generator, retained verbatim as the
    /// reference the tabled [`PhaseSpec::generate_stream`] is proven
    /// against (property tests) and benchmarked against
    /// (`trace_front`'s tabled-vs-chained gate). Not part of the public
    /// API surface.
    #[doc(hidden)]
    pub fn generate_stream_chained(
        &self,
        len: usize,
        seed: u64,
        mut sink: impl FnMut(usize, Inst),
    ) {
        self.validate().expect("invalid PhaseSpec");
        let mut rng = StdRng::seed_from_u64(seed ^ self.tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let total_w: f64 = self.regions.iter().map(|r| r.weight).sum();
        // Cumulative weights for region selection.
        let mut cum = Vec::with_capacity(self.regions.len());
        let mut acc = 0.0;
        for r in &self.regions {
            acc += r.weight / total_w.max(f64::MIN_POSITIVE);
            cum.push(acc);
        }
        let mut cursors = vec![0u64; self.regions.len()];
        let bases: Vec<u64> = (0..self.regions.len())
            .map(|i| (self.tag.wrapping_mul(31).wrapping_add(i as u64 + 1)) << 40)
            .collect();

        let mut last_load_in: Vec<Option<usize>> = vec![None; self.regions.len()];
        let mut cur_region: Option<usize> = None;
        let p_stay = 1.0 - 1.0 / self.burst;
        let dep_lo = (self.dep_mean * 0.5).ceil().max(1.0) as u32;
        let dep_hi = (self.dep_mean * 1.5).floor().max(dep_lo as f64) as u32;
        for i in 0..len {
            let u: f64 = rng.random();
            let is_load = u < self.load_frac;
            let is_store = !is_load && u < self.load_frac + self.store_frac;
            let (kind, addr, chase, region) = if is_load || is_store {
                let ri = self.pick_region(&mut rng, &cum, &mut cur_region, p_stay);
                let a = self.addr_in(&mut rng, ri, &mut cursors, &bases);
                let chase =
                    is_load && last_load_in[ri].is_some() && rng.random_bool(self.chase_frac);
                (if is_load { InstKind::Load } else { InstKind::Store }, a, chase, Some(ri))
            } else if u < self.load_frac + self.store_frac + self.branch_frac {
                (InstKind::Branch, 0, false, None)
            } else if u < self.load_frac + self.store_frac + self.branch_frac + self.longop_frac {
                (InstKind::LongOp, 0, false, None)
            } else {
                (InstKind::Alu, 0, false, None)
            };

            let dep1 = if chase {
                (i - last_load_in[region.unwrap()].unwrap()) as u32
            } else if kind.is_mem() && !rng.random_bool(self.addr_dep) {
                0
            } else {
                sample_dep(&mut rng, dep_lo, dep_hi, i)
            };
            let dep2 = if !kind.is_mem() && rng.random_bool(self.dep2_prob) {
                sample_dep(&mut rng, dep_lo, dep_hi, i)
            } else {
                0
            };
            let mispredict = kind == InstKind::Branch && rng.random_bool(self.mispredict_rate);

            if kind == InstKind::Load {
                last_load_in[region.unwrap()] = Some(i);
            }
            sink(i, Inst { addr, dep1, dep2, kind, mispredict, chase });
        }
    }

    /// Sticky region selection: with probability 1 − 1/burst the access
    /// stays in the current region, producing runs of mean length `burst`.
    fn pick_region(
        &self,
        rng: &mut StdRng,
        cum: &[f64],
        cur_region: &mut Option<usize>,
        p_stay: f64,
    ) -> usize {
        let ri = match *cur_region {
            Some(r) if rng.random_bool(p_stay) => r,
            _ => {
                let u: f64 = rng.random();
                cum.iter().position(|&c| u <= c).unwrap_or(cum.len() - 1)
            }
        };
        *cur_region = Some(ri);
        ri
    }

    /// Produce the next address within region `ri`.
    fn addr_in(&self, rng: &mut StdRng, ri: usize, cursors: &mut [u64], bases: &[u64]) -> u64 {
        let r = &self.regions[ri];
        let block = match r.pattern {
            AccessPattern::Sweep => {
                let b = cursors[ri];
                // The cursor is always < blocks, so wrap-around is a
                // compare, not a division.
                let n = b + 1;
                cursors[ri] = if n == r.blocks { 0 } else { n };
                b
            }
            AccessPattern::Uniform => rng.random_range(0..r.blocks),
        };
        bases[ri] + block * 64
    }

    /// A working-set-scaled copy of this phase for use with
    /// `CacheGeometry::table1_scaled(_, factor)`: every region shrinks by
    /// `factor` so that working-set-to-cache ratios — and therefore miss
    /// curves versus way count — are preserved while short traces reach
    /// steady state.
    pub fn scaled(&self, factor: u64) -> PhaseSpec {
        let mut p = self.clone();
        for r in &mut p.regions {
            r.blocks = (r.blocks / factor).max(16);
        }
        p
    }
}

/// Precomputed draw schedule for one [`PhaseSpec`]: every per-instruction
/// floating-point comparison and every Lemire rejection threshold in the
/// generator, tabled once up front.
///
/// The kind cutoffs are built from the *same left-associated cumulative
/// sums* the chained generator evaluates per instruction (`(lf + sf) +
/// bf` …), so the f64 rounding — and therefore every decision — is
/// identical; see [`Cutoff`] for why the float→integer conversion is
/// exact. `region_addr` carries one [`UniformTable`] per region (unused
/// for sweeps, whose cursor advance draws nothing).
struct DrawTables {
    kind_load: Cutoff,
    kind_load_store: Cutoff,
    kind_thru_branch: Cutoff,
    kind_thru_longop: Cutoff,
    stay: Cutoff,
    chase: Cutoff,
    addr_dep: Cutoff,
    dep2: Cutoff,
    mispredict: Cutoff,
    region_cum: Vec<Cutoff>,
    region_addr: Vec<UniformTable>,
    dep: UniformTable,
}

impl DrawTables {
    fn new(spec: &PhaseSpec) -> DrawTables {
        let lf = spec.load_frac;
        let ls = lf + spec.store_frac;
        let lsb = ls + spec.branch_frac;
        let lsbl = lsb + spec.longop_frac;
        let total_w: f64 = spec.regions.iter().map(|r| r.weight).sum();
        let mut acc = 0.0;
        let region_cum = spec
            .regions
            .iter()
            .map(|r| {
                acc += r.weight / total_w.max(f64::MIN_POSITIVE);
                Cutoff::le(acc)
            })
            .collect();
        let region_addr = spec.regions.iter().map(|r| UniformTable::new(0, r.blocks - 1)).collect();
        let dep_lo = (spec.dep_mean * 0.5).ceil().max(1.0) as u32;
        let dep_hi = (spec.dep_mean * 1.5).floor().max(dep_lo as f64) as u32;
        DrawTables {
            kind_load: Cutoff::lt(lf),
            kind_load_store: Cutoff::lt(ls),
            kind_thru_branch: Cutoff::lt(lsb),
            kind_thru_longop: Cutoff::lt(lsbl),
            stay: Cutoff::lt(1.0 - 1.0 / spec.burst),
            chase: Cutoff::lt(spec.chase_frac),
            addr_dep: Cutoff::lt(spec.addr_dep),
            dep2: Cutoff::lt(spec.dep2_prob),
            mispredict: Cutoff::lt(spec.mispredict_rate),
            region_cum,
            region_addr,
            dep: UniformTable::new(dep_lo as u64, dep_hi as u64),
        }
    }
}

/// Sample a dependency distance uniform in `[lo, hi]`, clamped to the
/// available history `i`.
///
/// Distances are uniform in `[⌈m/2⌉, ⌊3m/2⌋]` around `m = dep_mean`: a
/// low-variance distribution makes the dependence DAG's width sharply
/// ≈ `m`, so a core whose dispatch width exceeds `m` gains nothing —
/// which is what lets `dep_mean` separate parallelism-sensitive from
/// parallelism-insensitive code (fat-tailed distances would let wide
/// cores profit from the high-parallelism tail even at small means).
/// The bounds are hoisted out of the per-instruction loop by the caller.
#[inline]
fn sample_dep(rng: &mut StdRng, lo: u32, hi: u32, i: usize) -> u32 {
    if i == 0 {
        return 0;
    }
    rng.random_range(lo..=hi).min(i as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PhaseSpec {
        PhaseSpec {
            tag: 42,
            load_frac: 0.25,
            store_frac: 0.10,
            branch_frac: 0.15,
            longop_frac: 0.05,
            mispredict_rate: 0.05,
            dep_mean: 8.0,
            dep2_prob: 0.3,
            chase_frac: 0.2,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion::reuse_kib(512, 1.0), MemRegion::stream_mib(64, 0.2)],
        }
    }

    #[test]
    fn tabled_generator_matches_chained_reference() {
        // The tabled draw schedule must replay the chained generator
        // bit-for-bit — same instructions from the same draws — across
        // the parameter corners: sticky bursts, pure sweeps, pure
        // uniform, chase-heavy, compute-only, and fractional mixes whose
        // cumulative sums are not exactly representable.
        let mut specs = vec![spec()];
        let mut s = spec();
        s.burst = 7.3;
        s.chase_frac = 0.9;
        s.regions = vec![
            MemRegion::sweep_ways(3.5, 0.61),
            MemRegion::reuse_kib(64, 0.17),
            MemRegion::stream_mib(8, 0.22),
        ];
        specs.push(s);
        let mut s = spec();
        s.load_frac = 0.1;
        s.store_frac = 0.2;
        s.branch_frac = 0.3;
        s.longop_frac = 0.4;
        s.mispredict_rate = 1.0;
        s.dep_mean = 1.0;
        s.dep2_prob = 1.0;
        specs.push(s);
        let mut s = spec();
        s.load_frac = 0.0;
        s.store_frac = 0.0;
        s.regions.clear();
        specs.push(s);
        for (si, s) in specs.iter().enumerate() {
            for seed in [0u64, 7, 0xC0FFEE] {
                let mut chained = Vec::new();
                s.generate_stream_chained(20_000, seed, |_, inst| chained.push(inst));
                let mut k = 0usize;
                s.generate_stream(20_000, seed, |i, inst| {
                    assert_eq!(i, k);
                    assert_eq!(inst, chained[i], "spec {si} seed {seed} diverged at inst {i}");
                    k += 1;
                });
                assert_eq!(k, chained.len());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec();
        let a = s.generate(10_000, 7);
        let b = s.generate(10_000, 7);
        assert_eq!(a.insts, b.insts);
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec();
        let a = s.generate(10_000, 7);
        let b = s.generate(10_000, 8);
        assert_ne!(a.insts, b.insts);
    }

    #[test]
    fn mix_matches_parameters() {
        let s = spec();
        let t = s.generate(200_000, 1);
        let n = t.len() as f64;
        let lf = t.count_kind(InstKind::Load) as f64 / n;
        let sf = t.count_kind(InstKind::Store) as f64 / n;
        let bf = t.count_kind(InstKind::Branch) as f64 / n;
        assert!((lf - 0.25).abs() < 0.01, "load frac {lf}");
        assert!((sf - 0.10).abs() < 0.01, "store frac {sf}");
        assert!((bf - 0.15).abs() < 0.01, "branch frac {bf}");
    }

    #[test]
    fn chase_loads_point_at_previous_load_in_their_region() {
        // Pointer walks chain within their own data structure: the chase
        // producer is the most recent load to the same region (regions are
        // identified by their TiB-scale address window).
        let s = spec();
        let t = s.generate(50_000, 3);
        let mut last_load_in: std::collections::HashMap<u64, usize> = Default::default();
        for (i, inst) in t.insts.iter().enumerate() {
            if inst.chase {
                let ll = last_load_in
                    .get(&(inst.addr >> 40))
                    .copied()
                    .expect("chase load without a previous load in its region");
                assert_eq!(inst.dep1 as usize, i - ll, "chase dep must reach last region load");
            }
            if inst.kind == InstKind::Load {
                last_load_in.insert(inst.addr >> 40, i);
            }
        }
    }

    #[test]
    fn deps_never_reach_before_trace_start() {
        let t = spec().generate(5_000, 11);
        for (i, inst) in t.insts.iter().enumerate() {
            assert!(inst.dep1 as usize <= i);
            assert!(inst.dep2 as usize <= i);
        }
    }

    #[test]
    fn addresses_are_block_aligned_and_region_disjoint() {
        let s = spec();
        let t = s.generate(20_000, 5);
        for inst in &t.insts {
            if inst.kind.is_mem() {
                assert_eq!(inst.addr % 64, 0);
            }
        }
        // Two regions must occupy disjoint TiB-scale windows.
        let mut hi: Vec<u64> =
            t.insts.iter().filter(|i| i.kind.is_mem()).map(|i| i.addr >> 40).collect();
        hi.sort_unstable();
        hi.dedup();
        assert_eq!(hi.len(), 2, "expected exactly two distinct region windows");
    }

    #[test]
    fn streaming_region_walks_sequentially() {
        let s = PhaseSpec {
            tag: 1,
            load_frac: 1.0,
            store_frac: 0.0,
            branch_frac: 0.0,
            longop_frac: 0.0,
            mispredict_rate: 0.0,
            dep_mean: 8.0,
            dep2_prob: 0.0,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![MemRegion {
                blocks: 1 << 20,
                weight: 1.0,
                pattern: AccessPattern::Sweep,
            }],
        };
        let t = s.generate(1000, 2);
        for (k, inst) in t.insts.iter().enumerate() {
            assert_eq!(inst.addr & 0xFF_FFFF_FFFF, (k as u64) * 64);
        }
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s = spec();
        s.load_frac = 1.2;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.dep_mean = 0.5;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.regions.clear();
        assert!(s.validate().is_err());
        let mut s = spec();
        s.regions[0].blocks = 0;
        assert!(s.validate().is_err());
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn pure_compute_phase_needs_no_regions() {
        let s = PhaseSpec {
            tag: 9,
            load_frac: 0.0,
            store_frac: 0.0,
            branch_frac: 0.2,
            longop_frac: 0.1,
            mispredict_rate: 0.01,
            dep_mean: 16.0,
            dep2_prob: 0.2,
            chase_frac: 0.0,
            burst: 1.0,
            addr_dep: 0.5,
            regions: vec![],
        };
        assert!(s.validate().is_ok());
        let t = s.generate(1000, 1);
        assert_eq!(t.count_kind(InstKind::Load), 0);
    }
}
