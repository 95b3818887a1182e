//! The SA-1100-style timing model.
//!
//! The paper's §5 simulates Intel's SA-1100 StrongARM as a dual-issue
//! in-order machine at 200 MHz (§6.4.2: "the highest IPC possible is 2").
//! This model consumes the retired-instruction stream and accounts cycles:
//!
//! * **Fetch** — one I-cache access per aligned 32-bit word. Two sequential
//!   16-bit FITS instructions share one fetch (the fetch-buffer effect that
//!   halves FITS I-cache traffic); every AR32 instruction is its own word.
//! * **Issue** — up to two instructions per cycle, subject to the classic
//!   in-order pairing rules: no intra-pair RAW (registers or flags), at most
//!   one memory op and one multiply per pair, a control-flow op ends the
//!   pair, and both must come from the same or adjacent fetch words.
//! * **Hazards** — one-cycle load-use interlock, multi-cycle multiply,
//!   static BTFNT branch prediction (backward taken / forward not-taken)
//!   with a redirect bubble on correct taken branches and a deeper flush on
//!   mispredicts, and blocking cache-miss stalls.

use crate::cache::{validate_config, GeometryError};
use crate::{Cache, CacheConfig, CacheStats, SimError, StepInfo};
use fits_isa::InstrClass;

/// Configuration of the simulated core, defaults modeled on the SA-1100.
#[derive(Clone, Debug)]
pub struct Sa1100Config {
    /// Instruction cache geometry (the experiments' controlled variable).
    pub icache: CacheConfig,
    /// Data cache geometry (held constant across configurations).
    pub dcache: CacheConfig,
    /// Cycles stalled on an I-cache miss.
    pub icache_miss_penalty: u64,
    /// Cycles stalled on a D-cache miss.
    pub dcache_miss_penalty: u64,
    /// Extra cycles occupied by a multiply.
    pub mul_extra_cycles: u64,
    /// Redirect bubble for a correctly-predicted taken branch.
    pub taken_branch_penalty: u64,
    /// Flush penalty for a mispredicted branch.
    pub mispredict_penalty: u64,
    /// Core clock, Hz (the paper's fixed 200 MHz).
    pub freq_hz: f64,
}

impl Sa1100Config {
    /// The baseline configuration with a 16 KB I-cache ("ARM16"/"FITS16").
    #[must_use]
    pub fn icache_16k() -> Sa1100Config {
        Sa1100Config {
            icache: CacheConfig::sa1100_icache(),
            dcache: CacheConfig::sa1100_dcache(),
            icache_miss_penalty: 24,
            dcache_miss_penalty: 24,
            mul_extra_cycles: 2,
            taken_branch_penalty: 1,
            mispredict_penalty: 3,
            freq_hz: 200.0e6,
        }
    }

    /// The half-size configuration with an 8 KB I-cache ("ARM8"/"FITS8").
    #[must_use]
    pub fn icache_8k() -> Sa1100Config {
        let mut cfg = Sa1100Config::icache_16k();
        cfg.icache = cfg
            .icache
            .resized(8 * 1024)
            .expect("8 KB divides the fixed SA-1100 geometry");
        cfg
    }

    /// A copy with the I-cache resized to `bytes`.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] when `bytes` is not compatible with the
    /// geometry (see [`CacheConfig::resized`]).
    pub fn with_icache_bytes(&self, bytes: u32) -> Result<Sa1100Config, GeometryError> {
        let mut cfg = self.clone();
        cfg.icache = cfg.icache.resized(bytes)?;
        Ok(cfg)
    }
}

/// Branch-behaviour counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Branch instructions retired.
    pub branches: u64,
    /// Taken branches.
    pub taken: u64,
    /// Static-prediction (BTFNT) mispredicts.
    pub mispredicted: u64,
}

/// Microarchitectural statistics from a timed run — the sole input (besides
/// geometry) to the `fits-power` model.
///
/// Equality is exact (every counter is an integer), which is what lets the
/// differential tests assert that the compiled replay
/// ([`crate::RecordedTrace::price_all`]) reproduces per-configuration
/// interpreted runs bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimResult {
    /// Total cycles.
    pub cycles: u64,
    /// Retired instructions (including failed-condition ones).
    pub retired: u64,
    /// Instructions whose condition passed.
    pub executed: u64,
    /// Issue groups (cycles that issued at least one instruction).
    pub issue_groups: u64,
    /// Groups that dual-issued.
    pub dual_issues: u64,
    /// Instruction-cache activity.
    pub icache: CacheStats,
    /// Data-cache activity.
    pub dcache: CacheStats,
    /// Retired-instruction counts per [`InstrClass`]
    /// (operate, memory, branch, trap).
    pub class_counts: [u64; 4],
    /// Branch behaviour.
    pub branch: BranchStats,
    /// Register-file read-port events.
    pub reg_reads: u64,
    /// Register-file write-port events.
    pub reg_writes: u64,
    /// Flag-register writes.
    pub flag_writes: u64,
    /// Multiplies executed.
    pub mul_ops: u64,
    /// Load-use interlock stalls.
    pub load_use_stalls: u64,
    /// Cycles lost to I-cache misses.
    pub icache_stall_cycles: u64,
    /// Cycles lost to D-cache misses.
    pub dcache_stall_cycles: u64,
}

impl SimResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Wall-clock runtime in seconds at the configured frequency.
    #[must_use]
    pub fn runtime_seconds(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }
}

/// Observer of the cache-level events a timing run generates — the seam
/// the `fits-obs` tracing layer rides.
///
/// The compiled replay reports them from
/// [`crate::RecordedTrace::price_with`], which is what traced runs use;
/// the interpreted oracle reports the same stream from
/// [`TimingModel::observe_with`] and [`TimingModel::finish_with`], and the
/// differential tests in `fits-obs` hold the two event for event.
///
/// Events fire only for **actual** cache accesses: a second 16-bit FITS
/// instruction served from the same fetched word produces no I-cache event,
/// exactly as it produces no access in [`CacheStats`]. A `hit == false`
/// event implies a line fill of `line_bytes / 4` words.
///
/// All methods default to no-ops, and `()` implements the trait, so the
/// untraced paths ([`crate::RecordedTrace::price`],
/// [`TimingModel::observe`]) monomorphize to exactly the unobserved code.
pub trait CacheEventObserver {
    /// One I-cache access of the aligned word at `word_addr`.
    fn icache_access(&mut self, word_addr: u32, hit: bool) {
        let _ = (word_addr, hit);
    }

    /// One D-cache access at `addr` (`write` for stores).
    fn dcache_access(&mut self, addr: u32, write: bool, hit: bool) {
        let _ = (addr, write, hit);
    }
}

/// The no-op observer used by the untraced fast path.
impl CacheEventObserver for () {}

/// Streaming timing model; feed it [`StepInfo`]s, then call
/// [`TimingModel::finish`].
///
/// This interpreted model is the independent oracle for the compiled
/// replay in [`crate::RecordedTrace`]: tests compare the two counter for
/// counter and event for event, and the pipeline itself prices runs with
/// the compiled engine.
#[derive(Debug)]
pub struct TimingModel {
    /// Penalty values copied out of the borrowed [`Sa1100Config`] — the
    /// model keeps no clone of the configuration, so hot sweep paths can
    /// build one model per configuration from shared references.
    icache_miss_penalty: u64,
    dcache_miss_penalty: u64,
    mul_extra_cycles: u64,
    taken_branch_penalty: u64,
    mispredict_penalty: u64,
    icache: Cache,
    dcache: Cache,
    result: SimResult,
    /// First instruction of the currently-forming issue pair.
    pending: Option<StepInfo>,
    /// Word address most recently obtained from the fetch path.
    last_fetch_word: Option<u32>,
    /// Destination of a load issued in the immediately preceding group.
    last_group_load_dest: Option<fits_isa::Reg>,
    load_dest_this_group: Option<fits_isa::Reg>,
}

impl TimingModel {
    /// Builds a model, validating cache geometry. Takes the configuration
    /// by reference: only the two cache geometries are copied (into the
    /// caches themselves) plus the five penalty scalars.
    ///
    /// # Errors
    ///
    /// Returns an error when either cache geometry is degenerate.
    pub fn new(cfg: &Sa1100Config) -> Result<TimingModel, SimError> {
        validate_config(&cfg.icache)?;
        validate_config(&cfg.dcache)?;
        Ok(TimingModel {
            icache: Cache::new(cfg.icache.clone()),
            dcache: Cache::new(cfg.dcache.clone()),
            icache_miss_penalty: cfg.icache_miss_penalty,
            dcache_miss_penalty: cfg.dcache_miss_penalty,
            mul_extra_cycles: cfg.mul_extra_cycles,
            taken_branch_penalty: cfg.taken_branch_penalty,
            mispredict_penalty: cfg.mispredict_penalty,
            result: SimResult::default(),
            pending: None,
            last_fetch_word: None,
            last_group_load_dest: None,
            load_dest_this_group: None,
        })
    }

    fn fetch<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        if self.last_fetch_word == Some(info.fetch_word_addr) {
            return; // second half of the same 32-bit fetch (16-bit ISAs)
        }
        self.last_fetch_word = Some(info.fetch_word_addr);
        let cycle = self.result.cycles;
        let hit = self
            .icache
            .access(info.fetch_word_addr, false, info.fetch_word_value, cycle);
        obs.icache_access(info.fetch_word_addr, hit);
        if !hit {
            self.result.cycles += self.icache_miss_penalty;
            self.result.icache_stall_cycles += self.icache_miss_penalty;
        }
    }

    fn can_pair(a: &StepInfo, b: &StepInfo) -> bool {
        // A control-flow op (or anything that redirected the PC) closes the
        // group.
        if a.branch.is_some() || a.class == InstrClass::Trap {
            return false;
        }
        // Fetch bandwidth: the pair must come from the same or the next
        // aligned word.
        if b.fetch_word_addr != a.fetch_word_addr && b.fetch_word_addr != a.fetch_word_addr + 4 {
            return false;
        }
        // Structural: one memory port, one multiplier.
        if a.mem.is_some() && b.mem.is_some() {
            return false;
        }
        if a.is_mul && b.is_mul {
            return false;
        }
        // RAW on registers.
        for d in a.dests.iter().flatten() {
            if b.sources.iter().flatten().any(|s| s == d) {
                return false;
            }
            // WAW within a pair also serializes on this simple core.
            if b.dests.iter().flatten().any(|s| s == d) {
                return false;
            }
        }
        // RAW on flags.
        if a.sets_flags && b.reads_flags {
            return false;
        }
        true
    }

    fn issue_group<O: CacheEventObserver>(
        &mut self,
        first: StepInfo,
        second: Option<StepInfo>,
        obs: &mut O,
    ) {
        self.result.cycles += 1;
        self.result.issue_groups += 1;
        if second.is_some() {
            self.result.dual_issues += 1;
        }
        self.load_dest_this_group = None;

        // Load-use interlock against the previous group.
        if let Some(dest) = self.last_group_load_dest {
            let uses = |i: &StepInfo| i.sources.iter().flatten().any(|s| *s == dest);
            if uses(&first) || second.as_ref().is_some_and(uses) {
                self.result.cycles += 1;
                self.result.load_use_stalls += 1;
            }
        }

        for info in std::iter::once(&first).chain(second.as_ref()) {
            self.account_instr(info, obs);
        }
        self.last_group_load_dest = self.load_dest_this_group.take();
    }

    fn account_instr<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        let class_idx = match info.class {
            InstrClass::Operate => 0,
            InstrClass::Memory => 1,
            InstrClass::Branch => 2,
            InstrClass::Trap => 3,
        };
        self.result.class_counts[class_idx] += 1;
        if info.executed {
            self.result.executed += 1;
        }
        self.result.reg_reads += u64::from(info.reg_reads);
        self.result.reg_writes += u64::from(info.reg_writes);
        if info.sets_flags {
            self.result.flag_writes += 1;
        }
        if info.is_mul {
            self.result.mul_ops += 1;
            self.result.cycles += self.mul_extra_cycles;
        }
        if let Some(mem) = &info.mem {
            let cycle = self.result.cycles;
            let hit = self.dcache.access(mem.addr, !mem.is_load, mem.data, cycle);
            obs.dcache_access(mem.addr, !mem.is_load, hit);
            if !hit {
                self.result.cycles += self.dcache_miss_penalty;
                self.result.dcache_stall_cycles += self.dcache_miss_penalty;
            }
            if mem.is_load {
                self.load_dest_this_group = info.dests[0];
            }
        }
        if let Some(branch) = &info.branch {
            self.result.branch.branches += 1;
            let predicted_taken = branch.backward; // BTFNT
            if branch.taken {
                self.result.branch.taken += 1;
            }
            if branch.taken != predicted_taken {
                self.result.branch.mispredicted += 1;
                self.result.cycles += self.mispredict_penalty;
            } else if branch.taken {
                self.result.cycles += self.taken_branch_penalty;
            }
            if branch.taken {
                // The next fetch starts at the target word.
                self.last_fetch_word = None;
            }
        }
    }

    /// Feeds one retired instruction.
    pub fn observe(&mut self, info: &StepInfo) {
        self.observe_with(info, &mut ());
    }

    /// Feeds one retired instruction, reporting every cache access to
    /// `obs`. [`TimingModel::observe`] is this method with the no-op `()`
    /// observer — the accumulated [`SimResult`] is identical either way.
    pub fn observe_with<O: CacheEventObserver>(&mut self, info: &StepInfo, obs: &mut O) {
        self.result.retired += 1;
        self.fetch(info, obs);
        match self.pending.take() {
            None => self.pending = Some(*info),
            Some(prev) => {
                if Self::can_pair(&prev, info) {
                    self.issue_group(prev, Some(*info), obs);
                } else {
                    self.issue_group(prev, None, obs);
                    self.pending = Some(*info);
                }
            }
        }
    }

    /// Flushes pending state and returns the accumulated statistics.
    #[must_use]
    pub fn finish(self) -> SimResult {
        self.finish_with(&mut ())
    }

    /// Like [`TimingModel::finish`], reporting any cache accesses from the
    /// flushed final issue group to `obs`.
    #[must_use]
    pub fn finish_with<O: CacheEventObserver>(mut self, obs: &mut O) -> SimResult {
        if let Some(prev) = self.pending.take() {
            self.issue_group(prev, None, obs);
        }
        self.icache.finish();
        self.dcache.finish();
        self.result.icache = self.icache.stats().clone();
        self.result.dcache = self.dcache.stats().clone();
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::BranchOutcome;
    use crate::MemAccess;
    use fits_isa::{Reg, TEXT_BASE};

    fn info(pc: u32) -> StepInfo {
        StepInfo {
            pc,
            size: 4,
            fetch_word_addr: pc & !3,
            fetch_word_value: pc, // arbitrary
            class: InstrClass::Operate,
            reg_reads: 2,
            reg_writes: 1,
            executed: true,
            mem: None,
            branch: None,
            is_mul: false,
            dests: [Some(Reg::R0), None],
            sources: [Some(Reg::R1), Some(Reg::R2), None],
            sets_flags: false,
            reads_flags: false,
        }
    }

    fn model() -> TimingModel {
        TimingModel::new(&Sa1100Config::icache_16k()).unwrap()
    }

    #[test]
    fn independent_adjacent_ops_dual_issue() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.dests = [Some(Reg::R0), None];
        let mut b = info(TEXT_BASE + 4);
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.dual_issues, 1);
        assert_eq!(r.issue_groups, 1);
        assert_eq!(r.retired, 2);
    }

    #[test]
    fn raw_dependency_blocks_pairing() {
        let mut t = model();
        let a = info(TEXT_BASE); // writes r0
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R0), None, None]; // reads r0
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.dual_issues, 0);
        assert_eq!(r.issue_groups, 2);
    }

    #[test]
    fn flag_dependency_blocks_pairing() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.sets_flags = true;
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R4), None, None];
        b.dests = [Some(Reg::R5), None];
        b.reads_flags = true;
        t.observe(&a);
        t.observe(&b);
        assert_eq!(t.finish().dual_issues, 0);
    }

    #[test]
    fn two_memory_ops_serialize() {
        let mut t = model();
        let mem = Some(MemAccess {
            addr: fits_isa::DATA_BASE,
            size: 4,
            is_load: true,
            data: 0,
        });
        let mut a = info(TEXT_BASE);
        a.mem = mem;
        a.dests = [Some(Reg::R0), None];
        let mut b = info(TEXT_BASE + 4);
        b.mem = mem;
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        assert_eq!(t.finish().dual_issues, 0);
    }

    #[test]
    fn icache_miss_stalls() {
        let mut t = model();
        t.observe(&info(TEXT_BASE));
        let r = t.finish();
        assert_eq!(r.icache.misses, 1, "cold fetch misses");
        assert!(r.cycles >= 24);
        assert_eq!(r.icache_stall_cycles, 24);
    }

    #[test]
    fn same_word_fetch_is_shared() {
        let mut t = model();
        // Two 16-bit instructions in one word: same fetch_word_addr.
        let mut a = info(TEXT_BASE);
        a.size = 2;
        let mut b = info(TEXT_BASE + 2);
        b.size = 2;
        b.fetch_word_addr = TEXT_BASE;
        b.dests = [Some(Reg::R3), None];
        b.sources = [Some(Reg::R4), None, None];
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.icache.accesses, 1, "one fetch feeds the pair");
        assert_eq!(r.dual_issues, 1);
    }

    #[test]
    fn load_use_stall_applies_across_groups() {
        let mut t = model();
        let mut a = info(TEXT_BASE);
        a.mem = Some(MemAccess {
            addr: fits_isa::DATA_BASE,
            size: 4,
            is_load: true,
            data: 0,
        });
        a.dests = [Some(Reg::R6), None];
        let mut b = info(TEXT_BASE + 4);
        b.sources = [Some(Reg::R6), None, None]; // immediately uses the load
        t.observe(&a);
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.load_use_stalls, 1);
    }

    #[test]
    fn branch_prediction_btfnt() {
        let mut t = model();
        // Backward taken: predicted correctly -> small penalty only.
        let mut a = info(TEXT_BASE);
        a.class = InstrClass::Branch;
        a.branch = Some(BranchOutcome {
            taken: true,
            backward: true,
        });
        a.dests = [None, None];
        t.observe(&a);
        // Forward taken: mispredict.
        let mut b = info(TEXT_BASE + 4);
        b.class = InstrClass::Branch;
        b.branch = Some(BranchOutcome {
            taken: true,
            backward: false,
        });
        b.dests = [None, None];
        t.observe(&b);
        let r = t.finish();
        assert_eq!(r.branch.branches, 2);
        assert_eq!(r.branch.taken, 2);
        assert_eq!(r.branch.mispredicted, 1);
    }

    #[test]
    fn ipc_bounded_by_two() {
        let mut t = model();
        for i in 0..1000u32 {
            let mut s = info(TEXT_BASE + i * 4);
            s.dests = [Some(Reg::new((i % 6) as u8)), None];
            s.sources = [Some(Reg::new(((i + 7) % 12) as u8)), None, None];
            t.observe(&s);
        }
        let r = t.finish();
        assert!(r.ipc() <= 2.0);
        // Cold-cache compulsory misses dominate this synthetic stream, so
        // judge issue throughput net of I-cache stalls.
        let busy = (r.cycles - r.icache_stall_cycles) as f64;
        assert!(r.retired as f64 / busy > 0.9, "net ipc too low: {busy}");
    }
}
