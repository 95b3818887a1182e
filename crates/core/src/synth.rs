//! Instruction-set synthesis (stage 2 of the Figure-1 flow).
//!
//! Builds a [`DecoderConfig`] from a [`Profile`] in three tiers (§3.3):
//!
//! * **BIS** — operations present across all applications (moves, add,
//!   compares, the branches the program uses, loads/stores, traps).
//! * **SIS** — the glue that keeps the set complete: constant construction
//!   (`movi`/`ori`/`lsli`), dictionary moves, indirect jumps with and
//!   without link (far calls go through the target dictionary).
//! * **AIS** — application-specific upgrades chosen by a greedy
//!   utilization-driven optimizer: 3-operand forms for operations whose
//!   uses aren't 2-address compatible, wider literal/displacement fields,
//!   dictionary immediates, predicated moves.
//!
//! The encoding is a **prefix-free variable-length opcode space**: an
//! opcode paired with `b` operand bits occupies `2^b` units of the 2^16
//! instruction space (the Kraft budget). The optimizer greedily spends that
//! budget where the profile says dynamic 1-to-1 coverage is bought
//! cheapest; canonical prefix codes are then assigned, optionally
//! Gray-reordered within each length class to reduce expected fetch-word
//! toggling (the encoding optimization §3.1 alludes to).

use std::collections::{BTreeMap, HashMap};

use fits_isa::{Cond, DpOp, MemOp, ShiftKind};

use crate::decoder::{
    DecoderConfig, Dictionaries, Layout, LayoutKind, MicroOp, OpcodeEntry, RegMap, Tier,
};
use crate::profile::{signed_bits, unsigned_bits, OpKey, Profile, ValueHist};

/// Synthesis options (the ablation knobs).
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Gray-reorder opcode values within each length class to reduce
    /// expected fetch toggling.
    pub toggle_aware: bool,
    /// Register-field width: 4 (full window) or 3 (8-register window; used
    /// by the ablation study — programs touching more registers will show
    /// mapping failures).
    pub reg_bits: u8,
    /// Fraction of the 2^16 opcode space the optimizer may spend (1.0 =
    /// whole space). Lower budgets model sharing the space across several
    /// resident applications.
    pub space_budget: f64,
    /// Maximum dictionary index width the optimizer may request. No
    /// candidate asks for more than [`WIDEST_DICT_BITS`], so any larger
    /// value synthesizes as that width does.
    pub max_dict_bits: u8,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            toggle_aware: true,
            reg_bits: 4,
            space_budget: 1.0,
            max_dict_bits: 6,
        }
    }
}

impl SynthOptions {
    /// Widens `max_dict_bits` by one bit, the flows' corrective lever when
    /// a translation falls short. Returns `false`, leaving the options as
    /// they are, once no candidate could use the wider index.
    pub fn widen_dicts(&mut self) -> bool {
        if self.max_dict_bits >= WIDEST_DICT_BITS {
            return false;
        }
        self.max_dict_bits += 1;
        true
    }
}

/// Entries reserved in the operate dictionary for values discovered during
/// translation (far-branch targets, overflow constants).
pub const RESERVED_DICT_SLOTS: usize = 8;

/// A selected opcode before code assignment.
#[derive(Clone, Debug)]
struct Selected {
    micro: MicroOp,
    layout: Layout,
    tier: Tier,
    /// Dynamic weight (for toggle-aware ordering).
    weight: u64,
}

/// One opcode form (micro-op and layout kind) per entry: a micro-op holds
/// at most one literal and one dictionary variant at a time. The key order
/// breaks ties between equal-weight entries in [`assign_codes`].
type Selection = BTreeMap<(MicroOp, LayoutKind), Selected>;

/// The field width of each form `sel` holds, as `form(micro, kind)`: the
/// synthesizer's side of [`DecoderConfig::form`].
fn widths(sel: &Selection) -> impl Fn(MicroOp, LayoutKind) -> Option<u8> + '_ {
    |micro, kind| sel.get(&(micro, kind)).map(|s| s.layout.width())
}

/// The synthesis result.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The programmable-decoder configuration.
    pub config: DecoderConfig,
    /// Human-readable synthesis report.
    pub report: SynthReport,
}

/// Diagnostics from the synthesis run.
#[derive(Clone, Debug, Default)]
pub struct SynthReport {
    /// Opcode-space units used, of 65536.
    pub space_used: u64,
    /// Number of AIS upgrades applied.
    pub upgrades: usize,
    /// Predicted average FITS instructions per ARM instruction.
    pub predicted_expansion: f64,
}

/// Dictionary-index widths offered to the two-address immediate forms.
const DP_DICT_WIDTHS: [u8; 4] = [3, 4, 5, 6];
/// Literal and dictionary-index widths offered to the three-address
/// immediate forms.
const DP3_WIDTHS: [u8; 3] = [2, 3, 4];
/// Dictionary-index widths offered to compares.
const CMP_DICT_WIDTHS: [u8; 3] = [3, 4, 5];
/// Dictionary-index widths offered to loads and stores.
const MEM_DICT_WIDTHS: [u8; 3] = [2, 3, 4];

/// The widest dictionary index any AIS candidate asks for. BIS and SIS
/// dictionary forms are narrower, so `max_dict_bits` past this changes no
/// synthesis.
pub const WIDEST_DICT_BITS: u8 = widest(&[
    &DP_DICT_WIDTHS,
    &DP3_WIDTHS,
    &CMP_DICT_WIDTHS,
    &MEM_DICT_WIDTHS,
]);

const fn widest(lists: &[&[u8]]) -> u8 {
    let mut max = 0;
    let mut i = 0;
    while i < lists.len() {
        let mut j = 0;
        while j < lists[i].len() {
            if lists[i][j] > max {
                max = lists[i][j];
            }
            j += 1;
        }
        i += 1;
    }
    max
}

// ---------------------------------------------------------------------------
// Coverage precomputation
// ---------------------------------------------------------------------------

/// Per-family coverage tables used by the cost model.
#[derive(Clone, Debug, Default)]
struct FamilyData {
    dyn_: u64,
    /// 2-address compatibility rate (1.0 where not applicable).
    eq_rate: f64,
    /// Literal-field coverage per width 0..=16.
    lit_cov: [f64; 17],
    /// Dictionary coverage per index width 0..=16.
    dict_cov: [f64; 17],
}

/// The operate, memory-displacement and shift-amount values, each ranked
/// by dynamic weight summed over all families of its category: the order
/// the category's dictionary fills in.
fn rankings(profile: &Profile) -> [Vec<u32>; 3] {
    fn ranking<K>(hists: &BTreeMap<K, ValueHist>) -> Vec<u32> {
        let mut all = ValueHist::default();
        for hist in hists.values() {
            for (v, s) in hist.by_dynamic_weight() {
                all.record_weighted(v, s);
            }
        }
        all.by_dynamic_weight()
            .into_iter()
            .map(|(v, _)| v)
            .collect()
    }
    [
        ranking(&profile.operate_imms),
        ranking(&profile.mem_disps),
        ranking(&profile.shift_amounts),
    ]
}

/// Each value's position in a ranking.
fn rank_map(ranking: &[u32]) -> HashMap<u32, usize> {
    ranking.iter().enumerate().map(|(i, v)| (*v, i)).collect()
}

/// Fills `fd`'s coverage tables from one value histogram: for each width
/// 0..=16, the dynamic share a literal field holds (`lit_fits`) and, given
/// a dictionary `(rank, reserved)`, the share among its first
/// `2^min(w, max_dict_bits)` values less `reserved` slots from 4 bits up.
fn fill_coverage(
    fd: &mut FamilyData,
    hist: &ValueHist,
    lit_fits: impl Fn(u32, u8) -> bool,
    dict: Option<(&HashMap<u32, usize>, usize)>,
    max_dict_bits: u8,
) {
    let total = hist.total_dyn().max(1) as f64;
    for w in 0..=16u8 {
        fd.lit_cov[w as usize] = hist.dyn_where(|v| lit_fits(v, w)) as f64 / total;
        if let Some((rank, reserved)) = dict {
            let cap = 1usize << w.min(max_dict_bits);
            let cap = cap.saturating_sub(if w >= 4 { reserved } else { 0 });
            fd.dict_cov[w as usize] =
                hist.dyn_where(|v| rank.get(&v).is_some_and(|r| *r < cap)) as f64 / total;
        }
    }
}

fn build_family_data(
    profile: &Profile,
    rankings: &[Vec<u32>; 3],
    opts: &SynthOptions,
) -> BTreeMap<OpKey, FamilyData> {
    let [operate_rank, mem_rank, shift_rank] = rankings.each_ref().map(|r| rank_map(r));
    let max = opts.max_dict_bits;
    let mut out = BTreeMap::new();
    for (key, stat) in &profile.families {
        let mut fd = FamilyData {
            dyn_: stat.dyn_,
            eq_rate: 1.0,
            ..FamilyData::default()
        };
        match key {
            OpKey::DpReg(op, _) | OpKey::DpImm(op, _) if !op.ignores_rn() => {
                fd.eq_rate = profile.two_address_rate(*key);
            }
            OpKey::ShiftReg(..) => fd.eq_rate = profile.two_address_rate(*key),
            _ => {}
        }
        match key {
            OpKey::DpImm(..) | OpKey::CmpImm(_) => {
                if let Some(hist) = profile.operate_imms.get(key) {
                    let dict = Some((&operate_rank, RESERVED_DICT_SLOTS));
                    fill_coverage(&mut fd, hist, fits_unsigned, dict, max);
                }
            }
            OpKey::Mem(op) => {
                if let Some(hist) = profile.mem_disps.get(op) {
                    let scale = disp_scale(*op);
                    let fits = |raw: u32, w| mem_lit_fits(raw as i32, w, scale);
                    fill_coverage(&mut fd, hist, fits, Some((&mem_rank, 0)), max);
                }
            }
            OpKey::Branch(cond, link) => {
                if let Some(hist) = profile.branch_disps.get(&(*cond, *link)) {
                    // ARM word offsets become FITS instruction offsets
                    // with some inflation; leave 30% margin.
                    let fits = |raw: u32, w: u8| {
                        let inflated = (f64::from(raw as i32) * 1.3).abs().ceil() as i64;
                        w > 1 && inflated < (1i64 << (w - 1)) - 2
                    };
                    fill_coverage(&mut fd, hist, fits, None, max);
                }
            }
            OpKey::ShiftImm(kind, _) => {
                if let Some(hist) = profile.shift_amounts.get(kind) {
                    let dict = Some((&shift_rank, 0));
                    fill_coverage(&mut fd, hist, fits_unsigned, dict, max);
                }
            }
            _ => {}
        }
        out.insert(*key, fd);
    }
    out
}

/// Field scaling for memory displacements: word/halfword fields are scaled
/// and unsigned; byte fields are signed and unscaled (matching the access
/// patterns compiled code produces).
pub(crate) fn disp_scale(op: MemOp) -> u32 {
    match op.size() {
        4 => 4,
        2 => 2,
        _ => 1,
    }
}

/// Whether `v` fits a `w`-bit unsigned literal field.
pub(crate) fn fits_unsigned(v: u32, w: u8) -> bool {
    w >= 1 && unsigned_bits(v) <= w && w <= 16
}

/// Whether a raw displacement fits a `w`-bit literal field under the
/// scaling rules above.
pub(crate) fn mem_lit_fits(disp: i32, w: u8, scale: u32) -> bool {
    if scale == 1 {
        w > 0 && signed_bits(disp) <= w
    } else {
        disp >= 0
            && (disp as u32).is_multiple_of(scale)
            && w > 0
            && unsigned_bits(disp as u32 / scale) <= w
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Average cost in FITS instructions to build an uncovered 32-bit constant
/// with the SIS `movi`/`lsli`/`ori` chain (empirical midpoint).
const CONST_BUILD_COST: f64 = 4.0;

/// Expected FITS instructions per dynamic use of `key`, given the field
/// width of each form the configuration holds (`form(micro, kind)`).
fn family_cost(
    key: OpKey,
    fd: &FamilyData,
    form: &impl Fn(MicroOp, LayoutKind) -> Option<u8>,
) -> f64 {
    let lit_cov = |w: Option<u8>| w.map_or(0.0, |w| fd.lit_cov[w as usize]);
    let dict_cov = |w: Option<u8>| w.map_or(0.0, |w| fd.dict_cov[w as usize]);
    // Literal or dictionary: the better of the two forms covers.
    let covered = |micro, lit, dict| lit_cov(form(micro, lit)).max(dict_cov(form(micro, dict)));
    match key {
        OpKey::DpReg(op, set_flags) => {
            if form(MicroOp::Dp3 { op, set_flags }, LayoutKind::R3).is_some() {
                1.0
            } else if form(MicroOp::Dp2Reg { op, set_flags }, LayoutKind::R2).is_some() {
                2.0 - fd.eq_rate
            } else {
                3.0
            }
        }
        OpKey::DpImm(op, set_flags) => {
            let dp2 = MicroOp::Dp2Imm { op, set_flags };
            let covered2 = covered(dp2, LayoutKind::R2Imm, LayoutKind::R2Dict);
            // 3-address immediate forms cover regardless of rd == rn.
            let dp3 = MicroOp::Dp3 { op, set_flags };
            let cov3 = covered(dp3, LayoutKind::RRImm, LayoutKind::RRDict);
            let eq = fd.eq_rate;
            // Best case per use: 3-addr hit (1), else 2-addr hit with
            // rd == rn (1), else 2-addr hit plus mov (2), else build.
            let one = cov3.max(covered2 * eq);
            let two = (covered2 - one).max(0.0);
            let rest = (1.0 - one - two).max(0.0);
            one + 2.0 * two + rest * (CONST_BUILD_COST + 1.0)
        }
        OpKey::CmpImm(op) => {
            let cov = covered(
                MicroOp::CmpImm { op },
                LayoutKind::R2Imm,
                LayoutKind::R2Dict,
            );
            cov + (1.0 - cov) * (CONST_BUILD_COST + 1.0)
        }
        OpKey::Mem(op) => {
            let cov = covered(MicroOp::Mem { op }, LayoutKind::MemImm, LayoutKind::MemDict);
            cov + (1.0 - cov) * 3.0
        }
        OpKey::Branch(cond, link) => {
            let cov = lit_cov(form(MicroOp::Branch { cond, link }, LayoutKind::Br));
            cov + (1.0 - cov) * 2.0
        }
        OpKey::ShiftImm(kind, set_flags) => {
            let shift = MicroOp::ShiftImm { kind, set_flags };
            let cov = covered(shift, LayoutKind::RRImm, LayoutKind::RRDict);
            cov + (1.0 - cov) * 3.0
        }
        OpKey::ShiftReg(..) => 2.0 - fd.eq_rate,
        OpKey::PredMov(cond, imm) => {
            let present = if imm {
                form(MicroOp::PredMovImm { cond }, LayoutKind::R2Imm)
            } else {
                form(MicroOp::PredMovReg { cond }, LayoutKind::R2)
            };
            if present.is_some() {
                1.0
            } else {
                2.0
            }
        }
        OpKey::Mul | OpKey::BranchReg | OpKey::Swi | OpKey::CmpReg(_) => 1.0,
    }
}

/// Expected FITS instructions over the whole profile, given the field
/// width of each form the configuration holds.
fn total_cost(
    families: &BTreeMap<OpKey, FamilyData>,
    form: &impl Fn(MicroOp, LayoutKind) -> Option<u8>,
) -> f64 {
    families
        .iter()
        .map(|(k, fd)| fd.dyn_ as f64 * family_cost(*k, fd, form))
        .sum()
}

fn space_of(sel: &Selection, r: u8) -> u64 {
    sel.values().map(|s| 1u64 << s.layout.operand_bits(r)).sum()
}

// ---------------------------------------------------------------------------
// Synthesis proper
// ---------------------------------------------------------------------------

fn insert(sel: &mut Selection, micro: MicroOp, layout: Layout, tier: Tier, weight: u64) {
    let key = (micro, layout.kind());
    let entry = Selected {
        micro,
        layout,
        tier,
        weight,
    };
    match sel.get(&key) {
        Some(existing) if layout.operand_bits(4) <= existing.layout.operand_bits(4) => {}
        _ => {
            sel.insert(key, entry);
        }
    }
}

/// Runs instruction-set synthesis.
#[must_use]
pub fn synthesize(profile: &Profile, opts: &SynthOptions) -> Synthesis {
    let r = opts.reg_bits;
    let rankings = rankings(profile);
    let families = build_family_data(profile, &rankings, opts);
    let budget = (65536.0 * opts.space_budget) as u64;
    let mut sel = Selection::new();
    let weight = |k: &OpKey| profile.families.get(k).map_or(0, |s| s.dyn_);

    // ---- BIS: universal base operations -------------------------------
    insert(
        &mut sel,
        MicroOp::Dp2Reg {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2,
        Tier::Bis,
        profile.dyn_total / 8,
    );
    insert(
        &mut sel,
        MicroOp::Dp2Reg {
            op: DpOp::Add,
            set_flags: false,
        },
        Layout::R2,
        Tier::Bis,
        0,
    );
    insert(&mut sel, MicroOp::Swi, Layout::Trap { w: 4 }, Tier::Bis, 1);
    // Every DP operation the program uses gets at least a 2-address form.
    for key in profile.families.keys() {
        match key {
            OpKey::DpReg(op, sf) | OpKey::DpImm(op, sf) => insert(
                &mut sel,
                MicroOp::Dp2Reg {
                    op: *op,
                    set_flags: *sf,
                },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            OpKey::CmpReg(op) | OpKey::CmpImm(op) => insert(
                &mut sel,
                MicroOp::CmpReg { op: *op },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            OpKey::Mul => insert(&mut sel, MicroOp::Mul3, Layout::R3, Tier::Bis, weight(key)),
            OpKey::Mem(op) => insert(
                &mut sel,
                MicroOp::Mem { op: *op },
                Layout::MemImm { w: 0 },
                Tier::Bis,
                weight(key),
            ),
            OpKey::Branch(cond, link) => {
                insert(
                    &mut sel,
                    MicroOp::Branch {
                        cond: *cond,
                        link: *link,
                    },
                    Layout::Br { w: 4 },
                    Tier::Bis,
                    weight(key),
                );
                // The far-branch fallback needs the inverse condition.
                if *cond != Cond::Al && !link {
                    insert(
                        &mut sel,
                        MicroOp::Branch {
                            cond: cond.inverse(),
                            link: false,
                        },
                        Layout::Br { w: 4 },
                        Tier::Bis,
                        0,
                    );
                }
            }
            OpKey::ShiftImm(kind, sf) => {
                insert(
                    &mut sel,
                    MicroOp::ShiftImm {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::RRDict { w: 3 },
                    Tier::Bis,
                    weight(key),
                );
                // Completeness fallback for amounts the dictionary cannot
                // hold: the register-amount form.
                insert(
                    &mut sel,
                    MicroOp::ShiftReg {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::R2,
                    Tier::Sis,
                    0,
                );
            }
            OpKey::ShiftReg(kind, sf) => insert(
                &mut sel,
                MicroOp::ShiftReg {
                    kind: *kind,
                    set_flags: *sf,
                },
                Layout::R2,
                Tier::Bis,
                weight(key),
            ),
            _ => {}
        }
    }
    // An unconditional branch is always required (far-branch glue).
    insert(
        &mut sel,
        MicroOp::Branch {
            cond: Cond::Al,
            link: false,
        },
        Layout::Br { w: 4 },
        Tier::Bis,
        0,
    );
    // Predicated instructions fall back to a branch-around with the
    // inverted condition; make sure both directions exist.
    for cond in &profile.pred_conds {
        for c in [*cond, cond.inverse()] {
            if c != Cond::Al && c != Cond::Nv {
                insert(
                    &mut sel,
                    MicroOp::Branch {
                        cond: c,
                        link: false,
                    },
                    Layout::Br { w: 4 },
                    Tier::Sis,
                    0,
                );
            }
        }
    }
    // Every shift kind used anywhere gets both fallbacks: the
    // register-amount form and a dictionary-amount form (shifted operands
    // on non-move ops expand through these, and the scratch register can
    // only hold one of {amount, shifted value} at a time).
    for kind in &profile.shift_kinds {
        insert(
            &mut sel,
            MicroOp::ShiftReg {
                kind: *kind,
                set_flags: false,
            },
            Layout::R2,
            Tier::Sis,
            0,
        );
        insert(
            &mut sel,
            MicroOp::ShiftImm {
                kind: *kind,
                set_flags: false,
            },
            Layout::RRDict { w: 3 },
            Tier::Sis,
            0,
        );
    }

    // ---- SIS: completeness glue ----------------------------------------
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2Imm { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Orr,
            set_flags: false,
        },
        Layout::R2Imm { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::ShiftImm {
            kind: ShiftKind::Lsl,
            set_flags: false,
        },
        Layout::RRImm { w: 4 },
        Tier::Sis,
        0,
    );
    // Dictionary move: loads any 32-bit configuration constant.
    insert(
        &mut sel,
        MicroOp::Dp2Imm {
            op: DpOp::Mov,
            set_flags: false,
        },
        Layout::R2Dict { w: 5 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::LoadTarget,
        Layout::R2Dict { w: 4 },
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::BranchReg { link: false },
        Layout::R1,
        Tier::Sis,
        0,
    );
    insert(
        &mut sel,
        MicroOp::BranchReg { link: true },
        Layout::R1,
        Tier::Sis,
        0,
    );

    // ---- AIS: greedy utilization-driven upgrades ------------------------
    let mut candidates: Vec<(MicroOp, Layout)> = Vec::new();
    for key in profile.families.keys() {
        match key {
            OpKey::DpReg(op, sf) => {
                candidates.push((
                    MicroOp::Dp3 {
                        op: *op,
                        set_flags: *sf,
                    },
                    Layout::R3,
                ));
            }
            OpKey::DpImm(op, sf) => {
                for w in [3u8, 4, 5, 6, 8] {
                    candidates.push((
                        MicroOp::Dp2Imm {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::R2Imm { w },
                    ));
                }
                for w in DP_DICT_WIDTHS {
                    candidates.push((
                        MicroOp::Dp2Imm {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::R2Dict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
                // Figure 2's Operate format: 3-address with an immediate
                // OPRD (literal or dictionary index).
                for w in DP3_WIDTHS {
                    candidates.push((
                        MicroOp::Dp3 {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::RRImm { w },
                    ));
                    candidates.push((
                        MicroOp::Dp3 {
                            op: *op,
                            set_flags: *sf,
                        },
                        Layout::RRDict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::CmpImm(op) => {
                for w in [3u8, 4, 5, 6, 8] {
                    candidates.push((MicroOp::CmpImm { op: *op }, Layout::R2Imm { w }));
                }
                for w in CMP_DICT_WIDTHS {
                    candidates.push((
                        MicroOp::CmpImm { op: *op },
                        Layout::R2Dict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::Mem(op) => {
                for w in [2u8, 3, 4, 5, 6] {
                    candidates.push((MicroOp::Mem { op: *op }, Layout::MemImm { w }));
                }
                for w in MEM_DICT_WIDTHS {
                    candidates.push((
                        MicroOp::Mem { op: *op },
                        Layout::MemDict {
                            w: w.min(opts.max_dict_bits),
                        },
                    ));
                }
            }
            OpKey::Branch(cond, link) => {
                for w in [6u8, 8, 10, 11, 12, 13] {
                    candidates.push((
                        MicroOp::Branch {
                            cond: *cond,
                            link: *link,
                        },
                        Layout::Br { w },
                    ));
                }
            }
            OpKey::ShiftImm(kind, sf) => {
                candidates.push((
                    MicroOp::ShiftImm {
                        kind: *kind,
                        set_flags: *sf,
                    },
                    Layout::RRImm { w: 5 },
                ));
            }
            OpKey::PredMov(cond, imm) => {
                if *imm {
                    candidates.push((MicroOp::PredMovImm { cond: *cond }, Layout::R2Imm { w: 4 }));
                } else {
                    candidates.push((MicroOp::PredMovReg { cond: *cond }, Layout::R2));
                }
            }
            _ => {}
        }
    }

    // Termination: an accepted candidate leaves its key's layout at least
    // as wide as its own operand bits, and a key's layout only ever
    // widens, so the skip below rejects that candidate from then on. Each
    // candidate is accepted at most once, which bounds the upgrades by
    // `candidates.len()`.
    let mut upgrades = 0usize;
    loop {
        let base_cost = total_cost(&families, &widths(&sel));
        let base_space = space_of(&sel, r);
        let mut best: Option<(f64, usize)> = None;
        for (i, (micro, layout)) in candidates.iter().enumerate() {
            let key = (*micro, layout.kind());
            // Skip no-op "upgrades" (narrower or equal to current).
            if let Some(cur) = sel.get(&key) {
                if layout.operand_bits(r) <= cur.layout.operand_bits(r) {
                    continue;
                }
            }
            let mut trial = sel.clone();
            trial.insert(
                key,
                Selected {
                    micro: *micro,
                    layout: *layout,
                    tier: Tier::Ais,
                    weight: 0,
                },
            );
            let space = space_of(&trial, r);
            if space > budget {
                continue;
            }
            let gain = base_cost - total_cost(&families, &widths(&trial));
            if gain <= 0.0 {
                continue;
            }
            let dspace = (space - base_space.min(space)).max(1) as f64;
            let ratio = gain / dspace;
            if best.is_none_or(|(b, _)| ratio > b) {
                best = Some((ratio, i));
            }
        }
        let Some((_, i)) = best else { break };
        let (micro, layout) = candidates[i];
        let fam_weight = profile
            .families
            .iter()
            .filter(|(k, _)| family_matches(k, &micro))
            .map(|(_, s)| s.dyn_)
            .sum();
        sel.insert(
            (micro, layout.kind()),
            Selected {
                micro,
                layout,
                tier: Tier::Ais,
                weight: fam_weight,
            },
        );
        upgrades += 1;
        debug_assert!(
            upgrades <= candidates.len(),
            "a candidate was accepted twice"
        );
    }

    // ---- Build dictionaries ---------------------------------------------
    let dict_width = |in_dict: &dyn Fn(&Selected) -> bool| -> u8 {
        sel.values()
            .filter(|s| in_dict(s))
            .map(|s| s.layout.width())
            .max()
            .unwrap_or(0)
    };
    let op_dict_w = dict_width(&|s| {
        matches!(s.layout, Layout::R2Dict { .. })
            && matches!(s.micro, MicroOp::Dp2Imm { .. } | MicroOp::CmpImm { .. })
    });
    let mem_dict_w = dict_width(&|s| matches!(s.layout, Layout::MemDict { .. }));
    let shift_dict_w = dict_width(&|s| matches!(s.layout, Layout::RRDict { .. }));
    let [mut operate, mut mem_disp, mut shift] = rankings;
    operate.truncate((1usize << op_dict_w).saturating_sub(RESERVED_DICT_SLOTS));
    mem_disp.truncate(1 << mem_dict_w);
    shift.truncate(1 << shift_dict_w);

    let predicted_expansion =
        total_cost(&families, &widths(&sel)) / profile.dyn_total.max(1) as f64;
    let space_used = space_of(&sel, r);

    // ---- Canonical (optionally Gray-reordered) code assignment ----------
    let mut entries: Vec<Selected> = sel.into_values().collect();
    let ops = assign_codes(&mut entries, r, opts.toggle_aware);

    let regs = if r == 4 {
        RegMap::full()
    } else {
        // 8-register window: map the most-used physical registers.
        let mut used: Vec<u8> = (0..16u8)
            .filter(|i| profile.regs_used & (1 << i) != 0)
            .collect();
        used.truncate(1 << r);
        while used.len() < (1 << r) {
            used.push(0);
        }
        RegMap {
            field_bits: r,
            map: used,
        }
    };

    let config = DecoderConfig {
        ops,
        regs,
        dicts: Dictionaries {
            operate,
            mem_disp,
            shift,
            target: Vec::new(),
        },
    };
    Synthesis {
        config,
        report: SynthReport {
            space_used,
            upgrades,
            predicted_expansion,
        },
    }
}

fn family_matches(key: &OpKey, micro: &MicroOp) -> bool {
    matches!(
        (key, micro),
        (OpKey::DpReg(a, s1), MicroOp::Dp3 { op: b, set_flags: s2 }) if a == b && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::DpImm(a, s1), MicroOp::Dp2Imm { op: b, set_flags: s2 }) if a == b && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::CmpImm(a), MicroOp::CmpImm { op: b }) if a == b
    ) || matches!(
        (key, micro),
        (OpKey::Mem(a), MicroOp::Mem { op: b }) if a == b
    ) || matches!(
        (key, micro),
        (OpKey::Branch(c1, l1), MicroOp::Branch { cond: c2, link: l2 }) if c1 == c2 && l1 == l2
    ) || matches!(
        (key, micro),
        (OpKey::ShiftImm(k1, s1), MicroOp::ShiftImm { kind: k2, set_flags: s2 }) if k1 == k2 && s1 == s2
    ) || matches!(
        (key, micro),
        (OpKey::PredMov(c1, true), MicroOp::PredMovImm { cond: c2 }) if c1 == c2
    ) || matches!(
        (key, micro),
        (OpKey::PredMov(c1, false), MicroOp::PredMovReg { cond: c2 }) if c1 == c2
    )
}

/// Assigns canonical prefix codes. Entries are sorted by code length
/// (shorter = more operand bits first); within a length class, the
/// assignment order is dynamic weight, and when `toggle_aware` is set the
/// class's code values are visited in binary-reflected Gray order so that
/// frequently co-occurring opcodes differ in few bits.
fn assign_codes(entries: &mut [Selected], r: u8, toggle_aware: bool) -> Vec<OpcodeEntry> {
    entries.sort_by(|a, b| {
        let la = 16 - a.layout.operand_bits(r);
        let lb = 16 - b.layout.operand_bits(r);
        la.cmp(&lb).then(b.weight.cmp(&a.weight))
    });
    let mut out = Vec::with_capacity(entries.len());
    let mut counter: u32 = 0;
    let mut prev_len: u8 = 0;
    let mut i = 0usize;
    while i < entries.len() {
        let len = 16 - entries[i].layout.operand_bits(r);
        // Scale the counter up to this length.
        counter <<= len - prev_len;
        prev_len = len;
        // The whole class of this length:
        let mut j = i;
        while j < entries.len() && 16 - entries[j].layout.operand_bits(r) == len {
            j += 1;
        }
        let class = &entries[i..j];
        let n = (j - i) as u32;
        // Candidate code values for this class: counter..counter+n. In
        // toggle-aware mode visit them in Gray order of the local index
        // (clamped into range by sorting the produced values' gray image).
        let mut values: Vec<u32> = (0..n).map(|k| counter + k).collect();
        if toggle_aware {
            values.sort_by_key(|v| {
                // Order by gray-coded low bits: adjacent assignments differ
                // in fewer bits on average.

                v ^ (v >> 1)
            });
        }
        for (k, e) in class.iter().enumerate() {
            let code_val = values[k];
            debug_assert!(len <= 16);
            out.push(OpcodeEntry {
                code: (code_val as u16) << (16 - u16::from(len)),
                len,
                micro: e.micro,
                layout: e.layout,
                tier: e.tier,
            });
        }
        counter += n;
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use fits_kernels::kernels::{Kernel, Scale};

    fn crc_profile() -> Profile {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        profile(&program).unwrap()
    }

    #[test]
    fn synthesis_produces_prefix_free_config() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(s.config.is_prefix_free(), "{}", s.config);
        assert!(s.report.space_used <= 65536);
        assert!(!s.config.ops.is_empty());
    }

    #[test]
    fn tiers_are_all_present() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(s.config.tier_ops(Tier::Bis).count() > 0);
        assert!(s.config.tier_ops(Tier::Sis).count() > 0);
        assert!(s.config.tier_ops(Tier::Ais).count() > 0, "{}", s.config);
    }

    #[test]
    fn predicted_expansion_is_near_one() {
        let p = crc_profile();
        let s = synthesize(&p, &SynthOptions::default());
        assert!(
            s.report.predicted_expansion < 1.3,
            "predicted expansion {}",
            s.report.predicted_expansion
        );
        assert!(s.report.predicted_expansion >= 1.0);
    }

    /// The prediction, computed from the selection, reads the same through
    /// the configuration's form lookup that translation uses.
    #[test]
    fn prediction_agrees_with_the_config_lookup() {
        let p = crc_profile();
        let opts = SynthOptions::default();
        let s = synthesize(&p, &opts);
        let families = build_family_data(&p, &rankings(&p), &opts);
        let form = |micro, kind| s.config.form(micro, kind).map(|(_, w)| w);
        let predicted = total_cost(&families, &form) / p.dyn_total.max(1) as f64;
        assert_eq!(predicted.to_bits(), s.report.predicted_expansion.to_bits());
    }

    #[test]
    fn smaller_budget_means_fewer_upgrades() {
        let p = crc_profile();
        let full = synthesize(&p, &SynthOptions::default());
        let tight = synthesize(
            &p,
            &SynthOptions {
                space_budget: 0.4,
                ..SynthOptions::default()
            },
        );
        assert!(tight.report.upgrades <= full.report.upgrades);
        assert!(tight.report.predicted_expansion >= full.report.predicted_expansion - 1e-9);
    }

    #[test]
    fn mem_lit_fits_rules() {
        // Word fields: scaled, unsigned.
        assert!(mem_lit_fits(0, 1, 4));
        assert!(mem_lit_fits(60, 4, 4));
        assert!(!mem_lit_fits(64, 4, 4));
        assert!(mem_lit_fits(64, 5, 4));
        assert!(!mem_lit_fits(-4, 8, 4));
        assert!(!mem_lit_fits(2, 8, 4), "misaligned");
        // Byte fields: signed, unscaled.
        assert!(mem_lit_fits(-2, 3, 1));
        assert!(!mem_lit_fits(-5, 3, 1));
        assert!(mem_lit_fits(-5, 4, 1));
    }

    #[test]
    fn eight_register_window_maps_used_regs() {
        let p = crc_profile();
        let s = synthesize(
            &p,
            &SynthOptions {
                reg_bits: 3,
                ..SynthOptions::default()
            },
        );
        assert_eq!(s.config.regs.field_bits, 3);
        assert_eq!(s.config.regs.map.len(), 8);
    }
}
