//! ARM→FITS translation (stage 3 of the Figure-1 flow — "compile").
//!
//! Rewrites an AR32 program into the synthesized 16-bit instruction set.
//! Each ARM instruction maps **1-to-1** when the decoder config has a
//! matching opcode whose fields can hold the operands, and **1-to-n**
//! otherwise (§6.1: "in theory, n could be any number ranging from 2 to 4;
//! however, in practice, n = 2 is almost always the case"). Expansions use
//! `r12`/`ip` — the intra-procedure scratch register the kernel compiler
//! reserves — exactly as a dual-ISA linker veneer would.
//!
//! Branches are re-linked to FITS positions with iterative relaxation:
//! out-of-range conditional branches become inverse-condition hops over an
//! unconditional branch, and far calls go through the target dictionary
//! (`movd ip, =target ; jalr ip`).

use std::fmt;

use fits_isa::{
    AddrOffset, Cond, DpOp, Instr, Operand2, Program, Reg, Shift, ShiftKind, TEXT_BASE,
};

use crate::decoder::{DecoderConfig, Dictionaries, Layout, LayoutKind, MicroOp, OpcodeEntry};
use crate::synth::{disp_scale, fits_unsigned, mem_lit_fits};

/// Translation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// A register used by the program is not in the synthesized window.
    RegisterOutsideWindow {
        /// The physical register.
        reg: u8,
        /// Text index of the instruction.
        index: usize,
    },
    /// An instruction shape the translator does not support.
    Unsupported {
        /// Text index.
        index: usize,
        /// Description.
        what: String,
    },
    /// The configuration is missing a required base operation (a synthesis
    /// bug — BIS guarantees these).
    MissingBaseOp {
        /// Description of the missing operation.
        what: String,
    },
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::RegisterOutsideWindow { reg, index } => {
                write!(
                    f,
                    "r{reg} at instruction {index} is outside the register window"
                )
            }
            TranslateError::Unsupported { index, what } => {
                write!(f, "unsupported instruction at {index}: {what}")
            }
            TranslateError::MissingBaseOp { what } => {
                write!(f, "decoder config lacks required base op: {what}")
            }
        }
    }
}

impl std::error::Error for TranslateError {}

/// One translated (but not yet branch-resolved) FITS instruction.
#[derive(Clone, Debug)]
pub enum Draft {
    /// A fully-determined instruction: opcode-table index plus raw field
    /// values in layout order.
    Op {
        /// Index into `config.ops`.
        entry: usize,
        /// Field values: registers as window encodings, immediates raw.
        fields: [u16; 3],
    },
    /// A short intra-expansion forward branch skipping `skip` instructions
    /// (encoded displacement is `skip - 1`: branch displacements are
    /// relative to `pc + 4`, one instruction past sequential).
    LocalBranch {
        /// Opcode-table index of the branch op.
        entry: usize,
        /// Instructions to skip (must be >= 1).
        skip: u16,
    },
    /// A program-level branch, resolved during relaxation.
    Branch {
        /// Condition.
        cond: Cond,
        /// Link (BL).
        link: bool,
        /// ARM text index of the target.
        target_arm: usize,
    },
}

/// The encoded FITS binary plus its (final) decoder configuration.
#[derive(Clone, Debug)]
pub struct FitsProgram {
    /// Encoded 16-bit instructions.
    pub instrs: Vec<u16>,
    /// Data image (identical to the ARM program's).
    pub data: Vec<u8>,
    /// Entry instruction index.
    pub entry: usize,
    /// The decoder configuration, including translator-appended dictionary
    /// entries (far targets, overflow constants).
    pub config: DecoderConfig,
}

impl FitsProgram {
    /// Code size in bytes (2 per instruction).
    #[must_use]
    pub fn code_bytes(&self) -> usize {
        self.instrs.len() * 2
    }
}

/// Mapping statistics (Figures 3 and 4).
#[derive(Clone, Debug, Default)]
pub struct MappingStats {
    /// FITS instructions emitted per ARM instruction.
    pub expansion: Vec<u32>,
}

impl MappingStats {
    /// Fraction of ARM instructions that mapped 1-to-1 (Figure 3).
    #[must_use]
    pub fn static_one_to_one_rate(&self) -> f64 {
        if self.expansion.is_empty() {
            return 1.0;
        }
        let ones = self.expansion.iter().filter(|&&e| e == 1).count();
        ones as f64 / self.expansion.len() as f64
    }

    /// Dynamically-weighted 1-to-1 rate given per-instruction execution
    /// counts (Figure 4).
    #[must_use]
    pub fn dynamic_one_to_one_rate(&self, exec_counts: &[u64]) -> f64 {
        let total: u64 = exec_counts.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let ones: u64 = self
            .expansion
            .iter()
            .zip(exec_counts)
            .filter(|(e, _)| **e == 1)
            .map(|(_, c)| *c)
            .sum();
        ones as f64 / total as f64
    }

    /// FITS instruction positions of each ARM instruction's expansion:
    /// `positions()[i]..positions()[i + 1]` is the half-open FITS index
    /// range that ARM instruction `i` translated to (prefix sums of
    /// [`MappingStats::expansion`]; the last element is the total length).
    #[must_use]
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = Vec::with_capacity(self.expansion.len() + 1);
        let mut acc = 0u32;
        pos.push(0);
        for e in &self.expansion {
            acc += e;
            pos.push(acc);
        }
        pos
    }

    /// Average expansion factor (FITS instrs per ARM instr), statically.
    #[must_use]
    pub fn static_expansion(&self) -> f64 {
        if self.expansion.is_empty() {
            return 1.0;
        }
        self.expansion.iter().sum::<u32>() as f64 / self.expansion.len() as f64
    }
}

/// Translation output.
#[derive(Clone, Debug)]
pub struct Translation {
    /// The FITS binary.
    pub fits: FitsProgram,
    /// Mapping statistics.
    pub stats: MappingStats,
}

// ---------------------------------------------------------------------------
// Config lookup helpers
// ---------------------------------------------------------------------------

/// `mov rc, rb` (BIS).
const MOV: MicroOp = MicroOp::Dp2Reg {
    op: DpOp::Mov,
    set_flags: false,
};
/// `movi rc, #imm` (SIS literal form) and `movd rc, =value` (SIS
/// dictionary form).
const MOVI: MicroOp = MicroOp::Dp2Imm {
    op: DpOp::Mov,
    set_flags: false,
};
/// `ori rc, #imm` (SIS).
const ORI: MicroOp = MicroOp::Dp2Imm {
    op: DpOp::Orr,
    set_flags: false,
};
/// `b` (BIS: the far-branch glue).
const B: MicroOp = MicroOp::Branch {
    cond: Cond::Al,
    link: false,
};
/// `lsli rc, ra, #n` (SIS).
const LSLI: MicroOp = MicroOp::ShiftImm {
    kind: ShiftKind::Lsl,
    set_flags: false,
};

// ---------------------------------------------------------------------------
// The translator
// ---------------------------------------------------------------------------

struct Translator<'a> {
    program: &'a Program,
    cfg: DecoderConfig,
    /// Maximum entries the operate dictionary may grow to (its widest
    /// addressing opcode's capacity).
    op_dict_cap: usize,
    movd: Option<(usize, u8)>,
}

impl<'a> Translator<'a> {
    /// The form synthesis guarantees for `micro` in layout `kind`; `what`
    /// names it in the error when the configuration lacks it.
    fn base_form(
        &self,
        micro: MicroOp,
        kind: LayoutKind,
        what: impl fmt::Display,
    ) -> Result<(usize, u8), TranslateError> {
        self.cfg
            .form(micro, kind)
            .ok_or_else(|| TranslateError::MissingBaseOp {
                what: what.to_string(),
            })
    }

    fn reg(&self, r: Reg, index: usize) -> Result<u16, TranslateError> {
        self.cfg
            .regs
            .encode(r)
            .ok_or(TranslateError::RegisterOutsideWindow {
                reg: r.index(),
                index,
            })
    }

    fn scratch(&self, index: usize) -> Result<u16, TranslateError> {
        self.reg(Reg::IP, index)
    }

    /// Finds or appends an absolute code address in the target dictionary.
    fn target_dict_index(&mut self, addr: u32, w: u8, index: usize) -> Result<u16, TranslateError> {
        if let Some(i) = Dictionaries::index_of(&self.cfg.dicts.target, addr, w) {
            return Ok(i);
        }
        if self.cfg.dicts.target.len() < (1usize << w) {
            self.cfg.dicts.target.push(addr);
            return Ok((self.cfg.dicts.target.len() - 1) as u16);
        }
        Err(TranslateError::Unsupported {
            index,
            what: "target dictionary exhausted".to_string(),
        })
    }

    /// Finds or appends a value in the operate dictionary; returns its
    /// index if addressable within `w` bits.
    fn op_dict_index(&mut self, value: u32, w: u8) -> Option<u16> {
        if let Some(i) = Dictionaries::index_of(&self.cfg.dicts.operate, value, w) {
            return Some(i);
        }
        let cap = (1usize << w).min(self.op_dict_cap);
        if self.cfg.dicts.operate.len() < cap {
            self.cfg.dicts.operate.push(value);
            return Some((self.cfg.dicts.operate.len() - 1) as u16);
        }
        None
    }

    /// Emits a constant build into `dst` (window encoding). Returns the
    /// drafts. Order of preference: literal move, dictionary move, nibble
    /// chain (`movi`/`lsli`/`ori`).
    fn build_const(
        &mut self,
        dst: u16,
        value: u32,
        out: &mut Vec<Draft>,
        index: usize,
    ) -> Result<(), TranslateError> {
        if let Some((e, w)) = self.cfg.form(MOVI, LayoutKind::R2Imm) {
            if fits_unsigned(value, w) {
                out.push(Draft::Op {
                    entry: e,
                    fields: [dst, value as u16, 0],
                });
                return Ok(());
            }
        }
        let movd = self.movd;
        if let Some((e, w)) = movd {
            if let Some(idx) = self.op_dict_index(value, w) {
                out.push(Draft::Op {
                    entry: e,
                    fields: [dst, idx, 0],
                });
                return Ok(());
            }
        }
        // Nibble chain.
        let movi = self.base_form(MOVI, LayoutKind::R2Imm, "movi")?;
        let ori = self.base_form(ORI, LayoutKind::R2Imm, "ori")?;
        let lsli = self.base_form(LSLI, LayoutKind::RRImm, "lsli")?;
        let _ = index;
        let nib_w = movi.1.min(4);
        let step = u32::from(nib_w);
        let nibbles: Vec<u32> = (0..32_u32.div_ceil(step))
            .rev()
            .map(|k| (value >> (k * step)) & ((1 << step) - 1))
            .collect();
        let mut started = false;
        for nib in nibbles {
            if !started {
                if nib == 0 {
                    continue;
                }
                out.push(Draft::Op {
                    entry: movi.0,
                    fields: [dst, nib as u16, 0],
                });
                started = true;
            } else {
                out.push(Draft::Op {
                    entry: lsli.0,
                    fields: [dst, dst, u16::from(nib_w)],
                });
                if nib != 0 {
                    out.push(Draft::Op {
                        entry: ori.0,
                        fields: [dst, nib as u16, 0],
                    });
                }
            }
        }
        if !started {
            out.push(Draft::Op {
                entry: movi.0,
                fields: [dst, 0, 0],
            });
        }
        Ok(())
    }

    /// Register-to-register move.
    fn mov_reg(&self, dst: u16, src: u16, out: &mut Vec<Draft>) -> Result<(), TranslateError> {
        let (e, _) = self.base_form(MOV, LayoutKind::R2, "mov")?;
        out.push(Draft::Op {
            entry: e,
            fields: [dst, src, 0],
        });
        Ok(())
    }

    /// A register-register DP operation with full operand generality.
    #[allow(clippy::too_many_arguments)]
    fn dp_reg_general(
        &mut self,
        op: DpOp,
        set_flags: bool,
        rd: u16,
        rn: u16,
        rm: u16,
        out: &mut Vec<Draft>,
        index: usize,
    ) -> Result<(), TranslateError> {
        if let Some((e, _)) = self
            .cfg
            .form(MicroOp::Dp3 { op, set_flags }, LayoutKind::R3)
        {
            out.push(Draft::Op {
                entry: e,
                fields: [rd, rn, rm],
            });
            return Ok(());
        }
        let (two, _) = self.base_form(
            MicroOp::Dp2Reg { op, set_flags },
            LayoutKind::R2,
            format_args!("2-address {op}"),
        )?;
        if op.ignores_rn() {
            out.push(Draft::Op {
                entry: two,
                fields: [rd, rm, 0],
            });
            return Ok(());
        }
        if rd == rn {
            out.push(Draft::Op {
                entry: two,
                fields: [rd, rm, 0],
            });
            return Ok(());
        }
        if rd == rm {
            let commutative = matches!(op, DpOp::Add | DpOp::And | DpOp::Orr | DpOp::Eor);
            if commutative {
                out.push(Draft::Op {
                    entry: two,
                    fields: [rd, rn, 0],
                });
                return Ok(());
            }
            // rd aliases the second operand of a non-commutative op: stash
            // it in the scratch register first.
            let ip = self.scratch(index)?;
            self.mov_reg(ip, rm, out)?;
            self.mov_reg(rd, rn, out)?;
            out.push(Draft::Op {
                entry: two,
                fields: [rd, ip, 0],
            });
            return Ok(());
        }
        self.mov_reg(rd, rn, out)?;
        out.push(Draft::Op {
            entry: two,
            fields: [rd, rm, 0],
        });
        Ok(())
    }

    /// A shift of `rm` by constant `n` into `rd`.
    #[allow(clippy::too_many_arguments)]
    fn shift_imm_general(
        &mut self,
        kind: ShiftKind,
        set_flags: bool,
        rd: u16,
        rm: u16,
        n: u32,
        out: &mut Vec<Draft>,
        index: usize,
    ) -> Result<(), TranslateError> {
        let shift = MicroOp::ShiftImm { kind, set_flags };
        if let Some((e, w)) = self.cfg.form(shift, LayoutKind::RRImm) {
            if fits_unsigned(n, w) {
                out.push(Draft::Op {
                    entry: e,
                    fields: [rd, rm, n as u16],
                });
                return Ok(());
            }
        }
        if let Some((e, w)) = self.cfg.form(shift, LayoutKind::RRDict) {
            if let Some(idx) = Dictionaries::index_of(&self.cfg.dicts.shift, n, w) {
                out.push(Draft::Op {
                    entry: e,
                    fields: [rd, rm, idx],
                });
                return Ok(());
            }
            // Append to free dictionary capacity.
            if self.cfg.dicts.shift.len() < (1usize << w) {
                self.cfg.dicts.shift.push(n);
                out.push(Draft::Op {
                    entry: e,
                    fields: [rd, rm, (self.cfg.dicts.shift.len() - 1) as u16],
                });
                return Ok(());
            }
        }
        // Fallback: amount into scratch, two-address shift. Impossible when
        // the destination *is* the scratch (it cannot hold both the amount
        // and the shifted value); synthesis prevents this by always
        // providing a dictionary form for used shift kinds.
        let ip = self.scratch(index)?;
        if rd == ip {
            return Err(TranslateError::Unsupported {
                index,
                what: format!("shift into scratch with no encodable amount #{n}"),
            });
        }
        self.build_const(ip, n, out, index)?;
        let (sr, _) = self.base_form(
            MicroOp::ShiftReg { kind, set_flags },
            LayoutKind::R2,
            format_args!("shift-reg {kind}"),
        )?;
        if rd != rm {
            self.mov_reg(rd, rm, out)?;
        }
        out.push(Draft::Op {
            entry: sr,
            fields: [rd, ip, 0],
        });
        Ok(())
    }

    /// Translates one AL-condition instruction (predication is handled by
    /// the caller). Pushes drafts; the count is the expansion factor.
    #[allow(clippy::too_many_lines)]
    fn expand(
        &mut self,
        instr: &Instr,
        index: usize,
        out: &mut Vec<Draft>,
    ) -> Result<(), TranslateError> {
        match instr {
            Instr::Dp {
                op,
                set_flags,
                rd,
                rn,
                op2,
                ..
            } => {
                let (op, set_flags) = (*op, *set_flags);
                // Compares.
                if op.is_compare() {
                    let rn_e = self.reg(*rn, index)?;
                    match op2 {
                        Operand2::Reg(rm, Shift::Imm(ShiftKind::Lsl, 0)) => {
                            let rm_e = self.reg(*rm, index)?;
                            let (e, _) = self.base_form(
                                MicroOp::CmpReg { op },
                                LayoutKind::R2,
                                format_args!("{op} reg"),
                            )?;
                            out.push(Draft::Op {
                                entry: e,
                                fields: [rn_e, rm_e, 0],
                            });
                        }
                        Operand2::Imm(imm) => {
                            let v = imm.value();
                            // Logical flag-setting immediates with a rotated
                            // encoding change C; the translator refuses them
                            // (the kernel compiler never emits them).
                            if !op.is_arithmetic() && imm.rot() != 0 {
                                return Err(TranslateError::Unsupported {
                                    index,
                                    what: "rotated logical compare immediate".to_string(),
                                });
                            }
                            let cmp = MicroOp::CmpImm { op };
                            if let Some((e, w)) = self.cfg.form(cmp, LayoutKind::R2Imm) {
                                if fits_unsigned(v, w) {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rn_e, v as u16, 0],
                                    });
                                    return Ok(());
                                }
                            }
                            if let Some((e, w)) = self.cfg.form(cmp, LayoutKind::R2Dict) {
                                if let Some(idx) =
                                    Dictionaries::index_of(&self.cfg.dicts.operate, v, w)
                                {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rn_e, idx, 0],
                                    });
                                    return Ok(());
                                }
                                // Try appending to the reserved slots.
                                if let Some(idx) = self.op_dict_index(v, w) {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rn_e, idx, 0],
                                    });
                                    return Ok(());
                                }
                            }
                            // Build the constant and compare by register.
                            let ip = self.scratch(index)?;
                            self.build_const(ip, v, out, index)?;
                            let (e, _) = self.base_form(
                                MicroOp::CmpReg { op },
                                LayoutKind::R2,
                                format_args!("{op} reg"),
                            )?;
                            out.push(Draft::Op {
                                entry: e,
                                fields: [rn_e, ip, 0],
                            });
                        }
                        Operand2::Reg(rm, shift) => {
                            // Compare against a shifted register: shift into
                            // scratch first.
                            let ip = self.scratch(index)?;
                            self.expand_shift_operand(*rm, *shift, ip, index, out)?;
                            let (e, _) = self.base_form(
                                MicroOp::CmpReg { op },
                                LayoutKind::R2,
                                format_args!("{op} reg"),
                            )?;
                            out.push(Draft::Op {
                                entry: e,
                                fields: [rn_e, ip, 0],
                            });
                        }
                    }
                    return Ok(());
                }

                // PC writes are indirect jumps.
                if rd.is_pc() {
                    if op == DpOp::Mov {
                        if let Operand2::Reg(rm, Shift::Imm(ShiftKind::Lsl, 0)) = op2 {
                            let ra = self.reg(*rm, index)?;
                            let (e, _) = self.base_form(
                                MicroOp::BranchReg { link: false },
                                LayoutKind::R1,
                                "jr",
                            )?;
                            out.push(Draft::Op {
                                entry: e,
                                fields: [ra, 0, 0],
                            });
                            return Ok(());
                        }
                    }
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "non-mov PC write".to_string(),
                    });
                }

                let rd_e = self.reg(*rd, index)?;
                match (op, op2) {
                    // Shift-by-immediate moves.
                    (DpOp::Mov, Operand2::Reg(rm, Shift::Imm(kind, n))) if *n > 0 => {
                        let rm_e = self.reg(*rm, index)?;
                        self.shift_imm_general(
                            *kind,
                            set_flags,
                            rd_e,
                            rm_e,
                            u32::from(*n),
                            out,
                            index,
                        )?;
                    }
                    // Shift-by-register moves.
                    (DpOp::Mov, Operand2::Reg(rm, Shift::Reg(kind, rs))) => {
                        let rm_e = self.reg(*rm, index)?;
                        let rs_e = self.reg(*rs, index)?;
                        let (sr, _) = self.base_form(
                            MicroOp::ShiftReg {
                                kind: *kind,
                                set_flags,
                            },
                            LayoutKind::R2,
                            format_args!("shift-reg {kind}"),
                        )?;
                        if rd_e == rm_e {
                            out.push(Draft::Op {
                                entry: sr,
                                fields: [rd_e, rs_e, 0],
                            });
                        } else if rd_e == rs_e {
                            let ip = self.scratch(index)?;
                            self.mov_reg(ip, rs_e, out)?;
                            self.mov_reg(rd_e, rm_e, out)?;
                            out.push(Draft::Op {
                                entry: sr,
                                fields: [rd_e, ip, 0],
                            });
                        } else {
                            self.mov_reg(rd_e, rm_e, out)?;
                            out.push(Draft::Op {
                                entry: sr,
                                fields: [rd_e, rs_e, 0],
                            });
                        }
                    }
                    // Plain register operands.
                    (_, Operand2::Reg(rm, Shift::Imm(ShiftKind::Lsl, 0))) => {
                        let rn_e = self.reg(*rn, index)?;
                        let rm_e = self.reg(*rm, index)?;
                        self.dp_reg_general(op, set_flags, rd_e, rn_e, rm_e, out, index)?;
                    }
                    // Immediates.
                    (_, Operand2::Imm(imm)) => {
                        let v = imm.value();
                        if !op.is_arithmetic() && set_flags && imm.rot() != 0 {
                            return Err(TranslateError::Unsupported {
                                index,
                                what: "rotated logical flag-setting immediate".to_string(),
                            });
                        }
                        let rn_e = if op.ignores_rn() {
                            rd_e
                        } else {
                            self.reg(*rn, index)?
                        };
                        let dp3 = MicroOp::Dp3 { op, set_flags };
                        let dp2 = MicroOp::Dp2Imm { op, set_flags };
                        // Figure-2 Operate: 3-address immediate forms first.
                        if !op.ignores_rn() {
                            if let Some((e, w)) = self.cfg.form(dp3, LayoutKind::RRImm) {
                                if fits_unsigned(v, w) {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, rn_e, v as u16],
                                    });
                                    return Ok(());
                                }
                            }
                            if let Some((e, w)) = self.cfg.form(dp3, LayoutKind::RRDict) {
                                if let Some(idx) =
                                    Dictionaries::index_of(&self.cfg.dicts.operate, v, w)
                                {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, rn_e, idx],
                                    });
                                    return Ok(());
                                }
                            }
                        }
                        let lit = self.cfg.form(dp2, LayoutKind::R2Imm);
                        let dict = self.cfg.form(dp2, LayoutKind::R2Dict);
                        let two_addr_ok = op.ignores_rn() || rd_e == rn_e;
                        if two_addr_ok {
                            if let Some((e, w)) = lit {
                                if fits_unsigned(v, w) {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, v as u16, 0],
                                    });
                                    return Ok(());
                                }
                            }
                            if let Some((e, w)) = dict {
                                if let Some(idx) =
                                    Dictionaries::index_of(&self.cfg.dicts.operate, v, w)
                                {
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, idx, 0],
                                    });
                                    return Ok(());
                                }
                            }
                        }
                        // MOV/MVN of an arbitrary value.
                        if op == DpOp::Mov && !set_flags {
                            self.build_const(rd_e, v, out, index)?;
                            return Ok(());
                        }
                        if op == DpOp::Mvn && !set_flags {
                            self.build_const(rd_e, !v, out, index)?;
                            return Ok(());
                        }
                        // Two-address form reachable with a mov first?
                        if !two_addr_ok {
                            let fits_lit = lit.is_some_and(|(_, w)| fits_unsigned(v, w));
                            let dict_idx = dict.and_then(|(_, w)| {
                                Dictionaries::index_of(&self.cfg.dicts.operate, v, w)
                            });
                            if fits_lit || dict_idx.is_some() {
                                self.mov_reg(rd_e, rn_e, out)?;
                                if fits_lit {
                                    let (e, _) = lit.expect("checked");
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, v as u16, 0],
                                    });
                                } else {
                                    let (e, _) = dict.expect("checked");
                                    out.push(Draft::Op {
                                        entry: e,
                                        fields: [rd_e, dict_idx.expect("checked"), 0],
                                    });
                                }
                                return Ok(());
                            }
                        }
                        // General fallback: constant into scratch, then the
                        // register-register path.
                        let ip = self.scratch(index)?;
                        self.build_const(ip, v, out, index)?;
                        self.dp_reg_general(op, set_flags, rd_e, rn_e, ip, out, index)?;
                    }
                    // Shifted-register operands on non-mov ops.
                    (_, Operand2::Reg(rm, shift)) => {
                        let rn_e = self.reg(*rn, index)?;
                        let ip = self.scratch(index)?;
                        self.expand_shift_operand(*rm, *shift, ip, index, out)?;
                        self.dp_reg_general(op, set_flags, rd_e, rn_e, ip, out, index)?;
                    }
                }
                Ok(())
            }
            Instr::Mul {
                set_flags,
                rd,
                rm,
                rs,
                acc,
                ..
            } => {
                if *set_flags {
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "flag-setting multiply".to_string(),
                    });
                }
                let (e, _) = self.base_form(MicroOp::Mul3, LayoutKind::R3, "mul")?;
                let rd_e = self.reg(*rd, index)?;
                let rm_e = self.reg(*rm, index)?;
                let rs_e = self.reg(*rs, index)?;
                match acc {
                    None => out.push(Draft::Op {
                        entry: e,
                        fields: [rd_e, rm_e, rs_e],
                    }),
                    Some(rn) => {
                        // MLA: multiply into scratch, then add.
                        let ip = self.scratch(index)?;
                        out.push(Draft::Op {
                            entry: e,
                            fields: [ip, rm_e, rs_e],
                        });
                        let rn_e = self.reg(*rn, index)?;
                        self.dp_reg_general(DpOp::Add, false, rd_e, rn_e, ip, out, index)?;
                    }
                }
                Ok(())
            }
            Instr::Mem {
                op,
                rd,
                rn,
                offset,
                index: idx_mode,
                ..
            } => {
                if *idx_mode != fits_isa::Index::PreNoWb {
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "writeback addressing".to_string(),
                    });
                }
                if rd.is_pc() {
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "PC-destination load".to_string(),
                    });
                }
                let rd_e = self.reg(*rd, index)?;
                let rn_e = self.reg(*rn, index)?;
                let mem = MicroOp::Mem { op: *op };
                match offset {
                    AddrOffset::Imm(d) => {
                        let scale = disp_scale(*op);
                        if let Some((e, w)) = self.cfg.form(mem, LayoutKind::MemImm) {
                            if mem_lit_fits(*d, w, scale) {
                                let field = if scale == 1 {
                                    (*d as u16) & ((1u16 << w) - 1)
                                } else {
                                    (*d as u32 / scale) as u16
                                };
                                out.push(Draft::Op {
                                    entry: e,
                                    fields: [rd_e, rn_e, field],
                                });
                                return Ok(());
                            }
                        }
                        if let Some((e, w)) = self.cfg.form(mem, LayoutKind::MemDict) {
                            if let Some(idx) =
                                Dictionaries::index_of(&self.cfg.dicts.mem_disp, *d as u32, w)
                            {
                                out.push(Draft::Op {
                                    entry: e,
                                    fields: [rd_e, rn_e, idx],
                                });
                                return Ok(());
                            }
                        }
                        // Address arithmetic through the scratch register.
                        let ip = self.scratch(index)?;
                        self.build_const(ip, *d as u32, out, index)?;
                        self.dp_reg_general(DpOp::Add, false, ip, ip, rn_e, out, index)?;
                        let (e, w) = self.base_form(mem, LayoutKind::MemImm, op)?;
                        debug_assert!(mem_lit_fits(0, w, scale) || w == 0);
                        out.push(Draft::Op {
                            entry: e,
                            fields: [rd_e, ip, 0],
                        });
                        Ok(())
                    }
                    AddrOffset::Reg {
                        rm,
                        shift,
                        subtract,
                    } => {
                        let ip = self.scratch(index)?;
                        self.expand_shift_operand(*rm, *shift, ip, index, out)?;
                        if *subtract {
                            return Err(TranslateError::Unsupported {
                                index,
                                what: "subtracting register offset".to_string(),
                            });
                        }
                        self.dp_reg_general(DpOp::Add, false, ip, ip, rn_e, out, index)?;
                        let (e, _) = self.base_form(mem, LayoutKind::MemImm, op)?;
                        out.push(Draft::Op {
                            entry: e,
                            fields: [rd_e, ip, 0],
                        });
                        Ok(())
                    }
                }
            }
            Instr::Branch {
                cond, link, offset, ..
            } => {
                let target = index as i64 + 2 + i64::from(*offset);
                let target_arm =
                    usize::try_from(target).map_err(|_| TranslateError::Unsupported {
                        index,
                        what: "branch before text start".to_string(),
                    })?;
                if target_arm >= self.program.text.len() {
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "branch past text end".to_string(),
                    });
                }
                out.push(Draft::Branch {
                    cond: *cond,
                    link: *link,
                    target_arm,
                });
                Ok(())
            }
            Instr::Swi { imm, .. } => {
                let (e, w) = self.base_form(MicroOp::Swi, LayoutKind::Trap, "swi")?;
                if !fits_unsigned(*imm, w) && *imm != 0 {
                    return Err(TranslateError::Unsupported {
                        index,
                        what: "trap number too wide".to_string(),
                    });
                }
                out.push(Draft::Op {
                    entry: e,
                    fields: [*imm as u16, 0, 0],
                });
                Ok(())
            }
        }
    }

    /// Computes `shift(rm)` into `dst`.
    fn expand_shift_operand(
        &mut self,
        rm: Reg,
        shift: Shift,
        dst: u16,
        index: usize,
        out: &mut Vec<Draft>,
    ) -> Result<(), TranslateError> {
        let rm_e = self.reg(rm, index)?;
        match shift {
            Shift::Imm(ShiftKind::Lsl, 0) => self.mov_reg(dst, rm_e, out),
            Shift::Imm(kind, n) => {
                self.shift_imm_general(kind, false, dst, rm_e, u32::from(n), out, index)
            }
            Shift::Reg(kind, rs) => {
                let rs_e = self.reg(rs, index)?;
                let (sr, _) = self.base_form(
                    MicroOp::ShiftReg {
                        kind,
                        set_flags: false,
                    },
                    LayoutKind::R2,
                    format_args!("shift-reg {kind}"),
                )?;
                self.mov_reg(dst, rm_e, out)?;
                out.push(Draft::Op {
                    entry: sr,
                    fields: [dst, rs_e, 0],
                });
                Ok(())
            }
        }
    }

    /// Translates one instruction including its predication wrapper.
    fn translate_instr(
        &mut self,
        instr: &Instr,
        index: usize,
        out: &mut Vec<Draft>,
    ) -> Result<(), TranslateError> {
        let cond = instr.cond();
        if cond == Cond::Al || matches!(instr, Instr::Branch { .. }) {
            return self.expand(instr, index, out);
        }
        // Predicated moves may have dedicated opcodes.
        if let Instr::Dp {
            op: DpOp::Mov,
            set_flags: false,
            rd,
            op2,
            ..
        } = instr
        {
            if !rd.is_pc() {
                let rd_e = self.reg(*rd, index)?;
                match op2 {
                    Operand2::Imm(imm) => {
                        if let Some((e, w)) = self
                            .cfg
                            .form(MicroOp::PredMovImm { cond }, LayoutKind::R2Imm)
                        {
                            if fits_unsigned(imm.value(), w) {
                                out.push(Draft::Op {
                                    entry: e,
                                    fields: [rd_e, imm.value() as u16, 0],
                                });
                                return Ok(());
                            }
                        }
                    }
                    Operand2::Reg(rm, Shift::Imm(ShiftKind::Lsl, 0)) => {
                        if let Some((e, _)) =
                            self.cfg.form(MicroOp::PredMovReg { cond }, LayoutKind::R2)
                        {
                            let rm_e = self.reg(*rm, index)?;
                            out.push(Draft::Op {
                                entry: e,
                                fields: [rd_e, rm_e, 0],
                            });
                            return Ok(());
                        }
                    }
                    Operand2::Reg(..) => {}
                }
            }
        }
        // Generic predication: inverse-condition branch around the
        // unconditional expansion.
        let mut body = Vec::new();
        self.expand(&instr.with_cond(Cond::Al), index, &mut body)?;
        let inv = cond.inverse();
        let (e, w) = self.base_form(
            MicroOp::Branch {
                cond: inv,
                link: false,
            },
            LayoutKind::Br,
            format_args!("b{inv}"),
        )?;
        let skip = body.len() as u16;
        if !fits_unsigned(u32::from(skip), w.saturating_sub(1)) {
            return Err(TranslateError::Unsupported {
                index,
                what: "predicated expansion too long for branch-around".to_string(),
            });
        }
        out.push(Draft::LocalBranch { entry: e, skip });
        out.extend(body);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Field packing
// ---------------------------------------------------------------------------

/// Packs an opcode entry and its field values into the 16-bit word.
#[must_use]
pub fn pack(entry: &OpcodeEntry, fields: [u16; 3], r: u8) -> u16 {
    let mut word = entry.code;
    let r = u16::from(r);
    let body: u16 = match entry.layout {
        Layout::R3 => (fields[0] << (2 * r)) | (fields[1] << r) | fields[2],
        Layout::R2 => (fields[0] << r) | fields[1],
        Layout::R2Imm { w } | Layout::R2Dict { w } => {
            (fields[0] << w) | (fields[1] & ((1 << w) - 1))
        }
        Layout::RRImm { w } | Layout::RRDict { w } => {
            (fields[0] << (r + u16::from(w))) | (fields[1] << w) | (fields[2] & ((1 << w) - 1))
        }
        Layout::MemImm { w } | Layout::MemDict { w } => {
            (fields[0] << (r + u16::from(w))) | (fields[1] << w) | (fields[2] & ((1 << w) - 1))
        }
        Layout::Br { w } | Layout::Trap { w } => fields[0] & ((1u16 << w) - 1),
        Layout::R1 => fields[0],
    };
    word |= body;
    word
}

/// Unpacks the operand fields of a word for the given entry, reversing
/// [`pack`].
#[must_use]
pub fn unpack(entry: &OpcodeEntry, word: u16, r: u8) -> [u16; 3] {
    let r16 = u16::from(r);
    let rmask = (1u16 << r16) - 1;
    match entry.layout {
        Layout::R3 => [
            (word >> (2 * r16)) & rmask,
            (word >> r16) & rmask,
            word & rmask,
        ],
        Layout::R2 => [(word >> r16) & rmask, word & rmask, 0],
        Layout::R2Imm { w } | Layout::R2Dict { w } => {
            [(word >> w) & rmask, word & ((1 << w) - 1), 0]
        }
        Layout::RRImm { w }
        | Layout::RRDict { w }
        | Layout::MemImm { w }
        | Layout::MemDict { w } => [
            (word >> (r16 + u16::from(w))) & rmask,
            (word >> w) & rmask,
            word & ((1 << w) - 1),
        ],
        Layout::Br { w } | Layout::Trap { w } => [word & ((1u16 << w) - 1), 0, 0],
        Layout::R1 => [word & rmask, 0, 0],
    }
}

fn sign_fits(v: i64, w: u8) -> bool {
    w >= 1 && v >= -(1i64 << (w - 1)) && v < (1i64 << (w - 1))
}

// ---------------------------------------------------------------------------
// Top-level translation with branch relaxation
// ---------------------------------------------------------------------------

/// How a program-level branch is realized after relaxation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BrForm {
    /// One branch instruction.
    Short,
    /// Inverse-condition hop over an unconditional branch.
    InvPair,
    /// Target loaded from the dictionary, then `jr`/`jalr` (2 instrs, or 3
    /// with a conditional hop).
    Dict,
}

impl BrForm {
    fn size(self, cond: Cond, link: bool) -> u32 {
        match self {
            BrForm::Short => 1,
            BrForm::InvPair => 2,
            BrForm::Dict => {
                if cond == Cond::Al || link {
                    2
                } else {
                    3
                }
            }
        }
    }
}

/// Translates `program` under `config`, producing the FITS binary and
/// mapping statistics. The returned configuration may contain additional
/// dictionary entries discovered during translation.
///
/// # Errors
///
/// Returns [`TranslateError`] when the program uses registers outside the
/// synthesized window or instruction shapes outside the supported set.
pub fn translate(program: &Program, config: &DecoderConfig) -> Result<Translation, TranslateError> {
    let movd = config.form(MOVI, LayoutKind::R2Dict);
    let op_dict_cap = movd.map_or(0, |(_, w)| 1usize << w);
    let mut tr = Translator {
        program,
        cfg: config.clone(),
        op_dict_cap,
        movd,
    };

    // Pass 1: expand every instruction.
    let mut drafts: Vec<Vec<Draft>> = Vec::with_capacity(program.text.len());
    for (i, instr) in program.text.iter().enumerate() {
        let mut out = Vec::with_capacity(1);
        tr.translate_instr(instr, i, &mut out)?;
        debug_assert!(!out.is_empty());
        drafts.push(out);
    }

    // Pass 2: branch relaxation to a fixpoint.
    let mut forms: Vec<BrForm> = vec![BrForm::Short; program.text.len()];
    let r = tr.cfg.regs.field_bits;
    loop {
        // Positions.
        let mut pos = vec![0u32; program.text.len() + 1];
        for i in 0..program.text.len() {
            let mut size = 0u32;
            for d in &drafts[i] {
                size += match d {
                    Draft::Branch { cond, link, .. } => forms[i].size(*cond, *link),
                    _ => 1,
                };
            }
            pos[i + 1] = pos[i] + size;
        }
        let mut changed = false;
        for (i, dv) in drafts.iter().enumerate() {
            // The branch draft is always last in its expansion.
            let Some(Draft::Branch {
                cond,
                link,
                target_arm,
            }) = dv.last()
            else {
                continue;
            };
            let (_, w) = tr.base_form(
                MicroOp::Branch {
                    cond: *cond,
                    link: *link,
                },
                LayoutKind::Br,
                format_args!("b{cond}"),
            )?;
            // Where does the branch instruction itself sit?
            let br_pos = pos[i + 1] - forms[i].size(*cond, *link);
            let disp = i64::from(pos[*target_arm]) - (i64::from(br_pos) + 2);
            let needed = if sign_fits(disp, w) {
                BrForm::Short
            } else {
                // Try the inverse pair (unconditional branch range).
                let bal = tr.base_form(B, LayoutKind::Br, "b")?;
                let uncond_disp = i64::from(pos[*target_arm]) - (i64::from(br_pos) + 1 + 2);
                if !link && *cond != Cond::Al && sign_fits(uncond_disp, bal.1) {
                    BrForm::InvPair
                } else {
                    // Anything else out of short range goes through the
                    // target dictionary. In particular a far `bl` must
                    // NOT borrow the non-link `b` entry's (possibly
                    // wider) displacement field: the displacement is
                    // packed into the `bl` entry's own field, and
                    // checking it against another entry's width
                    // truncates the encoded target.
                    BrForm::Dict
                }
            };
            // Forms only grow (monotone), guaranteeing termination.
            if needed.size(*cond, *link) > forms[i].size(*cond, *link) {
                forms[i] = needed;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Final positions.
    let mut pos = vec![0u32; program.text.len() + 1];
    let mut expansion = vec![0u32; program.text.len()];
    for i in 0..program.text.len() {
        let mut size = 0u32;
        for d in &drafts[i] {
            size += match d {
                Draft::Branch { cond, link, .. } => forms[i].size(*cond, *link),
                _ => 1,
            };
        }
        expansion[i] = size;
        pos[i + 1] = pos[i] + size;
    }

    // Pass 3: encode.
    let total = pos[program.text.len()] as usize;
    let mut words: Vec<u16> = Vec::with_capacity(total);
    for (i, dv) in drafts.iter().enumerate() {
        for d in dv {
            match d {
                Draft::Op { entry, fields } => {
                    words.push(pack(&tr.cfg.ops[*entry], *fields, r));
                }
                Draft::LocalBranch { entry, skip } => {
                    debug_assert!(*skip >= 1);
                    words.push(pack(&tr.cfg.ops[*entry], [*skip - 1, 0, 0], r));
                }
                Draft::Branch {
                    cond,
                    link,
                    target_arm,
                } => {
                    let branch = MicroOp::Branch {
                        cond: *cond,
                        link: *link,
                    };
                    let (e, w) = tr
                        .cfg
                        .form(branch, LayoutKind::Br)
                        .expect("validated in relaxation");
                    let target_pos = i64::from(pos[*target_arm]);
                    match forms[i] {
                        BrForm::Short => {
                            let here = words.len() as i64;
                            let disp = target_pos - (here + 2);
                            debug_assert!(sign_fits(disp, w), "short branch overflow");
                            words.push(pack(
                                &tr.cfg.ops[e],
                                [(disp as u16) & ((1u16 << w) - 1), 0, 0],
                                r,
                            ));
                        }
                        BrForm::InvPair => {
                            let inv = cond.inverse();
                            let inverse = MicroOp::Branch {
                                cond: inv,
                                link: false,
                            };
                            let (ei, _) = tr.cfg.form(inverse, LayoutKind::Br).expect("BIS pairs");
                            // Hop over the unconditional branch:
                            // displacement 0 lands one past it (pc + 4).
                            words.push(pack(&tr.cfg.ops[ei], [0, 0, 0], r));
                            let (eb, wb) = tr.cfg.form(B, LayoutKind::Br).expect("BIS b");
                            let here = words.len() as i64;
                            let disp = target_pos - (here + 2);
                            debug_assert!(sign_fits(disp, wb), "pair branch overflow");
                            words.push(pack(
                                &tr.cfg.ops[eb],
                                [(disp as u16) & ((1u16 << wb) - 1), 0, 0],
                                r,
                            ));
                        }
                        BrForm::Dict => {
                            // Optional conditional hop, then the always
                            // exactly-one-instruction target-dictionary load
                            // and the indirect jump (sizes must match the
                            // relaxation's accounting).
                            let cond = *cond;
                            let link = *link;
                            let target_addr = TEXT_BASE + (pos[*target_arm] * 2);
                            let ip = tr.scratch(i)?;
                            if cond != Cond::Al && !link {
                                let inverse = MicroOp::Branch {
                                    cond: cond.inverse(),
                                    link: false,
                                };
                                let (ei, _) =
                                    tr.cfg.form(inverse, LayoutKind::Br).expect("BIS pairs");
                                // Skip the 2-instruction far sequence:
                                // displacement 1 (relative to pc + 4).
                                words.push(pack(&tr.cfg.ops[ei], [1, 0, 0], r));
                            }
                            let (lt, ltw) = tr.base_form(
                                MicroOp::LoadTarget,
                                LayoutKind::R2Dict,
                                "load-target",
                            )?;
                            let idx = tr.target_dict_index(target_addr, ltw, i)?;
                            words.push(pack(&tr.cfg.ops[lt], [ip, idx, 0], r));
                            let (jr, _) = tr.base_form(
                                MicroOp::BranchReg { link },
                                LayoutKind::R1,
                                "jr/jalr",
                            )?;
                            words.push(pack(&tr.cfg.ops[jr], [ip, 0, 0], r));
                        }
                    }
                }
            }
        }
        debug_assert_eq!(words.len() as u32, pos[i + 1], "layout drift at {i}");
    }

    let entry = pos[program.entry] as usize;
    Ok(Translation {
        fits: FitsProgram {
            instrs: words,
            data: program.data.clone(),
            entry,
            config: tr.cfg,
        },
        stats: MappingStats { expansion },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile;
    use crate::synth::{synthesize, SynthOptions};
    use fits_kernels::kernels::{Kernel, Scale};

    fn translate_kernel(k: Kernel) -> (Translation, crate::profile::Profile) {
        let program = k.compile(Scale::test()).unwrap();
        let p = profile(&program).unwrap();
        let s = synthesize(&p, &SynthOptions::default());
        let t = translate(&program, &s.config).unwrap();
        (t, p)
    }

    #[test]
    fn crc32_translates_with_high_mapping_rate() {
        let (t, p) = translate_kernel(Kernel::Crc32);
        let stat = t.stats.static_one_to_one_rate();
        let dynr = t.stats.dynamic_one_to_one_rate(&p.exec_counts);
        assert!(stat > 0.85, "static 1-to-1 rate {stat}");
        assert!(dynr > 0.90, "dynamic 1-to-1 rate {dynr}");
    }

    #[test]
    fn code_size_is_roughly_halved() {
        let program = Kernel::Crc32.compile(Scale::test()).unwrap();
        let p = profile(&program).unwrap();
        let s = synthesize(&p, &SynthOptions::default());
        let t = translate(&program, &s.config).unwrap();
        let ratio = t.fits.code_bytes() as f64 / program.code_bytes() as f64;
        assert!(ratio < 0.62, "code ratio {ratio}");
        assert!(ratio >= 0.5, "cannot beat the 2-byte floor: {ratio}");
    }

    #[test]
    fn pack_unpack_round_trip() {
        use crate::decoder::Tier;
        for layout in [
            Layout::R3,
            Layout::R2,
            Layout::R2Imm { w: 5 },
            Layout::RRImm { w: 4 },
            Layout::MemImm { w: 4 },
            Layout::Br { w: 10 },
            Layout::R1,
            Layout::Trap { w: 4 },
        ] {
            let entry = OpcodeEntry {
                code: 0b1010 << 12,
                len: 16 - layout.operand_bits(4),
                micro: MicroOp::Mul3,
                layout,
                tier: Tier::Bis,
            };
            let fields = match layout {
                Layout::R3 => [3u16, 7, 11],
                Layout::R2 => [5, 9, 0],
                Layout::R2Imm { .. } => [4, 19, 0],
                Layout::RRImm { .. } => [2, 6, 9],
                Layout::MemImm { .. } => [1, 13, 7],
                Layout::Br { .. } => [0x2a5 & 0x3ff, 0, 0],
                Layout::R1 => [14, 0, 0],
                _ => [9, 0, 0],
            };
            let word = pack(&entry, fields, 4);
            let back = unpack(&entry, word, 4);
            assert_eq!(back, fields, "{layout:?}");
            assert_eq!(
                word >> (16 - entry.len),
                entry.code >> (16 - entry.len),
                "opcode prefix preserved for {layout:?}"
            );
        }
    }

    #[test]
    fn expansion_counts_match_instruction_stream() {
        let (t, _) = translate_kernel(Kernel::Bitcount);
        let total: u32 = t.stats.expansion.iter().sum();
        assert_eq!(total as usize, t.fits.instrs.len());
        assert!(t.stats.expansion.iter().all(|&e| e >= 1));
    }
}
