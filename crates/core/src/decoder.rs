//! The programmable decoder: what FITS "downloads to non-volatile state"
//! after synthesis (§3.1–3.2 of the paper).
//!
//! A [`DecoderConfig`] fully defines a synthesized 16-bit instruction set:
//! a prefix-free opcode table (each entry pairing a micro-operation template
//! with an operand-field layout), the register organization, and the
//! per-category immediate dictionaries. In the FITS design it is a
//! configuration artifact produced by the compiler and persisted in the
//! processor's programmable decode storage;
//! [`DecoderConfig::config_bits`] reports its size, which the power model
//! charges as decode-path state.

use std::fmt;

use fits_isa::{Cond, DpOp, MemOp, Reg, ShiftKind};

/// A micro-operation template: the datapath operation a synthesized opcode
/// maps onto. The operand *sources* come from the paired [`Layout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MicroOp {
    /// `rc = ra <op> rb` (three-address data processing).
    Dp3 {
        /// Operation.
        op: DpOp,
        /// Update flags.
        set_flags: bool,
    },
    /// `rc = rc <op> rb` (two-address register form; for `MOV`/`MVN`,
    /// `rc = <op> rb`).
    Dp2Reg {
        /// Operation.
        op: DpOp,
        /// Update flags.
        set_flags: bool,
    },
    /// `rc = rc <op> imm` (for `MOV`/`MVN`, `rc = <op> imm`). The immediate
    /// is a zero-extended literal field or a dictionary value, per layout.
    Dp2Imm {
        /// Operation.
        op: DpOp,
        /// Update flags.
        set_flags: bool,
    },
    /// `rc = ra <shift> #amount` where the amount comes from the operand
    /// field (literal) or the shift-amount dictionary (per layout).
    ShiftImm {
        /// Shift kind.
        kind: ShiftKind,
        /// Update flags.
        set_flags: bool,
    },
    /// `rc = rc <shift> rb` (two-address register-amount shift).
    ShiftReg {
        /// Shift kind.
        kind: ShiftKind,
        /// Update flags.
        set_flags: bool,
    },
    /// `<cmp> rc, rb` (flag-only compare against a register).
    CmpReg {
        /// One of CMP/CMN/TST/TEQ.
        op: DpOp,
    },
    /// `<cmp> rc, imm` (literal or dictionary immediate, per layout).
    CmpImm {
        /// One of CMP/CMN/TST/TEQ.
        op: DpOp,
    },
    /// `rc = ra * rb`.
    Mul3,
    /// Load/store `rd, [rb, #disp]`; the displacement field is scaled by
    /// the access size for word/halfword ops and signed for byte ops.
    Mem {
        /// Access kind.
        op: MemOp,
    },
    /// PC-relative branch; displacement in instruction (2-byte) units,
    /// relative to `pc + 4`.
    Branch {
        /// Condition.
        cond: Cond,
        /// Write the return address to the mapped link register.
        link: bool,
    },
    /// Indirect jump: `pc = r[a]`, optionally linking (`jalr`).
    BranchReg {
        /// Write the return address to the mapped link register.
        link: bool,
    },
    /// Predicated register move `mov<cond> rc, rb`.
    PredMovReg {
        /// Condition.
        cond: Cond,
    },
    /// Predicated immediate move `mov<cond> rc, #imm`.
    PredMovImm {
        /// Condition.
        cond: Cond,
    },
    /// Loads an absolute code address from the target dictionary
    /// (`rc = target[idx]`) — the far-branch/far-call glue.
    LoadTarget,
    /// Software interrupt with the trap number in the operand field.
    Swi,
}

/// The operand-field layout of a synthesized opcode: what the bits after
/// the opcode prefix mean. Field widths are synthesis outputs (§3.3's
/// "dynamically reconfigure the total immediate field width and adjust
/// widths of other instruction fields").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layout {
    /// `[rc][ra][rb]` — three register fields.
    R3,
    /// `[rc][rb]` — two register fields.
    R2,
    /// `[rc][imm:w]` — register plus literal immediate.
    R2Imm {
        /// Immediate width.
        w: u8,
    },
    /// `[rc][idx:w]` — register plus dictionary index.
    R2Dict {
        /// Index width.
        w: u8,
    },
    /// `[rc][ra][imm:w]` — two registers plus a literal (shift amounts).
    RRImm {
        /// Immediate width.
        w: u8,
    },
    /// `[rc][ra][idx:w]` — two registers plus a dictionary index.
    RRDict {
        /// Index width.
        w: u8,
    },
    /// `[rd][rb][disp:w]` — memory displacement field.
    MemImm {
        /// Displacement width.
        w: u8,
    },
    /// `[rd][rb][idx:w]` — memory displacement from the dictionary.
    MemDict {
        /// Index width.
        w: u8,
    },
    /// `[disp:w]` — branch displacement (signed).
    Br {
        /// Displacement width.
        w: u8,
    },
    /// `[ra]` — single register.
    R1,
    /// `[num:w]` — trap number.
    Trap {
        /// Number width.
        w: u8,
    },
}

/// A [`Layout`] without its field width. Synthesis places at most one
/// opcode per micro-op and kind, so a `(MicroOp, LayoutKind)` pair names
/// one opcode form of a configuration ([`DecoderConfig::form`]). The
/// variants, and so the derived order, follow [`Layout`]'s.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LayoutKind {
    /// [`Layout::R3`].
    R3,
    /// [`Layout::R2`].
    R2,
    /// [`Layout::R2Imm`].
    R2Imm,
    /// [`Layout::R2Dict`].
    R2Dict,
    /// [`Layout::RRImm`].
    RRImm,
    /// [`Layout::RRDict`].
    RRDict,
    /// [`Layout::MemImm`].
    MemImm,
    /// [`Layout::MemDict`].
    MemDict,
    /// [`Layout::Br`].
    Br,
    /// [`Layout::R1`].
    R1,
    /// [`Layout::Trap`].
    Trap,
}

impl Layout {
    /// The layout's kind.
    #[must_use]
    pub fn kind(self) -> LayoutKind {
        match self {
            Layout::R3 => LayoutKind::R3,
            Layout::R2 => LayoutKind::R2,
            Layout::R2Imm { .. } => LayoutKind::R2Imm,
            Layout::R2Dict { .. } => LayoutKind::R2Dict,
            Layout::RRImm { .. } => LayoutKind::RRImm,
            Layout::RRDict { .. } => LayoutKind::RRDict,
            Layout::MemImm { .. } => LayoutKind::MemImm,
            Layout::MemDict { .. } => LayoutKind::MemDict,
            Layout::Br { .. } => LayoutKind::Br,
            Layout::R1 => LayoutKind::R1,
            Layout::Trap { .. } => LayoutKind::Trap,
        }
    }

    /// The width of the layout's literal, index or displacement field (0
    /// for the register-only layouts).
    #[must_use]
    pub fn width(self) -> u8 {
        match self {
            Layout::R3 | Layout::R2 | Layout::R1 => 0,
            Layout::R2Imm { w }
            | Layout::R2Dict { w }
            | Layout::RRImm { w }
            | Layout::RRDict { w }
            | Layout::MemImm { w }
            | Layout::MemDict { w }
            | Layout::Br { w }
            | Layout::Trap { w } => w,
        }
    }

    /// The layout-kind name in the `powerfits-isa-v1` spec vocabulary
    /// (the `layouts { ... }` list of the FITS spec).
    #[must_use]
    pub fn kind_name(self) -> &'static str {
        match self {
            Layout::R3 => "r3",
            Layout::R2 => "r2",
            Layout::R2Imm { .. } => "r2-imm",
            Layout::R2Dict { .. } => "r2-dict",
            Layout::RRImm { .. } => "rr-imm",
            Layout::RRDict { .. } => "rr-dict",
            Layout::MemImm { .. } => "mem-imm",
            Layout::MemDict { .. } => "mem-dict",
            Layout::Br { .. } => "br",
            Layout::R1 => "r1",
            Layout::Trap { .. } => "trap",
        }
    }

    /// Total operand bits this layout occupies, given the register-field
    /// width `r` (3 or 4).
    #[must_use]
    pub fn operand_bits(self, r: u8) -> u8 {
        match self {
            Layout::R3 => 3 * r,
            Layout::R2 => 2 * r,
            Layout::R2Imm { w } | Layout::R2Dict { w } => r + w,
            Layout::RRImm { w } | Layout::RRDict { w } => 2 * r + w,
            Layout::MemImm { w } | Layout::MemDict { w } => 2 * r + w,
            Layout::Br { w } | Layout::Trap { w } => w,
            Layout::R1 => r,
        }
    }
}

/// One synthesized opcode: a prefix code, its micro-op and its layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpcodeEntry {
    /// The opcode prefix, left-aligned in the 16-bit word (i.e. the
    /// instruction's top `len` bits equal `code >> (16 - len)`).
    pub code: u16,
    /// Prefix length in bits.
    pub len: u8,
    /// Datapath operation.
    pub micro: MicroOp,
    /// Operand layout.
    pub layout: Layout,
    /// Which instruction-set tier placed this opcode (reporting only).
    pub tier: Tier,
}

/// The paper's instruction-set tiers (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// Base Instruction Set — present for every application.
    Bis,
    /// Supplemental Instruction Set — keeps the ISA complete (constant
    /// construction, far-jump glue).
    Sis,
    /// Application-specific Instruction Set — chosen by the optimizer.
    Ais,
}

impl Tier {
    /// The tier name in the `powerfits-isa-v1` spec vocabulary (the
    /// `tiers { ... }` list of the FITS spec).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Tier::Bis => "bis",
            Tier::Sis => "sis",
            Tier::Ais => "ais",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tier::Bis => "BIS",
            Tier::Sis => "SIS",
            Tier::Ais => "AIS",
        };
        f.write_str(s)
    }
}

/// The register organization: how many architectural registers the 16-bit
/// encodings can name and which physical registers they map to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegMap {
    /// Register-field width (3 or 4 bits).
    pub field_bits: u8,
    /// `map[i]` is the physical register named by encoding `i`.
    pub map: Vec<u8>,
}

impl RegMap {
    /// The identity 16-register organization.
    #[must_use]
    pub fn full() -> RegMap {
        RegMap {
            field_bits: 4,
            map: (0..16).collect(),
        }
    }

    /// Resolves an encoded register field to a physical register.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the window (a malformed encoding).
    #[must_use]
    pub fn phys(&self, idx: u16) -> Reg {
        Reg::new(self.map[idx as usize])
    }

    /// Finds the encoding for a physical register, if it is in the window.
    #[must_use]
    pub fn encode(&self, reg: Reg) -> Option<u16> {
        self.map
            .iter()
            .position(|&p| p == reg.index())
            .map(|i| i as u16)
    }
}

/// The per-category immediate dictionaries (§3.3: category-based immediate
/// synthesis; values live in "programmable, non-volatile memory storage",
/// instructions carry indices).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dictionaries {
    /// Operate-class immediates (ALU operands, compare values).
    pub operate: Vec<u32>,
    /// Memory displacements (byte units, signed, stored as two's complement).
    pub mem_disp: Vec<u32>,
    /// Shift amounts.
    pub shift: Vec<u32>,
    /// Far-branch/call absolute targets.
    pub target: Vec<u32>,
}

impl Dictionaries {
    /// Looks up a value's index in one dictionary.
    #[must_use]
    pub fn index_of(dict: &[u32], value: u32, width: u8) -> Option<u16> {
        let cap = 1usize << width;
        dict.iter()
            .take(cap)
            .position(|&v| v == value)
            .map(|i| i as u16)
    }

    /// Total entries across all dictionaries.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.operate.len() + self.mem_disp.len() + self.shift.len() + self.target.len()
    }
}

/// A complete programmable-decoder configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DecoderConfig {
    /// The opcode table, sorted by (len, code).
    pub ops: Vec<OpcodeEntry>,
    /// Register organization.
    pub regs: RegMap,
    /// Immediate dictionaries.
    pub dicts: Dictionaries,
}

impl DecoderConfig {
    /// The size of the configuration state in bits: opcode-table CAM/RAM
    /// entries plus dictionary storage plus the register map. This is the
    /// number the power model charges as programmable-decode storage.
    #[must_use]
    pub fn config_bits(&self) -> usize {
        // Each opcode entry: 16-bit prefix/mask pair plus a ~24-bit decoded
        // control word (micro-op selects, field extract controls).
        let table = self.ops.len() * (16 + 16 + 24);
        let dicts = self.dicts.entries() * 32;
        let regs = self.regs.map.len() * 4;
        table + dicts + regs
    }

    /// Verifies the opcode table is prefix-free (no code is a prefix of
    /// another) — the decodability invariant.
    #[must_use]
    pub fn is_prefix_free(&self) -> bool {
        for (i, a) in self.ops.iter().enumerate() {
            for b in self.ops.iter().skip(i + 1) {
                let l = a.len.min(b.len);
                if l == 0 {
                    return false;
                }
                if (a.code >> (16 - l)) == (b.code >> (16 - l)) {
                    return false;
                }
            }
        }
        true
    }

    /// Finds the opcode entry matching a 16-bit instruction word.
    #[must_use]
    pub fn match_word(&self, word: u16) -> Option<&OpcodeEntry> {
        self.ops
            .iter()
            .find(|e| (word >> (16 - u16::from(e.len))) == (e.code >> (16 - u16::from(e.len))))
    }

    /// The opcode form `micro` takes in layout `kind`: the first such
    /// entry's index in [`DecoderConfig::ops`] and its field width (0 for
    /// register-only layouts). Translation picks every opcode it emits
    /// through this lookup.
    #[must_use]
    pub fn form(&self, micro: MicroOp, kind: LayoutKind) -> Option<(usize, u8)> {
        let i = self
            .ops
            .iter()
            .position(|e| e.micro == micro && e.layout.kind() == kind)?;
        Some((i, self.ops[i].layout.width()))
    }

    /// Iterates entries of one tier.
    pub fn tier_ops(&self, tier: Tier) -> impl Iterator<Item = &OpcodeEntry> {
        self.ops.iter().filter(move |e| e.tier == tier)
    }
}

impl fmt::Display for DecoderConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "decoder config: {} opcodes ({} BIS / {} SIS / {} AIS), {} dict entries, {} config bits",
            self.ops.len(),
            self.tier_ops(Tier::Bis).count(),
            self.tier_ops(Tier::Sis).count(),
            self.tier_ops(Tier::Ais).count(),
            self.dicts.entries(),
            self.config_bits()
        )?;
        for e in &self.ops {
            writeln!(
                f,
                "  {:0len$b} ({}) {:?} {:?}",
                e.code >> (16 - u16::from(e.len)),
                e.tier,
                e.micro,
                e.layout,
                len = e.len as usize
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(code: u16, len: u8) -> OpcodeEntry {
        OpcodeEntry {
            code,
            len,
            micro: MicroOp::Dp3 {
                op: DpOp::Add,
                set_flags: false,
            },
            layout: Layout::R3,
            tier: Tier::Bis,
        }
    }

    #[test]
    fn prefix_freedom() {
        let cfg = DecoderConfig {
            ops: vec![
                entry(0b0000 << 12, 4),
                entry(0b0001 << 12, 4),
                entry(0b00100 << 11, 5),
            ],
            regs: RegMap::full(),
            dicts: Dictionaries::default(),
        };
        assert!(cfg.is_prefix_free());

        let bad = DecoderConfig {
            ops: vec![entry(0b0000 << 12, 4), entry(0b00000 << 11, 5)],
            regs: RegMap::full(),
            dicts: Dictionaries::default(),
        };
        assert!(!bad.is_prefix_free());
    }

    #[test]
    fn word_matching() {
        let cfg = DecoderConfig {
            ops: vec![entry(0b0000 << 12, 4), entry(0b0001 << 12, 4)],
            regs: RegMap::full(),
            dicts: Dictionaries::default(),
        };
        let m = cfg.match_word(0b0001_0101_0101_0101).unwrap();
        assert_eq!(m.code, 0b0001 << 12);
        assert!(cfg.match_word(0b1111_0000_0000_0000).is_none());
    }

    #[test]
    fn layout_operand_bits() {
        assert_eq!(Layout::R3.operand_bits(4), 12);
        assert_eq!(Layout::R3.operand_bits(3), 9);
        assert_eq!(Layout::MemImm { w: 4 }.operand_bits(4), 12);
        assert_eq!(Layout::Br { w: 10 }.operand_bits(4), 10);
        assert_eq!(Layout::R2Imm { w: 8 }.operand_bits(4), 12);
    }

    #[test]
    fn reg_map_round_trip() {
        let m = RegMap::full();
        for r in Reg::all() {
            assert_eq!(m.phys(m.encode(r).unwrap()), r);
        }
    }

    #[test]
    fn dictionaries_respect_capacity() {
        let dict = vec![10u32, 20, 30, 40, 50];
        assert_eq!(Dictionaries::index_of(&dict, 30, 3), Some(2));
        assert_eq!(Dictionaries::index_of(&dict, 50, 2), None, "beyond 2^2 cap");
        assert_eq!(Dictionaries::index_of(&dict, 99, 3), None);
    }

    #[test]
    fn config_size_and_display() {
        let cfg = DecoderConfig {
            ops: vec![entry(0, 4)],
            regs: RegMap::full(),
            dicts: Dictionaries {
                operate: vec![1, 2],
                ..Dictionaries::default()
            },
        };
        assert_eq!(cfg.config_bits(), 56 + 2 * 32 + 64);
        assert!(cfg.to_string().contains("decoder config"));
    }
}
