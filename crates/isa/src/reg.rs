use std::fmt;
use std::str::FromStr;

/// One of the 32 general-purpose registers.
///
/// The wrapped index is guaranteed to be in `0..32`. Register roles follow
/// the MIPS o32 convention; see the associated constants.
///
/// # Examples
///
/// ```
/// use instrep_isa::Reg;
///
/// assert_eq!(Reg::A0.number(), 4);
/// assert_eq!("$sp".parse::<Reg>()?, Reg::SP);
/// assert_eq!(Reg::S3.name(), "s3");
/// assert_eq!(Reg::arg(2), Some(Reg::A2));
/// # Ok::<(), instrep_isa::ParseRegError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// Error returned when a register name fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

const NAMES: [&str; 32] = [
    "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
    "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp", "fp",
    "ra",
];

impl Reg {
    /// Hardwired zero register.
    pub const ZERO: Reg = Reg(0);
    /// Assembler temporary (used when expanding pseudo-instructions).
    pub const AT: Reg = Reg(1);
    /// First return-value register.
    pub const V0: Reg = Reg(2);
    /// Second return-value register.
    pub const V1: Reg = Reg(3);
    /// First argument register.
    pub const A0: Reg = Reg(4);
    /// Second argument register.
    pub const A1: Reg = Reg(5);
    /// Third argument register.
    pub const A2: Reg = Reg(6);
    /// Fourth argument register.
    pub const A3: Reg = Reg(7);
    /// Caller-saved temporary 0.
    pub const T0: Reg = Reg(8);
    /// Caller-saved temporary 1.
    pub const T1: Reg = Reg(9);
    /// Caller-saved temporary 2.
    pub const T2: Reg = Reg(10);
    /// Caller-saved temporary 3.
    pub const T3: Reg = Reg(11);
    /// Caller-saved temporary 4.
    pub const T4: Reg = Reg(12);
    /// Caller-saved temporary 5.
    pub const T5: Reg = Reg(13);
    /// Caller-saved temporary 6.
    pub const T6: Reg = Reg(14);
    /// Caller-saved temporary 7.
    pub const T7: Reg = Reg(15);
    /// Callee-saved register 0.
    pub const S0: Reg = Reg(16);
    /// Callee-saved register 1.
    pub const S1: Reg = Reg(17);
    /// Callee-saved register 2.
    pub const S2: Reg = Reg(18);
    /// Callee-saved register 3.
    pub const S3: Reg = Reg(19);
    /// Callee-saved register 4.
    pub const S4: Reg = Reg(20);
    /// Callee-saved register 5.
    pub const S5: Reg = Reg(21);
    /// Callee-saved register 6.
    pub const S6: Reg = Reg(22);
    /// Callee-saved register 7.
    pub const S7: Reg = Reg(23);
    /// Caller-saved temporary 8.
    pub const T8: Reg = Reg(24);
    /// Caller-saved temporary 9.
    pub const T9: Reg = Reg(25);
    /// Reserved for the kernel (unused by generated code).
    pub const K0: Reg = Reg(26);
    /// Reserved for the kernel (unused by generated code).
    pub const K1: Reg = Reg(27);
    /// Global pointer: a runtime constant pointing into the data segment.
    pub const GP: Reg = Reg(28);
    /// Stack pointer.
    pub const SP: Reg = Reg(29);
    /// Frame pointer (callee-saved).
    pub const FP: Reg = Reg(30);
    /// Return address, written by `jal`/`jalr`.
    pub const RA: Reg = Reg(31);

    /// Creates a register from its architectural number.
    ///
    /// Returns `None` if `n >= 32`.
    pub fn new(n: u8) -> Option<Reg> {
        (n < 32).then_some(Reg(n))
    }

    /// Creates a register from the low 5 bits of an encoded field.
    pub(crate) fn from_field(bits: u32) -> Reg {
        Reg((bits & 0x1f) as u8)
    }

    /// The architectural register number in `0..32`.
    pub fn number(self) -> u8 {
        self.0
    }

    /// The conventional ABI name, without the leading `$`.
    pub fn name(self) -> &'static str {
        NAMES[self.0 as usize]
    }

    /// All 32 registers in architectural order.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32).map(Reg)
    }

    /// The argument register for argument position `i`, if it is passed in
    /// a register (positions `0..4`).
    pub fn arg(i: usize) -> Option<Reg> {
        (i < 4).then(|| Reg(4 + i as u8))
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.name())
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.name())
    }
}

impl FromStr for Reg {
    type Err = ParseRegError;

    /// Parses `$name`, `name`, `$N`, or `N` forms (e.g. `$sp`, `t3`, `$7`).
    fn from_str(s: &str) -> Result<Reg, ParseRegError> {
        let bare = s.strip_prefix('$').unwrap_or(s);
        let n = match *bare.as_bytes() {
            [b'z', b'e', b'r', b'o'] => 0,
            [b'a', b't'] => 1,
            [b'v', d @ b'0'..=b'1'] => 2 + (d - b'0'),
            [b'a', d @ b'0'..=b'3'] => 4 + (d - b'0'),
            [b't', d @ b'0'..=b'7'] => 8 + (d - b'0'),
            [b's', d @ b'0'..=b'7'] => 16 + (d - b'0'),
            [b't', d @ b'8'..=b'9'] => 24 + (d - b'8'),
            [b'k', d @ b'0'..=b'1'] => 26 + (d - b'0'),
            [b'g', b'p'] => 28,
            [b's', b'p'] => 29,
            // `s8` is the alternate spelling some MIPS assemblers use.
            [b'f', b'p'] | [b's', b'8'] => 30,
            [b'r', b'a'] => 31,
            _ => match bare.parse::<u8>() {
                Ok(n) if n < 32 => n,
                _ => return Err(ParseRegError { name: s.to_string() }),
            },
        };
        Ok(Reg(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_round_trip() {
        for r in Reg::all() {
            assert_eq!(Reg::new(r.number()), Some(r));
            assert_eq!(r.name().parse::<Reg>().unwrap(), r);
            assert_eq!(format!("${}", r.name()).parse::<Reg>().unwrap(), r);
            assert_eq!(r.number().to_string().parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn out_of_range_rejected() {
        assert_eq!(Reg::new(32), None);
        assert!("$blah".parse::<Reg>().is_err());
        assert!("$32".parse::<Reg>().is_err());
    }

    #[test]
    fn abi_roles() {
        assert_eq!(Reg::arg(0), Some(Reg::A0));
        assert_eq!(Reg::arg(3), Some(Reg::A3));
        assert_eq!(Reg::arg(4), None);
    }

    #[test]
    fn s8_alias() {
        assert_eq!("s8".parse::<Reg>().unwrap(), Reg::FP);
    }

    #[test]
    fn names_parse_to_their_number() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(name.parse::<Reg>().unwrap().number() as usize, i, "{name}");
        }
        for bad in ["", "$", "$$sp", "t10", "s9", "v2", "a4", "k2", "Sp", "zer", "zeros", "32"] {
            assert!(bad.parse::<Reg>().is_err(), "{bad}");
        }
        assert_eq!("+5".parse::<Reg>().unwrap(), Reg::A1);
        assert_eq!("$07".parse::<Reg>().unwrap(), Reg::A3);
    }
}
