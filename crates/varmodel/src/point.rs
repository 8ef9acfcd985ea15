//! The canonical operating-point roster: supply voltage as a first-class
//! sweep axis.
//!
//! The paper pins every evaluation at two corners (STC = 0.8 V, NTC =
//! 0.45 V); the roster promotes the whole range between them into named,
//! parseable operating points at a fixed step, mirroring the scheme
//! registry's name/roster/parse discipline so grids, caches, CLIs, and
//! the serve protocol can all address a voltage by one stable string.

use crate::device::Corner;
use std::fmt;

/// Voltage step between adjacent roster points, volts.
pub const VDD_STEP: f64 = 0.05;

/// The roster table: stable name, display name, supply voltage. Ascending
/// voltage order — index 0 is the NTC corner, the last entry the STC
/// corner. Names are wire/CLI/cache-stable; never rename an entry.
const TABLE: [(&str, &str, f64); 8] = [
    ("v0.45", "0.45 V", 0.45),
    ("v0.50", "0.50 V", 0.50),
    ("v0.55", "0.55 V", 0.55),
    ("v0.60", "0.60 V", 0.60),
    ("v0.65", "0.65 V", 0.65),
    ("v0.70", "0.70 V", 0.70),
    ("v0.75", "0.75 V", 0.75),
    ("v0.80", "0.80 V", 0.80),
];

/// One named supply-voltage operating point from the canonical roster.
///
/// A point is an index into the fixed roster, so it is `Copy`/`Eq`/`Ord`
/// (ascending voltage) and cheap to put in cache keys. Conversions:
/// [`OperatingPoint::corner`] yields the device-layer [`Corner`] (the two
/// endpoints map to the stock `NTC`/`STC` corners so chip memoization and
/// display strings are shared with the corner-pinned paths), and
/// [`OperatingPoint::parse`] accepts the stable name (`"v0.60"`), the bare
/// voltage (`"0.60"`), or the `ntc`/`stc` aliases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatingPoint(pub(crate) u8);

impl OperatingPoint {
    /// Number of points in the roster.
    pub const COUNT: usize = TABLE.len();

    /// The near-threshold endpoint (0.45 V — the paper's NTC corner).
    pub const NTC: OperatingPoint = OperatingPoint(0);

    /// The super-threshold endpoint (0.80 V — the paper's STC corner).
    pub const STC: OperatingPoint = OperatingPoint((TABLE.len() - 1) as u8);

    /// Every roster point, ascending in voltage.
    pub fn roster() -> [OperatingPoint; Self::COUNT] {
        let mut out = [OperatingPoint(0); Self::COUNT];
        let mut i = 0;
        while i < Self::COUNT {
            out[i] = OperatingPoint(i as u8);
            i += 1;
        }
        out
    }

    /// Supply voltage of this point, volts.
    pub fn vdd(self) -> f64 {
        TABLE[self.0 as usize].2
    }

    /// Stable registry name (`"v0.45"` … `"v0.80"`): the string grids,
    /// caches, `--vdd`, and the serve protocol address this point by.
    pub fn name(self) -> &'static str {
        TABLE[self.0 as usize].0
    }

    /// Human-readable display name (`"0.45 V"`).
    pub fn display_name(self) -> &'static str {
        TABLE[self.0 as usize].1
    }

    /// The device-layer corner of this point. The endpoints return the
    /// stock [`Corner::NTC`] / [`Corner::STC`] values (same vdd, same
    /// name), so chips fabricated through the voltage axis share their
    /// memoized blanks with the legacy corner-pinned paths.
    pub fn corner(self) -> Corner {
        if self == Self::NTC {
            Corner::NTC
        } else if self == Self::STC {
            Corner::STC
        } else {
            Corner {
                vdd: self.vdd(),
                name: self.name(),
            }
        }
    }

    /// The roster point matching a corner's supply voltage, if any.
    pub fn from_corner(corner: Corner) -> Option<OperatingPoint> {
        Self::roster()
            .into_iter()
            .find(|p| (p.vdd() - corner.vdd).abs() < 1e-9)
    }

    /// The next roster point down in voltage (toward NTC), if any.
    pub fn step_down(self) -> Option<OperatingPoint> {
        self.0.checked_sub(1).map(OperatingPoint)
    }

    /// The next roster point up in voltage (toward STC), if any.
    pub fn step_up(self) -> Option<OperatingPoint> {
        let up = self.0 + 1;
        (usize::from(up) < Self::COUNT).then_some(OperatingPoint(up))
    }

    /// Parse a point from its stable name (`"v0.60"`), a bare voltage
    /// (`"0.60"`), or the corner aliases (`"ntc"` / `"stc"`, any case).
    ///
    /// # Errors
    ///
    /// Returns a [`ParsePointError`] (whose `Display` lists the roster)
    /// when the input names no registered point.
    pub fn parse(input: &str) -> Result<OperatingPoint, ParsePointError> {
        let trimmed = input.trim();
        if trimmed.eq_ignore_ascii_case("ntc") {
            return Ok(Self::NTC);
        }
        if trimmed.eq_ignore_ascii_case("stc") {
            return Ok(Self::STC);
        }
        let bare = trimmed.strip_prefix('v').unwrap_or(trimmed);
        for p in Self::roster() {
            if p.name() == trimmed || &p.name()[1..] == bare {
                return Ok(p);
            }
        }
        Err(ParsePointError {
            input: input.to_owned(),
        })
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned by [`OperatingPoint::parse`] for unregistered inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePointError {
    /// The offending input string.
    pub input: String,
}

impl fmt::Display for ParsePointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown operating point {:?}; registered points:",
            self.input
        )?;
        for p in OperatingPoint::roster() {
            write!(f, " {}", p.name())?;
        }
        Ok(())
    }
}

impl std::error::Error for ParsePointError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_is_ascending_at_fixed_step() {
        let roster = OperatingPoint::roster();
        assert_eq!(roster.len(), OperatingPoint::COUNT);
        for pair in roster.windows(2) {
            assert!(
                (pair[1].vdd() - pair[0].vdd() - VDD_STEP).abs() < 1e-12,
                "fixed step between {} and {}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(roster[0], OperatingPoint::NTC);
        assert_eq!(roster[roster.len() - 1], OperatingPoint::STC);
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        let roster = OperatingPoint::roster();
        for p in roster {
            assert_eq!(OperatingPoint::parse(p.name()), Ok(p));
            // Bare-voltage spelling parses to the same point.
            assert_eq!(OperatingPoint::parse(&p.name()[1..]), Ok(p));
        }
        let mut names: Vec<&str> = roster.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), roster.len(), "names unique");
        let mut displays: Vec<&str> = roster.iter().map(|p| p.display_name()).collect();
        displays.sort_unstable();
        displays.dedup();
        assert_eq!(displays.len(), roster.len(), "display names unique");
    }

    #[test]
    fn corner_endpoints_are_the_stock_corners() {
        assert_eq!(OperatingPoint::NTC.corner(), Corner::NTC);
        assert_eq!(OperatingPoint::STC.corner(), Corner::STC);
        let mid = OperatingPoint::parse("v0.60").unwrap();
        assert_eq!(mid.corner().name, "v0.60");
        assert!((mid.corner().vdd - 0.60).abs() < 1e-12);
        assert_eq!(OperatingPoint::from_corner(Corner::NTC), Some(OperatingPoint::NTC));
        assert_eq!(OperatingPoint::from_corner(Corner::custom(0.61)), None);
    }

    #[test]
    fn aliases_and_errors() {
        assert_eq!(OperatingPoint::parse("NTC"), Ok(OperatingPoint::NTC));
        assert_eq!(OperatingPoint::parse("stc"), Ok(OperatingPoint::STC));
        let err = OperatingPoint::parse("v0.62").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("v0.62") && msg.contains("v0.45") && msg.contains("v0.80"));
    }

    #[test]
    fn stepping_walks_the_roster() {
        assert_eq!(OperatingPoint::NTC.step_down(), None);
        assert_eq!(OperatingPoint::STC.step_up(), None);
        let mut p = OperatingPoint::STC;
        let mut steps = 0;
        while let Some(down) = p.step_down() {
            assert!(down.vdd() < p.vdd());
            p = down;
            steps += 1;
        }
        assert_eq!(steps, OperatingPoint::COUNT - 1);
        assert_eq!(p, OperatingPoint::NTC);
    }
}
