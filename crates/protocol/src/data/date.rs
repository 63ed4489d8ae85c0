//! Calendar dates with the legacy packed-integer encoding and legacy
//! `FORMAT` pattern parsing.
//!
//! The legacy EDW stores dates as a signed 32-bit integer encoded as
//! `(year - 1900) * 10_000 + month * 100 + day` — so `2012-01-01` is
//! `1_120_101`. ETL scripts convert text to dates with
//! `CAST(:F AS DATE FORMAT 'YYYY-MM-DD')`; the format pattern language is
//! implemented by [`DateFormat`].

use std::fmt;
use std::sync::OnceLock;

/// Error raised when text cannot be parsed as a date, or a date is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateParseError {
    /// Human-readable description of the failure.
    pub reason: String,
}

impl fmt::Display for DateParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid date: {}", self.reason)
    }
}

impl std::error::Error for DateParseError {}

fn err(reason: impl Into<String>) -> DateParseError {
    DateParseError {
        reason: reason.into(),
    }
}

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

impl Date {
    /// Construct a date, validating month range and day-of-month (including
    /// leap years).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Date, DateParseError> {
        if !(1..=9999).contains(&year) {
            return Err(err(format!("year {year} out of range 1..=9999")));
        }
        if !(1..=12).contains(&month) {
            return Err(err(format!("month {month} out of range 1..=12")));
        }
        let dim = days_in_month(year, month);
        if day == 0 || day > dim {
            return Err(err(format!(
                "day {day} out of range 1..={dim} for {year}-{month:02}"
            )));
        }
        Ok(Date { year, month, day })
    }

    /// Year component.
    pub fn year(self) -> i32 {
        self.year
    }

    /// Month component (1-12).
    pub fn month(self) -> u8 {
        self.month
    }

    /// Day component (1-31).
    pub fn day(self) -> u8 {
        self.day
    }

    /// Encode into the legacy packed-integer form:
    /// `(year - 1900) * 10_000 + month * 100 + day`.
    pub fn to_legacy_int(self) -> i32 {
        (self.year - 1900) * 10_000 + self.month as i32 * 100 + self.day as i32
    }

    /// Decode the legacy packed-integer form.
    pub fn from_legacy_int(v: i32) -> Result<Date, DateParseError> {
        let day = (v.rem_euclid(100)) as u8;
        let month = (v.div_euclid(100).rem_euclid(100)) as u8;
        let year = v.div_euclid(10_000) + 1900;
        Date::new(year, month, day)
    }

    /// Number of days since the epoch `0001-01-01` (day 0). Useful for
    /// ordering and arithmetic.
    pub fn to_ordinal(self) -> i64 {
        let y = self.year as i64 - 1;
        let leap_days = y / 4 - y / 100 + y / 400;
        let mut days = y * 365 + leap_days;
        for m in 1..self.month {
            days += days_in_month(self.year, m) as i64;
        }
        days + self.day as i64 - 1
    }

    /// Inverse of [`Date::to_ordinal`].
    pub fn from_ordinal(mut n: i64) -> Result<Date, DateParseError> {
        if n < 0 {
            return Err(err("ordinal before year 1"));
        }
        // Estimate the year, then correct.
        let mut year = (n / 366) as i32 + 1;
        loop {
            let year_start = Date::new(year, 1, 1)?.to_ordinal();
            let year_len = if is_leap(year) { 366 } else { 365 };
            if n < year_start {
                year -= 1;
            } else if n >= year_start + year_len {
                year += 1;
            } else {
                n -= year_start;
                break;
            }
        }
        let mut month = 1u8;
        loop {
            let dim = days_in_month(year, month) as i64;
            if n < dim {
                return Date::new(year, month, n as u8 + 1);
            }
            n -= dim;
            month += 1;
        }
    }

    /// Add (or subtract) a number of days.
    pub fn add_days(self, days: i64) -> Result<Date, DateParseError> {
        Date::from_ordinal(self.to_ordinal() + days)
    }

    /// Parse from ISO `YYYY-MM-DD` text.
    pub fn parse_iso(s: &str) -> Result<Date, DateParseError> {
        static ISO: OnceLock<DateFormat> = OnceLock::new();
        ISO.get_or_init(|| DateFormat::parse_pattern("YYYY-MM-DD").expect("builtin pattern"))
            .parse(s)
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Whether `year` is a Gregorian leap year.
pub fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// A timestamp with microsecond precision, measured from `1970-01-01
/// 00:00:00` (can be negative for earlier instants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timestamp {
    micros: i64,
}

/// Ordinal of 1970-01-01 (days since 0001-01-01).
const UNIX_EPOCH_ORDINAL: i64 = 719_162;

impl Timestamp {
    /// From raw microseconds since the Unix epoch.
    pub fn from_micros(micros: i64) -> Timestamp {
        Timestamp { micros }
    }

    /// Raw microseconds since the Unix epoch.
    pub fn micros(self) -> i64 {
        self.micros
    }

    /// Midnight at the start of `date`.
    pub fn from_date(date: Date) -> Timestamp {
        let days = date.to_ordinal() - UNIX_EPOCH_ORDINAL;
        Timestamp {
            micros: days * 86_400 * 1_000_000,
        }
    }

    /// The calendar date containing this instant (UTC).
    pub fn date(self) -> Date {
        let days = self.micros.div_euclid(86_400 * 1_000_000);
        Date::from_ordinal(days + UNIX_EPOCH_ORDINAL).expect("timestamp date in range")
    }

    /// Parse `YYYY-MM-DD HH:MM:SS[.ffffff]`.
    pub fn parse(s: &str) -> Result<Timestamp, DateParseError> {
        let s = s.trim();
        let (date_part, time_part) = match s.split_once(' ') {
            Some((d, t)) => (d, t),
            None => (s, "00:00:00"),
        };
        let date = Date::parse_iso(date_part)?;
        let mut it = time_part.split(':');
        let h: i64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad hour"))?;
        let m: i64 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err("bad minute"))?;
        let sec_str = it.next().unwrap_or("0");
        let (sec, frac_micros) = match sec_str.split_once('.') {
            Some((sp, fp)) => {
                let sec: i64 = sp.parse().map_err(|_| err("bad second"))?;
                let mut frac = fp.to_string();
                while frac.len() < 6 {
                    frac.push('0');
                }
                frac.truncate(6);
                let micros: i64 = frac.parse().map_err(|_| err("bad fraction"))?;
                (sec, micros)
            }
            None => (sec_str.parse().map_err(|_| err("bad second"))?, 0),
        };
        if !(0..24).contains(&h) || !(0..60).contains(&m) || !(0..60).contains(&sec) {
            return Err(err("time component out of range"));
        }
        let base = Timestamp::from_date(date).micros;
        Ok(Timestamp {
            micros: base + ((h * 3600 + m * 60 + sec) * 1_000_000) + frac_micros,
        })
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let date = self.date();
        let rem = self.micros.rem_euclid(86_400 * 1_000_000);
        let secs = rem / 1_000_000;
        let micros = rem % 1_000_000;
        let (h, m, s) = (secs / 3600, (secs % 3600) / 60, secs % 60);
        if micros == 0 {
            write!(f, "{date} {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{date} {h:02}:{m:02}:{s:02}.{micros:06}")
        }
    }
}

/// A compiled legacy `FORMAT` date pattern such as `'YYYY-MM-DD'` or
/// `'DD/MM/YYYY'`.
///
/// Supported tokens: `YYYY` (4-digit year), `YY` (2-digit year, pivoting on
/// 1970: `00..=69` → 2000s, `70..=99` → 1900s), `MM` (2-digit month), `DD`
/// (2-digit day). Any other character is a literal separator that must match
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DateFormat {
    tokens: Vec<Token>,
    pattern: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Token {
    Year4,
    Year2,
    Month,
    Day,
    Lit(char),
}

impl DateFormat {
    /// Compile a pattern. Fails if the pattern does not contain a year, a
    /// month, and a day token exactly once each.
    pub fn parse_pattern(pattern: &str) -> Result<DateFormat, DateParseError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            if chars[i..].starts_with(&['Y', 'Y', 'Y', 'Y']) {
                tokens.push(Token::Year4);
                i += 4;
            } else if chars[i..].starts_with(&['Y', 'Y']) {
                tokens.push(Token::Year2);
                i += 2;
            } else if chars[i..].starts_with(&['M', 'M']) {
                tokens.push(Token::Month);
                i += 2;
            } else if chars[i..].starts_with(&['D', 'D']) {
                tokens.push(Token::Day);
                i += 2;
            } else {
                tokens.push(Token::Lit(chars[i]));
                i += 1;
            }
        }
        let years = tokens
            .iter()
            .filter(|t| matches!(t, Token::Year4 | Token::Year2))
            .count();
        let months = tokens.iter().filter(|t| matches!(t, Token::Month)).count();
        let days = tokens.iter().filter(|t| matches!(t, Token::Day)).count();
        if years != 1 || months != 1 || days != 1 {
            return Err(err(format!(
                "pattern '{pattern}' must contain exactly one year, month, and day token"
            )));
        }
        Ok(DateFormat {
            tokens,
            pattern: pattern.to_string(),
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Parse `text` according to this pattern.
    pub fn parse(&self, text: &str) -> Result<Date, DateParseError> {
        let text = text.trim();
        // Positions count characters; ASCII text (the common case) is
        // walked as bytes, with no per-call allocation.
        if text.is_ascii() {
            self.parse_units(text, text.as_bytes())
        } else {
            let chars: Vec<char> = text.chars().collect();
            self.parse_units(text, &chars)
        }
    }

    /// [`parse`](Self::parse) over `text` split into characters.
    fn parse_units<C: Copy + Into<char>>(
        &self,
        text: &str,
        chars: &[C],
    ) -> Result<Date, DateParseError> {
        let mut pos = 0usize;
        let mut year: Option<i32> = None;
        let mut month: Option<u8> = None;
        let mut day: Option<u8> = None;

        let read_digits = |pos: &mut usize, n: usize| -> Result<i32, DateParseError> {
            if *pos + n > chars.len() {
                return Err(err(format!(
                    "'{text}' too short for pattern '{}'",
                    self.pattern
                )));
            }
            let slice = &chars[*pos..*pos + n];
            if !slice.iter().all(|&c| c.into().is_ascii_digit()) {
                return Err(err(format!(
                    "expected {n} digits at position {} of '{text}'",
                    *pos
                )));
            }
            *pos += n;
            Ok(slice
                .iter()
                .fold(0i32, |acc, &c| acc * 10 + (c.into() as i32 - '0' as i32)))
        };

        for token in &self.tokens {
            match token {
                Token::Year4 => year = Some(read_digits(&mut pos, 4)?),
                Token::Year2 => {
                    let y = read_digits(&mut pos, 2)?;
                    year = Some(if y <= 69 { 2000 + y } else { 1900 + y });
                }
                Token::Month => month = Some(read_digits(&mut pos, 2)? as u8),
                Token::Day => day = Some(read_digits(&mut pos, 2)? as u8),
                Token::Lit(c) => {
                    if pos >= chars.len() || chars[pos].into() != *c {
                        return Err(err(format!(
                            "expected '{c}' at position {pos} of '{text}' for pattern '{}'",
                            self.pattern
                        )));
                    }
                    pos += 1;
                }
            }
        }
        if pos != chars.len() {
            return Err(err(format!("trailing characters in '{text}'")));
        }
        Date::new(year.unwrap(), month.unwrap(), day.unwrap())
    }

    /// Format `date` according to this pattern.
    pub fn format(&self, date: Date) -> String {
        let mut out = String::new();
        for token in &self.tokens {
            match token {
                Token::Year4 => out.push_str(&format!("{:04}", date.year())),
                Token::Year2 => out.push_str(&format!("{:02}", date.year().rem_euclid(100))),
                Token::Month => out.push_str(&format!("{:02}", date.month())),
                Token::Day => out.push_str(&format!("{:02}", date.day())),
                Token::Lit(c) => out.push(*c),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_int_roundtrip() {
        let d = Date::new(2012, 1, 1).unwrap();
        assert_eq!(d.to_legacy_int(), 1_120_101);
        assert_eq!(Date::from_legacy_int(1_120_101).unwrap(), d);
        // Pre-1900 dates encode as negative-ish values.
        let old = Date::new(1899, 12, 31).unwrap();
        assert_eq!(Date::from_legacy_int(old.to_legacy_int()).unwrap(), old);
    }

    #[test]
    fn rejects_bad_dates() {
        assert!(Date::new(2023, 2, 29).is_err());
        assert!(Date::new(2024, 2, 29).is_ok()); // leap year
        assert!(Date::new(2023, 13, 1).is_err());
        assert!(Date::new(2023, 0, 1).is_err());
        assert!(Date::new(2023, 4, 31).is_err());
        assert!(Date::new(0, 1, 1).is_err());
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap(2000));
        assert!(!is_leap(1900));
        assert!(is_leap(2024));
        assert!(!is_leap(2023));
    }

    #[test]
    fn ordinal_roundtrip() {
        for (y, m, d) in [
            (1, 1, 1),
            (1970, 1, 1),
            (2000, 2, 29),
            (2023, 12, 31),
            (9999, 12, 31),
        ] {
            let date = Date::new(y, m, d).unwrap();
            assert_eq!(Date::from_ordinal(date.to_ordinal()).unwrap(), date);
        }
    }

    #[test]
    fn ordinal_is_contiguous() {
        let d = Date::new(2023, 2, 28).unwrap();
        assert_eq!(d.add_days(1).unwrap(), Date::new(2023, 3, 1).unwrap());
        let d = Date::new(2024, 2, 28).unwrap();
        assert_eq!(d.add_days(1).unwrap(), Date::new(2024, 2, 29).unwrap());
        let d = Date::new(2023, 12, 31).unwrap();
        assert_eq!(d.add_days(1).unwrap(), Date::new(2024, 1, 1).unwrap());
    }

    #[test]
    fn format_patterns() {
        let f = DateFormat::parse_pattern("YYYY-MM-DD").unwrap();
        assert_eq!(
            f.parse("2012-01-01").unwrap(),
            Date::new(2012, 1, 1).unwrap()
        );
        assert!(f.parse("xxxx").is_err());
        assert!(f.parse("2012-13-01").is_err());
        assert!(f.parse("2012-01-01x").is_err());

        let f = DateFormat::parse_pattern("DD/MM/YYYY").unwrap();
        assert_eq!(
            f.parse("31/12/1999").unwrap(),
            Date::new(1999, 12, 31).unwrap()
        );

        let f = DateFormat::parse_pattern("YYYYMMDD").unwrap();
        assert_eq!(f.parse("20230704").unwrap(), Date::new(2023, 7, 4).unwrap());

        let f = DateFormat::parse_pattern("MM/DD/YY").unwrap();
        assert_eq!(
            f.parse("12/12/01").unwrap(),
            Date::new(2001, 12, 12).unwrap()
        );
        assert_eq!(
            f.parse("12/12/75").unwrap(),
            Date::new(1975, 12, 12).unwrap()
        );
    }

    #[test]
    fn format_output() {
        let d = Date::new(2012, 12, 1).unwrap();
        let f = DateFormat::parse_pattern("MM/DD/YY").unwrap();
        assert_eq!(f.format(d), "12/01/12");
        let f = DateFormat::parse_pattern("YYYY-MM-DD").unwrap();
        assert_eq!(f.format(d), "2012-12-01");
    }

    #[test]
    fn bad_patterns_rejected() {
        assert!(DateFormat::parse_pattern("YYYY-MM").is_err());
        assert!(DateFormat::parse_pattern("YYYY-MM-DD-DD").is_err());
        assert!(DateFormat::parse_pattern("").is_err());
    }

    #[test]
    fn display_iso() {
        assert_eq!(Date::new(2012, 1, 5).unwrap().to_string(), "2012-01-05");
    }

    #[test]
    fn timestamp_parse_and_display() {
        let ts = Timestamp::parse("2023-07-04 12:30:45").unwrap();
        assert_eq!(ts.to_string(), "2023-07-04 12:30:45");
        let ts = Timestamp::parse("2023-07-04 12:30:45.5").unwrap();
        assert_eq!(ts.to_string(), "2023-07-04 12:30:45.500000");
        let ts = Timestamp::parse("2023-07-04").unwrap();
        assert_eq!(ts.to_string(), "2023-07-04 00:00:00");
        assert!(Timestamp::parse("2023-07-04 25:00:00").is_err());
    }

    #[test]
    fn timestamp_date_roundtrip() {
        let d = Date::new(1969, 7, 20).unwrap();
        assert_eq!(Timestamp::from_date(d).date(), d);
        let d = Date::new(2030, 1, 1).unwrap();
        assert_eq!(Timestamp::from_date(d).date(), d);
    }
}
