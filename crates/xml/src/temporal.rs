//! Calendar and duration values for the date/time atomic types.
//!
//! These are deliberately lean: proleptic Gregorian dates, seconds with
//! millisecond precision, optional timezone offsets in minutes. Comparison
//! follows XML Schema order (timezone-normalized); values lacking a timezone
//! compare as if in UTC (the spec's implicit-timezone, fixed to Z here).

use std::cmp::Ordering;
use std::fmt;

use crate::XmlError;

/// `xs:date` — year, month, day, optional tz offset (minutes east of UTC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Date {
    pub year: i32,
    pub month: u8,
    pub day: u8,
    pub tz_minutes: Option<i32>,
}

/// `xs:time` — milliseconds since midnight, optional tz offset.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Time {
    pub millis: u32,
    pub tz_minutes: Option<i32>,
}

/// `xs:dateTime`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DateTime {
    pub date: Date,
    /// Milliseconds since midnight (timezone carried on `date.tz_minutes`).
    pub millis: u32,
}

/// `xs:duration` (also covers the two XPath subtypes): a month component and
/// a millisecond component, either of which may be negative.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Duration {
    pub months: i64,
    pub millis: i64,
}

fn is_leap(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i32, month: u8) -> u8 {
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

/// Days since 1970-01-01 for a proleptic Gregorian date.
fn days_from_epoch(year: i32, month: u8, day: u8) -> i64 {
    // Howard Hinnant's algorithm.
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

impl Date {
    pub fn new(year: i32, month: u8, day: u8, tz_minutes: Option<i32>) -> crate::Result<Self> {
        if month == 0 || month > 12 || day == 0 || day > days_in_month(year, month) {
            return Err(XmlError::new(
                "FORG0001",
                format!("invalid date: {year:04}-{month:02}-{day:02}"),
            ));
        }
        Ok(Date {
            year,
            month,
            day,
            tz_minutes,
        })
    }

    /// Milliseconds since the Unix epoch of this date's midnight, normalized
    /// to UTC using the timezone (missing timezone treated as Z).
    pub fn epoch_millis(&self) -> i64 {
        let days = days_from_epoch(self.year, self.month, self.day);
        let tz = self.tz_minutes.unwrap_or(0) as i64;
        days * 86_400_000 - tz * 60_000
    }

    pub fn parse(s: &str) -> crate::Result<Self> {
        let t = s.trim();
        let (body, tz) = split_timezone(t)?;
        let err = || XmlError::new("FORG0001", format!("invalid xs:date: {s:?}"));
        let (sign, body) = if let Some(rest) = body.strip_prefix('-') {
            (-1, rest)
        } else {
            (1, body)
        };
        let parts: Vec<&str> = body.splitn(3, '-').collect();
        if parts.len() != 3 || parts[0].len() < 4 || parts[1].len() != 2 || parts[2].len() != 2 {
            return Err(err());
        }
        let year: i32 = parts[0].parse().map_err(|_| err())?;
        let month: u8 = parts[1].parse().map_err(|_| err())?;
        let day: u8 = parts[2].parse().map_err(|_| err())?;
        Date::new(sign * year, month, day, tz)
    }
}

impl Time {
    pub fn new(
        hour: u8,
        minute: u8,
        second: u8,
        milli: u16,
        tz_minutes: Option<i32>,
    ) -> crate::Result<Self> {
        if hour > 24
            || minute > 59
            || second > 59
            || milli > 999
            || (hour == 24 && (minute as u32 | second as u32 | milli as u32) != 0)
        {
            return Err(XmlError::new("FORG0001", "invalid time"));
        }
        let h = if hour == 24 { 0 } else { hour };
        Ok(Time {
            millis: h as u32 * 3_600_000
                + minute as u32 * 60_000
                + second as u32 * 1000
                + milli as u32,
            tz_minutes,
        })
    }

    pub fn normalized_millis(&self) -> i64 {
        self.millis as i64 - self.tz_minutes.unwrap_or(0) as i64 * 60_000
    }

    pub fn parse(s: &str) -> crate::Result<Self> {
        let t = s.trim();
        let (body, tz) = split_timezone(t)?;
        let err = || XmlError::new("FORG0001", format!("invalid xs:time: {s:?}"));
        let parts: Vec<&str> = body.splitn(3, ':').collect();
        if parts.len() != 3 || parts[0].len() != 2 || parts[1].len() != 2 {
            return Err(err());
        }
        let hour: u8 = parts[0].parse().map_err(|_| err())?;
        let minute: u8 = parts[1].parse().map_err(|_| err())?;
        let (sec_str, milli) = match parts[2].split_once('.') {
            Some((sec, frac)) => {
                let mut frac3 = String::from(frac);
                frac3.truncate(3);
                while frac3.len() < 3 {
                    frac3.push('0');
                }
                (sec, frac3.parse::<u16>().map_err(|_| err())?)
            }
            None => (parts[2], 0),
        };
        if sec_str.len() != 2 {
            return Err(err());
        }
        let second: u8 = sec_str.parse().map_err(|_| err())?;
        Time::new(hour, minute, second, milli, tz)
    }
}

impl DateTime {
    pub fn epoch_millis(&self) -> i64 {
        let days = days_from_epoch(self.date.year, self.date.month, self.date.day);
        let tz = self.date.tz_minutes.unwrap_or(0) as i64;
        days * 86_400_000 + self.millis as i64 - tz * 60_000
    }

    pub fn parse(s: &str) -> crate::Result<Self> {
        let t = s.trim();
        let (date_str, time_str) = t
            .split_once('T')
            .ok_or_else(|| XmlError::new("FORG0001", format!("invalid xs:dateTime: {s:?}")))?;
        let time = Time::parse(time_str)?;
        // The timezone belongs to the time part lexically; re-attach to date.
        let date_only = Date::parse(&format!("{date_str}Z"))?; // placeholder tz, replaced below
        let date = Date {
            tz_minutes: time.tz_minutes,
            ..date_only
        };
        Ok(DateTime {
            date,
            millis: time.millis,
        })
    }
}

impl Duration {
    /// Parses `xs:duration` lexical forms like `P1Y2M3DT4H5M6.7S`, `-PT5M`.
    pub fn parse(s: &str) -> crate::Result<Self> {
        let t = s.trim();
        let err = || XmlError::new("FORG0001", format!("invalid xs:duration: {s:?}"));
        let (neg, rest) = match t.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, t),
        };
        let rest = rest.strip_prefix('P').ok_or_else(err)?;
        let (date_part, time_part) = match rest.split_once('T') {
            Some((d, tm)) => (d, Some(tm)),
            None => (rest, None),
        };
        if date_part.is_empty() && time_part.is_none_or(str::is_empty) {
            return Err(err());
        }
        let mut months: i64 = 0;
        let mut millis: i64 = 0;
        let mut num = String::new();
        for c in date_part.chars() {
            if c.is_ascii_digit() {
                num.push(c);
            } else {
                let v: i64 = num.parse().map_err(|_| err())?;
                num.clear();
                match c {
                    'Y' => months += v * 12,
                    'M' => months += v,
                    'D' => millis += v * 86_400_000,
                    _ => return Err(err()),
                }
            }
        }
        if !num.is_empty() {
            return Err(err());
        }
        if let Some(tp) = time_part {
            if tp.is_empty() {
                return Err(err());
            }
            let mut saw_dot = false;
            for c in tp.chars() {
                if c.is_ascii_digit() || c == '.' {
                    saw_dot |= c == '.';
                    num.push(c);
                } else {
                    match c {
                        'H' => {
                            let v: i64 = num.parse().map_err(|_| err())?;
                            millis += v * 3_600_000;
                        }
                        'M' => {
                            let v: i64 = num.parse().map_err(|_| err())?;
                            millis += v * 60_000;
                        }
                        'S' => {
                            let v: f64 = num.parse().map_err(|_| err())?;
                            millis += (v * 1000.0).round() as i64;
                        }
                        _ => return Err(err()),
                    }
                    num.clear();
                }
            }
            if !num.is_empty() {
                return Err(err());
            }
            let _ = saw_dot;
        }
        if neg {
            months = -months;
            millis = -millis;
        }
        Ok(Duration { months, millis })
    }

    /// Total order is only defined when one of the components is zero on both
    /// sides (year-month vs day-time durations); mixed comparisons use the
    /// conventional 30-day month approximation, documented deviation.
    pub fn approx_millis(&self) -> i64 {
        self.months * 30 * 86_400_000 + self.millis
    }
}

fn split_timezone(s: &str) -> crate::Result<(&str, Option<i32>)> {
    if let Some(body) = s.strip_suffix('Z') {
        return Ok((body, Some(0)));
    }
    // A timezone suffix is +HH:MM or -HH:MM in the last six chars; careful not
    // to confuse the date's own '-' separators (or to cut a character).
    if s.len() > 6 && s.is_char_boundary(s.len() - 6) {
        let tail = &s[s.len() - 6..];
        let b = tail.as_bytes();
        if (b[0] == b'+' || b[0] == b'-') && b[3] == b':' {
            let sign = if b[0] == b'+' { 1 } else { -1 };
            let hh: i32 = tail[1..3]
                .parse()
                .map_err(|_| XmlError::new("FORG0001", "bad timezone"))?;
            let mm: i32 = tail[4..6]
                .parse()
                .map_err(|_| XmlError::new("FORG0001", "bad timezone"))?;
            if hh > 14 || mm > 59 {
                return Err(XmlError::new("FORG0001", "bad timezone"));
            }
            return Ok((&s[..s.len() - 6], Some(sign * (hh * 60 + mm))));
        }
    }
    Ok((s, None))
}

impl PartialOrd for Date {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.epoch_millis().cmp(&other.epoch_millis()))
    }
}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.normalized_millis().cmp(&other.normalized_millis()))
    }
}

impl PartialOrd for DateTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.epoch_millis().cmp(&other.epoch_millis()))
    }
}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.approx_millis().cmp(&other.approx_millis()))
    }
}

fn write_tz(f: &mut fmt::Formatter<'_>, tz: Option<i32>) -> fmt::Result {
    match tz {
        None => Ok(()),
        Some(0) => write!(f, "Z"),
        Some(m) => {
            let sign = if m < 0 { '-' } else { '+' };
            let a = m.abs();
            write!(f, "{}{:02}:{:02}", sign, a / 60, a % 60)
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)?;
        write_tz(f, self.tz_minutes)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.millis;
        let (h, m, s, mil) = (ms / 3_600_000, ms / 60_000 % 60, ms / 1000 % 60, ms % 1000);
        write!(f, "{h:02}:{m:02}:{s:02}")?;
        if mil != 0 {
            let frac = format!("{mil:03}");
            write!(f, ".{}", frac.trim_end_matches('0'))?;
        }
        write_tz(f, self.tz_minutes)
    }
}

impl fmt::Display for DateTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T",
            self.date.year, self.date.month, self.date.day
        )?;
        let t = Time {
            millis: self.millis,
            tz_minutes: self.date.tz_minutes,
        };
        write!(f, "{t}")
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.months == 0 && self.millis == 0 {
            return write!(f, "PT0S");
        }
        if self.months < 0 || self.millis < 0 {
            write!(f, "-")?;
        }
        let months = self.months.unsigned_abs();
        let millis = self.millis.unsigned_abs();
        write!(f, "P")?;
        let (y, mo) = (months / 12, months % 12);
        if y > 0 {
            write!(f, "{y}Y")?;
        }
        if mo > 0 {
            write!(f, "{mo}M")?;
        }
        let days = millis / 86_400_000;
        let rem = millis % 86_400_000;
        if days > 0 {
            write!(f, "{days}D")?;
        }
        if rem > 0 {
            write!(f, "T")?;
            let (h, m, s, mil) = (
                rem / 3_600_000,
                rem / 60_000 % 60,
                rem / 1000 % 60,
                rem % 1000,
            );
            if h > 0 {
                write!(f, "{h}H")?;
            }
            if m > 0 {
                write!(f, "{m}M")?;
            }
            if s > 0 || mil > 0 {
                if mil > 0 {
                    let frac = format!("{mil:03}");
                    write!(f, "{s}.{}S", frac.trim_end_matches('0'))?;
                } else {
                    write!(f, "{s}S")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date_parse_display() {
        let d = Date::parse("2005-11-03").unwrap();
        assert_eq!(d.to_string(), "2005-11-03");
        let d = Date::parse("2005-11-03Z").unwrap();
        assert_eq!(d.to_string(), "2005-11-03Z");
        let d = Date::parse("2005-11-03-05:00").unwrap();
        assert_eq!(d.tz_minutes, Some(-300));
        assert!(Date::parse("2005-13-01").is_err());
        assert!(Date::parse("2005-02-29").is_err());
        assert!(Date::parse("2004-02-29").is_ok());
    }

    #[test]
    fn date_ordering_with_timezones() {
        let a = Date::parse("2005-01-01+05:00").unwrap();
        let b = Date::parse("2005-01-01Z").unwrap();
        assert!(a < b, "earlier UTC instant for +05:00 midnight");
    }

    #[test]
    fn time_parse_display() {
        let t = Time::parse("13:20:00").unwrap();
        assert_eq!(t.to_string(), "13:20:00");
        let t = Time::parse("13:20:30.55Z").unwrap();
        assert_eq!(t.to_string(), "13:20:30.55Z");
        assert!(Time::parse("25:00:00").is_err());
    }

    #[test]
    fn datetime_parse_display() {
        let dt = DateTime::parse("1999-05-31T13:20:00-05:00").unwrap();
        assert_eq!(dt.to_string(), "1999-05-31T13:20:00-05:00");
        let later = DateTime::parse("1999-05-31T18:20:00Z").unwrap();
        assert_eq!(dt.partial_cmp(&later), Some(Ordering::Equal));
    }

    #[test]
    fn duration_parse_display() {
        let d = Duration::parse("P1Y2M3DT4H5M6S").unwrap();
        assert_eq!(d.months, 14);
        assert_eq!(d.to_string(), "P1Y2M3DT4H5M6S");
        assert_eq!(Duration::parse("-PT5M").unwrap().to_string(), "-PT5M");
        assert_eq!(Duration::parse("PT0S").unwrap().to_string(), "PT0S");
        assert!(Duration::parse("P").is_err());
        assert!(Duration::parse("1Y").is_err());
    }

    #[test]
    fn duration_ordering() {
        let a = Duration::parse("PT1H").unwrap();
        let b = Duration::parse("PT90M").unwrap();
        assert!(a < b);
    }

    #[test]
    fn epoch_math() {
        assert_eq!(days_from_epoch(1970, 1, 1), 0);
        assert_eq!(days_from_epoch(1970, 1, 2), 1);
        assert_eq!(days_from_epoch(1969, 12, 31), -1);
        assert_eq!(days_from_epoch(2000, 3, 1), 11017);
    }
}
