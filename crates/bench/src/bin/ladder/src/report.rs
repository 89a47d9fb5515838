//! Output: the metric lines and the result line of one run, the run
//! record `ladder.json` of a full set, and `ladder compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::{EndToEnd, END_TO_END, PER_LAYER};

// ---------------------------------------------------------------------
// A JSON reader, for the files the ladder itself writes
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.space();
        if p.i != p.s.len() {
            return Err(format!("trailing text at byte {}", p.i));
        }
        Ok(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[cfg(test)]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }

    pub fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => "",
        }
    }

    pub fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => f64::NAN,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.space();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        match self.s.get(self.i).copied() {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.space();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.space();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.space();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.space();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.space();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.s[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.s[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.s[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("not a value at byte {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    /// Strings the ladder writes hold no escapes beyond `\"` and `\\`.
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i).copied() {
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    out.push(*self.s.get(self.i + 1).ok_or("unterminated escape")?);
                    self.i += 2;
                }
                Some(c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// A number as JSON: every digit the measurement has, `null` if it is
/// not a number.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The line the driver reads: the last line of standard output.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

// ---------------------------------------------------------------------
// A set of runs: ladder.json
// ---------------------------------------------------------------------

/// Median and quartiles of one metric over a set's repetitions.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    // Python's statistics.quantiles(values, n=4), exclusive method.
    let q = |k: f64| {
        if v.len() == 1 {
            return v[0];
        }
        let pos = k * (v.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (q(1.0), q(2.0), q(3.0))
}

/// Everything `ladder.json` records about a set of runs.
pub struct RunRecord {
    pub nproc: usize,
    pub profile: &'static str,
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub repetitions: usize,
    pub comparable: bool,
    /// workload → name → value, from each repetition's result line.
    pub end_to_end: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub per_layer: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → row counts, op counts and the like.
    pub sizes: BTreeMap<String, Vec<(String, u64)>>,
}

impl RunRecord {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"nproc\": {},", self.nproc);
        let _ = writeln!(out, "  \"profile\": \"{}\",", self.profile);
        let _ = writeln!(out, "  \"commit\": \"{}\",", self.commit);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"repetitions\": {},", self.repetitions);
        let _ = writeln!(out, "  \"comparable\": {},", self.comparable);
        let section = |out: &mut String,
                       name: &str,
                       data: &BTreeMap<String, BTreeMap<String, Vec<f64>>>| {
            let _ = writeln!(out, "  \"{name}\": {{");
            for (wi, (workload, metrics)) in data.iter().enumerate() {
                let _ = writeln!(out, "    \"{workload}\": {{");
                for (mi, (metric, values)) in metrics.iter().enumerate() {
                    let (q1, med, q3) = quartiles(values);
                    let all: Vec<String> = values.iter().map(|v| num(*v)).collect();
                    let _ = writeln!(
                        out,
                        "      \"{metric}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}{}",
                        num(med),
                        num(q1),
                        num(q3),
                        all.join(", "),
                        if mi + 1 == metrics.len() { "" } else { "," }
                    );
                }
                let _ = writeln!(out, "    }}{}", if wi + 1 == data.len() { "" } else { "," });
            }
            let _ = writeln!(out, "  }},");
        };
        section(&mut out, "end_to_end", &self.end_to_end);
        section(&mut out, "per_layer", &self.per_layer);
        let _ = writeln!(out, "  \"sizes\": {{");
        for (wi, (workload, sizes)) in self.sizes.iter().enumerate() {
            let body: Vec<String> = sizes.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            let _ = writeln!(
                out,
                "    \"{workload}\": {{{}}}{}",
                body.join(", "),
                if wi + 1 == self.sizes.len() { "" } else { "," }
            );
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

// ---------------------------------------------------------------------
// ladder compare a.json b.json
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The spread of either side is wider than the bound: the metric can
    /// be called neither worse nor unchanged.
    Unresolved,
}

/// Judges `b` against base `a` for one metric. `(q1, median, q3)` each.
pub fn judge(m: &EndToEnd, a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, Verdict) {
    let ratio = b.1 / a.1;
    let spread = |s: (f64, f64, f64)| (s.2 - s.0) / s.1;
    let worse_by = if m.higher_is_better {
        1.0 - ratio
    } else {
        ratio - 1.0
    };
    let verdict = if spread(a) > m.bound || spread(b) > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

/// The before/after table later issues paste. Returns it with the number
/// of `worse` rows.
pub fn compare(a: &Json, b: &Json) -> (String, usize) {
    let mut out = String::new();
    let mut worse = 0;
    let _ = writeln!(
        out,
        "base {} ({} reps, nproc {})  vs  {} ({} reps, nproc {})",
        a.get("commit").map_or("?", Json::str),
        a.get("repetitions").map_or(f64::NAN, Json::num),
        a.get("nproc").map_or(f64::NAN, Json::num),
        b.get("commit").map_or("?", Json::str),
        b.get("repetitions").map_or(f64::NAN, Json::num),
        b.get("nproc").map_or(f64::NAN, Json::num),
    );
    if [a, b]
        .iter()
        .any(|j| j.get("comparable") != Some(&Json::Bool(true)))
    {
        let _ = writeln!(out, "NOT COMPARABLE: at least one side is a --check run");
    }
    let _ = writeln!(
        out,
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base median", "new median", "new/base", "bound"
    );
    let stats = |j: &Json, workload: &str, metric: &str| {
        let m = j.get("end_to_end")?.get(workload)?.get(metric)?;
        Some((
            m.get("q1")?.num(),
            m.get("median")?.num(),
            m.get("q3")?.num(),
        ))
    };
    let Some(e2e) = a.get("end_to_end") else {
        return (out, worse);
    };
    for (workload, _) in e2e.fields() {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (stats(a, workload, m.name), stats(b, workload, m.name))
            else {
                continue;
            };
            let (ratio, verdict) = judge(m, sa, sb);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            let _ = writeln!(
                out,
                "{:<16} {:<18} {:>14.4} {:>14.4} {:>9.4} {:>5.0}%  {}",
                workload,
                m.name,
                sa.1,
                sb.1,
                ratio,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    (out, worse)
}

/// `workload metric value unit` lines of one run, for people.
pub fn metric_lines(workload: &str, e2e: &[(&str, f64, usize)], layers: &[(&str, f64)]) -> String {
    let mut out = String::new();
    for (name, value, n) in e2e {
        let unit = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .map_or("", |m| m.unit);
        let _ = writeln!(out, "{workload} {name} {value} {unit} (n={n})");
    }
    for (name, value) in layers {
        let unit = PER_LAYER.iter().find(|m| m.0 == *name).map_or("", |m| m.1);
        let _ = writeln!(out, "{workload} {name} {value} {unit}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reader_reads_what_the_writer_writes() {
        let mut rec = RunRecord {
            nproc: 2,
            profile: "release",
            commit: "abc".into(),
            seed: 7,
            seconds: 20.0,
            repetitions: 3,
            comparable: true,
            end_to_end: BTreeMap::new(),
            per_layer: BTreeMap::new(),
            sizes: BTreeMap::new(),
        };
        rec.end_to_end
            .entry("tpch_read".into())
            .or_default()
            .insert("q1_p50_ms".into(), vec![100.0, 104.0, 96.0]);
        rec.sizes
            .insert("tpch_read".into(), vec![("rows".into(), 48_000)]);
        let json = Json::parse(&rec.to_json()).unwrap();
        let m = json
            .get("end_to_end")
            .unwrap()
            .get("tpch_read")
            .unwrap()
            .get("q1_p50_ms")
            .unwrap();
        assert_eq!(m.get("median").unwrap().num(), 100.0);
        assert_eq!(m.get("values").unwrap().items().len(), 3);
        assert_eq!(
            json.get("sizes")
                .unwrap()
                .get("tpch_read")
                .unwrap()
                .get("rows")
                .unwrap()
                .num(),
            48_000.0
        );
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
    }

    #[test]
    fn a_wide_spread_is_unresolved_not_ok() {
        let metric = |higher_is_better| EndToEnd {
            name: "m",
            unit: "ms",
            higher_is_better,
            bound: 0.10,
            value: |_| (0.0, 0),
        };
        let base = (99.0, 100.0, 101.0);
        let down = metric(false);
        assert_eq!(judge(&down, base, (104.0, 105.0, 106.0)).1, Verdict::Ok);
        assert_eq!(judge(&down, base, (119.0, 120.0, 121.0)).1, Verdict::Worse);
        assert_eq!(
            judge(&down, (90.0, 100.0, 110.0), base).1,
            Verdict::Unresolved
        );
        let up = metric(true);
        assert_eq!(judge(&up, base, (79.0, 80.0, 81.0)).1, Verdict::Worse);
        assert_eq!(judge(&up, base, (119.0, 120.0, 121.0)).1, Verdict::Ok);
    }
}
