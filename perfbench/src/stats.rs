//! Order statistics, span self time and the determinism gate.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The highest percentile of `xs` that still has at least ten samples
/// beyond it: the order statistic with exactly ten larger samples. Returns
/// the value and the percentile it sits at. With fewer than eleven
/// samples no percentile qualifies and the median stands in (reported at
/// the 50th percentile).
pub fn pmax(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= 10 {
        return median(xs).map(|m| (m, 50.0));
    }
    let rank = n - 11;
    Some((s[rank], 100.0 * (n - 10) as f64 / n as f64))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A half-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of `parent`: its duration minus the part of it covered by
/// `children` (overlapping children count once; parts outside the parent
/// count not at all).
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut kids: Vec<Interval> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in kids {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// Indices of the repetitions whose fingerprint differs from the first
/// fingerprint recorded for the same configuration. Repetitions without a
/// fingerprint (wall-clock backends, where counts legitimately vary) are
/// never flagged.
pub fn diverging<'a>(reps: impl IntoIterator<Item = (&'a str, Option<&'a str>)>) -> Vec<usize> {
    let mut first: Vec<(&str, &str)> = Vec::new();
    let mut bad = Vec::new();
    for (i, (config, fp)) in reps.into_iter().enumerate() {
        let Some(fp) = fp else { continue };
        match first.iter().find(|(c, _)| *c == config) {
            Some((_, want)) if *want != fp => bad.push(i),
            Some(_) => {}
            None => first.push((config, fp)),
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn pmax_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = pmax(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(pmax(&xs), Some((990.0, 99.0)));
    }

    #[test]
    fn pmax_falls_back_to_median_when_too_few() {
        let xs = [5.0, 1.0, 9.0];
        assert_eq!(pmax(&xs), Some((5.0, 50.0)));
        assert_eq!(pmax(&[]), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(pmax(&xs).unwrap().0, 1.0);
    }

    #[test]
    fn self_time_subtracts_covered_union() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping and nested children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30), (35, 60)]), 50);
        // Children are clipped to the parent.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 99)]), 3);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn gate_flags_a_perturbed_count() {
        let reps = [
            ("sor", Some("messages=9126,timed_ns=5")),
            ("sor", Some("messages=9126,timed_ns=5")),
            ("sor", Some("messages=9127,timed_ns=5")),
            ("probe", Some("messages=10")),
            ("sor", Some("messages=9126,timed_ns=5")),
            ("sor", Some("messages=9126,timed_ns=6")),
        ];
        assert_eq!(diverging(reps), vec![2, 5]);
    }

    #[test]
    fn gate_ignores_unfingerprinted_and_separates_configs() {
        let reps = [
            ("host", None),
            ("host", None),
            ("a", Some("x")),
            ("b", Some("y")),
            ("a", Some("x")),
        ];
        assert!(diverging(reps).is_empty());
    }
}
