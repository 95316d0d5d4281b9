//! Order statistics over measured samples.

/// Linearly interpolated quantile `q` in `[0, 1]` of `samples` (the same
/// rule as numpy's default and Python's `statistics.quantiles(...,
/// method="inclusive")`). NaN for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean over consecutive groups of `samples`, `lens[i]` long each, of
/// each group's median.
pub fn mean_of_medians(samples: &[f64], lens: &[usize]) -> f64 {
    let mut rest = samples;
    let mut sum = 0.0;
    for &n in lens {
        let (group, tail) = rest.split_at(n);
        sum += median(group);
        rest = tail;
    }
    sum / lens.len() as f64
}

/// The smallest sample (infinite for an empty slice).
///
/// The simulator is deterministic, so repetitions of one piece of work do
/// identical work, and other load on the machine only ever adds time: the
/// minimum over repetitions is the estimate of the work's own cost.
pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Element-wise minimum over repetitions of the same sequence of work
/// (shortest length wins if they differ).
pub fn min_by_index<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut out: Option<Vec<f64>> = None;
    for rep in reps {
        out = Some(match out {
            None => rep.to_vec(),
            Some(acc) => acc.iter().zip(rep).map(|(a, b)| a.min(*b)).collect(),
        });
    }
    out.unwrap_or_default()
}
