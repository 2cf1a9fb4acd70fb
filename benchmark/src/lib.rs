//! The SPHINX reproduction's benchmark, driven from outside.
//!
//! This library is what both binaries share, and it is kept to the
//! narrow public surface the end-to-end metrics need (see the README):
//! a refactor that breaks the traced driver in `src/layers/` must not
//! also break the end-to-end comparison.
//!
//! * [`workloads`] — the five seeded scenarios.
//! * [`endtoend`] — untraced runs through the runtimes' public calls.
//! * [`metrics`] — the contract: names, units, directions, bounds.
//! * [`cli`] — flags, the result object, and the repeat budget.

pub mod cli;
pub mod endtoend;
pub mod metrics;
pub mod workloads;

/// A JSON object from `(key, value)` pairs.
pub fn object<'a>(
    pairs: impl IntoIterator<Item = (&'a str, serde_json::Value)>,
) -> serde_json::Value {
    serde_json::Value::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Median of a sample (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(super::median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(super::median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
