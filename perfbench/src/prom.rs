//! A parser for the Prometheus text exposition `cod serve` answers on
//! `/metrics`, and the window deltas the benchmark takes from it.

use std::collections::HashMap;

/// One scrape: series (name plus any `{labels}`, verbatim) to value.
#[derive(Clone, Debug, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    /// Parses exposition text. Comment lines and blank lines are skipped;
    /// a sample line is `series value`, split at the last space so label
    /// values may contain spaces.
    pub fn parse(text: &str) -> Result<Scrape, String> {
        let mut out = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line {}: no value in {line:?}", i + 1))?;
            let value: f64 = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                v => v
                    .parse()
                    .map_err(|_| format!("metrics line {}: bad value {v:?}", i + 1))?,
            };
            out.insert(series.trim().to_string(), value);
        }
        Ok(Scrape(out))
    }

    /// The value of `series`, or 0 when the program does not expose it.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `later − self` for one series.
    pub fn delta(&self, later: &Scrape, series: &str) -> f64 {
        later.get(series) - self.get(series)
    }

    /// Window delta of one phase's seconds.
    pub fn phase_delta(&self, later: &Scrape, phase: &str) -> f64 {
        self.delta(
            later,
            &format!("cod_phase_seconds_total{{phase=\"{phase}\"}}"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# HELP cod_queries_total queries recorded
# TYPE cod_queries_total counter
cod_queries_total 12
cod_phase_seconds_total{phase=\"plan\"} 0.000209601
cod_phase_seconds_total{phase=\"sample\"} 1.5e-3
cod_query_seconds_bucket{le=\"+Inf\"} 3
cod_build_info{version=\"0.1.0\",git_hash=\"unknown build\"} 1

cod_pool_cache_resident_bytes 1580892
";

    #[test]
    fn parses_series_labels_and_values() {
        let s = Scrape::parse(SAMPLE).unwrap();
        assert_eq!(s.get("cod_queries_total"), 12.0);
        assert_eq!(
            s.get("cod_phase_seconds_total{phase=\"plan\"}"),
            0.000209601
        );
        assert_eq!(s.get("cod_query_seconds_bucket{le=\"+Inf\"}"), 3.0);
        assert_eq!(
            s.get("cod_build_info{version=\"0.1.0\",git_hash=\"unknown build\"}"),
            1.0
        );
        assert_eq!(s.get("cod_pool_cache_resident_bytes"), 1_580_892.0);
        assert_eq!(s.get("cod_not_exposed"), 0.0);
    }

    #[test]
    fn deltas_between_scrapes() {
        let a = Scrape::parse(SAMPLE).unwrap();
        let b = Scrape::parse(
            "cod_queries_total 40\ncod_phase_seconds_total{phase=\"sample\"} 0.0065\n",
        )
        .unwrap();
        assert_eq!(a.delta(&b, "cod_queries_total"), 28.0);
        assert!((a.phase_delta(&b, "sample") - 0.005).abs() < 1e-12);
        assert_eq!(a.phase_delta(&b, "plan"), -0.000209601);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Scrape::parse("cod_queries_total\n").is_err());
        assert!(Scrape::parse("cod_queries_total twelve\n").is_err());
    }
}
