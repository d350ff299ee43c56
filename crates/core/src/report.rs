//! Report rendering for the experiment harness (Table II rows, Fig. 2
//! series, CSV/markdown emitters).

use fpsnr_metrics::summary::{DatasetSummary, FieldOutcome};

/// Render Table II in the paper's layout: one row per user-set PSNR, with
/// AVG/STDEV column pairs per data set (column order follows `summaries`'
/// first occurrence order).
pub fn render_table2(rows: &[(f64, Vec<DatasetSummary>)]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    out.push_str("User-set PSNR (dB)");
    for s in &rows[0].1 {
        out.push_str(&format!(" | {} AVG | {} STDEV", s.dataset, s.dataset));
    }
    out.push('\n');
    for (target, summaries) in rows {
        out.push_str(&format!("{target:>18.0}"));
        for s in summaries {
            out.push_str(&format!(" | {:>7.1} | {:>9.2}", s.avg, s.stdev));
        }
        out.push('\n');
    }
    out
}

/// Render one Fig. 2 panel: the achieved-PSNR series over all fields plus
/// the meet-rate line the paper quotes ("more than 90+% of fields").
pub fn render_fig2_panel(target: f64, outcomes: &[FieldOutcome]) -> String {
    let mut out = format!("# Fig. 2 panel: user-set PSNR = {target} dB\n");
    out.push_str("# field, achieved_psnr_db\n");
    for o in outcomes {
        out.push_str(&format!("{}, {:.3}\n", o.field, o.achieved_psnr));
    }
    let met = outcomes.iter().filter(|o| o.meets_target()).count();
    out.push_str(&format!(
        "# meet-rate: {met}/{} = {:.1}%\n",
        outcomes.len(),
        100.0 * met as f64 / outcomes.len().max(1) as f64
    ));
    out
}

/// CSV emitter for per-field outcomes (machine-readable companion of the
/// text reports).
pub fn outcomes_csv(outcomes: &[FieldOutcome]) -> String {
    let mut out = String::from("field,target_psnr,achieved_psnr,deviation,ratio,meets,error\n");
    for o in outcomes {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{:.3},{},{}\n",
            o.field,
            o.target_psnr,
            o.achieved_psnr,
            o.deviation(),
            o.ratio,
            o.meets_target(),
            o.failure
                .as_ref()
                .map(|f| f.to_string().replace(',', ";"))
                .unwrap_or_default()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(dataset: &str, target: f64, avg: f64, stdev: f64) -> DatasetSummary {
        DatasetSummary {
            dataset: dataset.to_string(),
            target_psnr: target,
            avg,
            stdev,
            meet_rate: 1.0,
            mean_abs_deviation: (avg - target).abs(),
            n_fields: 3,
        }
    }

    #[test]
    fn table2_layout() {
        let rows = vec![
            (
                20.0,
                vec![
                    summary("NYX", 20.0, 24.3, 1.82),
                    summary("ATM", 20.0, 21.9, 3.34),
                ],
            ),
            (
                40.0,
                vec![
                    summary("NYX", 40.0, 41.9, 2.32),
                    summary("ATM", 40.0, 40.9, 1.80),
                ],
            ),
        ];
        let s = render_table2(&rows);
        assert!(s.contains("NYX AVG"));
        assert!(s.contains("ATM STDEV"));
        assert!(s.contains("24.3"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn empty_table_is_empty() {
        assert!(render_table2(&[]).is_empty());
    }

    #[test]
    fn fig2_panel_contains_meet_rate() {
        let outs = vec![
            FieldOutcome {
                field: "A".into(),
                target_psnr: 80.0,
                achieved_psnr: 81.0,
                ratio: 5.0,
                failure: None,
            },
            FieldOutcome {
                field: "B".into(),
                target_psnr: 80.0,
                achieved_psnr: 79.0,
                ratio: 6.0,
                failure: None,
            },
        ];
        let s = render_fig2_panel(80.0, &outs);
        assert!(s.contains("meet-rate: 1/2 = 50.0%"));
        assert!(s.contains("A, 81.000"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let outs = vec![FieldOutcome {
            field: "X".into(),
            target_psnr: 60.0,
            achieved_psnr: 60.5,
            ratio: 12.0,
            failure: None,
        }];
        let csv = outcomes_csv(&outs);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("field,"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("X,60,60.5"));
        assert!(row.ends_with("true,"));
    }
}
