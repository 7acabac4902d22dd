//! **F6** — tracker-attack success versus inference-control regime: the
//! Schlörer tracker \[22\] against no control, query-set-size restriction
//! (several thresholds), output noise \[14\] and exact auditing \[7\], on
//! populations of isolatable targets.

use tdf_bench::{f3, Series};
use tdf_microdata::synth::{patients, PatientConfig};
use tdf_microdata::Dataset;
use tdf_querydb::ast::{CmpOp, Predicate};
use tdf_querydb::control::{Auditor, ControlPolicy};
use tdf_querydb::statdb::StatDb;
use tdf_querydb::tracker::disclose_individual;

/// Picks sample-unique targets and a characteristic predicate for each.
fn targets(data: &Dataset, max: usize) -> Vec<(usize, Predicate)> {
    let mut out = Vec::new();
    for (key, members) in data.quasi_identifier_groups() {
        if members.len() == 1 && out.len() < max {
            let h = key[0].as_f64().unwrap();
            let w = key[1].as_f64().unwrap();
            let pred =
                Predicate::cmp("height", CmpOp::Eq, h).and(Predicate::cmp("weight", CmpOp::Eq, w));
            out.push((members[0], pred));
        }
    }
    out
}

fn main() {
    let data = patients(&PatientConfig {
        n: 150,
        seed: tdf_bench::seed_from_env(0xD0_C7),
        ..Default::default()
    });
    let tracker = Predicate::cmp("aids", CmpOp::Eq, false);
    let victims = targets(&data, 20);
    println!(
        "F6 — tracker attack on an interactive statistical database \
         (n = {}, {} sample-unique targets)\n",
        data.num_rows(),
        victims.len()
    );

    let regimes: Vec<(String, Box<dyn Fn() -> ControlPolicy>)> = vec![
        ("no control".to_owned(), Box::new(|| ControlPolicy::None)),
        (
            "size>=3".to_owned(),
            Box::new(|| ControlPolicy::SizeRestriction { min_size: 3 }),
        ),
        (
            "size>=10".to_owned(),
            Box::new(|| ControlPolicy::SizeRestriction { min_size: 10 }),
        ),
        (
            "size>=25".to_owned(),
            Box::new(|| ControlPolicy::SizeRestriction { min_size: 25 }),
        ),
        (
            "noise sd=5".to_owned(),
            Box::new(|| ControlPolicy::noise(5.0, 0xF6)),
        ),
    ];

    let mut series = Series::new(
        "fig_tracker",
        &["regime", "exact_disclosures", "targets", "success_rate"],
    );
    for (name, make_policy) in &regimes {
        let mut exact = 0usize;
        for (victim, pred) in &victims {
            let mut db = StatDb::new(data.clone(), make_policy());
            let truth = data.value(*victim, 2).as_f64().unwrap();
            if let Some(v) = disclose_individual(&mut db, "blood_pressure", pred, &tracker)
                .expect("queries are valid")
            {
                if (v - truth).abs() < 1e-6 {
                    exact += 1;
                }
            }
        }
        let rate = exact as f64 / victims.len() as f64;
        println!(
            "{name:<12} exact disclosures: {exact}/{} ({rate:.2})",
            victims.len()
        );
        series.push(&[
            name.clone(),
            exact.to_string(),
            victims.len().to_string(),
            f3(rate),
        ]);
    }

    // DP regime: Laplace answers from a fresh budget per victim.
    let mut exact = 0usize;
    for (victim, pred) in &victims {
        let mut dp = tdf_querydb::dp::DpPolicy::new(0.5, 100.0, 0xD9).with_range(
            "blood_pressure",
            100.0,
            180.0,
        );
        let truth = data.value(*victim, 2).as_f64().unwrap();
        // Drive the tracker by hand against the DP policy.
        let mut answer = |src: &str| -> Option<f64> {
            let q = tdf_querydb::parser::parse(src).unwrap();
            let e = tdf_querydb::engine::evaluate(&data, &q).unwrap();
            dp.apply_eval(&q, &e).point()
        };
        let t = "aids = N";
        let c = pred.to_string();
        let probes = [
            format!("SELECT SUM(blood_pressure) FROM t WHERE ({c}) OR {t}"),
            format!("SELECT SUM(blood_pressure) FROM t WHERE ({c}) OR NOT {t}"),
            format!("SELECT SUM(blood_pressure) FROM t WHERE {t}"),
            format!("SELECT SUM(blood_pressure) FROM t WHERE NOT {t}"),
        ];
        let vals: Vec<Option<f64>> = probes.iter().map(|p| answer(p)).collect();
        if let [Some(a), Some(b), Some(cc), Some(dd)] = vals[..] {
            let inferred = a + b - (cc + dd);
            if (inferred - truth).abs() < 1e-6 {
                exact += 1;
            }
        }
    }
    let rate = exact as f64 / victims.len() as f64;
    println!(
        "{:<12} exact disclosures: {exact}/{} ({rate:.2})",
        "dp eps=0.5",
        victims.len()
    );
    series.push(&[
        "dp_eps0.5".to_owned(),
        exact.to_string(),
        victims.len().to_string(),
        f3(rate),
    ]);

    // Auditing regime (stateful per attack, constructed fresh each victim).
    let mut exact = 0usize;
    for (victim, pred) in &victims {
        let mut db = StatDb::new(
            data.clone(),
            ControlPolicy::Audit(Auditor::new("blood_pressure", data.num_rows())),
        );
        let truth = data.value(*victim, 2).as_f64().unwrap();
        if let Some(v) = disclose_individual(&mut db, "blood_pressure", pred, &tracker)
            .expect("queries are valid")
        {
            if (v - truth).abs() < 1e-6 {
                exact += 1;
            }
        }
    }
    let rate = exact as f64 / victims.len() as f64;
    println!(
        "{:<12} exact disclosures: {exact}/{} ({rate:.2})",
        "auditing",
        victims.len()
    );
    series.push(&[
        "auditing".to_owned(),
        exact.to_string(),
        victims.len().to_string(),
        f3(rate),
    ]);
    series.save().expect("results dir writable");

    println!(
        "\nReading: size restriction alone does NOT stop the tracker (the 1980 result);\n\
         output noise destroys exactness; exact auditing refuses the closing query."
    );
}
