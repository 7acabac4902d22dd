//! **F3** — PIR communication/computation versus database size, per
//! scheme: trivial download, 2-server linear XOR \[8\], 2-server square
//! (O(√n)), and single-server computational PIR (Goldwasser–Micali).

use rngkit::SeedableRng;
use tdf_bench::Series;
use tdf_pir::store::Database;
use tdf_pir::{cpir, cube, linear, square, trivial};

fn main() {
    let sizes = [64usize, 256, 1024, 4096, 16384];
    let record_size = 32;
    println!("F3 — PIR cost vs database size (record size {record_size} B)\n");
    let mut rng = rngkit::rngs::StdRng::seed_from_u64(tdf_bench::seed_from_env(0xF1C0));
    let cpir_client = cpir::Client::new(&mut rng, 96);

    let mut series = Series::new(
        "fig_pir_cost",
        &[
            "scheme",
            "n",
            "uplink_bits",
            "downlink_bits",
            "total_bits",
            "server_ops",
        ],
    );
    for &n in &sizes {
        let db = Database::new((0..n).map(|i| vec![(i % 251) as u8; record_size]).collect());
        let bit_db = Database::from_bits(&(0..n).map(|i| i % 3 == 0).collect::<Vec<_>>());
        let idx = n / 2;

        let (_, _, triv) = trivial::retrieve(&db, idx);
        let (_, _, lin) = linear::retrieve(&mut rng, &db, 2, idx);
        let (_, _, sq) = square::retrieve(&mut rng, &db, idx);
        let (_, _, cb) = cube::retrieve(&mut rng, &db, 3, idx);
        // cPIR fetches one *bit*; scale below is per-bit and noted.
        let (_, _, cp) = cpir::retrieve_bit(&mut rng, &cpir_client, &bit_db, idx);

        for (scheme, c) in [
            ("trivial", triv),
            ("linear-2server", lin),
            ("square-2server", sq),
            ("cube-8server-d3", cb),
            ("cpir-GM-per-bit", cp),
        ] {
            series.push(&[
                scheme.to_owned(),
                n.to_string(),
                c.uplink_bits.to_string(),
                c.downlink_bits.to_string(),
                c.total_bits().to_string(),
                c.server_ops.to_string(),
            ]);
        }
    }
    println!("{}", series.render());
    series.save().expect("results dir writable");
    println!(
        "Reading: trivial grows linearly in n; the linear scheme's uplink is n bits;\n\
         the square scheme and cPIR grow as \u{221a}n (cPIR pays a ~modulus-size factor\n\
         per bit but needs only ONE server)."
    );
}
