//! Ex. 3 of the paper: a historical cryptocurrency database. Each candle's
//! [low, high] price range is an interval; "when did BTC trade inside
//! [30,000, 40,000]?" is a range query over those intervals. Volume-
//! weighted sampling (AWIT behind the `Irs::builder()` facade) surfaces
//! the candles that mattered most, with probability exactly proportional
//! to traded volume.
//!
//! ```sh
//! cargo run --release --example crypto_candles
//! ```

use irs::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A random-walk price series: one [low, high] candle per minute over
    // ~two years, plus a traded volume per candle.
    let n = 1_000_000;
    let mut rng = StdRng::seed_from_u64(2024);
    let mut price: f64 = 35_000.0;
    let mut data: Vec<Interval64> = Vec::with_capacity(n);
    let mut volumes: Vec<f64> = Vec::with_capacity(n);
    for _ in 0..n {
        let drift: f64 = rng.random_range(-0.003..0.003);
        price = (price * (1.0 + drift)).clamp(1_000.0, 120_000.0);
        let spread = price * rng.random_range(0.0002..0.01);
        let lo = (price - spread / 2.0) as i64;
        let hi = (price + spread / 2.0) as i64;
        data.push(Interval::new(lo, hi.max(lo + 1)));
        // Volume spikes on big moves.
        volumes.push(1.0 + 5_000.0 * drift.abs() + rng.random_range(0.0..10.0));
    }
    println!(
        "{n} candles, price domain {:?}",
        irs::domain_bounds(&data).unwrap()
    );

    // The builder validates the volumes up front (a NaN or negative
    // volume would be a typed BuildError naming the row), then builds
    // an AWIT for volume-proportional IRS.
    let t = Instant::now();
    let engine = Irs::builder()
        .kind(IndexKind::Awit)
        .weights(volumes.clone())
        .seed(9)
        .build(&data)?;
    println!("AWIT engine built in {:?}", t.elapsed());

    // "When was BTC inside [30k, 40k]?"
    let band = Interval::new(30_000, 40_000);
    let t = Instant::now();
    let hits = engine.count(band)?;
    let band_volume: f64 = engine
        .search(band)?
        .iter()
        .map(|&id| volumes[id as usize])
        .sum();
    println!(
        "\n{} candles touched {band:?} (total volume {:.0}) — counted in {:?}",
        hits,
        band_volume,
        t.elapsed()
    );

    // Volume-weighted sample: heavy-volume candles dominate, as they
    // should for a "what moved the market in this band" view.
    let s = 20;
    let t = Instant::now();
    let sample = engine.sample_weighted(band, s)?;
    println!("{s} volume-weighted candle samples in {:?}:", t.elapsed());
    for id in &sample {
        let iv = data[*id as usize];
        println!(
            "  minute {:>7}: range {iv:?}, volume {:8.1}",
            id, volumes[*id as usize]
        );
    }

    // Sanity: the average volume of weighted samples must exceed the
    // band's plain average (heavier candles are drawn more often). The
    // big sample comes off a stream — candidate computation ran once,
    // 20,000 draws amortized behind it.
    let big_sample: Vec<ItemId> = engine.weighted_sample_stream(band)?.take(20_000).collect();
    let avg_sampled: f64 = big_sample
        .iter()
        .map(|&id| volumes[id as usize])
        .sum::<f64>()
        / big_sample.len() as f64;
    let avg_band = band_volume / hits as f64;
    println!("\navg volume: weighted samples {avg_sampled:.1} vs uniform band {avg_band:.1}");
    assert!(
        avg_sampled > avg_band,
        "volume weighting should bias samples toward heavy candles"
    );

    // And the facade stays honest about what this build cannot do:
    // an AWIT holding real volumes refuses *uniform* sampling with a
    // typed error instead of a silently wrong answer.
    assert!(!engine.capabilities().uniform_sample);
    assert!(matches!(
        engine.sample(band, 5),
        Err(QueryError::UnsupportedOperation { .. })
    ));
    Ok(())
}
