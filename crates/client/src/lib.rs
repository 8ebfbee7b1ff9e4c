//! # irs-client — retired
//!
//! The facade this crate held is now [`irs_engine::Engine`] itself:
//! build one with `irs_engine::Irs::builder()`, mutate through
//! `Engine::writer()`, stream samples with `Engine::sample_stream`. The
//! root `irs` crate keeps `Client` / `ClientWriter` as type aliases of
//! `Engine` / `EngineWriter`. This crate declares no items and stays
//! only as a manifest entry until the next benchmark-only change
//! removes it.
